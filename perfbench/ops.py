"""Workload inputs, checked output fields and the failure rule.

A workload is a list of ops; an op is one generated sgcalc JSON config that
the benchmark feeds to ``sgcalc.cli.load_config`` + ``sgcalc.cli.run``.
Inputs depend only on the input family ``seed % FAMILIES``; a reference is
shipped for every family (see make_refs.py), so any seed can be checked.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

FAMILIES = 32

# Each workload's per-op time limit: an op that runs longer fails, and a
# failed op is charged this limit in place of its real time.
OP_LIMIT_S = {"verify_all": 60.0, "shift_refine": 15.0, "off_shift": 30.0}

# Output fields compared with the reference: every leaf under one of these
# keys.  Other fields, and fields the reference lacks, are ignored.
CHECKED_KEYS = frozenset({
    "norm_F", "margin", "eta", "min_margin", "max_lhs", "lhs", "bound",
    "identity_residual", "worst_residual", "residual", "passed",
    "delta", "cond2_margin", "m", "rho", "sup_ray", "max_gap",
    "min_distance", "contraction_margin", "max_gap_by_n",
})
RTOL = 1e-6
ATOL = 1e-9

# Artifact written by each command next to summary.json.
ARTIFACT = {
    "verify-all": "verify_all.json", "curve": "curve.json",
    "idempotents": "idempotents.json", "sharpness": "sharpness.json",
    "lemma27": "lemma27.json", "resolvent-check": "resolvent_check.json",
    "sweep": "sweep.csv",
}


def _shift_sweep(measure: str, n: int, k: int) -> dict:
    return {"command": "sweep", "measure": measure,
            "backend": {"kind": "nilpotent_shift", "n": n},
            "u_grid": {"values": [k / n]}}


def verify_all(rng) -> list:
    """The shipped check suite; its inputs are fixed, so rng is unused."""
    return [("verify-all", {"command": "verify-all"})]


def shift_refine(rng) -> list:
    """One large shift-model norm per op, a fixed number on each norm route.

    step offsets run over k..3k, consecutive integers, so gcd 1: full-size
    dense SVD at n <= 2048.  delta-difference at u = k/n has offsets k, 2k:
    k = 1 keeps the full size (svds at n = 4096), k >= 64 reduces the SVD to
    a chain of at most 64 cells.
    """
    def k(lo, hi):
        return int(rng.integers(lo, hi))

    return [
        ("step-n1024", _shift_sweep("step", 1024, k(1, 342))),
        ("dd-n1024-full", _shift_sweep("delta-difference", 1024, 1)),
        ("step-n2048", _shift_sweep("step", 2048, k(1, 683))),
        ("dd-n2048-gcd", _shift_sweep("delta-difference", 2048, k(64, 1024))),
        ("dd-n4096-full", _shift_sweep("delta-difference", 4096, 1)),
        ("dd-n4096-gcd", _shift_sweep("delta-difference", 4096, k(64, 2048))),
    ]


def off_shift(rng) -> list:
    """Every command off the shift model; the shift-norm route does no work.

    The seed moves the inputs but not the amount of work.  The resolvent
    generator is normal with a fixed real spectrum whose top pair sits at -7
    and the rest at or below -9, so ||T(t)|| = e^{-7t}, the open-ended
    resolvent integral stops at the same panel and power iteration on T(t)
    converges at the same rate for every seed.  The RL sweep's u grid is
    fixed: power iteration on its quadrature-error matrices converges in an
    erratic number of steps, so a seeded grid would make its cost seed-bound.
    """
    n = 128
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    B = np.zeros((n, n))
    for j in range(0, n, 2):  # eigenvalues a +- i b
        a, b = (-7.0 if j == 0 else -9.0 - 3.0 * j / n), rng.uniform(-3.0, 3.0)
        B[j:j + 2, j:j + 2] = [[a, b], [-b, a]]
    A = Q @ B @ Q.T
    lam = []
    while len(lam) < 20:  # right half-plane, away from the poles 1..20
        z = complex(rng.uniform(0.0, 5.0), rng.uniform(-3.0, 3.0))
        if min(abs(z - j) for j in range(1, 21)) > 0.15:
            lam.append([z.real, z.imag])
    dd = {"atoms": [{"t": 1.0, "re": 1.0}, {"t": 2.0, "re": -1.0}]}
    return [
        *[(f"curve-{m}", {"command": "curve", "measure": m})
          for m in ("delta-difference", "four-atom", "step")],
        ("idempotents", {
            "command": "idempotents", "measure": "delta-difference",
            "backend": {"kind": "diagonal-range", "start": 1, "stop": 200},
            "u": float(rng.uniform(0.0009, 0.0011)), "m": 150, "m_list": [50, 100, 150, 200],
            "t_grid": [float(10 ** rng.uniform(-4, -2))]}),
        ("sharpness", {
            "command": "sharpness", "measure": "delta-difference",
            "n_list": [1000, 10000, 100000],
            "u_grid": {"values": sorted(float(u) for u in rng.uniform(0.05, 3.0, 4))}}),
        ("lemma27", {
            "command": "lemma27",
            "distribution": {"order": 1, "components": [dd, dd]},
            "backend": {"kind": "diagonal-range", "start": 1, "stop": 20},
            "lambda_grid": lam}),
        ("resolvent-check", {
            "command": "resolvent-check", "seed": 0,
            "backend": {"kind": "matrix", "matrix": [[float(x) for x in row] for row in A]},
            "tolerances": {"resolvent_identity": 1e-4}}),
        ("rl-step-sweep", {
            "command": "sweep", "measure": "step",
            "backend": {"kind": "riemann_liouville", "n": 128},
            "u_grid": {"values": [0.03, 0.06, 0.1, 0.17, 0.28, 0.45]}}),
    ]


WORKLOADS = {"verify_all": verify_all, "shift_refine": shift_refine, "off_shift": off_shift}


def build(workload: str, seed: int) -> tuple[int, list]:
    """(input family, [(op name, raw config)]) for a workload and seed."""
    family = seed % FAMILIES
    return family, WORKLOADS[workload](np.random.default_rng(family))


# ---------------------------------------------------------------------------
# checked fields


def _leaves(obj, path, out, checked=False):
    if isinstance(obj, dict):
        for key, val in obj.items():
            _leaves(val, f"{path}.{key}", out, checked or key in CHECKED_KEYS)
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            _leaves(val, f"{path}[{i}]", out, checked)
    elif checked:
        out[path] = obj


def checked_fields(command: str, outdir: Path) -> dict:
    """The named output fields of one finished op, flattened to path -> value."""
    out: dict = {}
    summary = outdir / "summary.json"
    if summary.exists():
        _leaves(json.loads(summary.read_text()), "summary", out)
    artifact = outdir / ARTIFACT.get(command, "")
    if artifact.is_file() and artifact.suffix == ".json":
        _leaves(json.loads(artifact.read_text()), artifact.stem, out)
    elif artifact.is_file():
        with artifact.open() as fh:
            rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
        _leaves(rows, "sweep", out)
    return out


def _agrees(got, want) -> bool:
    if type(got) is not type(want) or not isinstance(want, float):
        return type(got) is type(want) and got == want  # flags, counts, exit codes
    return got == want or abs(got - want) <= ATOL + RTOL * abs(want)


def mismatches(result: dict, ref: dict) -> list:
    """Reference fields that the result lacks or misses beyond RTOL/ATOL."""
    return [f"{key}: got {result.get(key, 'nothing')!r}, want {want!r}"
            for key, want in ref.items()
            if key not in result or not _agrees(result[key], want)]
