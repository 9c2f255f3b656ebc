"""Tests of the benchmark itself: failure rule, route classifier, tracing, hygiene.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import toeplitz

import ops
import run
import spans
from sgcalc import calculus, linalg, semigroups

ROOT = run.ROOT


@pytest.fixture(scope="module")
def sg_cli():
    return run.import_sgcalc()


def _configs(workload, family, names, tmp):
    _, op_list = ops.build(workload, family)
    configs, _ = run.write_configs([op for op in op_list if op[0] in names], tmp / "configs")
    refs = json.loads((run.HERE / "refs" / f"{workload}.json").read_text())
    return configs, refs


def test_reference_passes_and_perturbed_reference_fails(sg_cli, tmp_path):
    configs, refs = _configs("off_shift", 5, {"curve-step", "lemma27"}, tmp_path)
    clean = run.run_pass(sg_cli, configs, refs, tmp_path / "out", 30.0)
    assert clean["failures"] == [] and clean["wrong"] == 0

    key = configs[1][3]
    fields = refs[key]["fields"]
    for path, bad in (("summary.max_lhs", fields["summary.max_lhs"] * (1 + 1e-4)),
                      ("summary.passed", False), ("exit", 1)):
        perturbed = {**refs, key: {**refs[key], "fields": {**fields, path: bad}}}
        res = run.run_pass(sg_cli, configs, perturbed, tmp_path / "out", 30.0)
        assert res["wrong"] == 1
        assert [f["op"] for f in res["failures"]] == ["lemma27"]
        assert path in res["failures"][0]["why"]
        assert res["wall_s"] >= 30.0  # the failed op is charged the limit


def test_tolerance_and_missing_fields():
    ref = {"a": 1.0, "b": 2, "c": True}
    assert ops.mismatches({"a": 1.0 + 1e-9, "b": 2, "c": True, "extra": 5}, ref) == []
    assert len(ops.mismatches({"a": 1.0 + 1e-5, "b": 2, "c": True}, ref)) == 1
    assert len(ops.mismatches({"a": 1.0, "b": 2.0, "c": 1}, ref)) == 2
    assert len(ops.mismatches({"a": 1.0}, ref)) == 2


def _chain_norm(op, route, m):
    """Norm of the size-m operator that the classified route factorizes."""
    if route == "diag":
        return float(np.max(np.abs(op.diag)))
    if route == "generic":
        return float(np.linalg.norm(op.matrix, 2))
    if route == "shift_zero":
        return 0.0
    live = {k: w for k, w in op.shift_weights.items() if k < op.dim and w != 0}
    g = math.gcd(*live)
    col = np.zeros(m, dtype=complex)
    for k, w in live.items():
        col[k // g if g > 1 else k] += w
    return float(np.linalg.norm(toeplitz(col, np.zeros(m)), 2))


@pytest.mark.parametrize("weights, n, route, m", [
    ({1: 1.0, 2: -1.0}, 40, "shift_dense", 40),
    ({3: 1.0, 6: -1.0}, 40, "shift_dense", 14),
    ({5: 2.0 + 1j}, 23, "shift_dense", 5),
    ({0: 0.5, 4: 1.0, 8: -0.25, 50: 3.0}, 30, "shift_dense", 8),
    ({0: 0.5, 3: 1.0, 4: -0.25}, 30, "shift_dense", 30),
    ({7: 1.0, 60: 2.0}, 30, "shift_dense", 5),
    ({40: 1.0}, 30, "shift_zero", 0),
])
def test_route_classifier_agrees_with_dense_norm(weights, n, route, m):
    op = calculus.OperatorValue(None, None, (), 0.0, shift_weights=weights, dim=n)
    assert spans.classify_norm(op)[:2] == (route, m)
    want = np.linalg.norm(op.to_dense(), 2)
    assert _chain_norm(op, route, m) == pytest.approx(want, rel=1e-12, abs=1e-14)
    assert op.norm() == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_route_classifier_on_diag_generic_and_large_shift():
    rng = np.random.default_rng(0)
    d = calculus.OperatorValue(None, rng.normal(size=7) + 0j, (), 0.0)
    M = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    g = calculus.OperatorValue(M, None, (), 0.0)
    for op, route in ((d, "diag"), (g, "generic")):
        r, m, _ = spans.classify_norm(op)
        assert r == route
        assert _chain_norm(op, r, m) == pytest.approx(np.linalg.norm(op.to_dense(), 2))
    big = calculus.OperatorValue(None, None, (), 0.0, shift_weights={1: 1.0, 2: -1.0}, dim=4096)
    assert spans.classify_norm(big) == ("shift_svds", 4096, False)
    half = calculus.OperatorValue(None, None, (), 0.0, shift_weights={2: 1.0, 4: -1.0}, dim=4096)
    assert spans.classify_norm(half) == ("shift_dense", 2048, True)


def test_install_wraps_every_binding_and_uninstall_restores(sg_cli):
    originals = (linalg.op_norm, calculus.op_norm, semigroups.op_norm,
                 semigroups.SemigroupBackend.materialize, calculus.OperatorValue.norm)
    assert calculus.op_norm is linalg.op_norm
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        assert calculus.op_norm is linalg.op_norm is semigroups.op_norm
        assert linalg.op_norm is not originals[0]
        linalg.op_norm(np.eye(3))
    finally:
        spans.uninstall(patches)
    assert (linalg.op_norm, calculus.op_norm, semigroups.op_norm,
            semigroups.SemigroupBackend.materialize, calculus.OperatorValue.norm) == originals
    summary = tracer.summary()
    assert summary["calls"]["linalg.op_norm"] == 1
    assert summary["calls"]["linalg.power_opnorm"] == 1
    assert summary["self_s"]["linalg.op_norm"] >= 0.0


def test_traced_counts_repeat_exactly(sg_cli, tmp_path):
    configs, refs = _configs("off_shift", 2, {"rl-step-sweep", "resolvent-check"}, tmp_path)
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        patches = spans.install(tracer)
        try:
            res = run.run_pass(sg_cli, configs, refs, tmp_path / "out", 30.0)
        finally:
            spans.uninstall(patches)
        assert res["failures"] == []
        m = run.layer_metrics(tracer, 1.0, 1.0, res["output_bytes"])
        counts.append({k: v for k, (v, unit) in m.items() if unit != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["semigroups.materialize.calls"] > counts[0]["semigroups.materialize.distinct_t"] > 0
    assert counts[0]["calculus.norm.shift_dense.calls"] == 0


def _git_status():
    return subprocess.run(["git", "status", "--porcelain", "--untracked-files=all"],
                          cwd=ROOT, capture_output=True, text=True, check=True).stdout


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs a git checkout")
def test_benchmark_run_prints_contract_and_leaves_git_status_clean():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    before = _git_status()
    for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", "off_shift", "--seed", "7",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in wanted}
        assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in wanted)
    assert _git_status() == before


def test_benchmark_fails_without_the_program():
    """In a directory holding only the benchmark, it exits non-zero and prints no result."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, Path(tmp) / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "off_shift", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
