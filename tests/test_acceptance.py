"""End-to-end acceptance gate.

Each test covers one headline guarantee of the toolkit at desk scale and
prints a single machine-greppable PASS/FAIL line; the suite as a whole is
the release criterion.  The shipped checks in configs/ run once, through
`sgcalc verify-all`; tests that gate on their numbers read that run's
artifacts instead of recomputing them.
"""

import csv
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from sgcalc.calculus import ep_calc, func_calc, lemma_27_check, sweep
from sgcalc.cli import (
    _DEGENERATE_TOL,
    _WINDING_TOL,
    CONFIG_DIR,
    NAMED_MEASURES,
    _default_lambda_grid,
    main,
)
from sgcalc.complexfn import babylem_radius, jordan_curve, ray_max
from sgcalc.measures import (
    CompactDistribution,
    CompactMeasure,
    laplace,
    laplace_distribution,
)
from sgcalc.semigroups import diagonal_semigroup, matrix_semigroup, nilpotent_shift
from sgcalc.spectral import (
    bounded_generator_check,
    build_idempotents,
    character_set,
    criterion_check,
    separation_certificate,
    sharpness_demo,
)

D12 = NAMED_MEASURES["delta-difference"]()
FOUR = NAMED_MEASURES["four-atom"]()
STEP = NAMED_MEASURES["step"]()


def _report(tag: str, ok: bool, detail: str):
    print(f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def verify_all(tmp_path_factory):
    """Output directory of one `sgcalc verify-all` run over configs/."""
    out = tmp_path_factory.mktemp("verify_all")
    main(["verify-all", "--output", str(out)])
    return out


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def _sweep_csv(path: Path) -> dict:
    """Columns of a sweep.csv, parsed back to floats."""
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    return {key: [float(r[key]) for r in rows] for key in rows[0]}


@pytest.mark.parametrize("stem", sorted(p.stem for p in CONFIG_DIR.glob("*.json")))
def test_registry_check(verify_all, stem):
    summary = _json(verify_all / stem / "summary.json")
    assert _json(verify_all / "verify_all.json")["checks"][stem] == summary
    _report(f"registry {stem}", summary["passed"] is True,
            summary.get("detail", f"gate in configs/{stem}.json"))


def test_sweep_alone_matches_its_verify_all_run(verify_all, tmp_path):
    # wide shift sections take Lanczos from a fixed start vector, so a norm
    # does not depend on the norms computed before it in the process
    out = tmp_path / "sweep-step"
    assert main(["run", "--config", str(CONFIG_DIR / "sweep-step.json"),
                 "--output", str(out)]) == 0
    assert (out / "sweep.csv").read_bytes() == (
        verify_all / "sweep-step" / "sweep.csv").read_bytes()


def test_01_flagship_lower_estimate_sweep():
    t0 = time.perf_counter()
    sg = nilpotent_shift(512)
    rows = sweep(sg, D12, [k / 512 for k in range(1, 256)])
    elapsed = time.perf_counter() - t0
    min_margin = min(r.margin for r in rows)
    min_norm = min(r.norm_F for r in rows)
    ok = (
        len(rows) == 255
        and min_margin > 0.1
        and min_norm >= math.sqrt(2.0) - 1e-9
        and elapsed < 60.0
    )
    _report(
        "01 flagship sweep",
        ok,
        f"min margin {min_margin:.4f}, min norm {min_norm:.4f}, {elapsed:.1f}s",
    )


def test_02_sweep_generality_atoms_and_density(verify_all):
    four = _sweep_csv(verify_all / "sweep-four-atom" / "sweep.csv")
    step = _sweep_csv(verify_all / "sweep-step" / "sweep.csv")
    budget = _json(verify_all / "sweep-step" / "summary.json")["max_quadrature_budget"]
    us = [k / 512 for k in range(1, 65)]  # u <= 1/8
    ok = (
        four["u"] == us
        and step["u"] == us
        and all(m > 0 for m in four["margin"])
        and all(m > 0 for m in step["margin"])
        and budget < 1e-8
    )
    _report(
        "02 sweep generality",
        ok,
        f"four-atom min margin {min(four['margin']):.4f}, "
        f"step min margin {min(step['margin']):.4f}, "
        f"budget {budget:.2e}",
    )


def test_03_resolvent_difference_bound(verify_all):
    rep = _json(verify_all / "lemma24" / "lemma24.json")
    grid = [complex(r["lambda"]["re"], r["lambda"]["im"]) for r in rep["rows"]]
    assert len(grid) == 20
    assert all(l.real >= 0 and abs(l) <= 5 for l in grid)
    max_lhs = max(r["lhs"] for r in rep["rows"])
    ok = max_lhs <= 3 and rep["identity_residual"] <= 1e-7
    _report(
        "03 resolvent-difference bound",
        ok,
        f"max lhs {max_lhs:.4f} <= 3, identity residual "
        f"{rep['identity_residual']:.2e}",
    )


def test_04_symmetrized_sweep_complex_measure(verify_all):
    # symmetrized_sweep raises unless both paths agree to 1e-9, and a raise
    # is recorded in the summary as a failed check
    summary = _json(verify_all / "symmetrized-sweep" / "summary.json")
    rows = _sweep_csv(verify_all / "symmetrized-sweep" / "sweep.csv")
    min_margin = min(rows["margin"])
    ok = (
        "error" not in summary
        and rows["u"] == [k / 512 for k in range(1, 129)]  # u <= 1/4
        and min_margin > 0
    )
    _report(
        "04 symmetrized sweep",
        ok,
        f"min margin {min_margin:.4f}, both paths agree to 1e-9",
    )


def test_05_level_curve_construction():
    t0 = time.perf_counter()
    ray = ray_max(D12)
    curve = jordan_curve(D12, ray)
    elapsed = time.perf_counter() - t0

    # condition (i): growth of |F| along the ascent segment
    ts = np.linspace(0.0, 1.0, 1001)[1:]
    zs = curve.alpha + ts * (curve.a1 - curve.alpha)
    vals = np.abs(laplace(D12, zs))
    lower = curve.f_alpha + curve.delta * np.abs(zs - curve.alpha) ** curve.m
    cond1 = bool(curve.delta > 0 and np.all(vals >= lower - 1e-12))

    # condition (ii): |F| stays above |F(a0)| on the polygonal part
    pts = list(curve.gamma1_vertices) + [curve.a3]
    cond2 = curve.cond2_margin > 0
    for z1, z2 in zip(pts, pts[1:]):
        zz = z1 + np.linspace(0.0, 1.0, 1000) * (z2 - z1)
        cond2 = cond2 and bool(np.all(np.abs(laplace(D12, zz)) > curve.f_a0_abs))

    verts = curve.full_vertices
    simple = verts[0] == verts[-1] and len(set(verts[:-1])) == len(verts) - 1
    ok = cond1 and cond2 and simple and curve.m == 2 and elapsed < 30.0
    _report(
        "05 level curve",
        ok,
        f"m={curve.m}, delta={curve.delta:.4g}, cond2 margin "
        f"{curve.cond2_margin:.4g}, {elapsed:.1f}s",
    )


def test_06_disk_circle_separation_radii():
    worst = math.inf
    for mu in (D12, FOUR, STEP):
        pair = babylem_radius(mu)
        theta = np.linspace(0.0, 2 * math.pi, 720)
        ring = np.exp(1j * theta)
        circle_min = float(np.min(np.abs(laplace(mu, pair.R * ring))))
        rad = np.linspace(0.0, pair.r, 60)[:, None]
        disk_sup = float(np.max(np.abs(laplace(mu, rad * ring[None, :]))))
        worst = min(worst, circle_min - disk_sup)
    ok = worst >= 1e-3
    _report("06 disk/circle radii", ok, f"worst separation margin {worst:.4g}")


def test_07_sharpness_on_multiplication_model():
    us = [0.1, 0.5, 1.0, 2.0]
    ray = ray_max(D12)
    gaps = [sharpness_demo(n, D12, us, ray).max_gap for n in (1000, 10_000, 100_000)]
    ok = gaps[-1] <= 1e-4 and gaps[1] <= gaps[0] and gaps[2] <= gaps[1]
    _report(
        "07 sharpness",
        ok,
        "gaps " + ", ".join(f"{g:.3e}" for g in gaps) + " (monotone, <=1e-4)",
    )


def test_08_idempotent_pipeline():
    u = 1e-3
    sg = diagonal_semigroup(np.arange(1.0, 201.0))
    cs = character_set(sg)

    crit = criterion_check(cs, D12, u)
    row = crit.row
    strict = row.rho < row.sup_ray * (1.0 - _DEGENERATE_TOL) and row.rho < 0.25

    chain = build_idempotents(cs, [50, 100, 150, 200])
    chain_ok = chain.exhaustive
    for i in range(len(chain.m_list)):
        P = chain.projection(i)
        chain_ok = chain_ok and bool(np.array_equal(P @ P, P))

    rows = bounded_generator_check(chain, [u])
    defect_100 = next(r.defect for r in rows if r.m == 100)
    defect_ok = abs(defect_100 - (1.0 - math.exp(-0.1))) <= 1e-10

    # largest slice fitting the separation window at this u
    cert, _ = separation_certificate(cs, D12, u, 150, crit.ray, crit.radii)
    cert_ok = (
        cert.curve_min_excess >= 0
        and cert.winding_defect <= _WINDING_TOL
        and cert.min_distance > 0
        and all(margin > 0 for _, margin in cert.lam_margins)
    )

    ok = strict and chain_ok and defect_ok and cert_ok
    _report(
        "08 idempotent pipeline",
        ok,
        f"rho {row.rho:.4f} < 0.25, defect err "
        f"{abs(defect_100 - (1 - math.exp(-0.1))):.1e}, cert distance "
        f"{cert.min_distance:.3f}",
    )


def test_09_spectral_mapping_on_diagonal_models():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        lam = rng.uniform(0.1, 5.0, dim) + 1j * rng.uniform(-3.0, 3.0, dim)
        sg = matrix_semigroup(np.diag(-lam))
        n_atoms = int(rng.integers(1, 5))
        atoms = tuple(
            (float(t), complex(w)) for t, w in zip(
                rng.uniform(0.2, 4.0, n_atoms),
                rng.normal(size=n_atoms) + 1j * rng.normal(size=n_atoms),
            )
        )
        mu = CompactMeasure(atoms, ())
        u = float(rng.uniform(0.05, 2.0))
        eigs = np.linalg.eigvals(func_calc(sg, mu, u).to_dense())
        expected = laplace(mu, u * lam)
        for v in expected:
            worst = max(worst, float(np.min(np.abs(eigs - v))))
        for e in eigs:
            worst = max(worst, float(np.min(np.abs(expected - e))))
    ok = worst <= 1e-10
    _report("09 spectral mapping", ok, f"worst eigenvalue mismatch {worst:.2e}")


def test_10_distribution_calculus_and_order_p_bound():
    phi = CompactDistribution(1, (D12, D12))

    # scalar oracle on a diagonal generator through the generator-power path
    lam = np.arange(1.0, 9.0)
    from sgcalc.semigroups import matrix_semigroup

    u = 0.5
    via_gen = np.diag(ep_calc(matrix_semigroup(np.diag(-lam)), phi, u).to_dense())
    oracle = laplace_distribution(phi, u * lam)
    scalar_err = float(np.max(np.abs(via_gen - oracle)))

    rep = lemma_27_check(
        diagonal_semigroup(np.arange(1.0, 21.0)), phi,
        _default_lambda_grid(avoid_integers=True),
    )
    bound_ok = all(r[3] > 0 for r in rep.rows)

    ok = scalar_err <= 1e-9 and bound_ok
    _report(
        "10 distribution calculus",
        ok,
        f"scalar oracle err {scalar_err:.2e}, order-p bound margins positive",
    )


def test_11_renormalization_harness(verify_all):
    rep = _json(verify_all / "renormalization" / "summary.json")
    ok = rep["contraction_margin"] >= 0 and rep["commutant_ok"]
    _report(
        "11 renormalization",
        ok,
        f"contraction margin {rep['contraction_margin']:.4f}, commutant checks "
        f"{'ok' if rep['commutant_ok'] else 'violated'}",
    )
