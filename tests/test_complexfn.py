import itertools
import math
import time
from collections import deque

import numpy as np
import pytest

from sgcalc import complexfn
from sgcalc.complexfn import (
    _is_simple_polyline,
    babylem_radius,
    jordan_curve,
    ray_max,
    separation_curve,
    taylor_coefficients,
    vanishing_order,
)
from sgcalc.cli import NAMED_MEASURES
from sgcalc.errors import (
    AllZeroError,
    ComponentClosedError,
    ConfigError,
    NoCircleFoundError,
    OrderNotFoundError,
    SimplicityRepairFailedError,
    WindowViolationError,
)
from sgcalc.measures import (
    convolve,
    dirac,
    from_atoms,
    indicator,
    laplace,
    scale,
    tv_moment,
    zero_measure,
)
from sgcalc.semigroups import diagonal_semigroup
from sgcalc.spectral import character_set

D12 = from_atoms([(1.0, 1.0), (2.0, -1.0)])
D1234 = from_atoms([(1.0, 1.0), (2.0, -3.0), (3.0, 1.0), (4.0, 1.0)])
STEP = indicator(1, 2) + indicator(2, 3, -1.0)
REAL_MEASURES = [D12, D1234, STEP]
# F = y (1 - y)(2 - y) with y = e^{-x/2}: F'(x) = 0 at y = 1 - 1/sqrt(3)
CUBIC = from_atoms([(0.5, 2.0), (1.0, -3.0), (1.5, 1.0)])
CUBIC_ALPHA = -2.0 * math.log(1.0 - 1.0 / math.sqrt(3.0))

# zero-mass three-atom measures: each triple of atoms in {0.5, 1, ..., 3},
# weighted by the patterns in turn
_TRIPLES = itertools.combinations([0.5 * k for k in range(1, 7)], 3)
_PATTERNS = [(1, -2, 1), (1, -3, 2), (2, -3, 1), (1, 1, -2), (-1, 3, -2)]
THREE_ATOM = {f"{ts}{w}": from_atoms(list(zip(ts, w)))
              for ts, w in zip(_TRIPLES, itertools.cycle(_PATTERNS))}


class TestTransform:
    @pytest.mark.parametrize("name", sorted(NAMED_MEASURES))
    def test_decay_bound_is_the_closed_form(self, name):
        # ray_max samples [0, X], with X grown from the bound
        # |F(x)| <= tv0 * exp(-x * support_min); a different rounding of it
        # would move X and every artifact downstream
        mu = NAMED_MEASURES[name]()
        tv0 = tv_moment(mu, 0)
        floor = 1e-9 * tv0
        x = max(4.0 * mu.support_max, 1.0)
        while tv0 * math.exp(-x * mu.support_min) >= floor:
            x *= 1.5
        assert complexfn._ray_window(mu) == (x, floor)

    def test_zero_measure_is_refused(self):
        with pytest.raises(AllZeroError):
            ray_max(zero_measure())


class TestRayMax:
    def test_delta_difference_closed_form(self):
        # F(x) = e^{-x} - e^{-2x}, maximized where e^{-x} = 1/2
        ray = ray_max(D12)
        assert ray.alpha == pytest.approx(math.log(2.0), abs=1e-13)
        assert ray.value == pytest.approx(0.25, abs=1e-10)
        assert not ray.sign_flipped

    def test_cubic_closed_form(self):
        ray = ray_max(CUBIC)
        assert ray.alpha == pytest.approx(CUBIC_ALPHA, abs=1e-12)
        y = 1.0 - 1.0 / math.sqrt(3.0)
        assert ray.value == pytest.approx(y * (1 - y) * (2 - y), abs=1e-15)

    def test_sign_normalization(self):
        ray = ray_max(-D12)
        assert ray.value == pytest.approx(0.25, abs=1e-10)
        assert ray.sign_flipped

    def test_four_atom_brute_force_oracle(self):
        ray = ray_max(D1234)
        xs = np.linspace(0.0, 30.0, 1_000_001)
        brute = float(np.max(np.abs(laplace(D1234, xs))))
        assert ray.value == pytest.approx(brute, abs=1e-9)
        assert ray.value >= brute - 1e-9

    @pytest.mark.parametrize("mu, value", [
        (dirac(1.0), 1.0),  # F = e^-x: g = |F|^2 is convex, the steps stop at once
        (from_atoms([(1.0, 1.0), (2.0, -0.5)]), 0.5),  # the step leaves [0, x_1]
    ], ids=["convex", "step-leaves-bracket"])
    def test_boundary_maximum_stays_at_zero(self, mu, value):
        ray = ray_max(mu)
        assert ray.alpha == 0.0
        assert ray.value == pytest.approx(value, rel=1e-15)

    def test_wide_support_against_a_dense_grid(self):
        # |F| varies on the scale 1/40: 4,096 points on the window [0, 160]
        # once missed the maximum at x = 0.0267 and returned |F| = 0.1872
        mu = from_atoms([(10.0, 1.0), (20.0, -3.0), (40.0, 2.0)])
        ray = ray_max(mu)
        xs = np.linspace(0.0, 0.1, 100_001)
        vals = np.abs(laplace(mu, xs))
        assert ray.alpha == pytest.approx(xs[np.argmax(vals)], abs=1e-6)
        assert ray.value == pytest.approx(np.max(vals), rel=1e-9)
        assert ray.value >= np.max(vals)

    def test_grid_past_the_cap_is_refused(self):
        # a step of 1/(8 * 1000) on [0, 4000] needs 3.2e7 points
        with pytest.raises(ConfigError, match="32000000 points"):
            ray_max(from_atoms([(1.0, 1.0), (1000.0, -1.0)]))

    def test_scale_covariance(self):
        base = ray_max(D12)
        for u in [0.25, 3.0]:
            scaled = ray_max(scale(D12, u))
            assert scaled.alpha == pytest.approx(base.alpha / u, rel=1e-5)
            assert scaled.value == pytest.approx(base.value, abs=1e-9)


class TestVanishingOrder:
    def test_delta_difference_order_two(self):
        m, coeff = vanishing_order(D12, math.log(2.0))
        assert m == 2
        # F''(alpha) = e^{-alpha} - 4 e^{-2 alpha} = -1/2, so the Taylor
        # coefficient is -1/4; finite differences agree
        assert coeff == pytest.approx(-0.25, abs=1e-6)
        h = 1e-4
        fd = (
            laplace(D12, math.log(2) + h)
            - 2 * laplace(D12, math.log(2))
            + laplace(D12, math.log(2) - h)
        ) / h**2
        assert coeff == pytest.approx(fd / 2.0, abs=1e-5)

    def test_no_coefficient_above_tolerance_is_refused(self):
        # F = e^(-1e-9 z) is constant to 5e-11 on the radius-0.05 ring
        with pytest.raises(OrderNotFoundError):
            vanishing_order(dirac(1e-9), 0.0)

    def test_zeroth_coefficient_is_value(self):
        coeffs = taylor_coefficients(D12, math.log(2.0), 0.1, 3)
        assert coeffs[0] == pytest.approx(laplace(D12, math.log(2.0)), abs=1e-10)

    def test_even_order_at_interior_ray_maximum(self):
        squared = convolve(D12, D12)
        for mu in [D12, D1234, STEP, squared]:
            ray = ray_max(mu)
            m, _ = vanishing_order(-mu if ray.sign_flipped else mu, ray.alpha)
            assert m % 2 == 0


@pytest.mark.parametrize("mu", THREE_ATOM.values(), ids=THREE_ATOM.keys())
def test_three_atom_curve_has_order_two(mu):
    # F'(alpha) = 0 at the maximizer; an alpha only sqrt(eps) off it leaves
    # F'(alpha) above vanishing_order's tolerance, and m reads 1
    assert jordan_curve(mu, ray_max(mu)).m == 2


class TestBabylem:
    @pytest.mark.parametrize("mu", REAL_MEASURES, ids=["atoms2", "atoms4", "step"])
    def test_disk_below_circle(self, mu):
        pair = babylem_radius(mu)
        assert 0 < pair.r < pair.R
        assert pair.delta_circle > 0
        # dense a-posteriori check of the separation
        theta = np.linspace(0.0, 2 * math.pi, 720)
        circle_min = float(np.min(np.abs(laplace(mu, pair.R * np.exp(1j * theta)))))
        rad = np.linspace(0.0, pair.r, 60)[:, None]
        disk_sup = float(np.max(np.abs(laplace(mu, rad * np.exp(1j * theta)[None, :]))))
        assert disk_sup < circle_min - 1e-3

    def test_no_circle_above_the_margin(self):
        # |F| <= 4e-4 on the real ray, which every candidate circle crosses:
        # below the margin, 1e-3 of int d|mu| = 2
        with pytest.raises(NoCircleFoundError, match="no candidate circle"):
            babylem_radius(from_atoms([(1.0, 1.0), (1.001, -1.0)]))

    @pytest.mark.parametrize("k", [-60, -40, 40, 60])
    def test_scale_invariant_radii(self, k):
        base, scaled = babylem_radius(D12), babylem_radius(2.0**k * D12)
        assert (scaled.r, scaled.R) == (base.r, base.R)
        assert scaled.delta_circle == 2.0**k * base.delta_circle

    def test_no_inner_radius(self):
        # F = e^-z: |F| near 0 is about 1, above the circle minimum e^-R
        with pytest.raises(NoCircleFoundError, match="no positive inner radius"):
            babylem_radius(dirac(1.0))

    def test_window_property_under_scaling(self):
        # shrinking the argument by u keeps the disk/circle separation
        pair = babylem_radius(D12)
        u = 0.5 * pair.r / pair.R
        theta = np.linspace(0.0, 2 * math.pi, 360)
        inner = float(np.max(np.abs(laplace(D12, u * pair.R * np.exp(1j * theta)))))
        assert inner < pair.delta_circle


class TestJordanCurve:
    built = {}

    @pytest.fixture(scope="class")
    @staticmethod
    def curve():
        if "curve" not in TestJordanCurve.built:
            t0 = time.perf_counter()
            ray = ray_max(D12)
            c = jordan_curve(D12, ray)
            TestJordanCurve.built["seconds"] = time.perf_counter() - t0
            TestJordanCurve.built["curve"] = c
        return TestJordanCurve.built["curve"]

    def test_geometry_invariants(self, curve):
        assert curve.a1.imag > 0 and curve.a2.imag > 0 and curve.a3.imag > 0
        assert curve.a3.real == 0.0
        assert abs(curve.a2.imag - curve.a3.imag) < 0.05
        # a0 strictly between alpha and a1 in modulus
        assert curve.f_alpha < curve.f_a0_abs < abs(laplace(D12, curve.a1))

    def test_order_two_angle(self, curve):
        assert curve.m == 2
        angle = np.angle(curve.a1 - curve.alpha)
        assert angle == pytest.approx(math.pi / 2, abs=1e-12)

    def test_condition_one_sampled(self, curve):
        ts = np.linspace(0.0, 1.0, 1001)[1:]
        zs = curve.alpha + ts * (curve.a1 - curve.alpha)
        vals = np.abs(laplace(D12, zs))
        lower = curve.f_alpha + curve.delta * np.abs(zs - curve.alpha) ** curve.m
        assert curve.delta > 0
        assert np.all(vals >= lower - 1e-12)

    def test_condition_two_sampled(self, curve):
        assert curve.cond2_margin > 0
        pts = list(curve.gamma1_vertices) + [curve.a3]
        for z1, z2 in zip(pts, pts[1:]):
            zz = z1 + np.linspace(0.0, 1.0, 1000) * (z2 - z1)
            assert np.all(np.abs(laplace(D12, zz)) > curve.f_a0_abs)

    def test_endpoint_exceeds_ray_maximum(self, curve):
        assert abs(laplace(D12, curve.a1)) > curve.f_alpha

    def test_simple_and_mirror_symmetric(self, curve):
        verts = curve.full_vertices
        assert verts[0] == verts[-1]
        assert set(verts) == set(np.conj(verts))
        assert _pairwise_is_simple(verts, closed=True)

    def test_closed_curve_is_the_certified_path_and_its_mirror(self, curve):
        upper = (complex(curve.alpha), *curve.gamma1_vertices, curve.a3)
        mirror = tuple(z.conjugate() for z in reversed(upper[1:]))
        assert curve.full_vertices == upper + mirror + upper[:1]

    def test_builds_quickly(self, curve):
        assert TestJordanCurve.built["seconds"] < 30.0


class TestSeparationCurve:
    RAY, RADII = ray_max(D12), babylem_radius(D12)

    def test_axis_clearance(self):
        curve = separation_curve(D12, 0.01, 5.0, self.RAY, self.RADII)
        assert curve.radius > 5.0
        assert curve.v_k.real == 0.0

    def test_scaling_relation(self):
        c1 = separation_curve(D12, 0.01, 5.0, self.RAY, self.RADII)
        c2 = separation_curve(D12, 0.02, 2.5, self.RAY, self.RADII)
        # same scale-1 construction, vertices differ by the ratio of scales
        ratio = 0.02 / 0.01
        assert c1.alpha_k == pytest.approx(c2.alpha_k * ratio, rel=1e-12)

    def test_window_violation(self):
        with pytest.raises(WindowViolationError):
            separation_curve(D12, 1.0, 2.0 * self.RADII.r, self.RAY, self.RADII)

    def test_values_dominate_ray_maximum(self):
        ray = self.RAY
        u = 0.001
        curve = separation_curve(D12, u, 5.0, ray, self.RADII)
        gamma = curve.gamma_k0_vertices
        for z1, z2 in zip(gamma, gamma[1:]):
            zz = np.asarray(z1) + np.linspace(0.0, 1.0, 200) * (np.asarray(z2) - np.asarray(z1))
            vals = np.abs(laplace(D12, u * zz))
            if abs(z1 - curve.alpha_k) < 1e-12:
                vals = vals[1:]
            assert np.all(vals >= ray.value - 1e-9)


class TestJordanCurveFallbacks:
    def test_boundary_maximum_is_refused(self):
        # alpha = 0 and m = 1: a1 would sit on the negative real axis
        with pytest.raises(OrderNotFoundError, match="alpha > 0"):
            jordan_curve(dirac(1.0), ray_max(dirac(1.0)))

    @staticmethod
    def _spy(monkeypatch):
        calls = []
        fill = complexfn._flood_fill_curve

        def spy(*args, **kwargs):
            calls.append((kwargs["nx"], fill(*args, **kwargs)))
            return calls[-1][1]
        monkeypatch.setattr(complexfn, "_flood_fill_curve", spy)
        return calls

    def test_grid_refines_past_a_cell_below_the_level(self, monkeypatch):
        # on one cell, its centre lies below |F(a0)|, so the nudge finds no
        # start cell and the grid doubles until a fill reaches the axis
        monkeypatch.setattr(complexfn, "_GRID_CELLS", 1)
        calls = self._spy(monkeypatch)
        curve = jordan_curve(STEP, ray_max(STEP))
        assert calls[0] == (1, None)
        assert [nx for nx, _ in calls] == [2**k for k in range(len(calls))]
        assert calls[-1][1] is not None and curve.delta > 0 and curve.cond2_margin > 0

    def test_grid_refines_past_a_component_off_the_axis(self, monkeypatch):
        # on 3 x 3 cells the component of a1 reaches column 0 only below the
        # axis height 1, so the first fill finds no contact
        mu = from_atoms([(0.5, 1.0), (1.0, 1.0), (3.0, -2.0)])
        monkeypatch.setattr(complexfn, "_GRID_CELLS", 3)
        calls = self._spy(monkeypatch)
        curve = jordan_curve(mu, ray_max(mu), min_axis_height=1.0)
        assert calls[0] == (3, None) and calls[-1][1] is not None
        assert curve.a3.imag > 1.0 and curve.cond2_margin > 0

    def test_refinement_budget_ends_in_component_closed(self, monkeypatch):
        monkeypatch.setattr(complexfn, "_GRID_CELLS", 1)
        monkeypatch.setattr(complexfn, "_GRID_REFINEMENTS", 0)
        with pytest.raises(ComponentClosedError):
            jordan_curve(STEP, ray_max(STEP))

    def test_axis_point_scanned_inside_the_contact_cell(self):
        # the lowest contact cell's centre is above |F(a0)| and its point on
        # the imaginary axis is not: a3 moves within the cell to one that is
        mu = from_atoms([(0.5, 2.0), (1.25, -3.0), (2.0, 1.0), (3.25, 1.0), (3.75, -1.0)])
        curve = jordan_curve(mu, ray_max(mu))
        dy = 6.0 * max(curve.alpha, 1.0) / complexfn._GRID_CELLS
        assert curve.a3.imag != curve.a2.imag
        assert abs(curve.a3.imag - curve.a2.imag) <= dy / 2 * (1 + 1e-12)  # edge included
        assert abs(laplace(mu, curve.a3)) > curve.f_a0_abs and curve.cond2_margin > 0

    def test_self_crossing_path_is_refused(self, monkeypatch):
        # no input is known whose simplified level path crosses itself, so
        # the simplification is replaced by one whose second segment crosses
        # the ascent [alpha, a1] (a1 = alpha + i rho for m = 2)
        def crossing(points, seg_ok):
            a1, a2 = points[0], points[-1]
            return [a1, a1 + 0.1 - 0.5j * a1.imag, a1 - 0.1 - 0.5j * a1.imag, a2]
        monkeypatch.setattr(complexfn, "_simplify_path", crossing)
        with pytest.raises(SimplicityRepairFailedError):
            jordan_curve(D12, ray_max(D12))


def _deque_flood_fill(mu, a1, f_a0, nx, ny, x_max, y_max, min_axis_height):
    """Reference: the queue-based BFS that the frontier sweep replaced."""
    dx = x_max / nx
    dy = y_max / ny
    xc = (np.arange(nx) + 0.5) * dx
    yc = (np.arange(ny) + 0.5) * dy
    Z = xc[None, :] + 1j * yc[:, None]
    absF = np.abs(laplace(mu, Z))
    mask = absF > f_a0

    i1 = min(int(a1.real / dx), nx - 1)
    j1 = min(int(a1.imag / dy), ny - 1)
    if not mask[j1, i1]:
        jlo, jhi = max(j1 - 1, 0), min(j1 + 2, ny)
        ilo, ihi = max(i1 - 1, 0), min(i1 + 2, nx)
        sub = absF[jlo:jhi, ilo:ihi]
        jj, ii = np.unravel_index(np.argmax(sub), sub.shape)
        j1, i1 = jlo + jj, ilo + ii
        if not mask[j1, i1]:
            return None

    parent = -np.ones((ny, nx, 2), dtype=np.int32)
    seen = np.zeros((ny, nx), dtype=bool)
    seen[j1, i1] = True
    queue = deque([(j1, i1)])
    contact = None
    while queue:
        j, i = queue.popleft()
        if i == 0 and yc[j] > min_axis_height:
            if contact is None or yc[j] < yc[contact[0]]:
                contact = (j, i)
        for dj, di in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            j2, i2 = j + dj, i + di
            if 0 <= j2 < ny and 0 <= i2 < nx and mask[j2, i2] and not seen[j2, i2]:
                seen[j2, i2] = True
                parent[j2, i2] = (j, i)
                queue.append((j2, i2))
    if contact is None:
        return None

    jc, ic = contact
    a2 = complex(xc[ic], yc[jc])
    a3 = 1j * yc[jc]
    if abs(complex(laplace(mu, a3))) <= f_a0:
        ys = yc[jc] + dy * np.linspace(-0.5, 0.5, 41)
        ys = ys[(ys > min_axis_height) & (ys > 0)]
        vals = np.abs(laplace(mu, 1j * ys))
        k = int(np.argmax(vals))
        if vals[k] <= f_a0:
            return None
        a3 = 1j * float(ys[k])

    cells = []
    j, i = jc, ic
    while (j, i) != (j1, i1):
        cells.append((j, i))
        j, i = parent[j, i]
        if j < 0:
            return None
    cells.append((j1, i1))
    cells.reverse()
    points = [complex(xc[i], yc[j]) for j, i in cells[1:-1]]
    return points, a2, a3


def _separation_axis_height():
    charset = character_set(diagonal_semigroup(range(1, 201)))
    return 1e-3 * charset.radii[150]  # u * R_m of configs/separation.json


@pytest.mark.parametrize("mu, min_axis_height", [
    *[(mu, h) for mu in REAL_MEASURES for h in (0.0, 0.2, 1.0)],
    (D12, _separation_axis_height()),
], ids=[*[f"{name}-h{h}" for name in ("atoms2", "atoms4", "step") for h in (0.0, 0.2, 1.0)],
        "separation"])
def test_frontier_sweep_matches_queue_bfs(monkeypatch, mu, min_axis_height):
    sweep = complexfn._flood_fill_curve
    calls = []

    def compared(*args, **kwargs):
        result = sweep(*args, **kwargs)
        assert result == _deque_flood_fill(*args, **kwargs)
        calls.append(result)
        return result

    monkeypatch.setattr(complexfn, "_flood_fill_curve", compared)
    jordan_curve(mu, ray_max(mu), min_axis_height=min_axis_height)
    assert calls and calls[-1] is not None


def _pairwise_is_simple(points, closed=False):
    """Reference: the per-pair segment test that the orientation array replaced."""
    def cross(o, a, b):
        return (a.real - o.real) * (b.imag - o.imag) - (a.imag - o.imag) * (b.real - o.real)

    def straddles(d1, d2, eps=1e-12):
        return (d1 > eps and d2 < -eps) or (d1 < -eps and d2 > eps)

    pts = list(points)
    if closed and abs(pts[0] - pts[-1]) < 1e-15:
        pts = pts[:-1]
    n = len(pts)
    segs = [(pts[i], pts[(i + 1) % n]) for i in range(n if closed else n - 1)]
    for i in range(len(segs)):
        for j in range(i + 2, len(segs)):
            if closed and i == 0 and j == len(segs) - 1:
                continue
            (p1, p2), (q1, q2) = segs[i], segs[j]
            if (straddles(cross(q1, q2, p1), cross(q1, q2, p2))
                    and straddles(cross(p1, p2, q1), cross(p1, p2, q2))):
                return False
    return True


def test_orientation_array_matches_pairwise_segment_test():
    rng = np.random.default_rng(7)
    verdicts = []
    for n in range(3, 40):
        walk = rng.normal(size=n) + 1j * rng.normal(size=n)
        # a polygon sorted by angle around the origin is simple; a random walk
        # usually is not
        angles = np.sort(rng.uniform(0.0, 2 * math.pi, n))
        star = rng.uniform(0.5, 1.5, n) * np.exp(1j * angles)
        for pts in (walk, star, np.append(star, star[0])):
            pts = [complex(z) for z in pts]
            expected = _pairwise_is_simple(pts)
            assert _is_simple_polyline(pts) == expected
            verdicts.append(expected)
    assert any(verdicts) and not all(verdicts)
