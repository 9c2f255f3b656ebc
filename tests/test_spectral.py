import math
import warnings

import numpy as np
import pytest

from sgcalc import spectral
from sgcalc.cli import _DEGENERATE_TOL, _WINDING_TOL
from sgcalc.complexfn import babylem_radius, jordan_curve, ray_max
from sgcalc.errors import (
    MassNotZeroError,
    NotDiagonalError,
    WindowViolationError,
)
from sgcalc.measures import dirac, from_atoms, laplace
from sgcalc.semigroups import (
    diagonal_semigroup,
    multiplication_c0,
    nilpotent_shift,
)
from sgcalc.spectral import (
    CharacterSet,
    bounded_generator_check,
    build_idempotents,
    character_set,
    criterion_check,
    separation_certificate,
    sharpness_demo,
)

D12 = from_atoms([(1.0, 1.0), (2.0, -1.0)])
D12_RAY, D12_RADII = ray_max(D12), babylem_radius(D12)


class TestCharacterSet:
    def test_slices_and_radii(self):
        sg = diagonal_semigroup([0.5, 1.5, 2.5 + 1.0j, 4.0])
        cs = character_set(sg)  # slices m = 0 .. ceil(max Re lambda) = 4
        assert cs.slices[0] == ()
        assert cs.slices[1] == (0,)
        assert cs.slices[3] == (0, 1, 2)
        assert cs.slices[4] == (0, 1, 2, 3)
        assert cs.radii[3] == pytest.approx(abs(2.5 + 1.0j))
        assert np.allclose(cs.slice_values(3), [0.5, 1.5, 2.5 + 1.0j])

    def test_slices_are_nested(self):
        sg = diagonal_semigroup(np.linspace(0.1, 9.7, 40))
        cs = character_set(sg)
        ms = sorted(cs.slices)
        for m1, m2 in zip(ms, ms[1:]):
            assert set(cs.slices[m1]) <= set(cs.slices[m2])
        assert cs.slices[ms[-1]] == tuple(range(40))

    @pytest.mark.parametrize("lambdas", [
        np.arange(1.0, 200.0),  # the separation config's diagonal-range
        np.random.default_rng(3).uniform(0, 12, 57) + 1j * np.random.default_rng(4).normal(size=57),
    ], ids=["range", "random-complex"])
    def test_slices_and_radii_match_brute_force(self, lambdas):
        cs = character_set(diagonal_semigroup(lambdas))
        lam = cs.lambdas
        for m, idx in cs.slices.items():
            ref = tuple(k for k in range(len(lam)) if lam[k].real <= m)
            assert idx == ref and all(type(k) is int for k in idx)
            assert cs.radii[m] == (float(np.max(np.abs([lam[k] for k in ref]))) if ref else 0.0)

    def test_large_imaginary_parts_keep_their_slice(self):
        # slices go by Re lambda alone, whatever the imaginary part
        sg = diagonal_semigroup([1.0 + 10.0j, 2.0 - 7.0j])
        cs = character_set(sg)
        assert cs.slices[2] == (0, 1)
        assert cs.lambdas == (1.0 + 10.0j, 2.0 - 7.0j)

    def test_rejects_non_diagonal(self):
        with pytest.raises(NotDiagonalError):
            character_set(nilpotent_shift(8))

    @pytest.mark.parametrize("top", [740.0, 800.0])
    def test_characters_past_exp_underflow_slice_exactly(self, top):
        # e^-740 is subnormal and e^-800 is 0: the characters are read as
        # given, never through T(1), so neither is refused or warned about
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cs = character_set(diagonal_semigroup([1.0, top]))
        assert cs.lambdas == (1.0, top)
        assert cs.slices[int(top) - 1] == (0,) and cs.slices[int(top)] == (0, 1)
        assert (cs.radii[1], cs.radii[int(top)]) == (1.0, top)


class TestCriterion:
    # the criterion is homogeneous in mu, so 2^k mu must get mu's verdict
    @pytest.mark.parametrize("k", [-40, 0, 40])
    def test_strict_at_small_scale(self, k):
        sg = diagonal_semigroup(np.arange(1.0, 201.0))
        cs = character_set(sg)
        rep = criterion_check(cs, 2.0**k * D12, 1e-3)
        row = rep.row
        assert row.rho < row.sup_ray * (1.0 - _DEGENERATE_TOL)
        assert row.window_m is not None
        # slice radius must fit inside the scaled window
        assert 1e-3 * cs.radii[row.window_m] < rep.radii.r

    def test_exhaustive_rho_on_diagonal_model(self):
        sg = diagonal_semigroup([0.5, 1.0, 3.0])
        cs = character_set(sg)
        u = 0.2
        rep = criterion_check(cs, D12, u)
        brute = max(abs(laplace(D12, u * l)) for l in cs.lambdas)
        assert rep.row.rho == pytest.approx(brute, abs=1e-14)

    @pytest.mark.parametrize("k", [0, 40])
    def test_degenerate_equality_is_not_strict(self, k):
        # a character sitting exactly at the ray maximizer forces equality
        u = 0.01
        sg = diagonal_semigroup([math.log(2.0) / u])
        cs = character_set(sg)
        row = criterion_check(cs, 2.0**k * D12, u).row
        assert row.rho >= row.sup_ray * (1.0 - _DEGENERATE_TOL)

    def test_rejects_nonzero_mass(self):
        sg = diagonal_semigroup([1.0])
        cs = character_set(sg)
        with pytest.raises(MassNotZeroError):
            criterion_check(cs, dirac(1.0), 0.1)


class TestIdempotents:
    def test_chain_is_exact_and_nested(self):
        sg = diagonal_semigroup(np.arange(1.0, 41.0))
        cs = character_set(sg)
        chain = build_idempotents(cs, [40, 10, 20])
        assert chain.m_list == (10, 20, 40) and chain.charset is cs
        for i, m in enumerate(chain.m_list):
            P = chain.projection(i)
            assert np.array_equal(P @ P, P)
            # the 0/1 diagonal of the slice Lambda_m = {0, .., m - 1}
            assert np.array_equal(P, np.diag((np.arange(40) < m).astype(complex)))
        P0, P1 = chain.projection(0), chain.projection(1)
        assert np.array_equal(P0 @ P1, P0)
        assert chain.exhaustive

    def test_non_exhaustive_chain(self):
        sg = diagonal_semigroup(np.arange(1.0, 41.0))
        cs = character_set(sg)
        chain = build_idempotents(cs, [10, 20])
        assert not chain.exhaustive

    def test_empty_bottom_slice(self):
        sg = diagonal_semigroup(np.arange(1.0, 11.0))
        cs = character_set(sg)
        chain = build_idempotents(cs, [0, 10])
        assert np.array_equal(chain.projection(0), np.zeros((10, 10)))
        assert np.array_equal(chain.projection(1), np.eye(10))
        assert chain.exhaustive

    def test_non_nested_slices_are_refused(self):
        # a corrupted slice table: Lambda_1 holds a coordinate that Lambda_2 lacks
        cs = CharacterSet((0.5, 1.5, 2.5), {1: (0, 2), 2: (0, 1)}, {1: 2.5, 2: 1.5})
        with pytest.raises(ValueError, match="not nested"):
            build_idempotents(cs, [1, 2])
        assert build_idempotents(cs, [2]).m_list == (2,)

    def test_projections_commute_with_semigroup(self):
        sg = diagonal_semigroup(np.arange(1.0, 21.0))
        cs = character_set(sg)
        chain = build_idempotents(cs, [10, 20])
        P = chain.projection(0)
        T = sg.materialize(0.3)
        assert np.max(np.abs(P @ T - T @ P)) == 0.0


class TestBoundedGenerator:
    def test_defect_closed_form(self):
        sg = diagonal_semigroup(np.arange(1.0, 101.0))
        cs = character_set(sg)
        chain = build_idempotents(cs, [100])
        rows = bounded_generator_check(chain, [1e-3, 1e-2])
        by_t = {row.t: row for row in rows}
        assert by_t[1e-3].defect == pytest.approx(1.0 - math.exp(-0.1), abs=1e-10)
        assert by_t[1e-2].defect == pytest.approx(1.0 - math.exp(-1.0), abs=1e-10)
        assert rows[0].generator_bound == 100.0 == cs.radii[100]

    def test_empty_slice_has_no_rows(self):
        # lambdas from 1: the slice m = 0 is empty and gives no row
        sg = diagonal_semigroup(np.arange(1.0, 5.0))
        chain = build_idempotents(character_set(sg), [0, 2])
        rows = bounded_generator_check(chain, [1e-3])
        assert [row.m for row in rows] == [2]

    def test_defect_vanishes_with_t(self):
        sg = diagonal_semigroup(np.arange(1.0, 51.0))
        cs = character_set(sg)
        chain = build_idempotents(cs, [50])
        rows = bounded_generator_check(chain, [10.0 ** -k for k in range(1, 6)])
        defects = [r.defect for r in rows]
        assert defects == sorted(defects, reverse=True)
        assert defects[-1] < 1e-3


class TestSeparationCertificate:
    def test_certifies_small_scale_slice(self):
        sg = diagonal_semigroup(np.arange(1.0, 51.0))
        cs = character_set(sg)
        rep, vertices = separation_certificate(cs, D12, 1e-3, 50, D12_RAY, D12_RADII)
        assert rep.winding_defect <= _WINDING_TOL
        assert (vertices[0], abs(vertices[-1])) == (rep.alpha_k, rep.radius)
        assert rep.min_distance > 0
        assert all(margin > 0 for _, margin in rep.lam_margins)
        assert rep.curve_min_excess >= -1e-9 * 0.25

    def test_oversized_slice_violates_window(self):
        # the slice radius must fit inside the scaled disk window; a slice
        # reaching the ray maximizer alpha/u cannot
        u = 1e-3
        sg = diagonal_semigroup([1.0, math.log(2.0) / u])
        cs = character_set(sg)
        top = max(cs.slices)  # the slice that holds both characters
        with pytest.raises(WindowViolationError):
            separation_certificate(cs, D12, u, top, D12_RAY, D12_RADII)

    def test_corrupted_slice_table_caught_by_winding_check(self):
        # a slice table whose radius bound understates the true character
        # modulus puts the character outside the curve; the winding test
        # must catch it
        cs = CharacterSet(lambdas=(1000.0 + 0.0j,), slices={1: (0,)}, radii={1: 10.0})
        rep, _ = separation_certificate(cs, D12, 1e-3, 1, D12_RAY, D12_RADII)
        assert rep.winding_defect == pytest.approx(1.0)

    def test_reports_every_failing_point(self):
        # 1000 lies outside the curve (winding 0); pi i / u has |F(u lambda)| = 2,
        # above the ray maximum 1/4, and lies outside the curve as well
        u = 1e-3
        cs = CharacterSet(lambdas=(1.0 + 0j, 1000.0 + 0j, 1j * math.pi / u),
                          slices={1: (0, 1, 2)}, radii={1: 10.0})
        rep, vertices = separation_certificate(cs, D12, u, 1, D12_RAY, D12_RADII)
        assert [margin > 0 for _, margin in rep.lam_margins] == [True, True, False]
        assert rep.winding_defect == pytest.approx(1.0)
        # a vertex of the curve: distance 0, so its winding number is undefined
        on_curve = CharacterSet(lambdas=(vertices[1],), slices={1: (0,)},
                                radii={1: 10.0})
        rep, _ = separation_certificate(on_curve, D12, u, 1, D12_RAY, D12_RADII)
        assert rep.min_distance == 0.0 and rep.winding_defect == math.inf

    @staticmethod
    def _slice(R_m):
        """One character on the real axis: the slice m = 1 has radius R_m."""
        return CharacterSet(lambdas=(complex(R_m),), slices={1: (0,)}, radii={1: R_m})

    def test_curve_clears_the_slice_radius_on_the_imaginary_axis(self):
        rep, vertices = separation_certificate(self._slice(5.0), D12, 0.01, 1,
                                               D12_RAY, D12_RADII)
        assert vertices[-1].real == 0.0
        assert rep.radius == abs(vertices[-1]) > rep.R_m == 5.0

    @pytest.mark.parametrize("u, R_m", [(0.01, 5.0), (1e-3, 50.0)])
    def test_vertices_are_the_level_path_divided_by_u(self, u, R_m):
        # the curve of z -> F(u z) is the level path of F at axis height u R_m,
        # each vertex divided by u
        curve = jordan_curve(D12, D12_RAY, min_axis_height=u * R_m)
        path = (complex(curve.alpha), *curve.gamma1_vertices, curve.a3)
        rep, vertices = separation_certificate(self._slice(R_m), D12, u, 1, D12_RAY, D12_RADII)
        assert vertices == tuple(z / u for z in path)
        assert rep.alpha_k == curve.alpha / u

    def test_scaling_relation(self):
        # u R_m = 0.05 twice: one level path, so the vertices differ by the ratio of scales
        _, v1 = separation_certificate(self._slice(5.0), D12, 0.01, 1, D12_RAY, D12_RADII)
        _, v2 = separation_certificate(self._slice(2.5), D12, 0.02, 1, D12_RAY, D12_RADII)
        assert len(v1) == len(v2)
        assert np.allclose(np.asarray(v1), 2.0 * np.asarray(v2), rtol=1e-12, atol=0.0)

    def test_window_violation_is_refused_before_any_curve(self, monkeypatch):
        def no_curve(*args, **kwargs):
            raise AssertionError("jordan_curve called")
        monkeypatch.setattr(spectral, "jordan_curve", no_curve)
        with pytest.raises(WindowViolationError, match=r"^window violated: u\*R_m = 0\.373"):
            separation_certificate(self._slice(2.0 * D12_RADII.r), D12, 1.0, 1,
                                   D12_RAY, D12_RADII)

    def test_values_dominate_ray_maximum(self):
        u = 0.001
        rep, vertices = separation_certificate(self._slice(5.0), D12, u, 1, D12_RAY, D12_RADII)
        for z1, z2 in zip(vertices, vertices[1:]):
            vals = np.abs(laplace(D12, u * (z1 + np.linspace(0.0, 1.0, 200) * (z2 - z1))))
            if z1 == vertices[0]:  # alpha_k attains the ray maximum
                vals = vals[1:]
            assert np.all(vals >= D12_RAY.value - 1e-9)
        assert rep.curve_min_excess >= 0.0

    def test_rejects_nonzero_mass(self):
        sg = diagonal_semigroup([1.0])
        cs = character_set(sg)
        # the mass check comes first, so the ray and radii passed do not matter
        with pytest.raises(MassNotZeroError):
            separation_certificate(cs, dirac(1.0), 0.1, 1, D12_RAY, D12_RADII)


class TestSharpness:
    def test_norm_equals_rho_and_gap_small(self):
        rep = sharpness_demo(10_000, D12, [0.1, 0.5, 1.0, 2.0], D12_RAY)
        assert rep.ray_value == pytest.approx(0.25, abs=1e-10)
        assert rep.max_gap <= 1e-4
        # the model norm never exceeds the ray maximum
        for row in rep.rows:
            assert row.norm_F <= rep.ray_value + 1e-15

    def test_gap_monotone_under_refinement(self):
        gaps = [
            sharpness_demo(n, D12, [0.1, 0.5, 1.0, 2.0], D12_RAY).max_gap
            for n in (1000, 10_000, 100_000)
        ]
        assert gaps[1] <= gaps[0]
        assert gaps[2] <= gaps[1]

    def test_norm_is_the_real_evaluation_over_the_grid(self):
        # the multiplication model's characters are real, -log x_j
        n, us = 1000, [0.1, 2.0]
        rep = sharpness_demo(n, D12, us, D12_RAY)
        xs = np.arange(1, n + 1) / n
        for u, row in zip(us, rep.rows):
            assert row.norm_F == float(np.max(np.abs(laplace(D12, -u * np.log(xs)))))
            assert row.norm_F == pytest.approx(
                float(np.max(np.abs(xs**u - xs ** (2 * u)))), rel=1e-14)

    def test_rejects_nonzero_mass(self):
        # the mass check comes first, so the ray passed does not matter
        with pytest.raises(MassNotZeroError):
            sharpness_demo(1000, dirac(1.0), [0.5], D12_RAY)
