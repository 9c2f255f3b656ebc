import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma

from sgcalc.errors import NotQuasinilpotentError
from sgcalc.linalg import op_norm, spectral_radius
from sgcalc.semigroups import (
    diagonal_semigroup,
    feller_renorm,
    matrix_semigroup,
    multiplication_c0,
    nilpotent_shift,
    riemann_liouville,
)


class TestNilpotentShift:
    def test_vanishes_at_horizon(self):
        sg = nilpotent_shift(16)
        assert np.array_equal(sg.materialize(1.0), np.zeros((16, 16)))
        assert np.array_equal(sg.materialize(2.0), np.zeros((16, 16)))

    def test_semigroup_law_exact_on_grid(self):
        sg = nilpotent_shift(32)
        for a, b in [(1, 2), (3, 5), (10, 15), (20, 20)]:
            lhs = sg.materialize(a / 32) @ sg.materialize(b / 32)
            rhs = sg.materialize((a + b) / 32)
            assert np.array_equal(lhs, rhs)

    def test_partial_isometry(self):
        sg = nilpotent_shift(24)
        T = sg.materialize(5 / 24)
        G = T.conj().T @ T
        assert np.array_equal(G, np.diag(np.diag(G)))
        assert set(np.diag(G).real.tolist()) <= {0.0, 1.0}

    def test_shift_difference_norm_exceeds_sqrt2(self):
        # T(u) - T(2u) acts on disjointly supported pieces; its norm is at
        # least sqrt(2), certified here against a dense SVD oracle
        sg = nilpotent_shift(64)
        for k in [1, 5, 16]:
            M = sg.materialize(k / 64) - sg.materialize(2 * k / 64)
            nrm = np.linalg.norm(M, 2)
            assert nrm >= np.sqrt(2.0) - 1e-9
            assert op_norm(M) == pytest.approx(nrm, abs=1e-6)

    def test_constancy_intervals_match_materialization(self):
        sg = nilpotent_shift(8)
        # both ranges run past the horizon, where the intervals stop
        for lo, hi, scale in [(0.0, 1.2, 1.0), (0.3, 3.0, 0.37)]:
            intervals = list(sg.constancy_intervals(lo, hi, scale=scale))
            assert intervals[0][0] == lo
            assert not sg.materialize(scale * intervals[-1][1]).any()
            for (_, end, _), (start, _, _) in zip(intervals, intervals[1:]):
                assert end == start
            for t0, t1, k in intervals:
                mid = 0.5 * (t0 + t1)
                assert np.array_equal(sg.materialize(scale * mid), np.eye(8, k=-k))

    def test_offgrid_requests_are_recorded(self):
        sg = nilpotent_shift(10)
        sg.materialize(0.3)
        assert sg.offgrid_roundings == []
        sg.materialize(0.33)
        assert sg.offgrid_roundings == [0.33]


class TestRiemannLiouville:
    def test_t_one_is_integration_operator(self):
        # I^1 is plain integration; product integration makes it the lower
        # triangular matrix of cell widths exactly
        n = 32
        sg = riemann_liouville(n)
        ref = np.tril(np.full((n, n), 1.0 / n))
        assert np.max(np.abs(sg.materialize(1.0) - ref)) < 1e-15

    def test_t_zero_is_identity(self):
        sg = riemann_liouville(16)
        assert np.array_equal(sg.materialize(0.0), np.eye(16))

    def test_kernel_column_matches_closed_form(self):
        # first column of I^t holds the cell averages of x^(t-1)/Gamma(t),
        # i.e. ((j+1)^t - j^t) h^t / Gamma(t+1)
        n, t = 20, 0.5
        sg = riemann_liouville(n)
        col = sg.materialize(t)[:, 0]
        j = np.arange(n, dtype=float)
        ref = ((j + 1) ** t - j**t) * (1.0 / n) ** t / gamma(t + 1.0)
        assert np.max(np.abs(col - ref)) < 1e-14

    def test_semigroup_law_approximate(self):
        sg = riemann_liouville(256)
        err = op_norm(sg.materialize(0.5) @ sg.materialize(0.5) - sg.materialize(1.0))
        assert err < 0.05

    def test_quasinilpotent_radius_small(self):
        sg = riemann_liouville(256)
        assert spectral_radius(sg.materialize(1.0)) < 0.05

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            riemann_liouville(8).materialize(-0.5)


class TestMatrixSemigroup:
    def test_zero_generator(self):
        sg = matrix_semigroup(np.zeros((3, 3)))
        assert np.allclose(sg.materialize(5.0), np.eye(3), atol=1e-15)

    def test_diagonal_generator_entrywise(self):
        A = np.diag([-1.0, -2.0 + 1.0j])
        sg = matrix_semigroup(A)
        for t in [0.1, 1.0, 3.0]:
            assert np.allclose(
                np.diag(sg.materialize(t)), np.exp(t * np.diag(A)), atol=1e-13
            )

    def test_semigroup_law(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        sg = matrix_semigroup(A)
        res = op_norm(sg.materialize(0.3) @ sg.materialize(0.7) - sg.materialize(1.0))
        assert res < 1e-10

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            matrix_semigroup(np.zeros((2, 3)))


class TestDiagonalSemigroup:
    def test_entrywise(self):
        lam = np.array([1.0, 2.0 + 3.0j, 0.0])
        sg = diagonal_semigroup(lam)
        t = 0.7
        assert np.allclose(sg.diagonal(t), np.exp(-lam * t), atol=1e-15)
        assert np.allclose(sg.materialize(t), np.diag(np.exp(-lam * t)), atol=1e-15)

    def test_apply_broadcasts_over_columns(self):
        sg = diagonal_semigroup(np.linspace(0.1, 5.0, 20) + 0.3j)
        X = np.random.default_rng(1).normal(size=(20, 5))
        Y = sg.apply(0.7, X)
        assert Y.shape == (20, 5)
        for j in range(5):
            assert np.array_equal(Y[:, j], sg.apply(0.7, X[:, j]))

    def test_apply_avoids_densification(self):
        n = 100_000  # beyond the dense materialization cap
        sg = diagonal_semigroup(np.linspace(0.1, 5.0, n))
        x = np.ones(n)
        y = sg.apply(1.0, x)
        assert y[0] == pytest.approx(np.exp(-0.1), abs=1e-14)
        with pytest.raises(MemoryError):
            sg.materialize(1.0)

    def test_norm_drop_closed_form(self):
        # lambdas in [1, 200]: ||T(t) - I|| = 1 - e^{-200 t}
        lam = np.arange(1.0, 201.0)
        sg = diagonal_semigroup(lam)
        for t in [0.01, 0.1, 1.0]:
            nrm = op_norm(sg.materialize(t) - np.eye(200))
            assert nrm == pytest.approx(1.0 - np.exp(-200.0 * t), abs=1e-6)

    def test_contractive_flag(self):
        assert diagonal_semigroup([0.0, 1.0, 2.0 + 5.0j]).contractive
        assert not diagonal_semigroup([1.0, -0.5]).contractive


class TestMultiplicationC0:
    def test_matches_power_function(self):
        sg = multiplication_c0(50)
        t = 0.8
        assert np.allclose(sg.diagonal(t), sg.xs**t, atol=1e-14)

    def test_contractive_and_diagonal(self):
        sg = multiplication_c0(20)
        assert sg.contractive
        assert sg.is_diagonal
        assert sg.sup_norm

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            multiplication_c0(5)


def _per_vector_renorm(backend, times, n_random, seed=0):
    """feller_renorm's samples, margin and commutant estimates, one vector at a time."""
    rng = np.random.default_rng(seed)
    n, K, h = backend.dim, len(times), times[0]
    vectors = {}
    for i in range(0, n, max(1, n // 8)):
        vectors[f"e{i}"] = np.eye(n, dtype=complex)[i]
    for j in range(n_random):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        vectors[f"r{j}"] = v / np.linalg.norm(v)
    norm1, margin = {}, np.inf
    for tag, x in vectors.items():
        prof = [np.linalg.norm(backend.apply(k * h, x)) if k else np.linalg.norm(x)
                for k in range(2 * K + 1)]
        norm1[tag] = max(prof[: K + 1])
        for j in range(1, K + 1):
            margin = min(margin, 1.0 - max(prof[j : j + K + 1]) / norm1[tag])
    t_mid = times[K // 2]
    probes = [backend.materialize(t_mid), backend.materialize(times[-1]),
              backend.materialize(t_mid) @ backend.materialize(t_mid)]
    ests = []
    for R in probes:
        ests.append(max(
            max([np.linalg.norm(R @ x)] + [np.linalg.norm(backend.apply(t, R @ x))
                                           for t in times]) / norm1[tag]
            for tag, x in vectors.items()))
    return norm1, margin, ests


class TestFellerRenorm:
    def test_batched_probes_match_per_vector_reference(self):
        sg = riemann_liouville(64)
        times = [k / 32 for k in range(1, 33)]
        rep = feller_renorm(sg, times, n_random=8)
        norm1, margin, ests = _per_vector_renorm(sg, times, n_random=8)
        assert rep.norm1_samples.keys() == norm1.keys()
        for tag, v in norm1.items():
            assert rep.norm1_samples[tag] == pytest.approx(v, rel=1e-13)
        assert rep.contraction_margin == pytest.approx(margin, abs=1e-13)
        for (_, est, _), ref in zip(rep.commutant_bound_checks, ests, strict=True):
            assert est == pytest.approx(ref, rel=1e-13)

    def test_shift_is_already_contractive(self):
        sg = nilpotent_shift(64)
        rep = feller_renorm(sg, [k / 64 for k in range(1, 33)], n_random=8)
        assert rep.contraction_margin >= -1e-12
        assert rep.commutant_ok

    def test_fractional_integration_renormalizes(self):
        sg = riemann_liouville(256)
        rep = feller_renorm(sg, [k / 64 for k in range(1, 65)], n_random=8)
        assert rep.contraction_margin >= -1e-6
        assert rep.commutant_ok

    def test_renormalized_norm_dominated_by_operator_norm(self):
        sg = riemann_liouville(128)
        times = [k / 32 for k in range(1, 33)]
        rep = feller_renorm(sg, times, n_random=4)
        T1 = sg.materialize(1.0)
        full = op_norm(T1)
        # commutant checks include T(t_max) = T(1); its renormalized estimate
        # must not exceed the plain operator norm
        est = dict((tag, est) for tag, est, _ in rep.commutant_bound_checks)
        assert est["T(t_max)"] <= full + 1e-6

    def test_rejects_non_quasinilpotent(self):
        sg = matrix_semigroup(np.diag([-1.0, -2.0]))
        with pytest.raises(NotQuasinilpotentError):
            feller_renorm(sg, [0.5, 1.0])

    def test_rejects_bad_probe_times(self):
        sg = nilpotent_shift(8)
        with pytest.raises(ValueError):
            feller_renorm(sg, [])
        with pytest.raises(ValueError):
            feller_renorm(sg, [-0.5, 0.5])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 31), st.integers(0, 31))
def test_shift_law_property(a, b):
    sg = nilpotent_shift(32)
    lhs = sg.materialize(a / 32) @ sg.materialize(b / 32)
    rhs = sg.materialize((a + b) / 32)
    assert np.array_equal(lhs, rhs)
