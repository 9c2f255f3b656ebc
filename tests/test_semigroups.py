import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma, gammaln

from sgcalc.calculus import _DEFAULT_GL_ORDER, _gauss_legendre
from sgcalc.errors import ConfigError, NotQuasinilpotentError
from sgcalc.linalg import op_norm, spectral_radius
from sgcalc.semigroups import (
    _N_RANDOM,
    RiemannLiouville,
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
            t0s, t1s, ks = sg.constancy_intervals(lo, hi, scale=scale)
            assert t0s[0] == lo
            assert not sg.materialize(scale * t1s[-1]).any()
            assert np.array_equal(t1s[:-1], t0s[1:])
            for t0, t1, k in zip(t0s, t1s, ks):
                mid = 0.5 * (t0 + t1)
                assert np.array_equal(sg.materialize(scale * mid), np.eye(8, k=-k))

    @pytest.mark.parametrize("lo, hi, scale", [
        (0.0, 1.0, 1.0), (0.0, 1.2, 1.0), (0.3, 3.0, 0.37), (1.0, 2.0, 0.25),
        (0.1, 0.1, 1.0), (0.5, 0.4, 1.0), (2.0, 3.0, 1.0), (0.0, 0.999, 3.7),
    ])
    def test_constancy_intervals_match_the_loop_form(self, lo, hi, scale):
        # the cell rule as a loop over k, in the same float operations
        n = 8
        ref, k, t = [], int(round(scale * lo * n)), lo
        while t < hi - 1e-15 and k < n:
            t1 = min((k + 0.5) / (scale * n), hi)
            ref.append((t, t1, k))
            t, k = t1, k + 1
        arrays = nilpotent_shift(n).constancy_intervals(lo, hi, scale=scale)
        assert list(zip(*(a.tolist() for a in arrays))) == ref

    @pytest.mark.parametrize("k", range(4))
    def test_offset_follows_the_cell_rule_at_half_cells(self, k):
        # t = (k + 1/2)/n opens the interval of the (k+1)-cell shift; rounding
        # half to even would give k for even k
        n = 8
        sg = nilpotent_shift(n)
        t = (k + 0.5) / n
        t0s, t1s, ks = sg.constancy_intervals(0.0, 1.0)
        (i,) = np.flatnonzero((t0s <= t) & (t < t1s))
        assert sg.offset(t) == ks[i] == k + 1
        assert sg.constancy_intervals(t, 1.0)[2][0] == k + 1


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

    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0, 1.7])
    def test_toeplitz_matches_per_diagonal_fill(self, t):
        # reference: the product-integration weights, filled into the
        # matrix one diagonal at a time
        n = 64
        j = np.arange(n + 1, dtype=float)
        powers = j**t
        w = (powers[1:] - powers[:-1]) * math.exp(t * math.log(1.0 / n) - math.lgamma(t + 1.0))
        ref = np.zeros((n, n), dtype=complex)
        idx = np.arange(n)
        for d in range(n):
            ref[idx[d:], idx[d:] - d] = w[d]
        assert np.array_equal(riemann_liouville(n).materialize(t), ref)

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.7])
    def test_materialize_is_float64(self, t):
        assert riemann_liouville(32).materialize(t).dtype == np.float64

    @pytest.mark.parametrize("t", [0.0, 0.25, 1.0])
    def test_apply_multiplies_in_real_arithmetic_as_the_complex_product(self, t):
        # a complex block (as feller_renorm passes it), a 1-D complex vector,
        # and a real vector, each against the complexified matrix
        n = 64
        sg = riemann_liouville(n)
        rng = np.random.default_rng(7)
        Y = rng.normal(size=(n, 24)) + 1j * rng.normal(size=(n, 24))
        ref_T = sg.materialize(t).astype(complex)
        for vec in (Y, Y[:, 3], Y[:, ::2], Y.real[:, 0]):
            got, ref = sg.apply(t, vec), ref_T @ vec
            assert got.dtype == np.complex128 and got.shape == ref.shape
            assert np.linalg.norm(got - ref) <= 1e-15 * np.linalg.norm(ref)

    def test_lgamma_scale_matches_scipy_gammaln(self):
        # the weights scale by h^t / Gamma(1 + t) = exp(t log h - lgamma(1 + t)),
        # so an absolute error in lgamma is a relative one in the weights; times:
        # the shipped renormalization grid (k/64, k <= 128, as feller_renorm
        # applies T(kh)) and the Gauss-Legendre times u*t of the step measure
        # on the RL(128) u grid of the benchmark's off-shift workload
        times = [k / 64 for k in range(1, 129)]
        for a, b in ((1.0, 2.0), (2.0, 3.0)):
            for order in (_DEFAULT_GL_ORDER, _DEFAULT_GL_ORDER // 2):
                nodes = _gauss_legendre(a, b, order)[0]
                times += [u * t for u in (0.03, 0.06, 0.1, 0.17, 0.28, 0.45) for t in nodes]
        for t in times:
            ref = math.exp(-float(gammaln(t + 1.0)))
            assert math.exp(-math.lgamma(t + 1.0)) == pytest.approx(ref, rel=1e-14, abs=0)


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

    @pytest.mark.parametrize("shape", [(2, 3), (0, 0)])
    def test_rejects_nonsquare(self, shape):
        with pytest.raises(ValueError):
            matrix_semigroup(np.zeros(shape))


def test_backend_sizes_rejected():
    with pytest.raises(ValueError):
        nilpotent_shift(1)
    with pytest.raises(ValueError):
        riemann_liouville(1)
    with pytest.raises(ValueError):
        diagonal_semigroup([])
    with pytest.raises(ConfigError, match="refusing dense 5001x5001 generator"):
        diagonal_semigroup(np.arange(1.0, 5002.0)).generator


@pytest.mark.parametrize("make", [
    lambda: nilpotent_shift(4),
    lambda: riemann_liouville(4),
    lambda: matrix_semigroup(-np.eye(4)),
    lambda: diagonal_semigroup([0.5, 1.0, 2.0, 3.0]),
    lambda: multiplication_c0(10),
], ids=["shift", "riemann-liouville", "matrix", "diagonal", "multiplication"])
def test_negative_time_is_refused(make):
    # the shift used to give the upper shift S*^2 at t = -0.5, its adjoint
    sg = make()
    vec = np.ones(sg.dim)
    for t in (-0.5, math.nan):
        for call in (lambda: sg.materialize(t), lambda: sg.apply(t, vec)):
            with pytest.raises(ValueError, match="t >= 0"):
                call()
    assert np.array_equal(sg.materialize(-0.0), sg.materialize(0.0))
    assert np.array_equal(sg.apply(0.0, vec), vec)


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
        with pytest.raises(ConfigError, match="refusing dense"):
            sg.materialize(1.0)

    def test_norm_drop_closed_form(self):
        # lambdas in [1, 200]: ||T(t) - I|| = 1 - e^{-200 t}
        lam = np.arange(1.0, 201.0)
        sg = diagonal_semigroup(lam)
        for t in [0.01, 0.1, 1.0]:
            nrm = op_norm(sg.materialize(t) - np.eye(200))
            assert nrm == pytest.approx(1.0 - np.exp(-200.0 * t), abs=1e-6)


class TestMultiplicationC0:
    def test_matches_power_function(self):
        sg = multiplication_c0(50)
        t = 0.8
        assert np.allclose(sg.diagonal(t), sg.xs**t, atol=1e-14)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            multiplication_c0(5)


def _per_vector_renorm(backend, times, n_random, seed=0):
    """feller_renorm's margin and commutant estimates, one vector at a time."""
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
    return margin, ests


class TestFellerRenorm:
    def test_batched_probes_match_per_vector_reference(self):
        sg = riemann_liouville(64)
        times = [k / 32 for k in range(1, 33)]
        rep = feller_renorm(sg, times)
        margin, ests = _per_vector_renorm(sg, times, _N_RANDOM)
        assert rep.contraction_margin == pytest.approx(margin, abs=1e-13)
        for (_, est, _), ref in zip(rep.commutant_bound_checks, ests, strict=True):
            assert est == pytest.approx(ref, rel=1e-13)

    def test_shift_is_already_contractive(self):
        sg = nilpotent_shift(64)
        rep = feller_renorm(sg, [k / 64 for k in range(1, 33)])
        assert rep.contraction_margin >= 0
        assert all(est <= full for _, est, full in rep.commutant_bound_checks)

    def test_fractional_integration_renormalizes(self):
        sg = riemann_liouville(256)
        rep = feller_renorm(sg, [k / 64 for k in range(1, 65)])
        assert rep.contraction_margin >= 0
        assert all(est <= full for _, est, full in rep.commutant_bound_checks)

    def test_renormalized_norm_dominated_by_operator_norm(self):
        sg = riemann_liouville(128)
        times = [k / 32 for k in range(1, 33)]
        rep = feller_renorm(sg, times)
        T1 = sg.materialize(1.0)
        full = op_norm(T1)
        # commutant checks include T(t_max) = T(1); its renormalized estimate
        # must not exceed the plain operator norm
        est = dict((tag, est) for tag, est, _ in rep.commutant_bound_checks)
        assert est["T(t_max)"] <= full

    def test_keeps_no_matrix_per_probe_time(self):
        # the renormalization config's run: 64 probe times on n = 256, where one
        # dense T(t) takes 1 MB, so a store of every T(t) would peak near 130 MB
        tracemalloc.start()
        try:
            feller_renorm(riemann_liouville(256), [k / 64 for k in range(1, 65)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_materializes_each_probe_time_once(self, monkeypatch):
        # one pass over t = kh, k = 1..2K, plus T(t_mid) and T(t_max) for the
        # commutant probes: 2K + 2 builds, K = 64
        calls = []
        build = RiemannLiouville._materialize

        def counted(self, t):
            calls.append(t)
            return build(self, t)
        monkeypatch.setattr(RiemannLiouville, "_materialize", counted)
        feller_renorm(riemann_liouville(256), [k / 64 for k in range(1, 65)])
        assert len(calls) <= 2 * 64 + 2

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

    def test_refuses_a_grid_that_is_not_h_2h_to_kh(self):
        # the samples sit at kh, so [0.1, 0.5] would be measured on [0.1, 0.2]
        sg = riemann_liouville(32)
        with pytest.raises(ConfigError, match=r"t = 0\.5 is not 2h"):
            feller_renorm(sg, [0.1, 0.5])
        with pytest.raises(ConfigError, match=r"t = 0\.10000000000000001 is not 2h"):
            feller_renorm(sg, [0.1, 0.1, 0.2])
        # 0.3 is 3 * 0.1 to within rounding
        assert feller_renorm(sg, [0.3, 0.1, 0.2]).contraction_margin == feller_renorm(
            sg, [0.1, 0.2, 3 * 0.1]).contraction_margin


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 31), st.integers(0, 31))
def test_shift_law_property(a, b):
    sg = nilpotent_shift(32)
    lhs = sg.materialize(a / 32) @ sg.materialize(b / 32)
    rhs = sg.materialize((a + b) / 32)
    assert np.array_equal(lhs, rhs)
