import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.integrate
from scipy.linalg import toeplitz
from scipy.sparse.linalg import ArpackNoConvergence
from hypothesis import given, settings
from hypothesis import strategies as st

from sgcalc import calculus, linalg
from sgcalc.calculus import (
    OperatorValue,
    _gauss_legendre,
    _shift_column,
    _shift_kernel,
    ep_calc,
    empirical_eta,
    func_calc,
    lemma_24_check,
    lemma_27_check,
    resolvent,
    resolvent_residuals,
    sweep,
    symmetrized_sweep,
)
from sgcalc.cli import _PATH_TOL, NAMED_MEASURES, _default_lambda_grid
from sgcalc.errors import (
    ConfigError,
    DivergentIntegralError,
    MassNotZeroError,
    NoGeneratorError,
    NotQuasinilpotentError,
    SingularGeneratorError,
)
from sgcalc.linalg import _lower_toeplitz, op_norm, opnorm_bound
from sgcalc.measures import (
    CompactDistribution,
    CompactMeasure,
    Piece,
    convolve,
    dirac,
    from_atoms,
    indicator,
    laplace,
    laplace_distribution,
    poly_moment,
    zero_measure,
)
from sgcalc.semigroups import (
    DiagonalSemigroup,
    NilpotentShift,
    diagonal_semigroup,
    matrix_semigroup,
    nilpotent_shift,
    riemann_liouville,
)

D12 = from_atoms([(1.0, 1.0), (2.0, -1.0)])
STEP = indicator(1, 2) + indicator(2, 3, -1.0)


def _per_interval_column(backend: NilpotentShift, mu, u: float) -> np.ndarray:
    """The shift column of F(-uA) summed cell by cell, one ``poly_moment`` per
    interval of ``constancy_intervals``: the reference for the array weights."""
    weights = {}
    for t, w in mu.atoms:
        k = backend.offset(u * t)
        weights[k] = weights.get(k, 0.0) + w
    for piece in mu.pieces:
        t0, t1, ks = backend.constancy_intervals(piece.a, piece.b, scale=u)
        for a, b, k in zip(t0.tolist(), t1.tolist(), ks.tolist()):
            weights[k] = weights.get(k, 0.0) + poly_moment(piece.coeffs, a, b)
    col = np.zeros(backend.dim, dtype=complex)
    for k, w in weights.items():
        if k < backend.dim:
            col[k] = col[k] + w
    return col


class TestFuncCalc:
    @pytest.mark.parametrize("n", [64, 256, 1024, 4096])
    @pytest.mark.parametrize("measure", ["step", "complex-indicator", "degree-2"])
    def test_shift_cell_weights_match_the_per_interval_sums_bit_for_bit(self, measure, n):
        mu = {
            "step": STEP,
            "complex-indicator": indicator(0.7, 2.3, 0.6 - 1.1j),
            # powers past the first are Python's float pow, as in poly_moment
            "degree-2": CompactMeasure(pieces=(Piece(0.3, 1.9, (0.5, -1.25 + 0.5j, 2 - 0.75j)),)),
        }[measure]
        sg = nilpotent_shift(n)
        for u in (5 / n, 37 / n, 0.0123457, 1 / 3, 0.41):  # on the grid, then off it
            got = _shift_column(n, func_calc(sg, mu, u).shift_weights)
            assert got.tobytes() == _per_interval_column(sg, mu, u).tobytes()

    def test_shift_atoms_exact(self):
        sg = nilpotent_shift(32)
        u = 4 / 32
        op = func_calc(sg, D12, u)
        ref = sg.materialize(u) - sg.materialize(2 * u)
        assert np.array_equal(op.to_dense(), ref)
        assert op.quadrature_budget == 0.0

    def test_shift_beyond_horizon_is_zero(self):
        sg = nilpotent_shift(16)
        for u in (1.0, 1.03):  # support {1, 2}, u t >= 1 throughout, on or off the grid
            op = func_calc(sg, D12, u)
            assert op.norm() == 0.0
            assert np.array_equal(op.to_dense(), np.zeros((16, 16)))

    def test_offgrid_atom_is_refused(self):
        # rounding u t = 0.001 and 0.002 to the 512-cell grid puts both atoms
        # of delta-difference on cell 1, where they cancel
        with pytest.raises(ConfigError, match=r"t = 1 with u = 0\.001"):
            func_calc(NilpotentShift(512), NAMED_MEASURES["delta-difference"](), 0.001)

    def test_density_against_scalar_quadrature_oracle(self):
        lam = np.array([0.5, 1.0, 2.5])
        sg = matrix_semigroup(np.diag(-lam))
        u = 0.7
        op = func_calc(sg, STEP, u)
        diag = np.diag(op.to_dense())
        for lk, got in zip(lam, diag):
            ref, _ = scipy.integrate.quad(
                lambda t, a=lk: (1.0 if t < 2 else -1.0) * math.exp(-u * a * t),
                1.0, 3.0, points=[2.0],
            )
            assert got == pytest.approx(ref, abs=1e-9)
            assert got == pytest.approx(laplace(STEP, u * lk), abs=1e-9)
        assert op.quadrature_budget < 1e-10

    def test_diagonal_closed_form_matches_generic_path(self):
        lam = np.array([0.3, 1.0, 2.0 + 1.0j, 4.0])
        u = 0.4
        fast = func_calc(diagonal_semigroup(lam), STEP + D12, u)
        slow = func_calc(matrix_semigroup(np.diag(-lam)), STEP + D12, u)
        assert fast.is_diag
        assert np.max(np.abs(fast.to_dense() - slow.to_dense())) < 1e-10

    def test_linearity(self):
        sg = riemann_liouville(24)
        u = 0.3
        a = func_calc(sg, D12, u).to_dense()
        b = func_calc(sg, STEP, u).to_dense()
        both = func_calc(sg, D12 + STEP, u).to_dense()
        assert np.max(np.abs(both - (a + b))) < 1e-10

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            func_calc(nilpotent_shift(8), D12, 0.0)


class TestResolvent:
    def test_diagonal_closed_form(self):
        lam = np.array([1.0, 2.0, 5.0 + 1.0j])
        sg = diagonal_semigroup(lam)
        z = 0.25 + 0.1j
        R = resolvent(sg, [z])[0]
        assert np.allclose(np.diag(R), 1.0 / (z - lam), atol=1e-14)

    def test_diagonal_divergence_guard(self):
        sg = diagonal_semigroup([1.0, 2.0])
        with pytest.raises(DivergentIntegralError):
            resolvent(sg, [1.5])[0]

    def test_generic_divergence_is_not_hidden_by_underflow(self):
        # the tail test's norm of T(t) = e^(-t) once underflowed to 0, which
        # passed the test and returned a huge finite sum for a divergent integral
        with pytest.raises(DivergentIntegralError):
            resolvent(matrix_semigroup(np.diag([-1.0])), [2.0])

    def test_shift_at_zero_is_minus_integral(self):
        n = 64
        sg = nilpotent_shift(n)
        R = _lower_toeplitz(resolvent(sg, [0.0])[0])
        # -int_0^1 T(t) dt with cell-exact integration: every shift power
        # gets weight 1/n except the half cells at the ends
        col = np.full(n, -1.0 / n)
        col[0] = -0.5 / n
        assert np.allclose(R[:, 0], col, atol=1e-15)

    def test_shift_resolvent_identity_residual(self):
        # the two-parameter resolvent identity holds to the discretization
        # error O(n^-2) of the cell model, not to machine precision
        sg = nilpotent_shift(512)
        z, w = 0.5, 2.0 + 1.0j
        Rz, Rw = (_lower_toeplitz(resolvent(sg, [lam])[0]) for lam in (z, w))
        res = op_norm(Rz - Rw - (w - z) * (Rz @ Rw))
        assert res < 1e-5

    def test_matrix_backend_open_ended_integral(self):
        A = np.diag([-1.0, -2.0])
        sg = matrix_semigroup(A)
        z = 0.3
        R = resolvent(sg, [z])[0]
        ref = np.linalg.inv(A + z * np.eye(2))
        assert np.max(np.abs(R - ref)) < 1e-10

    def test_matrix_backend_divergence_guard(self):
        sg = matrix_semigroup(np.diag([0.5]))  # T(t) grows, no decay ever
        with pytest.raises(DivergentIntegralError):
            resolvent(sg, [0.0])[0]

    def test_divergence_names_the_first_open_lam_of_the_batch(self):
        # ||T(t)|| = e^{-t/5}: lam = 0 converges, Re lam = 2 and 3 never do
        sg = matrix_semigroup(np.diag([-0.2]))
        with pytest.raises(DivergentIntegralError, match=r"lam = \(2\+0j\)$"):
            resolvent(sg, [0.0, 2.0, 3.0])

    def test_divergent_lam_is_refused_without_overflow(self):
        # s(A) = -0.2, so Re lam + s(A) = 3.8 >= 0: e^(4 t) once overflowed in
        # the tail test and ended in a bare OverflowError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergentIntegralError, match=r"lam = \(4\+0j\)$"):
                resolvent(matrix_semigroup(np.diag([-0.2])), [4.0])

    def test_divergent_lam_is_refused_before_any_panel(self, monkeypatch):
        # Re lam + s(A) = 0.1: refused from the spectral abscissa alone
        sg = matrix_semigroup(np.diag([-0.2]))
        times = []
        materialize = type(sg)._materialize
        monkeypatch.setattr(type(sg), "_materialize",
                            lambda self, t: times.append(t) or materialize(self, t))
        with pytest.raises(DivergentIntegralError):
            resolvent(sg, [0.0, 0.3])
        assert times == []

    @pytest.mark.parametrize("sg", [
        matrix_semigroup(np.array([[-3.0, 2.0, 0.0], [0.0, -4.0, 1.0], [0.5, 0.0, -5.0]])),
        nilpotent_shift(64),
    ], ids=["matrix", "nilpotent-shift"])
    def test_batch_is_single_calls_and_materializes_each_time_once(self, sg, monkeypatch):
        lams = [0.2 + 0.5j, 1.5 - 1.0j]
        singles = [resolvent(sg, [lam])[0] for lam in lams]
        times = []
        materialize = type(sg)._materialize
        monkeypatch.setattr(type(sg), "_materialize",
                            lambda self, t: times.append(t) or materialize(self, t))
        batch = resolvent(sg, lams)
        assert len(batch) == 2
        assert all(np.array_equal(b, r) for b, r in zip(batch, singles))
        assert len(times) == len(set(times))
        # the 32 nodes of one panel and its end, shared by every lam; the
        # shift integrates cell-exactly on first columns: nothing to materialize
        assert len(times) == (0 if isinstance(sg, NilpotentShift) else 33)

    # T(t) is e^(-t/5) times a rotation: its norm is e^(-t/5)
    ROTATION = np.array([[-0.2, -1.0], [1.0, -0.2]])

    @pytest.mark.parametrize("lam", [0.3j, 0.9j])
    def test_rotation_matches_the_inverse(self, lam):
        R = resolvent(matrix_semigroup(self.ROTATION), [lam])[0]
        ref = np.linalg.inv(self.ROTATION + lam * np.eye(2))
        assert np.linalg.norm(R - ref, 2) <= 1e-14 * np.linalg.norm(ref, 2)

    def test_slow_decay_near_the_abscissa_is_exact(self):
        # ||T(t)|| = e^(-t/20): the Neumann series over panels of width 1/2
        # has ratio e^(-1/40), and the solve sums all of it; ||R|| = 20
        A = np.diag([-0.05])
        R = resolvent(matrix_semigroup(A), [0.0])[0]
        ref = np.linalg.inv(A)
        assert np.linalg.norm(R - ref, 2) <= 1e-13 * np.linalg.norm(ref, 2)

    def test_off_shift_generator_matches_the_inverse(self):
        # the benchmark's 128 x 128 normal generator (input family 0) and the
        # ten lam that resolvent-check draws from seed 0
        A = _off_shift_generator()
        lams = [z for pair in _seed0_pairs() for z in pair]
        for lam, R in zip(lams, resolvent(matrix_semigroup(A), lams)):
            ref = np.linalg.inv(A + lam * np.eye(len(A)))
            assert np.linalg.norm(R - ref, 2) <= 1e-13 * np.linalg.norm(ref, 2)

    def test_stiff_generators_match_the_inverse(self):
        # a panel of width 1/2 spans |a| / 2 e-folds of e^(a x), more than the
        # order-32 rule resolves: at lam = 0 it was 4.1e-11 off at a = -300
        # and 10 % off at a = -2000
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in (-5.0, -300.0, -400.0, -500.0, -700.0, -1000.0, -2000.0, -1e4, -1e5):
                lams = [0.0, 1.0 + 1.0j, 3.0 - 3.0j, -0.9 * a]
                for lam, R in zip(lams, resolvent(matrix_semigroup(np.diag([a])), lams)):
                    ref = 1.0 / (a + lam)
                    assert abs(R[0, 0] - ref) <= 1e-13 * abs(ref), (a, lam)

    def test_large_re_lam_is_finite_where_the_integral_converges(self):
        # e^(lam h) once overflowed at lam h > 709.78, giving NaN for -1/500
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            R = resolvent(matrix_semigroup(np.diag([-2000.0])), [1500.0])[0]
        assert abs(R[0, 0] + 0.002) <= 1e-13 * 0.002

    @pytest.mark.parametrize("stiff", [False, True], ids=["off-shift", "stiff"])
    def test_one_panel_width_per_batch(self, monkeypatch, stiff):
        # h = min(1/2, 25 / (opnorm_bound(A) + max |lam|)): the benchmark's
        # generators (||A|| about 30, |lam| < 4.25) keep h = 1/2
        if stiff:
            A, lams, width = np.diag([-2000.0, -1000.0]), [0.0, 500.0], 0.01
        else:
            A, lams, width = _off_shift_generator(), [z for p in _seed0_pairs() for z in p], 0.5
        sg = matrix_semigroup(A)
        h = min(0.5, calculus._PANEL_EFOLDS / (opnorm_bound(A) + max(map(abs, lams))))
        assert h == pytest.approx(width, rel=1e-14) and (h == 0.5) is not stiff
        times = []
        materialize = type(sg)._materialize
        monkeypatch.setattr(type(sg), "_materialize",
                            lambda self, t: times.append(t) or materialize(self, t))
        resolvent(sg, lams)
        assert len(times) == 33 and max(times) == h

    def test_diagonal_refuses_above_the_dense_cap_before_forming_it(self, monkeypatch):
        monkeypatch.setattr(DiagonalSemigroup, "_DENSE_CAP", 4)
        monkeypatch.setattr(np, "diag", lambda *args: pytest.fail("np.diag called"))
        with pytest.raises(ConfigError, match="refusing dense 5x5 resolvent"):
            resolvent(diagonal_semigroup(np.arange(1.0, 6.0)), [0.0])

    def test_riemann_liouville_is_refused_before_any_materialize(self, monkeypatch):
        sg = riemann_liouville(16)
        times = []
        monkeypatch.setattr(type(sg), "_materialize", lambda self, t: times.append(t))
        with pytest.raises(NoGeneratorError):
            resolvent(sg, [0.5])
        assert times == []

    def test_each_gauss_legendre_rule_is_built_once(self, monkeypatch):
        # a matrix batch takes the order-32 rule on its one panel; it is built once
        orders = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda order: orders.append(order) or leggauss(order))
        calculus._unit_rule.cache_clear()
        sg = matrix_semigroup(np.array([[-3.0, 2.0], [0.0, -4.0]]))
        resolvent(sg, [0.2 + 0.5j, 1.5 - 1.0j])
        resolvent(sg, [0.7])
        assert orders == [32]
        nodes, _ = calculus._gauss_legendre(0.0, 0.5)
        assert np.array_equal(nodes, 0.25 * leggauss(32)[0] + 0.25)
        assert not any(x.flags.writeable for x in calculus._unit_rule(32))


def _off_shift_generator():
    """The benchmark's 128 x 128 normal resolvent generator (input family 0)."""
    rng = np.random.default_rng(0)
    n = 128
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    B = np.zeros((n, n))
    for j in range(0, n, 2):  # eigenvalues a +- i b
        a, b = (-7.0 if j == 0 else -9.0 - 3.0 * j / n), rng.uniform(-3.0, 3.0)
        B[j:j + 2, j:j + 2] = [[a, b], [-b, a]]
    return Q @ B @ Q.T


def _seed0_pairs():
    """The five (lam, nu) pairs that resolvent-check draws from seed 0."""
    rng = np.random.default_rng(0)
    lams = [complex(rng.uniform(0, 3), rng.uniform(-3, 3)) for _ in range(10)]
    return list(zip(lams[::2], lams[1::2]))


class TestResolventIdentityResiduals:
    def test_shift_resolvent_is_its_first_column(self):
        sg = nilpotent_shift(64)
        lam = 1.3 - 0.7j
        col = resolvent(sg, [lam])[0]
        assert col.shape == (64,)
        assert np.array_equal(col, -calculus._shift_exp_column(sg, lam, 1.0))

    @pytest.mark.parametrize("n", [64, 512])
    def test_shift_column_route_matches_dense_products(self, n):
        # each residual is the proved bound ||c||_1 of its first column c, a
        # truncated convolution that matches the dense products of the oracle
        # (the residual cancels O(1) terms to O(n^-2), so rounding moves it by
        # a few 1e-12 relative at n = 512) and bounds their norm from above
        sg = nilpotent_shift(n)
        pairs = _seed0_pairs()
        got, inverse = resolvent_residuals(sg, pairs)
        assert len(got) == 5 and inverse == []
        for (lam, nu), res in zip(pairs, got):
            r1, r2 = (resolvent(sg, [z])[0] for z in (lam, nu))
            col = r1 - r2 - (nu - lam) * np.convolve(r1, r2)[:n]
            assert res == opnorm_bound(col)
            R1, R2 = _lower_toeplitz(r1), _lower_toeplitz(r2)
            dense = R1 - R2 - (nu - lam) * (R1 @ R2)
            assert np.linalg.norm(dense - _lower_toeplitz(col), 2) <= 1e-11 * res
            assert res >= np.linalg.norm(_lower_toeplitz(col), 2)
            assert res >= np.linalg.norm(dense, 2)

    def test_dense_backends_keep_the_dense_route(self):
        rng = np.random.default_rng(32)
        A = -5.0 * np.eye(32) + 0.5 * rng.normal(size=(32, 32)) / math.sqrt(32)
        sg = matrix_semigroup(A)
        pairs = _seed0_pairs()[:2]
        R = resolvent(sg, [z for pair in pairs for z in pair])
        dense = [R1 - R2 - (nu - lam) * (R1 @ R2)
                 for (lam, nu), R1, R2 in zip(pairs, R[::2], R[1::2])]
        got, inverse = resolvent_residuals(sg, pairs)
        assert got == [opnorm_bound(M) for M in dense]
        assert all(res >= np.linalg.norm(M, 2) for res, M in zip(got, dense))
        lams = [z for pair in pairs for z in pair]
        defects = [(A + lam * np.eye(32)) @ Rk - np.eye(32) for lam, Rk in zip(lams, R)]
        assert inverse == [opnorm_bound(M) for M in defects]
        assert all(res >= np.linalg.norm(M, 2) for res, M in zip(inverse, defects))

    def test_diagonal_backends_have_no_inverse_residual(self):
        # the diagonal resolvent is its closed form
        _, inverse = resolvent_residuals(diagonal_semigroup([5.0, 6.0]), _seed0_pairs())
        assert inverse == []

    def test_inverse_residual_sees_another_generators_resolvents(self, monkeypatch):
        # on the benchmark's off-shift generator the true resolvents leave
        # about 7e-15; those of 1.1 A pass the identity but not the inverse
        sg, pairs = matrix_semigroup(_off_shift_generator()), _seed0_pairs()
        identity, inverse = resolvent_residuals(sg, pairs)
        assert max(identity) < 1e-13 and max(inverse) < 1e-13
        real = calculus.resolvent
        monkeypatch.setattr(calculus, "resolvent", lambda backend, lams: real(
            matrix_semigroup(1.1 * backend.generator), lams))
        identity, inverse = resolvent_residuals(sg, pairs)
        assert max(identity) < 1e-13 and max(inverse) > 0.1


def _midpoint_sum(sg, f, a, b, scale=1.0, nodes=200_000):
    """Brute-force sum_i h f(t_i) T(scale t_i) over the midpoints t_i of [a, b].

    T jumps at about ten cell breakpoints, so the sum is accurate to about
    10 h max|f|.
    """
    h = (b - a) / nodes
    ts = a + h * (np.arange(nodes) + 0.5)
    M = np.zeros((sg.dim, sg.dim), dtype=complex)
    for t, ft in zip(ts, f(ts)):
        M += h * ft * sg.materialize(scale * t)
    return M


class TestShiftCellExactOracle:
    """Cell-exact shift integrals against a midpoint sum of materialize."""

    LAM = 1.3 - 0.7j

    def test_piece_weights_at_offgrid_scale(self):
        sg = nilpotent_shift(8)
        piece = Piece(0.3, 3.0, (1.0, -0.5))  # crosses the horizon at t = 1/u
        u = 0.37
        op = func_calc(sg, CompactMeasure(pieces=(piece,)), u)
        ref = _midpoint_sum(sg, piece, piece.a, piece.b, scale=u)
        assert np.max(np.abs(op.to_dense() - ref)) < 1e-4

    def test_resolvent_off_zero(self):
        sg = nilpotent_shift(8)
        ref = -_midpoint_sum(sg, lambda t: np.exp(self.LAM * t), 0.0, 1.0)
        R = _lower_toeplitz(resolvent(sg, [self.LAM])[0])
        assert np.max(np.abs(R - ref)) < 1e-4

    def test_kernel_at_offgrid_tau(self):
        sg = nilpotent_shift(8)
        tau = 0.61
        ref = _midpoint_sum(sg, lambda v: np.exp(self.LAM * (v - tau)), 0.0, tau)
        K = toeplitz(_shift_kernel(sg, tau, self.LAM), np.zeros(8))
        assert np.max(np.abs(K - ref)) < 1e-4


def _shift_op(weights: dict, n: int) -> OperatorValue:
    return OperatorValue(None, None, (), 0.0, shift_weights=weights, dim=n)


def _sweep_op(measure: str, k: int) -> OperatorValue:
    return func_calc(nilpotent_shift(512), NAMED_MEASURES[measure](), k / 512)


def _full_band(n: int) -> OperatorValue:
    rng = np.random.default_rng(4)
    return _shift_op(dict(enumerate(rng.normal(size=n) + 1j * rng.normal(size=n))), n)


_OPNORM_CASES = {
    "real": lambda: _shift_op({1: 1.0, 2: -0.5, 6: 0.3}, 50),
    "complex": lambda: _shift_op({2: 1.0, 3: -0.5j, 5: 0.25 + 0.1j}, 50),
    "offset-0": lambda: _shift_op({0: 1.0, 1: -1.0, 3: 0.25j}, 60),
    "single-offset": lambda: _shift_op({1: 2.0 - 1j}, 40),
    "gcd-chain": lambda: _shift_op({3: 1.0, 6: -1.0, 12: 0.5j}, 40),
    "full-band": lambda: _full_band(64),
}
_OPNORM_CASES.update({
    f"{measure}-u{k}": (lambda measure=measure, k=k: _sweep_op(measure, k))
    for measure in ("step", "four-atom", "delta-difference")
    for k in (1, 2, 17, 33, 64)
})


def _step_op(n: int, k: int) -> OperatorValue:
    return func_calc(nilpotent_shift(n), STEP, k / n)


# sections of at least _LANCZOS_MIN_BAND: the step offsets of the shift_refine
# benchmark ops, and complex weights
_WIDE_CASES = {
    **{f"step-n{n}-k{k}": (lambda n=n, k=k: _step_op(n, k))
       for n, k in ((1024, 291), (1024, 162), (2048, 435), (2048, 59))},
    "complex-n1024": lambda: _shift_op(
        {k: complex(math.cos(k), math.sin(3 * k)) / k for k in range(5, 300)}, 1024),
}


class TestShiftOpnorm:
    @pytest.mark.parametrize("case", sorted(_OPNORM_CASES))
    def test_banded_gram_matches_dense_svd(self, case):
        op = _OPNORM_CASES[case]()
        ref = np.linalg.norm(op.to_dense(), 2)
        assert abs(op.norm() - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("n", [4096, 65536])
    def test_second_difference_closed_form(self, n):
        # ||S - S^2|| on C^n is ||I - S|| on C^(n-1) = 2 cos(pi / (2n - 1)); at
        # n = 65536 a dense complex n x n matrix would need 64 GiB
        op = _shift_op({1: 1.0, 2: -1.0}, n)
        assert op.norm() == pytest.approx(2 * math.cos(math.pi / (2 * n - 1)), rel=1e-12)

    def test_gcd_one_offsets_keep_the_full_size_2049(self):
        # offsets with gcd 1 keep the full size 2049, past the 2048 cap where
        # an svds route used to take over; the banded route has no cap
        n = 2049
        op = OperatorValue(None, None, (), 0.0,
                           shift_weights={0: 1.0, 1: -1.0, 3: 0.25j}, dim=n)
        ref = np.linalg.norm(op.to_dense(), 2)
        assert abs(op.norm() - ref) <= 1e-12 * ref

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.inf, math.nan, complex(0.0, math.inf)])
    def test_non_finite_weight_raises(self, bad):
        # LAPACK reduces the band unchecked and in place, and ARPACK iterates
        # on whatever the matvecs return, so the column is checked before
        # either route: a narrow (band) and a wide (Lanczos) section
        for weights, n in (({1: 1.0, 3: bad}, 16), ({1: 1.0, 40: bad}, 64)):
            with pytest.raises(ValueError, match="non-finite"):
                _shift_op(weights, n).norm()

    @pytest.mark.parametrize("case", sorted(_WIDE_CASES))
    def test_lanczos_route_matches_band_route(self, case, monkeypatch):
        op = _WIDE_CASES[case]()
        sections = []
        lanczos = linalg._lanczos_opnorm
        monkeypatch.setattr(linalg, "_lanczos_opnorm",
                            lambda c, m: sections.append((m, len(c) - 1)) or lanczos(c, m))
        wide = op.norm()
        assert len(sections) == 1 and sections[0][1] >= linalg._LANCZOS_MIN_BAND
        monkeypatch.setattr(linalg, "_LANCZOS_MIN_BAND", math.inf)
        band = op.norm()
        assert len(sections) == 1
        assert abs(wide - band) <= 1e-12 * band

    def test_arpack_failure_falls_back_to_the_band(self, monkeypatch):
        op = _WIDE_CASES["step-n1024-k162"]()
        monkeypatch.setattr(linalg, "_LANCZOS_MIN_BAND", math.inf)
        band = op.norm()
        monkeypatch.undo()

        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))
        monkeypatch.setattr(linalg, "eigsh", no_convergence)
        assert op.norm() == band


class TestRefinement:
    """Norms of F(-uA) on the shift model as the cell count n grows."""

    @pytest.mark.parametrize("measure", ["delta-difference", "four-atom"])
    @pytest.mark.parametrize("u", [1 / 64, 1 / 16, 1 / 8, 1 / 4])
    def test_atomic_norm_does_not_depend_on_n(self, measure, u):
        # integer atoms at a grid-aligned u act on whole cells, so every n
        # reduces to the same chain
        mu = NAMED_MEASURES[measure]()
        norms = {func_calc(nilpotent_shift(n), mu, u).norm()
                 for n in (512, 1024, 2048, 4096, 8192, 16384)}
        assert len(norms) == 1

    def test_step_norm_rises_below_the_imaginary_axis_sup(self):
        # F(-uA) compresses full-line convolution with mu to L^2(0, 1), so its
        # norm stays below sup_y |F(iy)|; a sampled sup is a stricter ceiling
        norms = [func_calc(nilpotent_shift(n), STEP, 1 / 64).norm()
                 for n in (512, 1024, 2048, 4096)]
        ceiling = float(np.max(np.abs(laplace(STEP, 1j * np.linspace(0.0, 20.0, 20001)))))
        assert ceiling == pytest.approx(1.4492, abs=1e-4)
        assert all(a < b for a, b in zip(norms, norms[1:]))
        assert norms[-1] < ceiling


class TestEpCalc:
    def test_order_zero_reduces_to_func_calc(self):
        sg = matrix_semigroup(np.diag([-1.0, -3.0]))
        phi = CompactDistribution(0, (D12,))
        u = 0.5
        a = ep_calc(sg, phi, u).to_dense()
        b = func_calc(sg, D12, u).to_dense()
        assert np.max(np.abs(a - b)) < 1e-12

    def test_diagonal_scalar_oracle(self):
        lam = np.array([0.5, 1.5, 3.0])
        sg = diagonal_semigroup(lam)
        phi = CompactDistribution(1, (D12, 0.25 * STEP))
        u = 0.6
        op = ep_calc(sg, phi, u)
        assert op.is_diag
        assert np.allclose(op.diag, laplace_distribution(phi, u * lam), atol=1e-12)

    def test_pure_first_order_component(self):
        # phi = (0, delta_1): F(z) = -z e^{-z}, so F(-uA) = uA e^{uA} on
        # the diagonal model
        lam = np.array([1.0, 2.0])
        sg = diagonal_semigroup(lam)
        phi = CompactDistribution(1, (zero_measure(), dirac(1.0)))
        u = 0.3
        op = ep_calc(sg, phi, u)
        assert np.allclose(op.diag, -u * lam * np.exp(-u * lam), atol=1e-14)

    def test_generator_path_matches_diagonal_path(self):
        lam = np.array([0.7, 1.3, 2.9])
        phi = CompactDistribution(1, (D12, 0.5 * D12))
        u = 0.4
        via_diag = ep_calc(diagonal_semigroup(lam), phi, u).to_dense()
        via_gen = ep_calc(matrix_semigroup(np.diag(-lam)), phi, u).to_dense()
        assert np.max(np.abs(via_diag - via_gen)) < 1e-10

    def test_needs_generator(self):
        phi = CompactDistribution(1, (D12, D12))
        with pytest.raises(NoGeneratorError):
            ep_calc(nilpotent_shift(8), phi, 0.5)

    def test_zero_component_on_the_generator_path(self):
        # phi = (0, delta_1): the zero mu_0 adds nothing, F(-uA) = uA e^{uA}
        lam = np.array([1.0, 2.0])
        phi = CompactDistribution(1, (zero_measure(), dirac(1.0)))
        op = ep_calc(matrix_semigroup(np.diag(-lam)), phi, 0.3)
        assert np.allclose(np.diag(op.to_dense()), -0.3 * lam * np.exp(-0.3 * lam), atol=1e-14)


def _spy_opnorm_bound(monkeypatch):
    """Record each (operator, value) that calculus passes to opnorm_bound."""
    calls = []

    def spy(x):
        value = opnorm_bound(x)
        calls.append((np.array(x), value))
        return value

    monkeypatch.setattr(calculus, "opnorm_bound", spy)
    return calls


class TestLemma24:
    def test_shift_identity_and_bound(self):
        sg = nilpotent_shift(64)
        mu = from_atoms([(4 / 64, 1.0), (8 / 64, -1.0)])
        lams = [0.0, 1.0, 2.0 + 1.0j, 0.5 - 3.0j]
        rep = lemma_24_check(sg, mu, lams)
        assert rep.identity_residual < 1e-12
        assert rep.max_lhs <= 12 / 64 + 1e-9  # int t d|mu| = 4/64 + 8/64
        assert all(r[3] > 0 for r in rep.rows)

    def test_density_measure(self):
        sg = nilpotent_shift(128)
        rep = lemma_24_check(sg, STEP, [0.0, 1.0 + 1.0j])
        assert rep.identity_residual < 1e-10
        assert all(r[3] > 0 for r in rep.rows)

    @pytest.mark.parametrize("mu", [
        from_atoms([(0.25, 1.0), (0.5, -1.0)]),
        from_atoms([(0.25, 1.0), (0.5, -1.0)]) + indicator(0.1, 0.3, 0.5),
    ], ids=["atoms", "atoms-and-density"])
    def test_column_form_matches_dense_products(self, mu, monkeypatch):
        # support inside the horizon, so F(-A) != 0 and the convolution is live
        bounded = _spy_opnorm_bound(monkeypatch)
        sg = nilpotent_shift(64)
        lams = [0.0, 1.0, 2.0 + 1.0j, 0.5 - 3.0j]
        F = func_calc(sg, mu, 1.0).to_dense()
        assert np.any(F)
        lhs_ref, res_ref = [], []
        for lam in lams:
            R = _lower_toeplitz(resolvent(sg, [lam])[0])
            lhs_op = F @ R - laplace(mu, lam) * R
            terms = list(mu.atoms) + [(t, w * piece(t)) for piece in mu.pieces
                                      for t, w in zip(*_gauss_legendre(piece.a, piece.b))]
            correction = sum(w * toeplitz(_shift_kernel(sg, t, lam), np.zeros(64))
                             for t, w in terms)
            # T = S^k0 T', so the norm is that of the section T' = M[k0:, :n - k0]
            k0 = int(np.flatnonzero(lhs_op[:, 0])[0])
            section = lhs_op[k0:, : 64 - k0]
            assert np.linalg.norm(section, 2) == pytest.approx(np.linalg.norm(lhs_op, 2),
                                                                rel=1e-14)
            lhs_ref.append(op_norm(section))
            res_ref.append(lhs_op - correction)
        rep = lemma_24_check(sg, mu, lams)
        for row, ref in zip(rep.rows, lhs_ref):
            assert row[1] == pytest.approx(ref, rel=1e-12)
        # the residual is the largest proved bound of the residual columns,
        # each of which is the first column of the dense residual
        assert [np.asarray(col).ndim for col, _ in bounded] == [1] * len(lams)
        assert rep.identity_residual == max(value for _, value in bounded)
        for (col, value), ref in zip(bounded, res_ref):
            assert value == opnorm_bound(col)
            assert np.max(np.abs(_lower_toeplitz(col) - ref)) <= 1e-14
            assert value >= np.linalg.norm(_lower_toeplitz(col), 2)

    def test_config_run_residual_is_the_proved_bound(self, monkeypatch):
        # the lemma24 config: delta-difference on the 512-cell shift
        bounded = _spy_opnorm_bound(monkeypatch)
        rep = lemma_24_check(nilpotent_shift(512), NAMED_MEASURES["delta-difference"](),
                             _default_lambda_grid())
        assert len(bounded) == 20
        assert rep.identity_residual == max(value for _, value in bounded)
        for col, value in bounded:
            assert value == opnorm_bound(col)
            assert value >= np.linalg.norm(_lower_toeplitz(col), 2)

    def test_left_side_overflow_is_a_config_error(self):
        # R(100) is finite (about e^100 / 100), its product with F(-A) is not
        mu = from_atoms([(0.5, 1e300), (0.25, -1e300)])
        with pytest.raises(ConfigError, match=r"overflows at lam = \(100\+0j\)"):
            lemma_24_check(nilpotent_shift(16), mu, [1.0, 100.0])

    def test_builds_no_dense_matrix(self):
        # one dense complex 2048 x 2048 matrix takes 64 MB
        sg = nilpotent_shift(2048)
        tracemalloc.start()
        try:
            rep = lemma_24_check(sg, NAMED_MEASURES["delta-difference"](), [1.3, 2.0 + 1.0j])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert all(r[3] > 0 for r in rep.rows)

    def test_rejects_non_contractive(self):
        with pytest.raises(ConfigError):
            lemma_24_check(riemann_liouville(16), D12, [1.0])

    def test_rejects_left_half_plane(self):
        with pytest.raises(ConfigError):
            lemma_24_check(nilpotent_shift(16), D12, [-1.0])


class TestLemma27:
    PHI = CompactDistribution(1, (D12, 0.5 * D12))

    def test_diagonal_model(self):
        sg = diagonal_semigroup(np.arange(1.0, 7.0))
        rep = lemma_27_check(sg, self.PHI, [0.21, 1.21 + 0.5j, 3.21])
        assert rep.identity_residual < 1e-9
        assert all(r[3] > 0 for r in rep.rows)

    def test_random_well_conditioned_generator(self):
        rng = np.random.default_rng(13)
        A = -np.eye(6) + 0.1 * rng.normal(size=(6, 6))
        sg = matrix_semigroup(A)
        rep = lemma_27_check(sg, self.PHI, [0.5, 1.5 + 1.0j])
        assert rep.identity_residual < 1e-9
        assert all(r[3] > 0 for r in rep.rows)

    def test_order_zero_degenerates_to_first_moment_bound(self):
        sg = diagonal_semigroup(np.arange(1.0, 5.0))
        phi = CompactDistribution(0, (D12,))
        rep = lemma_27_check(sg, phi, [0.21, 2.21])
        # bound column is the first absolute moment, 3.0 for D12
        assert all(r[2] == pytest.approx(3.0, abs=1e-12) for r in rep.rows)
        assert all(r[3] > 0 for r in rep.rows)

    def test_config_residual_is_the_proved_bound(self, monkeypatch):
        # the lemma27 config: order 1, (D12, D12) on diagonal-range 1..19,
        # where B - B2 is diagonal and the bound is its largest entry
        bounded = _spy_opnorm_bound(monkeypatch)
        phi = CompactDistribution(1, (D12, D12))
        grid = _default_lambda_grid(avoid_integers=True)
        rep = lemma_27_check(diagonal_semigroup(np.arange(1.0, 20.0)), phi, grid)
        assert len(bounded) == len(grid)
        assert rep.identity_residual == max(value for _, value in bounded)
        for M, value in bounded:
            assert value == opnorm_bound(M)
            assert not np.any(M - np.diag(np.diag(M)))
            assert value >= np.linalg.norm(M, 2)
            assert value == pytest.approx(np.linalg.norm(M, 2), rel=1e-15)

    def test_margin_is_bound_minus_lhs_minus_budget(self):
        # a density on a matrix backend: F(-A) by Gauss-Legendre, budget > 0
        sg = matrix_semigroup(np.array([[-1.0, 4.0], [-4.0, -1.0]]))
        phi = CompactDistribution(0, (NAMED_MEASURES["step"](),))
        budget = ep_calc(sg, phi, 1.0).quadrature_budget
        assert budget > 0
        rep = lemma_27_check(sg, phi, _default_lambda_grid(avoid_integers=True))
        assert all(margin == bound - lhs - budget for _, lhs, bound, margin in rep.rows)

    def test_left_half_plane_is_refused_however_close(self):
        # Re lam = -1e-13 once passed an absolute -1e-12 allowance
        with pytest.raises(ConfigError, match="right half-plane"):
            lemma_27_check(diagonal_semigroup(np.arange(1.0, 7.0)), self.PHI, [-1e-13])
        with pytest.raises(ConfigError, match="right half-plane"):
            lemma_24_check(nilpotent_shift(16), D12, [-1e-13])

    @pytest.mark.parametrize("sg, error", [
        (riemann_liouville(8), NoGeneratorError),
        (matrix_semigroup(np.diag([-1.0, 0.0])), SingularGeneratorError),
    ], ids=["no-generator", "singular"])
    def test_needs_an_invertible_generator(self, sg, error):
        with pytest.raises(error):
            lemma_27_check(sg, self.PHI, [0.21])

    def test_pole_guard(self):
        sg = diagonal_semigroup(np.arange(1.0, 7.0))
        with pytest.raises(ConfigError, match="pole"):
            lemma_27_check(sg, self.PHI, [2.0])  # lam = lambda_2 exactly


class TestSweep:
    def test_requires_zero_mass(self):
        with pytest.raises(MassNotZeroError):
            sweep(nilpotent_shift(16), dirac(1.0), [0.25])

    def test_requires_real_measure(self):
        mu = from_atoms([(1.0, 1.0j), (2.0, -1.0j)])
        with pytest.raises(ConfigError):
            sweep(nilpotent_shift(16), mu, [0.25])

    def test_requires_quasinilpotent(self):
        with pytest.raises(NotQuasinilpotentError):
            sweep(diagonal_semigroup([1.0, 2.0]), D12, [0.25])

    def test_margins_positive_below_half(self):
        sg = nilpotent_shift(64)
        rows = sweep(sg, D12, [k / 64 for k in range(1, 32)])
        assert all(r.margin > 0 for r in rows)
        assert all(r.norm_F >= r.rho_F - 1e-9 for r in rows)
        assert all(r.rho_F == 0.0 for r in rows)  # quasinilpotent model
        assert empirical_eta(rows) == pytest.approx(31 / 64)

    def test_margin_negative_at_large_scale(self):
        sg = nilpotent_shift(64)
        rows = sweep(sg, D12, [1.0])
        assert rows[0].norm_F == 0.0
        assert rows[0].margin == pytest.approx(-0.25)

    def test_density_sweep_budget_zero_on_shift(self):
        sg = nilpotent_shift(64)
        rows = sweep(sg, STEP, [k / 64 for k in range(1, 9)])
        assert all(r.quadrature_budget == 0.0 for r in rows)
        assert all(r.margin > 0 for r in rows)

    def test_budget_counts_against_the_norm(self):
        # Riemann-Liouville takes Gauss-Legendre: each row carries a budget
        rows = sweep(riemann_liouville(32), STEP, [0.1, 0.2])
        assert all(r.quadrature_budget > 0 for r in rows)
        for r in rows:
            assert r.margin == r.norm_F - r.ray_max_value - r.quadrature_budget


class TestSymmetrizedSweep:
    def test_budget_counts_against_the_norm(self, monkeypatch):
        # each factor carries 2^-20, so the product carries 2^-19
        real = calculus.func_calc
        monkeypatch.setattr(calculus, "func_calc", lambda *args: dataclasses.replace(
            real(*args), quadrature_budget=2.0**-20))
        for r in symmetrized_sweep(nilpotent_shift(64), D12, [k / 64 for k in range(1, 5)]):
            assert r.quadrature_budget == 2.0**-19
            assert r.margin == r.norm_F - r.ray_max_value - 2.0**-19

    def test_rows_carry_the_path_gap(self, monkeypatch):
        monkeypatch.setattr(calculus, "_difference_bound", lambda a, b: 1e-10)
        rows = symmetrized_sweep(nilpotent_shift(64), D12, [2 / 64, 4 / 64])
        assert [r.path_gap for r in rows] == [1e-10, 1e-10]

    def test_real_measure_squares_the_ray_value(self):
        sg = nilpotent_shift(64)
        rows = symmetrized_sweep(sg, D12, [k / 64 for k in range(1, 17)])
        assert all(r.ray_max_value == pytest.approx(1 / 16, abs=1e-10) for r in rows)
        assert all(r.margin > 0 for r in rows)

    def test_matches_single_sweep_of_convolution(self):
        sg = nilpotent_shift(64)
        us = [k / 64 for k in range(1, 9)]
        sym = symmetrized_sweep(sg, D12, us)
        conv = sweep(sg, convolve(D12, D12), us)
        for a, b in zip(sym, conv):
            assert a.norm_F == pytest.approx(b.norm_F, abs=1e-9)

    @pytest.mark.parametrize("sg", [
        nilpotent_shift(64),
        diagonal_semigroup(np.arange(1.0, 9.0)),
        matrix_semigroup(np.array([[-1.0, 0.5], [0.2, -2.0]])),
    ], ids=["shift", "diagonal", "matrix"])
    def test_paths_with_equal_norms_but_different_operators_disagree(self, sg, monkeypatch):
        # negating the convolution path keeps every norm and flips the operator
        monkeypatch.setattr(calculus, "convolve", lambda a, b: -convolve(a, b))
        rows = symmetrized_sweep(sg, D12, [2 / 64, 4 / 64])
        assert all(r.path_gap > _PATH_TOL * r.norm_F for r in rows)

    def test_complex_measure_accepted(self):
        sg = nilpotent_shift(64)
        tw = from_atoms([(1.0, 1.0 + 1.0j), (2.0, -1.0 - 1.0j)])
        rows = symmetrized_sweep(sg, tw, [k / 64 for k in range(1, 9)])
        assert all(r.ray_max_value == pytest.approx(0.125, abs=1e-10) for r in rows)
        assert all(r.margin > 0 for r in rows)


class TestShiftMatmul:
    @staticmethod
    def _double_loop(a: dict, b: dict, n: int) -> dict:
        """The product of sum_k a_k S^k and sum_k b_k S^k on C^n, term by term."""
        out = {}
        for k1, w1 in a.items():
            for k2, w2 in b.items():
                if k1 + k2 < n:
                    out[k1 + k2] = out.get(k1 + k2, 0.0) + w1 * w2
        return out

    def test_matches_the_double_loop_exactly_on_integer_weights(self):
        # small-integer complex weights keep every sum exact, so the two orders
        # of summation agree bit for bit; offset 1 cancels (1 - 1), and the
        # offsets 9 and 12 lie past n = 8, alone and in sums
        n = 8
        a = {0: 1.0, 1: 1.0, 2: 2.0 + 1j, 3: -2j, 9: 5.0}
        b = {0: 1.0, 1: -1.0, 4: 3.0 - 1j, 12: 1j}
        ref = self._double_loop(a, b, n)
        assert ref[1] == 0
        got = _shift_op(a, n).matmul(_shift_op(b, n))
        assert got.dim == n and got.shift_weights == {k: w for k, w in ref.items() if w != 0}
        assert 1 not in got.shift_weights and max(got.shift_weights) < n

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_double_loop_on_random_weights(self, seed):
        rng = np.random.default_rng(seed)
        n = 40

        def draw():
            ks = rng.choice(2 * n, size=12, replace=False).tolist()  # about half past n
            return dict(zip(ks, (rng.normal(size=12) + 1j * rng.normal(size=12)).tolist()))

        a, b = draw(), draw()
        got = _shift_op(a, n).matmul(_shift_op(b, n))
        want = _shift_column(n, self._double_loop(a, b, n))
        assert np.allclose(_shift_column(n, got.shift_weights), want, rtol=0, atol=1e-14)
        assert set(got.shift_weights) == set(np.flatnonzero(want).tolist())


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_calculus_is_multiplicative_on_shift(data):
    n = 32
    sg = nilpotent_shift(n)
    draw_atoms = st.lists(
        st.tuples(st.integers(1, 8), st.integers(-3, 3)), min_size=1, max_size=3
    )
    mu1 = CompactMeasure(
        tuple((k / n * 4, float(w)) for k, w in data.draw(draw_atoms)), ()
    )
    mu2 = CompactMeasure(
        tuple((k / n * 4, float(w)) for k, w in data.draw(draw_atoms)), ()
    )
    u = 0.25
    lhs = func_calc(sg, mu1, u).matmul(func_calc(sg, mu2, u)).to_dense()
    rhs = func_calc(sg, convolve(mu1, mu2), u).to_dense()
    assert np.max(np.abs(lhs - rhs)) < 1e-12
