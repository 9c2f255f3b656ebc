import math

import numpy as np
import pytest
import scipy.integrate
from scipy.linalg import toeplitz
from hypothesis import given, settings
from hypothesis import strategies as st

from sgcalc.calculus import (
    OperatorValue,
    _gauss_legendre,
    _shift_kernel,
    ep_calc,
    empirical_eta,
    func_calc,
    lemma_24_check,
    lemma_27_check,
    resolvent,
    sweep,
    symmetrized_sweep,
)
from sgcalc.cli import NAMED_MEASURES
from sgcalc.errors import (
    DivergentIntegralError,
    MassNotZeroError,
    NoGeneratorError,
)
from sgcalc.linalg import op_norm
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
    zero_measure,
)
from sgcalc.semigroups import (
    diagonal_semigroup,
    matrix_semigroup,
    nilpotent_shift,
    riemann_liouville,
)

D12 = from_atoms([(1.0, 1.0), (2.0, -1.0)])
STEP = indicator(1, 2) + indicator(2, 3, -1.0)


class TestFuncCalc:
    def test_shift_atoms_exact(self):
        sg = nilpotent_shift(32)
        u = 4 / 32
        op = func_calc(sg, D12, u)
        ref = sg.materialize(u) - sg.materialize(2 * u)
        assert np.array_equal(op.to_dense(), ref)
        assert op.quadrature_budget == 0.0

    def test_shift_beyond_horizon_is_zero(self):
        sg = nilpotent_shift(16)
        op = func_calc(sg, D12, 1.0)  # support {1, 2}, u t >= 1 throughout
        assert op.norm() == 0.0
        assert np.array_equal(op.to_dense(), np.zeros((16, 16)))

    def test_density_against_scalar_quadrature_oracle(self):
        lam = np.array([0.5, 1.0, 2.5])
        sg = matrix_semigroup(np.diag(-lam))
        u = 0.7
        op = func_calc(sg, STEP, u, force_generic=True)
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
        sg = diagonal_semigroup(lam)
        u = 0.4
        fast = func_calc(sg, STEP + D12, u)
        slow = func_calc(sg, STEP + D12, u, force_generic=True)
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
        R = resolvent(sg, z)
        assert np.allclose(np.diag(R), 1.0 / (z - lam), atol=1e-14)

    def test_diagonal_divergence_guard(self):
        sg = diagonal_semigroup([1.0, 2.0])
        with pytest.raises(DivergentIntegralError):
            resolvent(sg, 1.5)

    def test_shift_at_zero_is_minus_integral(self):
        n = 64
        sg = nilpotent_shift(n)
        R = resolvent(sg, 0.0)
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
        Rz, Rw = resolvent(sg, z), resolvent(sg, w)
        res = op_norm(Rz - Rw - (w - z) * (Rz @ Rw))
        assert res < 1e-5

    def test_matrix_backend_open_ended_integral(self):
        A = np.diag([-1.0, -2.0])
        sg = matrix_semigroup(A)
        z = 0.3
        R = resolvent(sg, z)
        ref = np.linalg.inv(A + z * np.eye(2))
        assert np.max(np.abs(R - ref)) < 1e-10

    def test_matrix_backend_divergence_guard(self):
        sg = matrix_semigroup(np.diag([0.5]))  # T(t) grows, no decay ever
        with pytest.raises(DivergentIntegralError):
            resolvent(sg, 0.0)

    def test_fractional_integration_resolvent_identity(self):
        # the first-order product integration behind the fractional family
        # satisfies the semigroup law only approximately, so the resolvent
        # identity is checked in relative terms at the matching accuracy
        sg = riemann_liouville(64)
        z, w = 0.5, 1.5
        Rz, Rw = resolvent(sg, z), resolvent(sg, w)
        res = op_norm(Rz - Rw - (w - z) * (Rz @ Rw))
        assert res / (op_norm(Rz) * op_norm(Rw)) < 0.05


def _midpoint_sum(sg, f, a, b, scale=1.0, nodes=200_000):
    """Brute-force sum_i h f(t_i) T(scale t_i) over the midpoints t_i of [a, b].

    Each node is materialized afresh (``_materialize`` bypasses the cache,
    which would otherwise keep one matrix per node).  T jumps at about ten
    cell breakpoints, so the sum is accurate to about 10 h max|f|.
    """
    h = (b - a) / nodes
    ts = a + h * (np.arange(nodes) + 0.5)
    M = np.zeros((sg.dim, sg.dim), dtype=complex)
    for t, ft in zip(ts, f(ts)):
        M += h * ft * sg._materialize(scale * t)
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
        assert np.max(np.abs(resolvent(sg, self.LAM) - ref)) < 1e-4

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

    def test_svds_route_above_dense_cap(self):
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
        # LAPACK reduces the band unchecked and in place; the Gram diagonal
        # is checked instead
        op = _shift_op({1: 1.0, 3: bad}, 16)
        with pytest.raises(ValueError, match="non-finite"):
            op.norm()


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
    def test_column_form_matches_dense_products(self, mu):
        # support inside the horizon, so F(-A) != 0 and the convolution is live
        sg = nilpotent_shift(64)
        lams = [0.0, 1.0, 2.0 + 1.0j, 0.5 - 3.0j]
        F = func_calc(sg, mu, 1.0).to_dense()
        assert np.any(F)
        lhs_ref, res_ref = [], 0.0
        for lam in lams:
            R = resolvent(sg, lam)
            lhs_op = F @ R - laplace(mu, lam) * R
            terms = list(mu.atoms) + [(t, w * piece(t)) for piece in mu.pieces
                                      for t, w in zip(*_gauss_legendre(piece.a, piece.b))]
            correction = sum(w * toeplitz(_shift_kernel(sg, t, lam), np.zeros(64))
                             for t, w in terms)
            lhs_ref.append(op_norm(lhs_op))
            res_ref = max(res_ref, op_norm(lhs_op - correction))
        rep = lemma_24_check(sg, mu, lams)
        for row, ref in zip(rep.rows, lhs_ref):
            assert row[1] == pytest.approx(ref, rel=1e-12)
        assert rep.identity_residual == pytest.approx(res_ref, abs=1e-12)

    def test_rejects_non_contractive(self):
        with pytest.raises(ValueError):
            lemma_24_check(riemann_liouville(16), D12, [1.0])

    def test_rejects_left_half_plane(self):
        with pytest.raises(ValueError):
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

    def test_pole_guard(self):
        sg = diagonal_semigroup(np.arange(1.0, 7.0))
        with pytest.raises(ValueError, match="pole"):
            lemma_27_check(sg, self.PHI, [2.0])  # lam = lambda_2 exactly


class TestSweep:
    def test_requires_zero_mass(self):
        with pytest.raises(MassNotZeroError):
            sweep(nilpotent_shift(16), dirac(1.0), [0.25])

    def test_requires_real_measure(self):
        mu = from_atoms([(1.0, 1.0j), (2.0, -1.0j)])
        with pytest.raises(ValueError):
            sweep(nilpotent_shift(16), mu, [0.25])

    def test_requires_quasinilpotent(self):
        with pytest.raises(ValueError):
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


class TestSymmetrizedSweep:
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

    def test_complex_measure_accepted(self):
        sg = nilpotent_shift(64)
        tw = from_atoms([(1.0, 1.0 + 1.0j), (2.0, -1.0 - 1.0j)])
        rows = symmetrized_sweep(sg, tw, [k / 64 for k in range(1, 9)])
        assert all(r.ray_max_value == pytest.approx(0.125, abs=1e-10) for r in rows)
        assert all(r.margin > 0 for r in rows)


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
