import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sgcalc.errors import MassNotZeroError
from sgcalc.measures import (
    CompactDistribution,
    CompactMeasure,
    Piece,
    _piece_laplace,
    conj_reflect,
    convolve,
    dirac,
    from_atoms,
    indicator,
    laplace,
    laplace_distribution,
    mass,
    require_mass_zero,
    scale,
    tv_moment,
    zero_measure,
)

D12 = from_atoms([(1.0, 1.0), (2.0, -1.0)])  # delta_1 - delta_2
D1234 = from_atoms([(1.0, 1.0), (2.0, -3.0), (3.0, 1.0), (4.0, 1.0)])
STEP = indicator(1, 2) + indicator(2, 3, -1)  # (chi_[1,2] - chi_[2,3]) dt
LINEAR = CompactMeasure(pieces=(Piece(100.1, 101.3, (-100.7, 1.0)),))  # (t - 100.7) dt


def quad_piece(mu, f):
    """Numerical quadrature oracle over the density pieces of mu."""
    total = 0.0 + 0.0j
    for p in mu.pieces:
        re = quad(lambda t: (f(t) * p(t)).real, p.a, p.b, epsabs=1e-12)[0]
        im = quad(lambda t: (f(t) * p(t)).imag, p.a, p.b, epsabs=1e-12)[0]
        total += re + 1j * im
    return total


class TestMass:
    def test_dirac_difference(self):
        assert mass(D12) == 0

    def test_four_atoms(self):
        assert mass(D1234) == 0

    def test_step_density(self):
        assert mass(STEP) == pytest.approx(0, abs=1e-14)

    def test_simpson_oracle_on_quadratic(self):
        mu = CompactMeasure(pieces=(Piece(0.5, 2.5, (1.0, -0.5, 2.0)),))
        assert mass(mu) == pytest.approx(quad_piece(mu, lambda t: 1.0), abs=1e-10)


class TestRequireMassZero:
    @pytest.mark.parametrize("s", [1.0, 1e4, 1e6, 1e9])
    def test_accepts_zero_mass_atoms_at_any_scale(self, s):
        # (a s, b s, -(a + b) s) cancel to the rounding of the weights, which
        # grows with s: 58 of these 200 failed an absolute floor at s = 1e9
        rng = np.random.default_rng(0)
        for a, b in rng.uniform(size=(200, 2)):
            require_mass_zero(from_atoms([(1.0, a * s), (2.0, b * s), (3.0, -(a + b) * s)]))

    @pytest.mark.parametrize("k", [0, -60, -40, 40, 60])
    def test_same_verdict_for_mu_and_a_power_of_two_times_mu(self, k):
        # LINEAR's terms are about +-120.84 and cancel to -1.4e-13, though
        # int d|mu| is only 0.36; the mass of 1e-13 delta_1 is all of |mu|,
        # and an absolute 1e-12 floor let it through
        for mu in (D12, D1234, STEP, LINEAR):
            require_mass_zero(2.0**k * mu)
        with pytest.raises(MassNotZeroError):
            require_mass_zero(2.0**k * dirac(1.0, 1e-13))


class TestTvMoment:
    def test_dirac_first_moment(self):
        assert tv_moment(D12, 1) == 3.0

    def test_dirac_zeroth_moment(self):
        assert tv_moment(D12, 0) == 2.0

    def test_step_first_moment(self):
        # int_1^2 t dt + int_2^3 t dt = 1.5 + 2.5
        assert tv_moment(STEP, 1) == pytest.approx(4.0, abs=1e-12)

    def test_sign_splitting_oracle(self):
        # (t - 1.5) changes sign inside [1, 2]
        mu = CompactMeasure(pieces=(Piece(1.0, 2.0, (-1.5, 1.0)),))
        oracle = quad(lambda t: abs(t - 1.5), 1.0, 2.0, epsabs=1e-12)[0]
        assert tv_moment(mu, 0) == pytest.approx(oracle, abs=1e-10)

    def test_complex_piece_quadrature_path(self):
        mu = CompactMeasure(pieces=(Piece(1.0, 2.0, (1.0 + 1.0j,)),))
        assert tv_moment(mu, 0) == pytest.approx(math.sqrt(2.0), abs=1e-9)

    @pytest.mark.parametrize("k", [0, -20, -40])
    def test_complex_piece_is_relative_at_every_scale(self, k):
        # |t - 1.5 - 1e-3 i| on [1, 2]: int_{-1/2}^{1/2} sqrt(x^2 + a^2) dx with
        # a = 1e-3 is sqrt(1/4 + a^2) / 2 + a^2 asinh(1 / (2a))
        a = 1e-3
        mu = CompactMeasure(pieces=(Piece(1.0, 2.0, (-1.5 - 1j * a, 1.0)),))
        exact = math.sqrt(0.25 + a * a) / 2 + a * a * math.asinh(0.5 / a)
        assert tv_moment(2.0**k * mu, 0) == pytest.approx(2.0**k * exact, rel=1e-10, abs=0)


class TestLaplace:
    def test_dirac_difference_closed_form(self):
        for s in [0.3, 1.0, 2.0 + 1.0j, -0.5]:
            expected = np.exp(-s) - np.exp(-2 * s)
            assert laplace(D12, s) == pytest.approx(expected, abs=1e-13)

    def test_at_zero_equals_mass(self):
        for mu in [D12, D1234, STEP]:
            assert laplace(mu, 0.0) == pytest.approx(mass(mu), abs=1e-13)

    def test_step_at_one(self):
        expected = math.exp(-1) - 2 * math.exp(-2) + math.exp(-3)
        assert laplace(STEP, 1.0) == pytest.approx(expected, abs=1e-13)
        assert expected == pytest.approx(0.1470, abs=1e-4)

    def test_piece_against_adaptive_quadrature(self):
        mu = CompactMeasure(pieces=(Piece(0.7, 3.1, (0.5, 1.0, -0.25, 0.1)),))
        for z in [0.0, 1e-9, 0.1, 2.0, 1.0 + 3.0j, -1.5, 5.0j]:
            oracle = quad_piece(mu, lambda t: np.exp(-z * t))
            assert laplace(mu, z) == pytest.approx(oracle, abs=1e-10)

    def test_vectorized_matches_scalar(self):
        zs = np.array([0.0, 0.3, 1.0 + 2.0j, -0.2, 4.0])
        vals = laplace(STEP, zs)
        for z, v in zip(zs, vals):
            assert v == pytest.approx(laplace(STEP, complex(z)), abs=1e-13)

    @pytest.mark.parametrize("mu", [dirac(0.5), dirac(2.0, -3.0), D12, D1234, STEP,
                                    STEP + D12], ids=["dirac", "dirac-weighted", "d12",
                                                      "four-atom", "step", "step-and-atoms"])
    def test_real_array_stays_real(self, mu):
        # real exp against complex exp: within 2 ulp of each atom's term
        xs = np.concatenate([np.linspace(0.0, 40.0, 4001), -np.linspace(0.0, 3.0, 31)])
        got = laplace(mu, xs)
        ref = laplace(mu, xs.astype(complex))
        assert got.dtype == np.float64
        assert not np.any(ref.imag)
        terms = sum(abs(w) * np.exp(-xs * t) for t, w in mu.atoms) + 0.0 * xs
        assert np.all(np.abs(got - ref.real) <= 2 * len(mu.atoms) * np.spacing(terms))

    @pytest.mark.parametrize("mu", [D12, STEP + D12, from_atoms([(1.0, 1j), (2.0, -1j)])],
                             ids=["d12", "step-and-atoms", "complex-atoms"])
    def test_complex_arrays_and_scalars_keep_their_bits(self, mu):
        # the complex evaluation, written out as it stood before real arrays
        # took their own route
        def complex_laplace(z):
            z_arr = np.asarray(z, dtype=complex)
            out = np.zeros(z_arr.shape, dtype=complex)
            for t, w in mu.atoms:
                out += w * np.exp(-z_arr * t)
            for p in mu.pieces:
                out += _piece_laplace(p, z_arr)
            return complex(out) if z_arr.shape == () else out

        zs = np.array([0.0, 0.3, 1.0 + 2.0j, -0.2, 4.0, 0.1j])
        assert laplace(mu, zs).tobytes() == complex_laplace(zs).tobytes()
        for z in [0.0, 0.3, 4, 1.0 + 2.0j, np.float64(2.5), np.complex128(0.5j),
                  np.asarray(0.3)]:
            got, ref = laplace(mu, z), complex_laplace(z)
            assert type(got) is complex and got == ref
        if not mu.is_real:  # a real array against a complex measure stays complex
            xs = np.linspace(0.0, 5.0, 11)
            assert laplace(mu, xs).tobytes() == complex_laplace(xs).tobytes()

    def test_decay_bound(self):
        for mu in [D12, D1234, STEP]:
            tv0 = tv_moment(mu, 0)
            smin = mu.support_min
            for x in np.linspace(0, 20, 41):
                assert abs(laplace(mu, x)) <= tv0 * math.exp(-x * smin) + 1e-12


def _exact_piece_laplace(p: Piece, z: complex, tail_tol: float):
    """int_a^b p(t) e^{-zt} dt for a double z, as exact rational (re, im).

    The terms (-z)^j/j! int t^(k+j) dt are exact; the sum stops once the tail
    past term J, at most sum |c_k| b^k (b - a) * 2 y^J/J! for y = |z| b <= J/2,
    is below tail_tol.
    """
    a, b = Fraction(p.a), Fraction(p.b)
    cs = [(Fraction(c.real), Fraction(c.imag)) for c in p.coeffs]
    wr, wi = -Fraction(z.real), -Fraction(z.imag)
    y = abs(z) * p.b
    size = sum(abs(c) * p.b**k for k, c in enumerate(p.coeffs)) * (p.b - p.a)
    sr = si = Fraction(0)
    tr, ti = Fraction(1), Fraction(0)  # (-z)^j / j!
    j, ratio = 0, 1.0  # ratio = y^j / j!
    while j < 2 * y or 2 * ratio * size > tail_tol:
        mr = mi = Fraction(0)
        for k, (cr, ci) in enumerate(cs):
            n = k + j + 1
            m = (b**n - a**n) / n
            mr += cr * m
            mi += ci * m
        sr += tr * mr - ti * mi
        si += tr * mi + ti * mr
        j += 1
        tr, ti = (tr * wr - ti * wi) / j, (tr * wi + ti * wr) / j
        ratio *= y / j
    return sr, si


# coefficients of mixed sign and phase, so the pieces' own cancellation shows
_ORACLE_COEFFS = (1.0, -0.75, 0.5 + 0.5j, -1.0, 0.625, -0.25j)


@pytest.mark.parametrize("a,b", [(1.0, 3.0), (0.25, 0.5), (1.0, 11.0)])
@pytest.mark.parametrize("degree", range(6))
def test_piece_laplace_against_exact_rationals(a, b, degree):
    p = Piece(a, b, _ORACLE_COEFFS[: degree + 1])
    h = 0.5 * (b - a)
    # each side of the series/recurrence boundary, and just past |z| b = 1/2
    radii = [0.99 * max(degree, 0.125) / h, 1.01 * max(degree, 0.125) / h, 0.505 / b]
    phases = [1.0, 1j, (1 + 1j) / math.sqrt(2), (-1 + 1j) / math.sqrt(2)]
    zs = np.array([r * ph for r in radii for ph in phases])
    got = _piece_laplace(p, zs)
    size = sum(abs(c) * max(a, b) ** k for k, c in enumerate(p.coeffs)) * (b - a)
    for z, val in zip(zs, got):
        bound = 8 * np.finfo(float).eps * size * math.exp(-min(a * z.real, b * z.real))
        er, ei = _exact_piece_laplace(p, complex(z), 1e-3 * bound)
        err = abs(complex(Fraction(val.real) - er, Fraction(val.imag) - ei))
        assert err <= bound, (z, err / bound)


class TestScale:
    def test_scaled_transform(self):
        mu = STEP + D12
        for u in [0.25, 1.0, 3.0]:
            for z in [0.5, 1.0 + 1.0j, 2.0]:
                assert laplace(scale(mu, u), z) == pytest.approx(
                    laplace(mu, u * z), abs=1e-12
                )


class TestConvolve:
    def test_atom_arithmetic(self):
        conv = convolve(D12, D12)
        assert conv.atoms == ((2.0, 1.0), (3.0, -2.0), (4.0, 1.0))

    def test_hermitian_symmetrization_real(self):
        mu = from_atoms([(1.0, 1.0 + 1.0j), (2.0, -2.0 + 0.5j)])
        nu = convolve(mu, conj_reflect(mu))
        assert nu.is_real

    def test_indicator_square_multiplicative(self):
        box = indicator(1, 2)
        conv = convolve(box, box)
        for z in [1.0, 0.5 + 1.0j, 2.0, 0.0]:
            assert laplace(conv, z) == pytest.approx(laplace(box, z) ** 2, abs=1e-12)

    def test_breakpoints_closer_than_rounding_collapse(self):
        # [1, 2] * [1, 2 + 1e-14] has breakpoints 3 and 3 + 1e-14: no piece
        # is built on the gap, and the transform stays multiplicative
        a, b = indicator(1, 2), indicator(1, 2 + 1e-14)
        conv = convolve(a, b)
        assert all(p.b - p.a > 1e-13 for p in conv.pieces)
        for z in [1.0, 0.5 + 1.0j]:
            assert laplace(conv, z) == pytest.approx(laplace(a, z) * laplace(b, z), abs=1e-12)

    def test_triangle_shape(self):
        # chi_[1,2] * chi_[1,2] is the triangle peaking at t = 3
        conv = convolve(indicator(1, 2), indicator(1, 2))
        for t, expected in [(2.5, 0.5), (2.999, 0.999), (3.001, 0.999), (3.5, 0.5)]:
            val = sum(p(t) for p in conv.pieces if p.a <= t < p.b)
            assert val == pytest.approx(expected, abs=1e-12)

    def test_atom_times_piece(self):
        conv = convolve(dirac(1.5, 2.0), indicator(1, 2))
        assert len(conv.pieces) == 1
        p = conv.pieces[0]
        assert (p.a, p.b) == (2.5, 3.5)
        for z in [0.7, 1.0 + 0.5j]:
            assert laplace(conv, z) == pytest.approx(
                2.0 * np.exp(-1.5 * z) * laplace(indicator(1, 2), z), abs=1e-12
            )


class TestConjReflect:
    def test_real_fixed_point(self):
        assert conj_reflect(D12) == D12

    def test_complex_atom(self):
        mu = dirac(1.0, 1.0 + 1.0j)
        assert conj_reflect(mu).atoms == ((1.0, 1.0 - 1.0j),)

    def test_laplace_identity(self):
        rng = np.random.default_rng(7)
        mu = from_atoms([(1.0, 1.0 + 2.0j), (2.5, -0.5j)]) + indicator(1, 3, 0.5 - 0.25j)
        for _ in range(20):
            z = complex(rng.normal(), rng.normal())
            lhs = laplace(conj_reflect(mu), z)
            rhs = laplace(mu, z.conjugate()).conjugate()
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_involution(self):
        mu = from_atoms([(1.0, 1.0 + 2.0j)]) + indicator(1, 2, 2.0 - 1.0j)
        assert conj_reflect(conj_reflect(mu)) == mu


class TestDistribution:
    def test_order_zero_reduction(self):
        phi = CompactDistribution(0, (D12,))
        for z in [0.5, 1.0 + 1.0j]:
            assert laplace_distribution(phi, z) == pytest.approx(laplace(D12, z))

    def test_single_first_order_term(self):
        # components (0, delta_1): only j=1 contributes
        phi = CompactDistribution(1, (zero_measure(), dirac(1.0)))
        val = laplace_distribution(phi, 1.0)
        assert val == pytest.approx(-math.exp(-1), abs=1e-13)

    def test_zero_argument(self):
        phi = CompactDistribution(1, (dirac(1.0), dirac(1.0)))
        assert laplace_distribution(phi, 0.0) == pytest.approx(1.0)

    def test_component_count_enforced(self):
        with pytest.raises(ValueError):
            CompactDistribution(2, (D12,))


# ---------------------------------------------------------------------------
# property-based checks

locations = st.floats(min_value=0.5, max_value=4.0)
weights = st.complex_numbers(
    min_magnitude=0.1, max_magnitude=3.0, allow_nan=False, allow_infinity=False
)


@st.composite
def atom_measures(draw):
    n = draw(st.integers(1, 4))
    pairs = [(draw(locations), draw(weights)) for _ in range(n)]
    return from_atoms(pairs)


@st.composite
def mixed_measures(draw):
    mu = draw(atom_measures())
    if draw(st.booleans()):
        a = draw(st.floats(min_value=0.5, max_value=2.0))
        w = draw(weights)
        deg = draw(st.integers(0, 2))
        coeffs = tuple(draw(weights) for _ in range(deg + 1))
        mu = mu + CompactMeasure(pieces=(Piece(a, a + 1.0, coeffs),))
    return mu


@settings(max_examples=40, deadline=None)
@given(mixed_measures(), mixed_measures(), st.integers(0, 19))
def test_convolution_multiplicative(mu, nu, k):
    rng = np.random.default_rng(k)
    z = complex(rng.normal(), rng.normal())
    lhs = laplace(convolve(mu, nu), z)
    rhs = laplace(mu, z) * laplace(nu, z)
    scale_ref = max(1.0, abs(rhs))
    assert abs(lhs - rhs) < 1e-11 * scale_ref


def test_convolution_multiplicative_on_degree_five_pieces():
    # the product of two quadratic pieces on [0.5, 1.5] has degree-5 pieces on
    # [1, 3], evaluated here at |z| b = 0.55 (the first draw of seed 0)
    mu = dirac(1.0, 0.125) + CompactMeasure(pieces=(Piece(0.5, 1.5, (1.0, 0.25, 1j)),))
    nu = dirac(1.0, 0.125) + CompactMeasure(pieces=(Piece(0.5, 1.5, (0.125, 0.125, 1j)),))
    z = 0.1257302210933933 - 0.1321048632913019j
    assert abs(laplace(convolve(mu, nu), z) - laplace(mu, z) * laplace(nu, z)) <= 1e-13


@settings(max_examples=30, deadline=None)
@given(mixed_measures(), mixed_measures())
def test_convolution_commutative(mu, nu):
    z = 0.8 + 0.3j
    assert laplace(convolve(mu, nu), z) == pytest.approx(
        laplace(convolve(nu, mu), z), abs=1e-11
    )


@settings(max_examples=15, deadline=None)
@given(atom_measures(), atom_measures(), atom_measures())
def test_convolution_associative(mu, nu, rho):
    z = 0.4 - 0.7j
    lhs = laplace(convolve(convolve(mu, nu), rho), z)
    rhs = laplace(convolve(mu, convolve(nu, rho)), z)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


@settings(max_examples=40, deadline=None)
@given(mixed_measures())
def test_conj_reflect_involution(mu):
    z = 1.1 + 0.4j
    assert laplace(conj_reflect(conj_reflect(mu)), z) == pytest.approx(
        laplace(mu, z), abs=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(mixed_measures(), st.floats(min_value=0.0, max_value=10.0))
def test_ray_decay_bound(mu, x):
    bound = tv_moment(mu, 0) * math.exp(-x * mu.support_min)
    assert abs(laplace(mu, x)) <= bound * (1 + 1e-9) + 1e-12


def test_invariants_rejected():
    with pytest.raises(ValueError):
        dirac(-1.0)
    with pytest.raises(ValueError):
        Piece(2.0, 1.0, (1.0,))
    with pytest.raises(ValueError):
        CompactMeasure(pieces=(Piece(1, 3, (1.0,)), Piece(2, 4, (1.0,))))
    with pytest.raises(ValueError):
        Piece(1.0, 2.0, ())
    with pytest.raises(ValueError):
        CompactDistribution(-1, ())
    with pytest.raises(ValueError):
        scale(dirac(1.0), 0.0)
    with pytest.raises(ValueError):
        tv_moment(dirac(1.0), -1)


def test_piece_sum_below_unit_scale_keeps_its_pieces():
    # the dust floor is relative to the largest coefficient summed: at 2^-60
    # an absolute floor of 1e-14 once dropped every piece
    tiny = 2.0**-60
    summed = tiny * indicator(1, 2) + tiny * indicator(2, 3, -1.0)
    scaled = tiny * (indicator(1, 2) + indicator(2, 3, -1.0))
    assert len(summed.pieces) == 2
    assert summed.pieces == scaled.pieces
