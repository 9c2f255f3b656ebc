"""Compactly supported measures on (0, inf) with exact Laplace transforms.

A measure is a finite sum of point atoms and piecewise-polynomial density
pieces, all supported strictly inside the open positive ray.  Everything
downstream (ray maxima, functional calculus, sweeps) evaluates the Laplace
transform of these objects, so the transform, moments and convolution are
computed in closed form here; quadrature only ever appears as a test oracle
or for the modulus of genuinely complex densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import MassNotZeroError

ATOM_MERGE_TOL = 1e-12
_COEFF_DUST = 1e-14


@dataclass(frozen=True)
class Piece:
    """Polynomial density on [a, b] subset of (0, inf), coefficients in ascending powers."""

    a: float
    b: float
    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if not (0.0 < self.a < self.b):
            raise ValueError(f"piece interval [{self.a}, {self.b}] must satisfy 0 < a < b")
        if len(self.coeffs) == 0:
            raise ValueError("piece needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t):
        return npoly.polyval(t, np.asarray(self.coeffs))

    @property
    def is_real(self) -> bool:
        return all(abs(c.imag) == 0.0 for c in self.coeffs)


@dataclass(frozen=True)
class CompactMeasure:
    """Atoms plus piecewise-polynomial density, compactly supported in (0, inf)."""

    atoms: tuple[tuple[float, complex], ...] = ()
    pieces: tuple[Piece, ...] = ()

    def __post_init__(self):
        atoms = tuple((float(t), complex(w)) for t, w in self.atoms)
        for t, _ in atoms:
            if t <= 0.0:
                raise ValueError(f"atom location {t} must be > 0")
        pieces = tuple(p if isinstance(p, Piece) else Piece(*p) for p in self.pieces)
        ordered = sorted(pieces, key=lambda p: p.a)
        for p, q in zip(ordered, ordered[1:]):
            if q.a < p.b - 1e-15:
                raise ValueError(f"pieces [{p.a},{p.b}] and [{q.a},{q.b}] overlap")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "pieces", ordered)

    @property
    def is_zero(self) -> bool:
        return not self.atoms and not self.pieces

    @property
    def support_min(self) -> float:
        locs = [t for t, _ in self.atoms] + [p.a for p in self.pieces]
        return min(locs) if locs else math.inf

    @property
    def support_max(self) -> float:
        locs = [t for t, _ in self.atoms] + [p.b for p in self.pieces]
        return max(locs) if locs else 0.0

    @property
    def is_real(self) -> bool:
        return all(w.imag == 0.0 for _, w in self.atoms) and all(p.is_real for p in self.pieces)

    def __neg__(self) -> "CompactMeasure":
        return CompactMeasure(
            tuple((t, -w) for t, w in self.atoms),
            tuple(Piece(p.a, p.b, tuple(-c for c in p.coeffs)) for p in self.pieces),
        )

    def __add__(self, other: "CompactMeasure") -> "CompactMeasure":
        atoms = _merge_atoms(list(self.atoms) + list(other.atoms))
        pieces = _normalize_pieces(list(self.pieces) + list(other.pieces))
        return CompactMeasure(tuple(atoms), tuple(pieces))

    def __rmul__(self, c) -> "CompactMeasure":
        c = complex(c)
        return CompactMeasure(
            tuple((t, c * w) for t, w in self.atoms),
            tuple(Piece(p.a, p.b, tuple(c * ck for ck in p.coeffs)) for p in self.pieces),
        )


@dataclass(frozen=True)
class CompactDistribution:
    """Order-p distribution given by measures mu_0 ... mu_p acting on derivatives."""

    order: int
    components: tuple[CompactMeasure, ...]

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if len(self.components) != self.order + 1:
            raise ValueError(
                f"need {self.order + 1} component measures, got {len(self.components)}"
            )
        object.__setattr__(self, "components", tuple(self.components))


# ---------------------------------------------------------------------------
# constructors


def dirac(t: float, weight: complex = 1.0) -> CompactMeasure:
    return CompactMeasure(atoms=((t, weight),))


def zero_measure() -> CompactMeasure:
    return CompactMeasure()


def from_atoms(pairs) -> CompactMeasure:
    return CompactMeasure(atoms=tuple(pairs))


def indicator(a: float, b: float, weight: complex = 1.0) -> CompactMeasure:
    """The density weight * chi_[a,b](t) dt."""
    return CompactMeasure(pieces=(Piece(a, b, (weight,)),))


def scale(mu: CompactMeasure, u: float) -> CompactMeasure:
    """Pushforward under t -> u*t, so laplace(scale(mu,u), z) == laplace(mu, u*z)."""
    if u <= 0:
        raise ValueError("scale factor must be positive")
    atoms = tuple((u * t, w) for t, w in mu.atoms)
    pieces = []
    for p in mu.pieces:
        # density q(tau) = p(tau/u) / u on [u*a, u*b]
        coeffs = tuple(c / u ** (k + 1) for k, c in enumerate(p.coeffs))
        pieces.append(Piece(u * p.a, u * p.b, coeffs))
    return CompactMeasure(atoms, tuple(pieces))


# ---------------------------------------------------------------------------
# basic functionals


def mass(mu: CompactMeasure) -> complex:
    """Total integral of mu, exact for atoms and polynomial pieces."""
    total = sum(w for _, w in mu.atoms)
    for p in mu.pieces:
        total += poly_moment(p.coeffs, p.a, p.b)
    return complex(total)


# |mass| allowed per term that ``mass`` adds, relative to S, the sum of the
# terms' sizes: |w| per atom, |c_k| (|a|^n + |b|^n) / n per piece coefficient.
# Each term c_k (b^n - a^n) / n is within 7 u of its size in each part (u =
# eps/2; each power within an ulp, 2 u, the difference, the product and the
# quotient u each), and adding N terms errs by at most (N - 1) u S more, so a
# zero mass computes to <= sqrt(2) (N + 6) u S <= N _MASS_TOL S for N >= 2.
# A single term is exact zero or no zero mass.  Both sides scale with mu.
_MASS_TOL = 4.0 * np.finfo(float).eps


def require_mass_zero(mu: CompactMeasure) -> None:
    """Raise MassNotZeroError unless |mass(mu)| <= N _MASS_TOL S, N the number
    of terms ``mass`` adds and S the sum of their sizes.

    The lower estimates, the strict criterion and the separation certificate
    are all statements about zero-mass measures.
    """
    m = mass(mu)
    terms = len(mu.atoms) + sum(len(p.coeffs) for p in mu.pieces)
    size = sum(abs(w) for _, w in mu.atoms) + sum(
        abs(c) * (abs(p.a) ** n + abs(p.b) ** n) / n
        for p in mu.pieces for n, c in enumerate(p.coeffs, 1))
    if abs(m) > terms * _MASS_TOL * size:
        raise MassNotZeroError(f"measure has mass {m:.3g}, the check needs mass 0")


def tv_moment(mu: CompactMeasure, k: int = 0) -> float:
    """Total-variation moment: integral of t^k d|mu|(t).

    Real polynomial pieces are split at their sign changes and integrated
    exactly; complex pieces fall back to adaptive quadrature of |p(t)| t^k.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    total = sum(abs(w) * t**k for t, w in mu.atoms)
    for p in mu.pieces:
        total += _piece_tv_moment(p, k)
    return float(total)


def _piece_tv_moment(p: Piece, k: int) -> float:
    c = np.asarray(p.coeffs)
    if p.is_real:
        cr = c.real
        pts = [p.a, p.b]
        if len(cr) > 1 and np.max(np.abs(cr[1:])) > 0:
            for r in npoly.polyroots(cr):
                if abs(r.imag) < 1e-12 and p.a < r.real < p.b:
                    pts.append(float(r.real))
        pts = sorted(set(pts))
        return sum(abs(poly_moment(cr, lo, hi, k)) for lo, hi in zip(pts, pts[1:]))
    # loaded here: only complex pieces need it, and the import costs a quarter
    # of a second of every run's start-up
    from scipy.integrate import quad

    # a relative tolerance only, so that 2^k mu gets 2^k times the moment of mu
    val, err = quad(lambda t: abs(npoly.polyval(t, c)) * t**k, p.a, p.b,
                    epsabs=0.0, epsrel=1e-10, limit=200)
    return val


# ---------------------------------------------------------------------------
# Laplace transform


def laplace(mu: CompactMeasure, z):
    """L mu(z) = integral of e^{-z t} dmu(t).  Accepts scalar or ndarray z.

    A real array z against a real measure gives a float64 array: the atoms
    take real exp, and the density pieces keep their complex closed form, of
    which the real part is kept.
    """
    z_arr = np.asarray(z)
    real = z_arr.ndim > 0 and not np.iscomplexobj(z_arr) and mu.is_real
    if not real:
        z_arr = z_arr.astype(complex)
    out = np.zeros(z_arr.shape, dtype=float if real else complex)
    for t, w in mu.atoms:
        out += (w.real if real else w) * np.exp(-z_arr * t)
    for p in mu.pieces:
        val = _piece_laplace(p, z_arr.astype(complex, copy=False))
        out += val.real if real else val
    return out if z_arr.ndim else complex(out)


# the series about a piece's centre runs up to |z|*h = max(degree, this)
_SERIES_FLOOR = 0.125
# its truncation, relative to sum |c_k| b^k (b - a) e^{-Re(zc)}, stays below this
_SERIES_TAIL = 1e-17


def _piece_laplace(p: Piece, z: np.ndarray) -> np.ndarray:
    """Closed-form integral of p(t) e^{-z t} over [a, b], vectorized in z.

    With centre c and half-width h, |z|*h < max(degree, 1/8) takes the series
    e^{-zc} sum_j (-z)^j/j! M_j with the exact centred moments
    M_j = int_{-h}^{h} p(c+s) s^j ds (this branch covers z = 0).  Elsewhere
    the upward recurrence for int t^k e^{-zt} dt applies; each of its steps
    scales the rounding error by k/|z| <= h.
    """
    c, h = 0.5 * (p.a + p.b), 0.5 * (p.b - p.a)
    out = np.empty(z.shape, dtype=complex)
    series = np.abs(z) * h < max(p.degree, _SERIES_FLOOR)
    zs = z[series]
    if zs.size:
        x = float(np.max(np.abs(zs))) * h
        # sum_{j >= J} x^j/j! <= e^x x^J/J! bounds the tail
        tail, terms = math.exp(x), 0
        while tail > _SERIES_TAIL:
            terms += 1
            tail *= x / terms
        # d_k h^(k+1), for p(c + s) = sum_k d_k s^k
        d = _shift_coeffs(p.coeffs, -c) * h ** np.arange(1, p.degree + 2)
        jk = np.arange(terms)[:, None] + np.arange(p.degree + 1)
        moments = np.where(jk % 2 == 0, 2.0 / (jk + 1), 0.0) @ d  # M_j / h^j
        inv_fact = np.cumprod(np.r_[1.0, 1.0 / np.arange(1, terms)])
        out[series] = np.exp(-zs * c) * npoly.polyval(-zs * h, moments * inv_fact)
    zl = z[~series]
    if zl.size:
        ea, eb = np.exp(-zl * p.a), np.exp(-zl * p.b)
        ik = (ea - eb) / zl
        acc = np.zeros(zl.shape, dtype=complex)
        acc += p.coeffs[0] * ik
        ak, bk = 1.0, 1.0
        for k in range(1, len(p.coeffs)):
            ak *= p.a
            bk *= p.b
            ik = (ak * ea - bk * eb) / zl + (k / zl) * ik
            acc += p.coeffs[k] * ik
        out[~series] = acc
    return out


def poly_moment(coeffs, a: float, b: float, j: int = 0) -> complex:
    """Exact integral over [a, b] of t^j p(t), p with ascending coeffs."""
    total = 0.0 + 0.0j
    for k, ck in enumerate(coeffs):
        n = j + k + 1
        total += ck * (b**n - a**n) / n
    return total


def laplace_distribution(phi: CompactDistribution, z):
    """L phi(z) = sum_j (-z)^j L mu_j(z)."""
    z_arr = np.asarray(z, dtype=complex)
    out = np.zeros(z_arr.shape, dtype=complex)
    for j, mu_j in enumerate(phi.components):
        out += (-z_arr) ** j * laplace(mu_j, z_arr)
    return out if z_arr.ndim else complex(out)


def conj_reflect(mu: CompactMeasure) -> CompactMeasure:
    """The measure mu-bar; its transform is z -> conj(L mu(conj z))."""
    atoms = tuple((t, w.conjugate()) for t, w in mu.atoms)
    pieces = tuple(
        Piece(p.a, p.b, tuple(c.conjugate() for c in p.coeffs)) for p in mu.pieces
    )
    return CompactMeasure(atoms, pieces)


# ---------------------------------------------------------------------------
# convolution


def convolve(mu: CompactMeasure, nu: CompactMeasure) -> CompactMeasure:
    """Multiplicative convolution: laplace(convolve(mu,nu)) = laplace(mu)*laplace(nu)."""
    atoms = []
    pieces = []
    for t1, w1 in mu.atoms:
        for t2, w2 in nu.atoms:
            atoms.append((t1 + t2, w1 * w2))
    for t1, w1 in mu.atoms:
        for q in nu.pieces:
            pieces.append(_shift_piece(q, t1, w1))
    for t2, w2 in nu.atoms:
        for p in mu.pieces:
            pieces.append(_shift_piece(p, t2, w2))
    for p in mu.pieces:
        for q in nu.pieces:
            pieces.extend(_convolve_pieces(p, q))
    return CompactMeasure(tuple(_merge_atoms(atoms)), tuple(_normalize_pieces(pieces)))


def _merge_atoms(atoms):
    merged: list[tuple[float, complex]] = []
    for t, w in sorted(atoms, key=lambda a: a[0]):
        if merged and abs(t - merged[-1][0]) <= ATOM_MERGE_TOL:
            merged[-1] = (merged[-1][0], merged[-1][1] + w)
        else:
            merged.append((t, w))
    return [(t, w) for t, w in merged if w != 0]


def _shift_coeffs(coeffs, tau: float) -> np.ndarray:
    """Ascending coefficients of p(t - tau)."""
    out = np.zeros(len(coeffs), dtype=complex)
    for j, cj in enumerate(coeffs):
        for i in range(j + 1):
            out[i] += cj * math.comb(j, i) * (-tau) ** (j - i)
    return out


def _shift_piece(p: Piece, tau: float, weight: complex) -> Piece:
    """weight * p(t - tau) on [a + tau, b + tau]."""
    return Piece(p.a + tau, p.b + tau, tuple(weight * c for c in _shift_coeffs(p.coeffs, tau)))


def _convolve_pieces(p: Piece, q: Piece) -> list[Piece]:
    """Exact piecewise-polynomial convolution of two density pieces.

    (p*q)(t) = int p(s) q(t-s) ds with s running over the overlap of [a1,b1]
    and [t-b2, t-a2].  The antiderivative in s of p(s) q(t-s) is a bivariate
    polynomial; on each breakpoint interval the integration limits are linear
    in t, so the result is polynomial there.
    """
    a1, b1, a2, b2 = p.a, p.b, q.a, q.b
    d1, d2 = p.degree, q.degree
    # C[i, j] = coefficient of s^i t^j in p(s) * q(t - s)
    C = np.zeros((d1 + d2 + 1, d2 + 1), dtype=complex)
    for jq, qj in enumerate(q.coeffs):
        for it in range(jq + 1):
            ii = jq - it
            coeff = qj * math.comb(jq, it) * (-1.0) ** ii
            for kp, pk in enumerate(p.coeffs):
                C[ii + kp, it] += coeff * pk
    # antiderivative in s
    R = np.zeros((C.shape[0] + 1, C.shape[1]), dtype=complex)
    for i in range(C.shape[0]):
        R[i + 1, :] = C[i, :] / (i + 1)

    def eval_at(slin):
        """Substitute s = slin(t) (linear in t) into R, returning coeffs in t."""
        total = np.zeros(1, dtype=complex)
        power = np.ones(1, dtype=complex)
        for i in range(R.shape[0]):
            total = npoly.polyadd(total, npoly.polymul(power, R[i, :]))
            power = npoly.polymul(power, slin)
        return total

    breaks = sorted({a1 + a2, a1 + b2, b1 + a2, b1 + b2})
    pieces = []
    for lo, hi in zip(breaks, breaks[1:]):
        if hi - lo <= 1e-13:
            continue
        tm = 0.5 * (lo + hi)
        lower = np.array([a1, 0.0]) if a1 >= tm - b2 else np.array([-b2, 1.0])
        upper = np.array([b1, 0.0]) if b1 <= tm - a2 else np.array([-a2, 1.0])
        coeffs = npoly.polysub(eval_at(upper), eval_at(lower))
        pieces.append(Piece(lo, hi, tuple(coeffs)))
    return pieces


def _normalize_pieces(pieces) -> list[Piece]:
    """Re-split possibly overlapping pieces on a common breakpoint grid and sum.

    A summed piece whose coefficients all fall below _COEFF_DUST times the
    largest input coefficient is dropped: relative, so 2^k mu sums as mu does.
    """
    if not pieces:
        return []
    breaks = sorted({x for p in pieces for x in (p.a, p.b)})
    # collapse breakpoints that coincide to rounding
    keep = [breaks[0]]
    for x in breaks[1:]:
        if x - keep[-1] > 1e-13:
            keep.append(x)
    out = []
    scale_ref = max(
        max((abs(c) for c in p.coeffs), default=0.0) for p in pieces
    )
    dust = _COEFF_DUST * scale_ref
    for lo, hi in zip(keep, keep[1:]):
        tm = 0.5 * (lo + hi)
        acc = np.zeros(1, dtype=complex)
        for p in pieces:
            if p.a - 1e-13 <= tm <= p.b + 1e-13 and p.a < tm < p.b:
                acc = npoly.polyadd(acc, np.asarray(p.coeffs))
        acc = npoly.polytrim(acc, tol=0)
        if np.max(np.abs(acc)) > dust:
            out.append(Piece(lo, hi, tuple(acc)))
    return out
