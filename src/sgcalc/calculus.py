"""Functional calculus F(-uA), resolvents, and the lower-estimate sweeps.

F(-uA) = int T(u xi) dmu(xi) is assembled exactly for atoms, exactly on the
piecewise-constant shift model, in closed form on diagonal models, and by
fixed-order Gauss-Legendre quadrature elsewhere.  Every inequality check
carries its own quadrature budget so tolerances stay honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvals_banded, toeplitz

from .complexfn import as_transform, ray_max
from .errors import (
    BoundViolationError,
    DivergentIntegralError,
    MassNotZeroError,
    NoGeneratorError,
    SingularGeneratorError,
)
from .linalg import op_norm, spectral_radius
from .measures import (
    CompactDistribution,
    CompactMeasure,
    conj_reflect,
    convolve,
    laplace,
    laplace_distribution,
    mass,
    tv_moment,
)
from .semigroups import DiagonalSemigroup, NilpotentShift, SemigroupBackend

_DEFAULT_GL_ORDER = 32


@dataclass
class OperatorValue:
    """F(-uA) as a matrix (dense or diagonal) plus its quadrature error claim.

    On shift backends the operator is a weight combination of powers of the
    one-cell shift; shift_weights keeps that structure alive, so ``norm``
    splits the offsets by their gcd into independent chains and takes the
    largest eigenvalue of the banded Gram matrix of one chain, at any size
    and without forming the matrix (see ``_shift_opnorm``).
    """

    matrix: np.ndarray | None
    diag: np.ndarray | None
    provenance: tuple
    quadrature_budget: float
    shift_weights: dict | None = None
    dim: int = 0

    @property
    def is_diag(self) -> bool:
        return self.diag is not None

    def to_dense(self) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix
        if self.diag is not None:
            return np.diag(self.diag)
        return _lower_toeplitz(_shift_column(self.dim, self.shift_weights))

    def norm(self) -> float:
        if self.is_diag:
            return float(np.max(np.abs(self.diag)))
        if self.shift_weights is not None:
            return _shift_opnorm(self.dim, self.shift_weights)
        return op_norm(self.matrix)

    def spectral_radius(self) -> float:
        if self.is_diag:
            return float(np.max(np.abs(self.diag)))
        if self.shift_weights is not None:
            # triangular Toeplitz: the spectrum is the constant diagonal
            return abs(self.shift_weights.get(0, 0.0))
        return spectral_radius(self.matrix)

    def matmul(self, other: "OperatorValue") -> "OperatorValue":
        budget = self.quadrature_budget + other.quadrature_budget
        prov = ("product", self.provenance, other.provenance)
        if self.is_diag and other.is_diag:
            return OperatorValue(None, self.diag * other.diag, prov, budget)
        if self.shift_weights is not None and other.shift_weights is not None:
            combined: dict[int, complex] = {}
            for k1, w1 in self.shift_weights.items():
                for k2, w2 in other.shift_weights.items():
                    k = k1 + k2
                    if k < self.dim:
                        combined[k] = combined.get(k, 0.0) + w1 * w2
            return OperatorValue(None, None, prov, budget,
                                 shift_weights=combined, dim=self.dim)
        return OperatorValue(self.to_dense() @ other.to_dense(), None, prov, budget)


def _shift_opnorm(n: int, weights: dict) -> float:
    """Largest singular value of T = sum_k w_k S^k on C^n, from a Gram band.

    Offsets that share a gcd g split into g independent chains, and
    interlacing puts the norm on the longest, of length ceil(n/g).  With k0
    the smallest live offset, dropping the partial isometry S^k0 leaves the
    m = n - k0 section T' with first column c_j = w_(k0+j), j = 0..b.  Its
    Gram matrix has half-bandwidth b and, by prefix sums over s,
    (T'^H T')[j+d, j] = sum_{s=d}^{min(b, m-1-j)} conj(c_(s-d)) c_s, so
    ||T|| = sqrt(lambda_max) of a banded matrix; T itself is never formed.
    """
    live = {k: w for k, w in weights.items() if k < n and w != 0}
    if not live:
        return 0.0
    g = 0
    for k in live:
        g = math.gcd(g, k)
    if g > 1:
        m = -(-n // g)
        reduced = {k // g: w for k, w in live.items()}
        return _shift_opnorm(m, reduced)
    k0 = min(live)
    m = n - k0
    b = max(live) - k0
    c = _shift_column(b + 1, {k - k0: w for k, w in live.items()})
    if not np.any(c.imag):
        c = c.real
    # Fortran order, so LAPACK reduces the band in place: the band is the only
    # array of size (b + 1) m, and the peak memory of a call is that one array.
    band = np.zeros((m, b + 1), dtype=c.dtype).T
    j = np.arange(m)
    for d in range(b + 1):
        prefix = np.cumsum(np.conj(c[: b + 1 - d]) * c[d:])
        band[d, : m - d] = prefix[np.minimum(b, m - 1 - j[: m - d]) - d]
    # |G[i, j]| <= sqrt(G[i, i] G[j, j]): a finite diagonal bounds the band
    if not np.isfinite(band[0]).all():
        raise ValueError("shift weights give a non-finite Gram matrix")
    lam = eigvals_banded(band, lower=True, overwrite_a_band=True, check_finite=False,
                         select="i", select_range=(m - 1, m - 1))
    return math.sqrt(max(float(lam[0]), 0.0))


def _piece_poly_integral(coeffs, a: float, b: float) -> complex:
    """Exact integral of the polynomial with ascending coeffs over [a, b]."""
    total = 0.0 + 0.0j
    for j, c in enumerate(coeffs):
        total += c * (b ** (j + 1) - a ** (j + 1)) / (j + 1)
    return total


def _shift_piece_weights(backend: NilpotentShift, piece, u: float) -> dict:
    """Exact weights w_k with int p(t) T(ut) dt = sum_k w_k S^k on the shift model.

    T(ut) is constant on each interval of ``constancy_intervals`` at scale u,
    so the piece integrates there in closed form.
    """
    weights: dict[int, complex] = {}
    for t0, t1, k in backend.constancy_intervals(piece.a, piece.b, scale=u):
        weights[k] = weights.get(k, 0.0) + _piece_poly_integral(piece.coeffs, t0, t1)
    return weights


def _shift_column(n: int, weights: dict) -> np.ndarray:
    """First column of sum_k w_k S^k on C^n."""
    col = np.zeros(n, dtype=complex)
    for k, w in weights.items():
        if k < n:
            col[k] = col[k] + w
    return col


def _lower_toeplitz(col: np.ndarray) -> np.ndarray:
    """The lower-triangular Toeplitz matrix with first column col."""
    return toeplitz(col, np.zeros(len(col), dtype=complex))


def func_calc(
    backend: SemigroupBackend,
    mu: CompactMeasure,
    u: float,
    gl_order: int = _DEFAULT_GL_ORDER,
    force_generic: bool = False,
) -> OperatorValue:
    """F(-uA) = int_0^inf T(u xi) dmu(xi).

    Atoms contribute weight * T(u t) exactly.  Density pieces are exact on
    shift and diagonal backends; elsewhere each piece gets Gauss-Legendre of
    order gl_order, with the budget taken from a half-order comparison.
    """
    if u <= 0:
        raise ValueError("scale u must be positive")
    prov = (type(backend).__name__, repr(mu)[:60], u)

    if isinstance(backend, DiagonalSemigroup) and not force_generic:
        vals = laplace(mu, u * backend.lambdas)
        return OperatorValue(None, np.asarray(vals, dtype=complex), prov, 0.0)

    if isinstance(backend, NilpotentShift) and not force_generic:
        weights: dict[int, complex] = {}
        for t, w in mu.atoms:
            k = backend.offset(u * t)
            weights[k] = weights.get(k, 0.0) + w
        for piece in mu.pieces:
            for k, w in _shift_piece_weights(backend, piece, u).items():
                weights[k] = weights.get(k, 0.0) + w
        return OperatorValue(None, None, prov, 0.0,
                             shift_weights=weights, dim=backend.dim)

    n = backend.dim
    M = np.zeros((n, n), dtype=complex)
    for t, w in mu.atoms:
        M += w * backend.materialize(u * t)
    budget = 0.0
    for piece in mu.pieces:
        fine, coarse = (
            sum(w * piece(t) * backend.materialize(u * t)
                for t, w in zip(*_gauss_legendre(piece.a, piece.b, order)))
            for order in (gl_order, max(2, gl_order // 2))
        )
        M += fine
        budget += op_norm(fine - coarse)
    return OperatorValue(M, None, prov, budget)


def _gauss_legendre(a: float, b: float, order: int = _DEFAULT_GL_ORDER):
    """Nodes and weights of the order-point Gauss-Legendre rule on [a, b]."""
    nodes, wts = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (b - a)
    return half * nodes + 0.5 * (a + b), half * wts


# ---------------------------------------------------------------------------
# resolvents


def _exp_integral(lam: complex, t0, t1):
    """int_t0^t1 e^{lam t} dt in closed form; t0 and t1 may be arrays."""
    if lam == 0:
        return t1 - t0
    return (np.exp(lam * t1) - np.exp(lam * t0)) / lam


def _shift_exp_column(backend: NilpotentShift, lam: complex, hi: float) -> np.ndarray:
    """c_k = int e^{lam t} dt over the part of [0, hi] where T(t) is the k-cell shift."""
    t0, t1 = [], []
    for a, b, _ in backend.constancy_intervals(0.0, hi):
        t0.append(a)
        t1.append(b)
    col = np.zeros(backend.dim, dtype=complex)
    col[: len(t0)] = _exp_integral(lam, np.array(t0), np.array(t1))
    return col


def resolvent(backend: SemigroupBackend, lam: complex, tol: float = 1e-12) -> np.ndarray:
    """(A + lam I)^{-1} = -int_0^inf e^{lam t} T(t) dt.

    Shift backends integrate e^{lam t} exactly against the piecewise-constant
    t -> T(t); diagonal backends use the scalar closed form (convergent for
    Re lam below the spectral abscissa); other backends use composite
    Gauss-Legendre panels extended until the tail is provably below tol.
    """
    lam = complex(lam)
    if isinstance(backend, NilpotentShift):
        return _lower_toeplitz(-_shift_exp_column(backend, lam, backend.nilpotent_horizon))

    if isinstance(backend, DiagonalSemigroup):
        gap = float(np.min(backend.lambdas.real)) - lam.real
        if gap <= 0:
            raise DivergentIntegralError(
                f"integrand e^((lam - lam_k) t) does not decay (gap {gap:.3g})"
            )
        return np.diag(1.0 / (lam - backend.lambdas))

    if backend.nilpotent_horizon is not None:
        return -_panel_integral(backend, lam, 0.0, backend.nilpotent_horizon)

    # open-ended integral: extend panels until the decay certifies the tail
    n = backend.dim
    M = np.zeros((n, n), dtype=complex)
    h = 0.5
    t = 0.0
    for _ in range(400):
        M += _panel_integral(backend, lam, t, t + h)
        t += h
        tail_factor = op_norm(backend.materialize(t)) * math.exp(max(lam.real, 0.0) * t)
        if tail_factor < tol and t >= 2.0:
            return -M
    raise DivergentIntegralError(
        f"resolvent integral did not converge by t = {t:.1f} for lam = {lam}"
    )


def _panel_integral(backend, lam: complex, a: float, b: float) -> np.ndarray:
    return sum(w * np.exp(lam * t) * backend.materialize(t)
               for t, w in zip(*_gauss_legendre(a, b)))


# ---------------------------------------------------------------------------
# distribution (order-p) calculus


def ep_calc(
    backend: SemigroupBackend,
    phi: CompactDistribution,
    u: float,
    **kw,
) -> OperatorValue:
    """F(-uA) = sum_j (uA)^j G_j(-uA) for a distribution phi = (mu_0 .. mu_p)."""
    prov = (type(backend).__name__, f"order-{phi.order} distribution", u)
    if isinstance(backend, DiagonalSemigroup):
        vals = laplace_distribution(phi, u * backend.lambdas)
        return OperatorValue(None, np.asarray(vals, dtype=complex), prov, 0.0)
    A = backend.generator
    if A is None:
        raise NoGeneratorError("distribution calculus needs a bounded generator")
    n = backend.dim
    M = np.zeros((n, n), dtype=complex)
    budget = 0.0
    power = np.eye(n, dtype=complex)
    for j, mu_j in enumerate(phi.components):
        if j > 0:
            power = power @ (u * A)
        if mu_j.is_zero:
            continue
        Gj = func_calc(backend, mu_j, u, **kw)
        M += power @ Gj.to_dense()
        budget += op_norm(power) * Gj.quadrature_budget
    return OperatorValue(M, None, prov, budget)


# ---------------------------------------------------------------------------
# lemma falsifiers


@dataclass(frozen=True)
class LemmaReport:
    """Per-lambda margins for a resolvent-difference inequality check."""

    rows: tuple  # (lam, lhs, bound, margin)
    identity_residual: float
    quadrature_budget: float

    @property
    def max_lhs(self) -> float:
        return max(r[1] for r in self.rows)


def _shift_kernel(backend: NilpotentShift, tau: float, lam: complex) -> np.ndarray:
    """First column of K(tau, lam) = int_0^tau e^{lam (v - tau)} T(v) dv, cell-exact.

    K is lower-triangular Toeplitz on the shift model, so the column is all of it.
    """
    return np.exp(-lam * tau) * _shift_exp_column(backend, lam, tau)


def _kernel(backend, tau: float, lam: complex) -> np.ndarray:
    K = _panel_integral(backend, lam, 0.0, tau)
    return np.exp(-lam * tau) * K


def lemma_24_check(
    backend: SemigroupBackend,
    mu: CompactMeasure,
    lam_grid,
    tol: float = 1e-6,
    gl_order: int = _DEFAULT_GL_ORDER,
) -> LemmaReport:
    """Check ||(F(-A) - F(lam) I)(A + lam I)^{-1}|| <= int t d|mu|(t) on a grid.

    Also recomputes the left side through the independent decomposition
    F(lam) R(lam) + int K(t, lam) dmu(t) and reports the worst residual.
    On the shift model F(-A), R(lam) and K(t, lam) are lower-triangular
    Toeplitz, so both sides are formed as first columns (products become
    truncated convolutions) and made dense only for their norms.
    """
    if not (backend.quasinilpotent and backend.contractive):
        raise ValueError("bound requires a quasinilpotent contraction semigroup")
    Fop = func_calc(backend, mu, 1.0, gl_order=gl_order)
    shift = isinstance(backend, NilpotentShift)
    if shift:
        f = _shift_column(backend.dim, Fop.shift_weights)
        kernel, as_matrix = _shift_kernel, _lower_toeplitz
    else:
        kernel, as_matrix = _kernel, np.asarray
    bound = tv_moment(mu, 1)
    rows = []
    worst_residual = 0.0
    for lam in lam_grid:
        lam = complex(lam)
        if lam.real < -1e-12:
            raise ValueError("grid must lie in the closed right half-plane")
        F_lam = laplace(mu, lam)
        if shift:
            r = -_shift_exp_column(backend, lam, backend.nilpotent_horizon)  # R(lam)
            lhs_op = np.convolve(f, r)[: backend.dim] - F_lam * r
        else:
            R = resolvent(backend, lam)
            lhs_op = Fop.to_dense() @ R - F_lam * R
        lhs = op_norm(as_matrix(lhs_op))
        margin = bound + tol + Fop.quadrature_budget - lhs
        if margin < 0:
            raise BoundViolationError(
                f"resolvent-difference bound failed at lam = {lam}",
                argument=lam,
                margin=margin,
            )
        rows.append((lam, lhs, bound, margin))

        correction = np.zeros(lhs_op.shape, dtype=complex)
        for t, w in mu.atoms:
            correction += w * kernel(backend, t, lam)
        for piece in mu.pieces:
            for t, w in zip(*_gauss_legendre(piece.a, piece.b, gl_order)):
                correction += w * piece(t) * kernel(backend, t, lam)
        residual = op_norm(as_matrix(lhs_op - correction))
        worst_residual = max(worst_residual, residual)
    return LemmaReport(tuple(rows), worst_residual, Fop.quadrature_budget)


def _matrix_power_table(A: np.ndarray, Ainv: np.ndarray, lo: int, hi: int) -> dict:
    table = {0: np.eye(A.shape[0], dtype=complex)}
    for j in range(1, hi + 1):
        table[j] = table[j - 1] @ A
    for j in range(-1, lo - 1, -1):
        table[j] = table[j + 1] @ Ainv
    return table


def lemma_27_check(
    backend: SemigroupBackend,
    phi: CompactDistribution,
    lam_grid,
    tol: float = 1e-6,
) -> LemmaReport:
    """Order-p resolvent-difference bound for a distribution phi = (mu_0 .. mu_p).

    Checks ||(F(-A) - F(lam) I) A^{-p} (A + lam I)^{-1}|| against
    sum_m c_m ||A^{m-p}|| + sum_m d_m sum_{k<m} |lam|^k ||A^{m-1-k-p}||
    with c_m, d_m the first and zeroth absolute moments of mu_m, and verifies
    the exact algebraic rearrangement into per-order differences.
    """
    A = backend.generator
    if A is None:
        raise NoGeneratorError("order-p bound needs a bounded generator")
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularGeneratorError(f"generator condition number {cond:.3g}")
    Ainv = np.linalg.inv(A)
    p = phi.order
    n = backend.dim
    powers = _matrix_power_table(A, Ainv, -p - 1 - max(p - 1, 0), p)
    c = [tv_moment(m, 1) for m in phi.components]
    d = [tv_moment(m, 0) for m in phi.components]
    Fop = ep_calc(backend, phi, 1.0)
    G_ops = [func_calc(backend, m, 1.0) for m in phi.components]
    I = np.eye(n, dtype=complex)

    rows = []
    worst_residual = 0.0
    for lam in lam_grid:
        lam = complex(lam)
        if lam.real < -1e-12:
            raise ValueError("grid must lie in the closed right half-plane")
        shifted = A + lam * I
        if np.linalg.cond(shifted) > 1e12:
            raise ValueError(
                f"lam = {lam} sits on (or too close to) a resolvent pole"
            )
        Rlam = np.linalg.inv(shifted)
        B = (Fop.to_dense() - laplace_distribution(phi, lam) * I) @ powers[-p] @ Rlam
        lhs = op_norm(B)
        bound = 0.0
        for m in range(p + 1):
            bound += c[m] * op_norm(powers[m - p])
            bound += d[m] * sum(
                abs(lam) ** k * op_norm(powers[m - 1 - k - p]) for k in range(m)
            )
        margin = bound + tol + Fop.quadrature_budget - lhs
        if margin < 0:
            raise BoundViolationError(
                f"order-p resolvent bound failed at lam = {lam}",
                argument=lam,
                margin=margin,
            )
        rows.append((lam, lhs, bound, margin))

        # two-path check of the rearrangement into per-order differences
        B2 = np.zeros((n, n), dtype=complex)
        for m in range(p + 1):
            Gm_lam = laplace(phi.components[m], lam)
            B2 += powers[m - p] @ (G_ops[m].to_dense() - Gm_lam * I) @ Rlam
            geom = sum((-lam) ** k * powers[m - 1 - k] for k in range(m))
            if m > 0:
                B2 += Gm_lam * (geom @ powers[-p])
        worst_residual = max(worst_residual, op_norm(B - B2))
    return LemmaReport(tuple(rows), worst_residual, Fop.quadrature_budget)


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepRow:
    u: float
    norm_F: float
    rho_F: float
    ray_max_value: float
    margin: float
    quadrature_budget: float = 0.0


def _require_mass_zero(mu: CompactMeasure, tol: float = 1e-12):
    m = mass(mu)
    if abs(m) > tol:
        raise MassNotZeroError(f"measure has mass {m:.3g}, lower estimate needs 0")


def sweep(backend: SemigroupBackend, mu: CompactMeasure, u_grid, **kw) -> list[SweepRow]:
    """Lower-estimate sweep: per u compare ||F(-uA)|| with max_{x>=0} |F(x)|.

    Requires a real zero-mass measure and a quasinilpotent backend; the margin
    column is positive exactly where the strict lower estimate is confirmed.
    """
    _require_mass_zero(mu)
    if not mu.is_real:
        raise ValueError("lower-estimate sweep expects a real measure")
    if not backend.quasinilpotent:
        raise ValueError("lower estimate is about quasinilpotent semigroups")
    ray = ray_max(mu)
    rows = []
    for u in sorted(float(u) for u in u_grid):
        op = func_calc(backend, mu, u, **kw)
        norm_F = op.norm()
        rho_F = op.spectral_radius()
        rows.append(SweepRow(u, norm_F, rho_F, ray.value, norm_F - ray.value,
                             op.quadrature_budget))
    return rows


def empirical_eta(rows: list[SweepRow]) -> float:
    """Largest grid prefix on which the margin stays strictly positive."""
    eta = 0.0
    for row in rows:
        if row.margin > 0:
            eta = row.u
        else:
            break
    return eta


def symmetrized_sweep(
    backend: SemigroupBackend,
    mu: CompactMeasure,
    u_grid,
    path_tol: float = 1e-9,
    **kw,
) -> list[SweepRow]:
    """Symmetrized sweep: ||F(-uA) Ftilde(-uA)|| against (sup_x |F(x)|)^2.

    Ftilde is the transform of the reflected-conjugate measure; the direct
    product is cross-checked against the single sweep of nu = mu * mu-bar,
    whose transform is F Ftilde.
    """
    _require_mass_zero(mu)
    mu_bar = conj_reflect(mu)
    nu = convolve(mu, mu_bar)
    ray2 = ray_max(nu)
    rows = []
    for u in sorted(float(u) for u in u_grid):
        left = func_calc(backend, mu, u, **kw)
        right = func_calc(backend, mu_bar, u, **kw)
        prod = left.matmul(right)
        direct = prod.norm()
        via_conv = func_calc(backend, nu, u, **kw).norm()
        if abs(direct - via_conv) > path_tol * max(1.0, direct):
            raise BoundViolationError(
                "product path and convolution path disagree",
                argument=u,
                margin=abs(direct - via_conv),
            )
        rows.append(SweepRow(u, direct, prod.spectral_radius(), ray2.value,
                             direct - ray2.value, prod.quadrature_budget))
    return rows
