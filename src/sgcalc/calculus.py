"""Functional calculus F(-uA), resolvents, and the lower-estimate sweeps.

F(-uA) = int T(u xi) dmu(xi) is assembled exactly for atoms, exactly on the
piecewise-constant shift model, in closed form on diagonal models, and by
fixed-order Gauss-Legendre quadrature elsewhere.  The lemma checks count
the quadrature budget against their bounds.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .complexfn import ray_max
from .errors import (
    ConfigError,
    DivergentIntegralError,
    NoGeneratorError,
    NotQuasinilpotentError,
    SingularGeneratorError,
)
from .linalg import (
    _lower_toeplitz,
    banded_toeplitz_opnorm,
    op_norm,
    opnorm_bound,
    spectral_radius,
    toeplitz_opnorm,
)
from .measures import (
    CompactDistribution,
    CompactMeasure,
    conj_reflect,
    convolve,
    laplace,
    laplace_distribution,
    require_mass_zero,
    tv_moment,
)
from .semigroups import DiagonalSemigroup, MatrixSemigroup, NilpotentShift, SemigroupBackend

_DEFAULT_GL_ORDER = 32
# e-folds of e^{(A + lam) x} that the resolvent's one panel [0, h] may span,
# ||A|| and |lam| bounding the rate: the order-32 rule resolves 25 to rounding
_PANEL_EFOLDS = 25.0
# largest Re lam at which e^{lam t} - e^{lam s}, t and s in [0, 1], stays finite
_MAX_EXP_RE = math.log(sys.float_info.max / 2)


@dataclass
class OperatorValue:
    """F(-uA) as a matrix (dense or diagonal) plus its quadrature error claim.

    On shift backends the operator is sum_k w_k S^k, S the one-cell shift,
    kept as shift_weights {k: w_k}.  ``norm`` passes its first column to
    ``linalg.banded_toeplitz_opnorm``, which reduces it exactly (gcd chains,
    the leading shift) and takes the largest singular value of the section
    without forming the matrix; ``matmul`` takes the truncated convolution
    of the two first columns, each cut after its last offset (short for
    atoms), and keeps the product's nonzero entries.
    """

    matrix: np.ndarray | None
    diag: np.ndarray | None
    provenance: tuple  # always (); kept because callers pass the slot by position
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
            return banded_toeplitz_opnorm(_shift_column(self.dim, self.shift_weights))
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
        if self.is_diag and other.is_diag:
            return OperatorValue(None, self.diag * other.diag, (), budget)
        if self.shift_weights is not None and other.shift_weights is not None:
            a, b = (_shift_column(min(self.dim, 1 + max(op.shift_weights, default=0)),
                                  op.shift_weights) for op in (self, other))
            col = np.convolve(a, b)[: self.dim]
            live = np.flatnonzero(col)
            return OperatorValue(None, None, (), budget, dim=self.dim,
                                 shift_weights=dict(zip(live.tolist(), col[live].tolist())))
        return OperatorValue(self.to_dense() @ other.to_dense(), None, (), budget)


def _shift_piece_weights(backend: NilpotentShift, piece, u: float):
    """Arrays (k, w): int p(t) T(ut) dt = sum_i w[i] S^k[i] on the shift model.

    T(ut) is constant on each interval [t0, t1) of ``constancy_intervals`` at
    scale u, so the piece integrates there in closed form: w is
    sum_j c_j (t1^(j+1) - t0^(j+1)) / (j + 1), summed in the order and with the
    powers (Python's float pow) of ``measures.poly_moment``, so each weight
    is the one poly_moment gives for its interval.
    """
    t0, t1, k = backend.constancy_intervals(piece.a, piece.b, scale=u)
    w = np.zeros(len(k), dtype=complex)
    for p, c in enumerate(piece.coeffs, start=1):
        if p == 1:
            d = t1 - t0
        else:
            d = np.array([b**p - a**p for a, b in zip(t0.tolist(), t1.tolist())])
        w.real += c.real * d / p
        w.imag += c.imag * d / p
    return k, w


def _shift_column(n: int, weights: dict) -> np.ndarray:
    """First column of sum_k w_k S^k on C^n."""
    k = np.fromiter(weights, dtype=int, count=len(weights))
    keep = k < n
    col = np.zeros(n, dtype=complex)
    col[k[keep]] = np.fromiter(weights.values(), dtype=complex, count=len(weights))[keep]
    return col


def func_calc(
    backend: SemigroupBackend,
    mu: CompactMeasure,
    u: float,
) -> OperatorValue:
    """F(-uA) = int_0^inf T(u xi) dmu(xi).

    Atoms contribute weight * T(u t) exactly; on the shift, an atom time
    u * t that is off the cell grid below the horizon is a ConfigError, since
    rounding it would give another operator.  Density pieces are exact on
    shift and diagonal backends; elsewhere each piece gets Gauss-Legendre of
    order _DEFAULT_GL_ORDER, with the budget taken from a half-order
    comparison.
    """
    if u <= 0:
        raise ValueError("scale u must be positive")

    if isinstance(backend, DiagonalSemigroup):
        vals = laplace(mu, u * backend.lambdas)
        return OperatorValue(None, np.asarray(vals, dtype=complex), (), 0.0)

    if isinstance(backend, NilpotentShift):
        weights: dict[int, complex] = {}
        for t, w in mu.atoms:
            if not backend.on_grid(u * t):
                raise ConfigError(f"atom at t = {t:g} with u = {u:g} falls off the "
                                  f"{backend.dim}-cell shift grid")
            k = backend.offset(u * t)
            weights[k] = weights.get(k, 0.0) + w
        for piece in mu.pieces:
            ks, ws = _shift_piece_weights(backend, piece, u)
            for k, w in zip(ks.tolist(), ws.tolist()):
                weights[k] = weights.get(k, 0.0) + w
        return OperatorValue(None, None, (), 0.0, shift_weights=weights, dim=backend.dim)

    n = backend.dim
    M = np.zeros((n, n), dtype=complex)
    for t, w in mu.atoms:
        M += w * backend.materialize(u * t)
    budget = 0.0
    for piece in mu.pieces:
        fine, coarse = (
            sum(w * piece(t) * backend.materialize(u * t)
                for t, w in zip(*_gauss_legendre(piece.a, piece.b, order)))
            for order in (_DEFAULT_GL_ORDER, _DEFAULT_GL_ORDER // 2)
        )
        M += fine
        budget += op_norm(fine - coarse)
    return OperatorValue(M, None, (), budget)


@functools.cache
def _unit_rule(order: int):
    """Read-only nodes and weights of the order-point Gauss-Legendre rule on [-1, 1]."""
    nodes, wts = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = wts.flags.writeable = False
    return nodes, wts


def _gauss_legendre(a: float, b: float, order: int = _DEFAULT_GL_ORDER):
    """Nodes and weights of the order-point Gauss-Legendre rule on [a, b]."""
    nodes, wts = _unit_rule(order)
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
    t0, t1, _ = backend.constancy_intervals(0.0, hi)
    col = np.zeros(backend.dim, dtype=complex)
    col[: len(t0)] = _exp_integral(lam, t0, t1)
    return col


def resolvent(backend: SemigroupBackend, lams) -> list[np.ndarray]:
    """(A + lam I)^{-1} = -int_0^inf e^{lam t} T(t) dt for each lam, in input order.

    Shift backends integrate e^{lam t} exactly against the piecewise-constant
    t -> T(t), and return each R(lam) as its first column, shape (n,): it is
    lower-triangular Toeplitz there (``linalg._lower_toeplitz`` builds the
    matrix).  Every other backend returns n x n matrices, after refusing a lam
    with Re lam + s(A) >= 0 (s(A) the spectral abscissa of the generator A),
    as the integral diverges there: diagonal backends by the scalar closed
    form (refused as a ConfigError above the dense cap), the rest from one
    Gauss-Legendre panel on [0, h].  The semigroup law T(kh + x) = T(h)^k T(x)
    makes the integral a Neumann series,
    -(I - e^{lam h} T(h))^{-1} int_0^h e^{lam x} T(x) dx, which converges
    exactly when Re lam + s(A) < 0.  h = min(1/2, _PANEL_EFOLDS / (||A||_b +
    max |lam|)), ||A||_b the ``linalg.opnorm_bound`` of the generator, so the
    panel spans at most _PANEL_EFOLDS e-folds of the integrand however stiff
    A is.  A backend without a generator keeps the law only approximately
    and is refused with NoGeneratorError.  The batch shares one h and
    materializes the panel's nodes and h once, and each lam gets the sum and
    solve a single call would.
    """
    lams = [complex(lam) for lam in lams]
    if isinstance(backend, NilpotentShift):
        return [-_shift_exp_column(backend, lam, backend.nilpotent_horizon) for lam in lams]

    if isinstance(backend, DiagonalSemigroup):  # A = -diag(lambdas)
        abscissa = -float(np.min(backend.lambdas.real))
    elif backend.generator is not None:
        abscissa = float(np.max(np.linalg.eigvals(backend.generator).real))
    else:
        raise NoGeneratorError("the resolvent's Neumann form needs the semigroup law "
                               "of a bounded generator")
    for lam in lams:
        if lam.real + abscissa >= 0:
            raise DivergentIntegralError(f"e^(lam t) T(t) does not decay: Re lam + s(A) = "
                                         f"{lam.real + abscissa:.3g} at lam = {lam}")
    if isinstance(backend, DiagonalSemigroup):
        return [backend.dense(1.0 / (lam - backend.lambdas), "resolvent") for lam in lams]

    rate = opnorm_bound(backend.generator) + max(map(abs, lams), default=0.0)
    h = min(0.5, _PANEL_EFOLDS / rate)
    panels = [0.0] * len(lams)
    for x, w in zip(*_gauss_legendre(0.0, h)):
        T = backend.materialize(x)
        panels = [panel + w * np.exp(lam * x) * T for panel, lam in zip(panels, lams)]
    step = backend.materialize(h)
    I = np.eye(backend.dim)
    return [-np.linalg.solve(I - np.exp(lam * h) * step, panel)
            for lam, panel in zip(lams, panels)]


def resolvent_residuals(backend: SemigroupBackend, pairs) -> tuple[list[float], list[float]]:
    """Upper bounds, from ``linalg.opnorm_bound``, on the residuals that meet
    "<= tolerance" gates: ||R(lam) - R(nu) - (nu - lam) R(lam) R(nu)|| for
    each (lam, nu) pair, and on ``matrix`` backends ||(A + lam I) R(lam) - I||
    for each lam of the pairs, in order (an empty list elsewhere).  The
    resolvents of another generator satisfy the identity exactly, so only the
    second residual sees them; the shift and diagonal resolvents are
    cell-exact or closed forms.

    The resolvents come from one batch ``resolvent`` call.  On shift backends
    they are first columns, so the product is a truncated convolution and the
    bound is the column's 1-norm; elsewhere both are dense.
    """
    pairs = [(complex(lam), complex(nu)) for lam, nu in pairs]
    lams = [z for pair in pairs for z in pair]
    R = resolvent(backend, lams)
    shift = isinstance(backend, NilpotentShift)
    identity = []
    for (lam, nu), R1, R2 in zip(pairs, R[::2], R[1::2]):
        product = np.convolve(R1, R2)[: backend.dim] if shift else R1 @ R2
        identity.append(opnorm_bound(R1 - R2 - (nu - lam) * product))
    inverse = []
    if isinstance(backend, MatrixSemigroup):
        A, I = backend.generator, np.eye(backend.dim)
        inverse = [opnorm_bound((A + lam * I) @ Rk - I) for lam, Rk in zip(lams, R)]
    return identity, inverse


# ---------------------------------------------------------------------------
# distribution (order-p) calculus


def ep_calc(backend: SemigroupBackend, phi: CompactDistribution, u: float) -> OperatorValue:
    """F(-uA) = sum_j (uA)^j G_j(-uA) for a distribution phi = (mu_0 .. mu_p)."""
    if isinstance(backend, DiagonalSemigroup):
        vals = laplace_distribution(phi, u * backend.lambdas)
        return OperatorValue(None, np.asarray(vals, dtype=complex), (), 0.0)
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
        Gj = func_calc(backend, mu_j, u)
        M += power @ Gj.to_dense()
        budget += op_norm(power) * Gj.quadrature_budget
    return OperatorValue(M, None, (), budget)


# ---------------------------------------------------------------------------
# lemma falsifiers


@dataclass(frozen=True)
class LemmaReport:
    """Per-lambda rows (lam, lhs, bound, margin) of a resolvent-difference
    check, margin = bound - lhs - budget: the computed lhs may fall short of
    the true one by up to the quadrature budget."""

    rows: tuple
    identity_residual: float

    @property
    def max_lhs(self) -> float:
        return max(r[1] for r in self.rows)


def _shift_kernel(backend: NilpotentShift, tau: float, lam: complex) -> np.ndarray:
    """First column of K(tau, lam) = int_0^tau e^{lam (v - tau)} T(v) dv, cell-exact.

    K is lower-triangular Toeplitz on the shift model, so the column is all of it.
    """
    return np.exp(-lam * tau) * _shift_exp_column(backend, lam, tau)


def lemma_24_check(backend: SemigroupBackend, mu: CompactMeasure, lam_grid) -> LemmaReport:
    """Check ||(F(-A) - F(lam) I)(A + lam I)^{-1}|| <= int t d|mu|(t) on a grid.

    Also recomputes the left side through the independent decomposition
    F(lam) R(lam) + int K(t, lam) dmu(t) and reports the worst residual, as
    the proved upper bound of ``linalg.opnorm_bound``.  The bound needs a
    quasinilpotent contraction semigroup, and the nilpotent shift is the one
    such model: there F(-A), R(lam) and K(t, lam) are lower-triangular
    Toeplitz, so both sides are formed as first columns (products become
    truncated convolutions, and the left sides' norms iterate on the column):
    no n x n matrix is built.  A left side that is not finite in double is a
    config error.
    """
    if not isinstance(backend, NilpotentShift):
        raise ConfigError("bound requires a quasinilpotent contraction semigroup "
                         "(the nilpotent shift)")
    Fop = func_calc(backend, mu, 1.0)
    f = _shift_column(backend.dim, Fop.shift_weights)
    bound = tv_moment(mu, 1)
    lams = [complex(lam) for lam in lam_grid]
    for lam in lams:
        if lam.real < 0:
            raise ConfigError("grid must lie in the closed right half-plane")
        if lam.real > _MAX_EXP_RE:
            raise ConfigError(f"the resolvent column overflows at lam = {lam} "
                              f"(Re lam > {_MAX_EXP_RE:.2f})")
    rows = []
    worst_residual = 0.0
    for lam, r in zip(lams, resolvent(backend, lams)):  # r: first column of R(lam)
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            lhs_op = np.convolve(f, r)[: backend.dim] - laplace(mu, lam) * r
        if not np.all(np.isfinite(lhs_op)):
            raise ConfigError(f"the left side (F(-A) - F(lam)) R(lam) overflows "
                              f"at lam = {lam}")
        lhs = toeplitz_opnorm(lhs_op)
        rows.append((lam, lhs, bound, bound - lhs))  # F(-A) is exact: no budget

        correction = np.zeros(lhs_op.shape, dtype=complex)
        for t, w in mu.atoms:
            correction += w * _shift_kernel(backend, t, lam)
        for piece in mu.pieces:
            for t, w in zip(*_gauss_legendre(piece.a, piece.b)):
                correction += w * piece(t) * _shift_kernel(backend, t, lam)
        worst_residual = max(worst_residual, opnorm_bound(lhs_op - correction))
    return LemmaReport(tuple(rows), worst_residual)


def _matrix_power_table(A: np.ndarray, Ainv: np.ndarray, lo: int, hi: int) -> dict:
    table = {0: np.eye(A.shape[0], dtype=complex)}
    for j in range(1, hi + 1):
        table[j] = table[j - 1] @ A
    for j in range(-1, lo - 1, -1):
        table[j] = table[j + 1] @ Ainv
    return table


def lemma_27_check(backend: SemigroupBackend, phi: CompactDistribution,
                   lam_grid) -> LemmaReport:
    """Order-p resolvent-difference bound for a distribution phi = (mu_0 .. mu_p).

    Checks ||(F(-A) - F(lam) I) A^{-p} (A + lam I)^{-1}|| against
    sum_m c_m ||A^{m-p}|| + sum_m d_m sum_{k<m} |lam|^k ||A^{m-1-k-p}||
    with c_m, d_m the first and zeroth absolute moments of mu_m, and verifies
    the exact algebraic rearrangement into per-order differences, reporting
    the residual as the upper bound of ``linalg.opnorm_bound``.
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
    norms = {j: op_norm(powers[j]) for j in range(-p, 1)}  # ||A^j||, the bound's only norms
    c = [tv_moment(m, 1) for m in phi.components]
    d = [tv_moment(m, 0) for m in phi.components]
    Fop = ep_calc(backend, phi, 1.0)
    G_ops = [func_calc(backend, m, 1.0) for m in phi.components]
    I = np.eye(n, dtype=complex)

    rows = []
    worst_residual = 0.0
    for lam in lam_grid:
        lam = complex(lam)
        if lam.real < 0:
            raise ConfigError("grid must lie in the closed right half-plane")
        shifted = A + lam * I
        if np.linalg.cond(shifted) > 1e12:
            raise ConfigError(
                f"lam = {lam} sits on (or too close to) a resolvent pole"
            )
        Rlam = np.linalg.inv(shifted)
        B = (Fop.to_dense() - laplace_distribution(phi, lam) * I) @ powers[-p] @ Rlam
        bound = 0.0
        for m in range(p + 1):
            bound += c[m] * norms[m - p]
            bound += d[m] * sum(abs(lam) ** k * norms[m - 1 - k - p] for k in range(m))
        lhs = op_norm(B)
        rows.append((lam, lhs, bound, bound - lhs - Fop.quadrature_budget))

        # two-path check of the rearrangement into per-order differences
        B2 = np.zeros((n, n), dtype=complex)
        for m in range(p + 1):
            Gm_lam = laplace(phi.components[m], lam)
            B2 += powers[m - p] @ (G_ops[m].to_dense() - Gm_lam * I) @ Rlam
            geom = sum((-lam) ** k * powers[m - 1 - k] for k in range(m))
            if m > 0:
                B2 += Gm_lam * (geom @ powers[-p])
        worst_residual = max(worst_residual, opnorm_bound(B - B2))
    return LemmaReport(tuple(rows), worst_residual)


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
    path_gap: float = 0.0  # symmetrized_sweep: bound on ||product - convolution||


def sweep(backend: SemigroupBackend, mu: CompactMeasure, u_grid) -> list[SweepRow]:
    """Lower-estimate sweep: per u compare ||F(-uA)|| with max_{x>=0} |F(x)|.

    Requires a real zero-mass measure and a quasinilpotent backend.  The
    margin, norm - ray max - quadrature budget, is positive exactly where the
    strict lower estimate holds even for a norm over by the budget.
    """
    require_mass_zero(mu)
    if not mu.is_real:
        raise ConfigError("lower-estimate sweep expects a real measure")
    if not backend.quasinilpotent:
        raise NotQuasinilpotentError("lower estimate is about quasinilpotent semigroups")
    ray = ray_max(mu)
    rows = []
    for u in sorted(float(u) for u in u_grid):
        op = func_calc(backend, mu, u)
        norm_F = op.norm()
        rho_F = op.spectral_radius()
        rows.append(SweepRow(u, norm_F, rho_F, ray.value,
                             norm_F - ray.value - op.quadrature_budget, op.quadrature_budget))
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


def _difference_bound(a: OperatorValue, b: OperatorValue) -> float:
    """``linalg.opnorm_bound`` of a - b, in the structure the two share."""
    if a.shift_weights is not None and b.shift_weights is not None:
        return opnorm_bound(_shift_column(a.dim, a.shift_weights)
                            - _shift_column(b.dim, b.shift_weights))
    return opnorm_bound(a.to_dense() - b.to_dense())


def symmetrized_sweep(backend: SemigroupBackend, mu: CompactMeasure, u_grid) -> list[SweepRow]:
    """Symmetrized sweep: ||F(-uA) Ftilde(-uA)|| against (sup_x |F(x)|)^2.

    Ftilde is the transform of the reflected-conjugate measure; the direct
    product is cross-checked against F(-uA) of nu = mu * mu-bar, whose
    transform is F Ftilde: each row's path_gap is a proved upper bound on the
    norm of the difference of the two operators (``_difference_bound``).
    Margins count the budget as in ``sweep``.
    """
    require_mass_zero(mu)
    mu_bar = conj_reflect(mu)
    nu = convolve(mu, mu_bar)
    ray2 = ray_max(nu)
    rows = []
    for u in sorted(float(u) for u in u_grid):
        prod = func_calc(backend, mu, u).matmul(func_calc(backend, mu_bar, u))
        direct = prod.norm()
        gap = _difference_bound(prod, func_calc(backend, nu, u))
        rows.append(SweepRow(u, direct, prod.spectral_radius(), ray2.value,
                             direct - ray2.value - prod.quadrature_budget, prod.quadrature_budget,
                             gap))
    return rows
