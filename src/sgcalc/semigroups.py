"""Finite-dimensional model backends for one-parameter semigroups.

Five models: the nilpotent right shift on a cell discretization of L^2(0,1),
Riemann-Liouville fractional integration (a smooth quasinilpotent Volterra
family), bounded-generator matrix semigroups exp(tA), diagonal semigroups,
and the sup-norm multiplication semigroup x -> x^t on a grid of (0,1].

Backends keep no per-time state: each ``materialize`` call builds T(t)
afresh, and a caller that needs one time twice binds the matrix itself.
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NotQuasinilpotentError
from .linalg import _lower_toeplitz, expm, lower_triangular_matmul, op_norm


def _time(t: float) -> float:
    """t as a float, refused with ValueError when negative or NaN."""
    t = float(t)
    if not t >= 0.0:
        raise ValueError(f"a semigroup needs t >= 0, got t = {t:g}")
    return t


class SemigroupBackend(ABC):
    """Finite-dimensional model of a strongly continuous semigroup (T(t))_{t>0}.

    ``quasinilpotent`` flags the modelled semigroup, not the finite matrix:
    the Riemann-Liouville matrix has diagonal h^t / Gamma(1 + t) != 0.
    """

    dim: int
    quasinilpotent: bool = False

    def __init__(self, dim: int):
        self.dim = dim

    @property
    def generator(self) -> np.ndarray | None:
        """Dense generator matrix, present only for bounded-generator models."""
        return None

    @abstractmethod
    def _materialize(self, t: float) -> np.ndarray:
        ...

    def materialize(self, t: float) -> np.ndarray:
        """T(t) as a matrix, refused for a negative or NaN t."""
        return self._materialize(_time(t))

    def apply(self, t: float, vec: np.ndarray) -> np.ndarray:
        """T(t) vec for a vector or a block of columns."""
        return self.materialize(t) @ np.ascontiguousarray(vec, dtype=complex)


class NilpotentShift(SemigroupBackend):
    """Right shift on n uniform cells of (0,1); T(t) = 0 for t >= 1.

    The cell rule (T(t) is the k-cell shift on [(k - 1/2)/n, (k + 1/2)/n))
    lives only here: in ``offset`` for single times, in ``on_grid`` for the
    atom times that ``func_calc`` accepts, and in ``constancy_intervals`` for
    every integral over t.
    """

    quasinilpotent = True
    nilpotent_horizon = 1.0

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need n >= 2 cells")
        super().__init__(n)
        self.grid_step = 1.0 / n

    def offset(self, t: float) -> int:
        return math.floor(t * self.dim + 0.5)

    def on_grid(self, t: float) -> bool:
        """T(t) is this model's operator at t: t is within 1e-9 cells of the
        grid {k/n}, or at or past the horizon, where T = 0 exactly."""
        return t >= self.nilpotent_horizon or abs(t * self.dim - self.offset(t)) <= 1e-9

    def _materialize(self, t: float) -> np.ndarray:
        k = self.offset(t)
        if k >= self.dim:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return np.eye(self.dim, k=-k, dtype=complex)

    def constancy_intervals(self, lo: float, hi: float, scale: float = 1.0):
        """Arrays (t0, t1, k): T(scale * t) = shift-by-k[i] on [t0[i], t1[i]) in [lo, hi].

        The single home of the shift model's breakpoints, which sit at
        t = (k + 1/2) / (scale * n); cell-exact integrals over t are sums over
        these intervals.  The intervals stop at the horizon, past which T = 0,
        and at the first one that starts within 1e-15 of hi.
        """
        n = self.dim
        k = np.arange(math.floor(scale * lo * n + 0.5), n)
        t1 = np.minimum((k + 0.5) / (scale * n), hi)
        t0 = np.concatenate(([lo], t1[:-1]))
        past = np.flatnonzero(t0 >= hi - 1e-15)
        stop = past[0] if past.size else len(k)
        return t0[:stop], t1[:stop], k[:stop]


class RiemannLiouville(SemigroupBackend):
    """Fractional integration (I^t f)(x) = (1/Gamma(t)) int_0^x (x-s)^(t-1) f(s) ds.

    Discretized with first-order product integration of the kernel on n
    cells (exact for piecewise-constant f), which tames the integrable
    singularity as t -> 0+.  T(t) is real, and built in float64.
    """

    quasinilpotent = True

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need n >= 2 cells")
        super().__init__(n)

    def _materialize(self, t: float) -> np.ndarray:
        n = self.dim
        if t == 0.0:
            return np.eye(n)
        h = 1.0 / n
        j = np.arange(n + 1, dtype=float)
        # h^t (j+1)^t - j^t over Gamma(t+1), in log space for stability
        powers = j**t
        w = (powers[1:] - powers[:-1]) * math.exp(t * math.log(h) - math.lgamma(t + 1.0))
        return _lower_toeplitz(w)

    def apply(self, t: float, vec: np.ndarray) -> np.ndarray:
        """T(t) vec for a vector or a block of columns.  T(t) is real and
        lower-triangular, so it multiplies the float64 view of the complex
        block, whose real and imaginary parts interleave, by
        ``lower_triangular_matmul``: one real triangular product instead of a
        complex general one."""
        vec = np.ascontiguousarray(vec, dtype=complex)
        block = vec.reshape(len(vec), -1).view(float)
        return lower_triangular_matmul(self.materialize(t), block).view(complex).reshape(vec.shape)


class MatrixSemigroup(SemigroupBackend):
    """Bounded-generator testbed: T(t) = exp(tA)."""

    def __init__(self, A: np.ndarray):
        A = np.asarray(A, dtype=complex)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
            raise ValueError("generator must be square and nonempty")
        super().__init__(A.shape[0])
        self._A = A

    @property
    def generator(self) -> np.ndarray:
        return self._A

    def _materialize(self, t: float) -> np.ndarray:
        return expm(t * self._A)


class DiagonalSemigroup(SemigroupBackend):
    """T(t) = diag(e^{-lambda_k t}); realizes the character picture exactly."""

    _DENSE_CAP = 5000

    def __init__(self, lambdas):
        lambdas = np.asarray(lambdas, dtype=complex)
        if lambdas.ndim != 1 or len(lambdas) == 0:
            raise ValueError("need a nonempty eigenvalue list")
        super().__init__(len(lambdas))
        self.lambdas = lambdas

    def diagonal(self, t: float) -> np.ndarray:
        return np.exp(-self.lambdas * t)

    def dense(self, diag: np.ndarray, what: str) -> np.ndarray:
        """np.diag(diag), refused as a ConfigError above _DENSE_CAP before it is formed."""
        if self.dim > self._DENSE_CAP:
            raise ConfigError(f"refusing dense {self.dim}x{self.dim} {what} "
                              f"(the cap is {self._DENSE_CAP})")
        return np.diag(diag)

    @property
    def generator(self) -> np.ndarray:
        return self.dense(-self.lambdas, "generator")

    def _materialize(self, t: float) -> np.ndarray:
        return self.dense(self.diagonal(t), "materialization")

    def apply(self, t: float, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=complex)
        d = self.diagonal(_time(t))
        return (d[:, None] if vec.ndim == 2 else d) * vec


class MultiplicationC0(DiagonalSemigroup):
    """Sup-norm model of x -> x^t on continuous functions vanishing at 0.

    Grid x_j = j/n on (0, 1]; T(t) = diag(x_j^t), i.e. a diagonal semigroup
    with lambda_j = -log x_j.  Norm and spectral radius coincide here, which
    is exactly what makes the sharpness example tick.
    """

    def __init__(self, n: int):
        if n < 10:
            raise ValueError("need n >= 10 grid points")
        xs = np.arange(1, n + 1) / n
        super().__init__(-np.log(xs))
        self.xs = xs


def nilpotent_shift(n: int) -> NilpotentShift:
    return NilpotentShift(n)


def riemann_liouville(n: int) -> RiemannLiouville:
    return RiemannLiouville(n)


def matrix_semigroup(A) -> MatrixSemigroup:
    return MatrixSemigroup(A)


def diagonal_semigroup(lambdas) -> DiagonalSemigroup:
    return DiagonalSemigroup(lambdas)


def multiplication_c0(n: int) -> MultiplicationC0:
    return MultiplicationC0(n)


# ---------------------------------------------------------------------------
# renormalization harness

_N_RANDOM = 16  # random unit probe vectors, beside every (n // 8)-th basis vector


@dataclass(frozen=True)
class RenormReport:
    """Falsification harness for the contraction renormalization.

    ||x||_1 = sup_t ||T(t) x|| is sampled on a probe grid; the report records
    how far the induced norms fall short of contraction and, per commutant
    probe R, (tag, est, full) for the restricted-norm inequality
    ||R||_1 <= ||R||: est samples ||R||_1, and full, the power-iteration
    ||R||, is a lower estimate, so est <= full is the strict side.
    """

    contraction_margin: float
    commutant_bound_checks: tuple[tuple[str, float, float], ...]


def feller_renorm(
    backend: SemigroupBackend,
    probe_times,
    seed: int = 0,
) -> RenormReport:
    """Sample the renormalized norm, its contraction margin and the commutant bounds.

    The norms are sampled at t = kh, k <= 2K, so that products T(t)T(s) stay
    on the (doubled) grid: probe_times must be h, 2h, ..., Kh to within
    rounding (4 eps k h at kh), and any other grid is a ConfigError naming
    the first time off it.  The infinite-dimensional completion is replaced
    by finite sampling, making this a falsifier rather than a proof.
    """
    if not backend.quasinilpotent:
        raise NotQuasinilpotentError("renormalization requires a quasinilpotent flag")
    times = sorted(float(t) for t in probe_times)
    if not times or any(t <= 0 for t in times):
        raise ValueError("probe times must be positive")
    h = times[0]
    K = len(times)
    for k, t in enumerate(times, start=1):
        if abs(t - k * h) > 4.0 * sys.float_info.epsilon * k * h:
            raise ConfigError(f"probe times must be h, 2h, ..., Kh with h = {h:.17g}; "
                              f"t = {t:.17g} is not {k}h")

    rng = np.random.default_rng(seed)
    n = backend.dim
    basis = range(0, n, max(1, n // 8))
    m = len(basis) + _N_RANDOM
    X = np.zeros((n, m), dtype=complex)
    X[basis, range(len(basis))] = 1.0
    for j in range(len(basis), m):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        X[:, j] = v / np.linalg.norm(v)

    T_mid = backend.materialize(times[len(times) // 2])
    probe_operators = [
        ("T(t_mid)", T_mid),
        ("T(t_max)", backend.materialize(times[-1])),
        ("T(t_mid)^2", T_mid @ T_mid),
    ]
    # one pass over t = kh, k = 0..2K (T(0) = I), each T(kh) built once: the
    # norms ||T(kh) x|| cover both ||x||_1 and ||T(s)x||_1, and rows k <= K
    # also carry the columns R x of every probe R, for ||R x||_1
    Y = np.hstack([X] + [R @ X for _, R in probe_operators])
    rows = [np.linalg.norm(backend.apply(k * h, Y if k <= K else X) if k else Y, axis=0)
            for k in range(0, 2 * K + 1)]
    prof = np.array([row[:m] for row in rows])
    rx_prof = np.array(rows[: K + 1])[:, m:].reshape(K + 1, len(probe_operators), m)

    n1 = np.max(prof[: K + 1], axis=0)
    live = n1 > 0
    margin = math.inf
    if np.any(live):
        for j in range(1, K + 1):  # s = j*h
            shifted = np.max(prof[j : j + K + 1, live], axis=0)
            margin = min(margin, float(np.min(1.0 - shifted / n1[live])))

    checks = []
    for i, (tag, R) in enumerate(probe_operators):
        full = op_norm(R)
        est = 0.0
        if np.any(live):
            est = float(np.max(rx_prof[:, i, live] / n1[live]))
        checks.append((tag, est, full))

    return RenormReport(
        contraction_margin=float(margin),
        commutant_bound_checks=tuple(checks),
    )
