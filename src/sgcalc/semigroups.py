"""Finite-dimensional model backends for one-parameter semigroups.

Five models: the nilpotent right shift on a cell discretization of L^2(0,1),
Riemann-Liouville fractional integration (a smooth quasinilpotent Volterra
family), bounded-generator matrix semigroups exp(tA), diagonal semigroups,
and the sup-norm multiplication semigroup x -> x^t on a grid of (0,1].

Backends are immutable after construction; materialized matrices are memoized
behind a lock so concurrent readers share them safely.
"""

from __future__ import annotations

import math
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import NotQuasinilpotentError
from .linalg import expm, op_norm


class SemigroupBackend(ABC):
    """Finite-dimensional model of a strongly continuous semigroup (T(t))_{t>0}."""

    dim: int
    quasinilpotent: bool = False
    contractive: bool = False
    nilpotent_horizon: float | None = None
    is_diagonal: bool = False

    def __init__(self, dim: int):
        self.dim = dim
        self._cache: dict[float, np.ndarray] = {}
        self._lock = threading.Lock()

    @property
    def generator(self) -> np.ndarray | None:
        """Dense generator matrix, present only for bounded-generator models."""
        return None

    @abstractmethod
    def _materialize(self, t: float) -> np.ndarray:
        ...

    def materialize(self, t: float) -> np.ndarray:
        t = float(t)
        with self._lock:
            M = self._cache.get(t)
        if M is None:
            M = self._materialize(t)
            with self._lock:
                self._cache[t] = M
        return M

    def apply(self, t: float, vec: np.ndarray) -> np.ndarray:
        return self.materialize(t) @ np.asarray(vec, dtype=complex)


class NilpotentShift(SemigroupBackend):
    """Right shift on n uniform cells of (0,1); T(t) = 0 for t >= 1.

    Times are rounded to the grid {k/n}; off-grid requests are honored but
    counted in ``offgrid_roundings`` so sweeps can certify they stayed
    quadrature-exact.  The cell rule (T(t) is the k-cell shift on
    [(k - 1/2)/n, (k + 1/2)/n)) lives only here: in ``offset`` for single
    times and in ``constancy_intervals`` for every integral over t.
    """

    quasinilpotent = True
    contractive = True
    nilpotent_horizon = 1.0

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need n >= 2 cells")
        super().__init__(n)
        self.grid_step = 1.0 / n
        self.offgrid_roundings: list[float] = []

    def offset(self, t: float) -> int:
        k = int(round(t * self.dim))
        if abs(t * self.dim - k) > 1e-9:
            self.offgrid_roundings.append(float(t))
        return k

    def _materialize(self, t: float) -> np.ndarray:
        k = self.offset(t)
        if k >= self.dim:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return np.eye(self.dim, k=-k, dtype=complex)

    def constancy_intervals(self, lo: float, hi: float, scale: float = 1.0):
        """Yield (t0, t1, k) with T(scale * t) = shift-by-k on [t0, t1) in [lo, hi].

        The single home of the shift model's breakpoints, which sit at
        t = (k + 1/2) / (scale * n); cell-exact integrals over t are sums over
        these intervals.  The intervals stop at the horizon, past which T = 0.
        """
        n = self.dim
        k = int(round(scale * lo * n))
        t = lo
        while t < hi - 1e-15 and k < n:
            t1 = min((k + 0.5) / (scale * n), hi)
            yield t, t1, k
            t = t1
            k += 1


class RiemannLiouville(SemigroupBackend):
    """Fractional integration (I^t f)(x) = (1/Gamma(t)) int_0^x (x-s)^(t-1) f(s) ds.

    Discretized with first-order product integration of the kernel on n
    cells (exact for piecewise-constant f), which tames the integrable
    singularity as t -> 0+.
    """

    quasinilpotent = True
    contractive = False

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need n >= 2 cells")
        super().__init__(n)

    def _materialize(self, t: float) -> np.ndarray:
        n = self.dim
        if t == 0.0:
            return np.eye(n, dtype=complex)
        if t < 0.0:
            raise ValueError("fractional integration needs t >= 0")
        h = 1.0 / n
        j = np.arange(n + 1, dtype=float)
        # h^t (j+1)^t - j^t over Gamma(t+1), in log space for stability
        powers = j**t
        w = (powers[1:] - powers[:-1]) * math.exp(t * math.log(h) - gammaln(t + 1.0))
        M = np.zeros((n, n), dtype=complex)
        idx = np.arange(n)
        for d in range(n):
            M[idx[d:], idx[d:] - d] = w[d]
        return M


class MatrixSemigroup(SemigroupBackend):
    """Bounded-generator testbed: T(t) = exp(tA)."""

    def __init__(self, A: np.ndarray, quasinilpotent: bool = False,
                 contractive: bool = False):
        A = np.asarray(A, dtype=complex)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("generator must be square")
        super().__init__(A.shape[0])
        self._A = A
        self.quasinilpotent = quasinilpotent
        self.contractive = contractive

    @property
    def generator(self) -> np.ndarray:
        return self._A

    def _materialize(self, t: float) -> np.ndarray:
        return expm(t * self._A)


class DiagonalSemigroup(SemigroupBackend):
    """T(t) = diag(e^{-lambda_k t}); realizes the character picture exactly."""

    is_diagonal = True
    _DENSE_CAP = 5000

    def __init__(self, lambdas):
        lambdas = np.asarray(lambdas, dtype=complex)
        if lambdas.ndim != 1 or len(lambdas) == 0:
            raise ValueError("need a nonempty eigenvalue list")
        super().__init__(len(lambdas))
        self.lambdas = lambdas
        self.contractive = bool(np.all(lambdas.real >= -1e-15))

    def diagonal(self, t: float) -> np.ndarray:
        return np.exp(-self.lambdas * t)

    @property
    def generator_diagonal(self) -> np.ndarray:
        return -self.lambdas

    @property
    def generator(self) -> np.ndarray:
        if self.dim > self._DENSE_CAP:
            raise MemoryError(f"refusing dense {self.dim}x{self.dim} generator")
        return np.diag(-self.lambdas)

    def _materialize(self, t: float) -> np.ndarray:
        if self.dim > self._DENSE_CAP:
            raise MemoryError(f"refusing dense {self.dim}x{self.dim} materialization")
        return np.diag(self.diagonal(t))

    def apply(self, t: float, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=complex)
        d = self.diagonal(t)
        return (d[:, None] if vec.ndim == 2 else d) * vec


class MultiplicationC0(DiagonalSemigroup):
    """Sup-norm model of x -> x^t on continuous functions vanishing at 0.

    Grid x_j = j/n on (0, 1]; T(t) = diag(x_j^t), i.e. a diagonal semigroup
    with lambda_j = -log x_j.  Norm and spectral radius coincide here, which
    is exactly what makes the sharpness example tick.
    """

    sup_norm = True

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


def matrix_semigroup(A, **kw) -> MatrixSemigroup:
    return MatrixSemigroup(A, **kw)


def diagonal_semigroup(lambdas) -> DiagonalSemigroup:
    return DiagonalSemigroup(lambdas)


def multiplication_c0(n: int) -> MultiplicationC0:
    return MultiplicationC0(n)


# ---------------------------------------------------------------------------
# renormalization harness


@dataclass(frozen=True)
class RenormReport:
    """Falsification harness for the contraction renormalization.

    ||x||_1 = sup_t ||T(t) x|| is sampled on a probe grid; the report records
    how far the induced norms fall short of contraction and whether commutant
    probes R satisfy the restricted-norm inequality ||R||_1 <= ||R||.
    """

    norm1_samples: dict
    contraction_margin: float
    commutant_bound_checks: tuple[tuple[str, float, float], ...]

    @property
    def commutant_ok(self) -> bool:
        return all(est <= full + 1e-6 for _, est, full in self.commutant_bound_checks)


def feller_renorm(
    backend: SemigroupBackend,
    probe_times,
    probe_operators=None,
    n_random: int = 16,
    seed: int = 0,
) -> RenormReport:
    """Sample the renormalized norm and check contraction plus commutant bounds.

    probe_times should be a uniform grid h, 2h, ..., Kh so that products
    T(t)T(s) stay on a (doubled) grid; the infinite-dimensional completion is
    replaced by finite sampling, making this a falsifier rather than a proof.
    """
    if not backend.quasinilpotent:
        raise NotQuasinilpotentError("renormalization requires a quasinilpotent flag")
    times = sorted(float(t) for t in probe_times)
    if not times or any(t <= 0 for t in times):
        raise ValueError("probe times must be positive")
    h = times[0]
    K = len(times)

    rng = np.random.default_rng(seed)
    n = backend.dim
    basis = range(0, n, max(1, n // 8))
    tags = [f"e{i}" for i in basis] + [f"r{j}" for j in range(n_random)]
    X = np.zeros((n, len(tags)), dtype=complex)
    X[basis, range(len(basis))] = 1.0
    for j in range(len(basis), len(tags)):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        X[:, j] = v / np.linalg.norm(v)

    def profile(t_list, Y):
        """Row i holds ||T(t_i) y|| for every column y of Y (T(0) = I)."""
        return np.array([np.linalg.norm(backend.apply(t, Y) if t > 0 else Y, axis=0)
                         for t in t_list])

    # norms ||T(kh) x|| for k = 0..2K cover both ||x||_1 and ||T(s)x||_1
    prof = profile([k * h for k in range(0, 2 * K + 1)], X)
    n1 = np.max(prof[: K + 1], axis=0)
    norm1_samples = {tag: float(v) for tag, v in zip(tags, n1)}
    live = n1 > 0
    margin = math.inf
    if np.any(live):
        for j in range(1, K + 1):  # s = j*h
            shifted = np.max(prof[j : j + K + 1, live], axis=0)
            margin = min(margin, float(np.min(1.0 - shifted / n1[live])))

    if probe_operators is None:
        t_mid = times[len(times) // 2]
        probe_operators = [
            ("T(t_mid)", backend.materialize(t_mid)),
            ("T(t_max)", backend.materialize(times[-1])),
            ("T(t_mid)^2", backend.materialize(t_mid) @ backend.materialize(t_mid)),
        ]

    checks = []
    for tag, R in probe_operators:
        full = op_norm(R)
        est = 0.0
        if np.any(live):
            rx_prof = profile([0.0] + times, R @ X[:, live])
            est = float(np.max(rx_prof / n1[live]))
        checks.append((tag, est, full))

    return RenormReport(
        norm1_samples=norm1_samples,
        contraction_margin=float(margin),
        commutant_bound_checks=tuple(checks),
    )
