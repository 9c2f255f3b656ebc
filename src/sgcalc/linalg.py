"""Linear-algebra plumbing: matrix exponential, operator norm, spectral radius.

Operator norms of dense matrices and of lower-triangular Toeplitz matrices,
given by their first column, share one power iteration; the Toeplitz one
applies the matrix by FFT convolution and never forms it.

The spectral-radius estimator deliberately runs two independent routes
(power iteration and the norm-of-powers limit) because the quasinilpotent
discretizations used elsewhere are severely non-normal, where either method
alone can mislead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from .errors import InconsistentEstimatesError

# Pade coefficients for the degree-13 diagonal approximant of exp.
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152

_SEED = 0  # start vectors of every power iteration
_POWER_TOL = 1e-10
_POWER_MAX_ITER = 2000
_SAFE_EXP = 200
_EIG_RESTARTS = 4
_EIG_ITERS = 400
_DISAGREEMENT_TOL = 1e-6


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a degree-13 Pade core."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("expm expects a square matrix")
    nrm = np.linalg.norm(A, 1)
    s = max(0, int(math.ceil(math.log2(nrm / _THETA13))) if nrm > _THETA13 else 0)
    As = A / (2.0**s)

    I = np.eye(n, dtype=complex)
    A2 = As @ As
    A4 = A2 @ A2
    A6 = A2 @ A4
    b = _PADE13
    U = As @ (
        A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
        + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I
    )
    V = (
        A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
        + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I
    )
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
    return R


@dataclass(frozen=True)
class PowerNormResult:
    value: float
    iterations: int
    converged: bool


def power_opnorm(M: np.ndarray) -> PowerNormResult:
    """Largest singular value by power iteration on M*M with a random start."""
    return _scaled_power_iteration(np.asarray(M, dtype=complex), _dense_gram)


def _dense_gram(M: np.ndarray):
    MH = M.conj().T
    return lambda v: MH @ (M @ v)


def _toeplitz_gram(c: np.ndarray):
    """v -> T^H T v for the lower-triangular Toeplitz T with first column c.

    Each product is a circulant embedding of length N >= 2m - 1, so nothing
    wraps around: T x = ifft(fft(c) fft(x))[:m], and T^H y is the same with
    conj(fft(c)), a correlation with c.
    """
    m = len(c)
    N = 1 << (2 * m - 2).bit_length()
    fc = np.fft.fft(c, N)
    fch = fc.conj()

    def gram(v):
        Tv = np.fft.ifft(fc * np.fft.fft(v, N))[:m]
        return np.fft.ifft(fch * np.fft.fft(Tv, N))[:m]

    return gram


def _scaled_power_iteration(X: np.ndarray, gram_of) -> PowerNormResult:
    """Power iteration with the Gram map gram_of(X) of the matrix that X gives.

    A value outside 2^(+-_SAFE_EXP), 0 included, may come from squares in
    the Gram product that under- or overflowed, so it is computed again on X
    scaled by an exact power of two, and scaled back.  X is the matrix, or
    its first column when that holds all of its entries (Toeplitz).
    """
    n = X.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        res = _power_iteration(gram_of(X), n)
    if not 2.0**-_SAFE_EXP <= res.value <= 2.0**_SAFE_EXP:
        exp = math.frexp(float(np.max(np.abs(X), initial=0.0)))[1]
        if exp:
            X = np.ldexp(X.real, -exp) + 1j * np.ldexp(X.imag, -exp)
            res = _power_iteration(gram_of(X), n)
            res = PowerNormResult(math.ldexp(res.value, exp), res.iterations, res.converged)
    return res


def _power_iteration(gram, n: int) -> PowerNormResult:
    rng = np.random.default_rng(_SEED)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for it in range(1, _POWER_MAX_ITER + 1):
        w = gram(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return PowerNormResult(0.0, it, True)
        new_sigma = math.sqrt(nw)
        v = w / nw
        if abs(new_sigma - sigma) <= _POWER_TOL * max(new_sigma, 1e-300):
            return PowerNormResult(new_sigma, it, True)
        sigma = new_sigma
    return PowerNormResult(sigma, _POWER_MAX_ITER, False)


def op_norm(M: np.ndarray) -> float:
    """Operator 2-norm; power iteration with an SVD fallback on non-convergence."""
    M = np.asarray(M, dtype=complex)
    if M.size == 0:
        return 0.0
    res = power_opnorm(M)
    if res.converged:
        return res.value
    return float(np.linalg.norm(M, 2))


def _lower_toeplitz(col: np.ndarray) -> np.ndarray:
    """The lower-triangular Toeplitz matrix with first column col."""
    return toeplitz(col, np.zeros(len(col), dtype=complex))


def toeplitz_opnorm(c: np.ndarray) -> float:
    """Operator 2-norm of the lower-triangular Toeplitz matrix with first column c.

    The power iteration of ``op_norm`` with FFT matvecs, O(m log m) each; the
    matrix is built only for the SVD fallback on non-convergence.
    """
    c = np.asarray(c, dtype=complex)
    if c.size == 0:
        return 0.0
    res = _scaled_power_iteration(c, _toeplitz_gram)
    if res.converged:
        return res.value
    return float(np.linalg.norm(_lower_toeplitz(c), 2))


def gelfand_estimate(M: np.ndarray, max_squarings: int = 8):
    """Norm-of-powers estimates ||M^(2^k)||^(1/2^k), k = 0..max_squarings.

    Powers are renormalized at every squaring so the estimate is computed in
    log space without overflow.  Returns the list of estimates; an exact zero
    power short-circuits with estimate 0.
    """
    M = np.asarray(M, dtype=complex)
    ests = []
    B = M.copy()
    log_acc = 0.0
    for k in range(max_squarings + 1):
        nrm = np.linalg.norm(B, 2)
        if nrm == 0.0:
            ests.append(0.0)
            return ests
        est = math.exp((log_acc + math.log(nrm)) / 2**k)
        ests.append(est)
        B = B / nrm
        log_acc = 2.0 * (log_acc + math.log(nrm))
        B = B @ B
    return ests


def power_eig_estimate(M: np.ndarray):
    """Dominant-eigenvalue modulus via power iteration with random restarts."""
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    rng = np.random.default_rng(_SEED)
    best = 0.0
    for _ in range(_EIG_RESTARTS):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(_EIG_ITERS):
            w = M @ v
            nw = np.linalg.norm(w)
            if nw == 0.0:
                lam = 0.0
                break
            v = w / nw
            lam = abs(np.vdot(v, M @ v))
        best = max(best, float(lam))
    return best


@dataclass(frozen=True)
class SpectralRadiusResult:
    value: float
    power_estimate: float
    gelfand_estimate: float
    consistent: bool


def spectral_radius_detail(M: np.ndarray) -> SpectralRadiusResult:
    """Dual-route spectral radius.

    Exact short-circuit for triangular matrices, diagonal and nilpotent ones
    included (eigenvalues are on the diagonal); otherwise power iteration is
    cross-checked against the norm-of-powers limit.  Small matrices get extra
    squarings because the k <= 8 truncation of the limit converges too slowly
    to cross-check at _DISAGREEMENT_TOL.
    """
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    if not np.any(np.triu(M, 1)) or not np.any(np.tril(M, -1)):
        v = float(np.max(np.abs(np.diagonal(M)), initial=0.0))
        return SpectralRadiusResult(v, v, v, True)

    max_squarings = 48 if n <= 128 else max(8, int(math.ceil(math.log2(max(n, 2)))))
    p = power_eig_estimate(M)
    g_list = gelfand_estimate(M, max_squarings=max_squarings)
    g = g_list[-1]
    scale_ref = max(1.0, p, g)
    consistent = abs(p - g) <= _DISAGREEMENT_TOL * scale_ref
    value = g if g_list[-1] == 0.0 or not consistent else 0.5 * (p + g)
    return SpectralRadiusResult(value, p, g, consistent)


def spectral_radius(M: np.ndarray, strict: bool = False) -> float:
    """Spectral radius as a float; strict=True raises when the two routes disagree."""
    res = spectral_radius_detail(M)
    if strict and not res.consistent:
        raise InconsistentEstimatesError(
            "power-iteration and norm-of-powers spectral radius estimates disagree",
            estimates=(res.power_estimate, res.gelfand_estimate),
        )
    return res.value
