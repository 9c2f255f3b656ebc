"""Linear-algebra plumbing: matrix exponential, operator norm, spectral radius.

Operator norms of dense matrices and of lower-triangular Toeplitz matrices,
given by their first column, share one power iteration; the Toeplitz one
applies the matrix by FFT convolution and never forms it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

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


def spectral_radius(M: np.ndarray) -> float:
    """Spectral radius: exact from the diagonal for triangular matrices,
    diagonal and nilpotent ones included; otherwise max |eigvals(M)|."""
    M = np.asarray(M, dtype=complex)
    if not np.any(np.triu(M, 1)) or not np.any(np.tril(M, -1)):
        return float(np.max(np.abs(np.diagonal(M)), initial=0.0))
    return float(np.max(np.abs(np.linalg.eigvals(M))))
