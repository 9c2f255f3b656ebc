"""Linear-algebra plumbing: matrix exponential, operator norm, spectral radius,
and the BLAS thread cap (``serial_blas``) that every command runs under.

This is the one module that imports scipy.  The matrix exponential and the
dense lower-triangular Toeplitz matrix are scipy's own (``scipy.linalg.expm``,
``scipy.linalg.toeplitz``); ``expm`` and ``_lower_toeplitz`` only fix the
result's dtype (complex, and the column's), so no other module calls scipy.

Dense operator norms take power iteration on M*M.  Every norm of a
lower-triangular Toeplitz matrix, given by its first column, goes through one
front end (``_toeplitz_opnorm``: exact reductions, exact scaling) to the route
that its public entry names: ``banded_toeplitz_opnorm`` for F(-uA) on the
shift model (banded Gram matrix or Lanczos), ``toeplitz_opnorm`` for full
columns such as resolvents (power iteration).  Both kinds scale the operand
by ``_pow2_scaled``, the one real-or-complex decision: an operand with no
nonzero imaginary part runs in float64, any other in complex.  Lanczos and
power iteration share one Gram product, ``_toeplitz_gram``: direct
convolution for narrow sections, an FFT of 2-3-5-smooth length for wide
ones, whichever a cost rule fitted to measured timings (``_gram_fft_length``)
finds cheaper; numpy's FFT, not scipy's, which would add to start-up.  A norm
that feeds only a "<= tolerance" gate takes ``opnorm_bound`` instead, a
proved upper bound that needs no iteration.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.linalg import eigvals_banded
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

_SEED = 0  # start vectors of every power iteration
_POWER_TOL = 1e-10
_POWER_MAX_ITER = 2000
_LANCZOS_MIN_BAND = 16  # shift sections at least this wide take Lanczos, not the band
_LANCZOS_NCV = 30  # Lanczos basis size
# Cost in ns of one Gram product (``_gram_fft_length``) by dtype kind, fitted
# to timings on a 2-core x86-64 host with numpy 2.4 (pocketfft) and OpenBLAS:
# (per call, per element) of each dot product of direct convolution, and
# (fixed, per N log2 N) of the FFT kernel
_DOT_NS = {"f": (22.0, 0.092), "c": (43.0, 0.33)}
_FFT_NS = {"f": (48_000, 4.3), "c": (56_000, 7.2)}
# rounds a bound up past every rounding of |entry|, fsum, sqrt and product
_ROUND_UP = 1.0 + 2.0**-50


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential e^A as a complex array (``scipy.linalg.expm``)."""
    return scipy.linalg.expm(np.asarray(A, dtype=complex))


@dataclass(frozen=True)
class PowerNormResult:
    value: float
    iterations: int
    converged: bool


def power_opnorm(M: np.ndarray) -> PowerNormResult:
    """Largest singular value by power iteration on M*M with a random start,
    on M scaled by an exact power of two (``_pow2_scaled``)."""
    M, exp = _pow2_scaled(np.asarray(M))
    MH = M.conj().T
    res = _power_iteration(lambda v: MH @ (M @ v), M.shape[-1], M.dtype)
    return PowerNormResult(math.ldexp(res.value, exp), res.iterations, res.converged)


def _pow2_scaled(X: np.ndarray) -> tuple[np.ndarray, int]:
    """(X 2^-exp as a new array, exp): exp is the binary exponent of the
    largest |entry|, 0 for a zero X, so the scaled one lies in [1/2, 1) and
    every route sees the same entries for X and 2^k X.  ``ldexp`` scales
    exactly, each part straight into the new array: float64 when X has no
    nonzero imaginary part, complex otherwise, the one real-or-complex
    decision of every norm (each route runs in the dtype it is given)."""
    exp = math.frexp(float(np.max(np.abs(X), initial=0.0)))[1]
    out = np.empty(X.shape, complex if np.iscomplexobj(X) and np.any(X.imag) else float)
    np.ldexp(X.real, -exp, out=out.real)
    if out.dtype.kind == "c":
        np.ldexp(X.imag, -exp, out=out.imag)
    return out, exp


def _power_iteration(gram, n: int, dtype=complex) -> PowerNormResult:
    rng = np.random.default_rng(_SEED)
    v = rng.normal(size=n)
    if np.dtype(dtype).kind == "c":
        v = v + 1j * rng.normal(size=n)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for it in range(1, _POWER_MAX_ITER + 1):
        w = gram(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return PowerNormResult(0.0, it, True)
        new_sigma = math.sqrt(nw)
        v = w / nw
        if abs(new_sigma - sigma) <= _POWER_TOL * new_sigma:
            return PowerNormResult(new_sigma, it, True)
        sigma = new_sigma
    return PowerNormResult(sigma, _POWER_MAX_ITER, False)


def op_norm(M: np.ndarray) -> float:
    """Operator 2-norm; power iteration with an SVD fallback on non-convergence."""
    res = power_opnorm(M)
    return res.value if res.converged else float(np.linalg.norm(M, 2))


def opnorm_bound(x: np.ndarray) -> float:
    """Proved upper bound on an operator 2-norm, for "<= tolerance" gates.

    A 1-D x is the first column c of a lower-triangular Toeplitz T, and by
    Young's inequality ||T|| <= sqrt(||T||_1 ||T||_inf) = ||c||_1.  A 2-D x
    is a matrix M, bounded by sqrt(||M||_1 ||M||_inf).  Sums are ``math.fsum``
    and the result is rounded up by _ROUND_UP, so it stays a bound in
    floating point.  Non-finite entries are refused.
    """
    a = np.abs(np.asarray(x))
    if not np.all(np.isfinite(a)):
        raise ValueError("operator has non-finite entries")
    if a.ndim == 1:
        return math.fsum(a.tolist()) * _ROUND_UP
    one = max(map(math.fsum, a.T.tolist()), default=0.0)
    inf = max(map(math.fsum, a.tolist()), default=0.0)
    return math.sqrt(one) * math.sqrt(inf) * _ROUND_UP


def _lower_toeplitz(col: np.ndarray) -> np.ndarray:
    """The lower-triangular Toeplitz matrix with first column col, in col's
    dtype: T[i, j] = col[i - j] for i >= j, else 0."""
    return scipy.linalg.toeplitz(col, np.zeros_like(col))


def toeplitz_opnorm(c: np.ndarray) -> float:
    """Operator 2-norm of the lower-triangular Toeplitz matrix with first column c,
    for full columns (resolvents and their products): ``_toeplitz_power_opnorm``."""
    return _toeplitz_opnorm(c, _toeplitz_power_opnorm)


def banded_toeplitz_opnorm(c: np.ndarray) -> float:
    """Operator 2-norm of the lower-triangular Toeplitz matrix with first column c,
    for F(-uA) = sum_k w_k S^k on the shift model: ``_band_or_lanczos_opnorm``."""
    return _toeplitz_opnorm(c, _band_or_lanczos_opnorm)


def _toeplitz_opnorm(c: np.ndarray, route) -> float:
    """||T|| for the lower-triangular Toeplitz T with first column c, by route.

    Non-finite entries are refused; a zero column has norm 0.  The live
    offsets (c_k != 0) share a gcd g that splits T into g chains, and by
    interlacing the longest, c[::g], carries the norm.  With k0 its first
    live offset, T = S^k0 T' and the partial isometry S^k0 drops, leaving
    the m x m section T' with first column c[k0:].  route(band, m) gets the
    band of T' up to its last live offset, scaled by ``_pow2_scaled``.
    """
    c = np.asarray(c)
    if not np.all(np.isfinite(c)):
        raise ValueError("Toeplitz first column has non-finite entries")
    live = np.flatnonzero(c)
    if not live.size:
        return 0.0
    g = max(int(np.gcd.reduce(live)), 1)  # 0 when offset 0 is the only live one
    c, live = c[::g], live // g
    k0, k1 = int(live[0]), int(live[-1])
    band, exp = _pow2_scaled(c[k0: k1 + 1])
    return math.ldexp(route(band, len(c) - k0), exp)


def _toeplitz_power_opnorm(c: np.ndarray, m: int) -> float:
    """Route of ``toeplitz_opnorm``: power iteration on ``_toeplitz_gram``;
    the matrix is built only for the SVD fallback on non-convergence."""
    res = _power_iteration(_toeplitz_gram(c, m), m, c.dtype)
    return res.value if res.converged else float(
        np.linalg.norm(_lower_toeplitz(np.pad(c, (0, m - len(c)))), 2))


def _smooth_length(L: int) -> int:
    """Smallest N >= L whose only prime factors are 2, 3 and 5 (1 for L <= 1)."""
    best = 1 << max(L - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-L // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _gram_fft_length(m: int, b: int, kind: str) -> int:
    """FFT length N for ``_toeplitz_gram`` of an m x m section of half-bandwidth
    b and dtype kind ("f" or "c"), or 0 where direct convolution costs less.

    N is the smallest 2-3-5-smooth length >= m + b.  Direct convolution
    takes one dot product of length at most b + 1 per output, 2 (m + b) of
    them; the FFT kernel four transforms of length N.
    """
    N = _smooth_length(m + b)
    per_dot, per_term = _DOT_NS[kind]
    fixed, per_nlogn = _FFT_NS[kind]
    direct_ns = 2 * (m + b) * (per_dot + per_term * (b + 1))
    return N if fixed + per_nlogn * N * math.log2(N) < direct_ns else 0


def _toeplitz_gram(c: np.ndarray, m: int):
    """v -> T'^H T' v for the m x m lower-triangular Toeplitz T' whose first
    column is c (len(c) = b + 1 <= m), zero beyond; v has c's dtype.

    The kernel is the cheaper one by ``_gram_fft_length``.  Direct
    convolution, O(m b): T'x = (c * x)[:m] and T'^H y = (conj(c) reversed
    * y)[b:b+m].  Or a circular embedding of length N >= m + b, at which
    neither product wraps around, O(N log N): T'x = ifft(fft(c) fft(x))[:m],
    and T'^H y the same with conj(fft(c)), by rfft/irfft for a real c and
    fft/ifft for a complex one.  The function's ``forward`` attribute is
    x -> T'x from the same kernel.
    """
    b = len(c) - 1
    N = _gram_fft_length(m, b, c.dtype.kind)
    if not N:
        rc = np.conj(c[::-1])

        def forward(x):
            return np.convolve(c, x.ravel())[:m]

        def gram(v):
            return np.convolve(rc, forward(v))[b: b + m]
    else:
        fft, ifft = ((np.fft.fft, np.fft.ifft) if c.dtype.kind == "c"
                     else (np.fft.rfft, functools.partial(np.fft.irfft, n=N)))
        fc = fft(c, N)
        fch = fc.conj()

        def forward(x):
            return ifft(fc * fft(x.ravel(), N))[:m]

        def gram(v):
            return ifft(fch * fft(forward(v), N))[:m]

    gram.forward = forward
    return gram


def _band_or_lanczos_opnorm(c: np.ndarray, m: int) -> float:
    """Route of ``banded_toeplitz_opnorm``: a narrow band (b < _LANCZOS_MIN_BAND)
    takes sqrt(lambda_max) of its banded Gram matrix (``_band_opnorm``), a wider
    one Lanczos on ``_toeplitz_gram`` (``_lanczos_opnorm``), falling back to
    the band if ARPACK does not converge."""
    if len(c) - 1 >= _LANCZOS_MIN_BAND:
        with suppress(ArpackNoConvergence):
            return _lanczos_opnorm(c, m)
    return _band_opnorm(c, m)


def _band_opnorm(c: np.ndarray, m: int) -> float:
    """||T'|| for the m x m lower-triangular Toeplitz T' with first column c.

    T'^H T' has half-bandwidth b = len(c) - 1 and, by prefix sums over s,
    (T'^H T')[j+d, j] = sum_{s=d}^{min(b, m-1-j)} conj(c_(s-d)) c_s; LAPACK
    reduces that band to tridiagonal form, O(m^2 b) flops.
    """
    b = len(c) - 1
    # Fortran order, so LAPACK reduces the band in place: the band is the only
    # array of size (b + 1) m, and the peak memory of a call is that one array.
    band = np.zeros((m, b + 1), dtype=c.dtype).T
    j = np.arange(m)
    for d in range(b + 1):
        prefix = np.cumsum(np.conj(c[: b + 1 - d]) * c[d:])
        band[d, : m - d] = prefix[np.minimum(b, m - 1 - j[: m - d]) - d]
    lam = eigvals_banded(band, lower=True, overwrite_a_band=True, check_finite=False,
                         select="i", select_range=(m - 1, m - 1))
    return math.sqrt(max(float(lam[0]), 0.0))


def _lanczos_opnorm(c: np.ndarray, m: int) -> float:
    """Lower bound on ||T'|| by ARPACK Lanczos on T'^H T', T' as in ``_band_opnorm``.

    Each matvec is a ``_toeplitz_gram`` product.  The value returned is the
    witness ||T'x|| / ||x|| of the Ritz vector x, from the same kernel, a
    lower bound on ||T'|| whatever ARPACK converged to.  The start vector is
    fixed, so the result does not depend on earlier calls.
    """
    gram = _toeplitz_gram(c, m)
    op = LinearOperator((m, m), matvec=gram, dtype=c.dtype)
    v0 = np.random.default_rng(_SEED).normal(size=m)
    _, vec = eigsh(op, k=1, which="LA", v0=v0, ncv=min(_LANCZOS_NCV, m), tol=0)
    x = vec[:, 0]
    return float(np.linalg.norm(gram.forward(x)) / np.linalg.norm(x))


def spectral_radius(M: np.ndarray) -> float:
    """Spectral radius: exact from the diagonal for triangular matrices,
    diagonal and nilpotent ones included; otherwise max |eigvals(M)|."""
    if not np.any(np.triu(M, 1)) or not np.any(np.tril(M, -1)):
        return float(np.max(np.abs(np.diagonal(M)), initial=0.0))
    return float(np.max(np.abs(np.linalg.eigvals(M))))


@functools.cache
def _openblas_pools() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS pool that numpy and
    scipy have loaded: the ``lib*openblas*.so*`` of their wheels, opened with
    RTLD_NOLOAD so that nothing new is loaded.  Empty for any other BLAS."""
    pools = []
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("lib*openblas*.so*")):
            try:
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            except OSError:  # not loaded in this process
                continue  # unreached: host-dependent, a wheel's OpenBLAS left unloaded
            for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                         "scipy_openblas_{}_num_threads", "openblas_{}_num_threads"):
                get = getattr(lib, name.format("get"), None)
                set_ = getattr(lib, name.format("set"), None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = (), ctypes.c_int
                    set_.argtypes, set_.restype = (ctypes.c_int,), None
                    pools.append((get, set_))
                    break
    return tuple(pools)


@contextmanager
def serial_blas():
    """Run the body with every loaded OpenBLAS pool at one thread, then give
    each pool back its previous count, also when the body raises.

    The matrices here are at most a few thousand wide, and a second BLAS
    thread only spins after the small GEMMs and ARPACK's level-2 calls: it
    doubles CPU time without saving wall time.  Re-entering is harmless;
    without OpenBLAS this does nothing.
    """
    pools = _openblas_pools()
    counts = [get() for get, _ in pools]
    for _, set_ in pools:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(pools, counts):
            set_(count)
