"""Linear-algebra plumbing: matrix exponential, operator norm, spectral radius,
and the BLAS thread cap (``serial_blas``) that every command runs under.

This is the one module that imports scipy.  The matrix exponential and the
dense lower-triangular Toeplitz matrix are scipy's own (``scipy.linalg.expm``,
``scipy.linalg.toeplitz``); ``expm`` and ``_lower_toeplitz`` only fix the
result's dtype (complex, and the column's), so no other module calls scipy.
``lower_triangular_matmul`` is BLAS ``dtrmm``, for the real lower-triangular
Riemann-Liouville T(t).

Dense operator norms take power iteration on M*M, with an SVD fallback.  Every
norm of a lower-triangular Toeplitz matrix, given by its first column, goes
through one loop (``_toeplitz_opnorm``): exact reductions and exact scaling,
then the routes of one list, in order, until one answers; there is no dense
fallback.  ``banded_toeplitz_opnorm``, for F(-uA) on the shift model, lists
the routes of ``_section_routes``, cheapest first by a cost rule fitted to
measured timings, up to the band, which always answers: the largest
eigenvalue of the banded Gram matrix (LAPACK), ARPACK in shift-invert mode on
a banded Cholesky factor, whose success also certifies the shift as an upper
bound on the squared norm, or ARPACK Lanczos.  ``toeplitz_opnorm``, for full
columns such as resolvents, puts power iteration before the same list.  Both
scale the operand by ``_pow2_scaled``, the one real-or-complex decision: an
operand with no nonzero imaginary part runs in float64, any other in complex.
Lanczos, the witnesses of both ARPACK routes and power iteration share one
Gram product, ``_toeplitz_gram``: direct convolution for narrow sections, an
FFT of 2-3-5-smooth length for wide ones, whichever a cost rule fitted to
measured timings (``_gram_fft_length``) finds cheaper; numpy's FFT, not
scipy's, which would add to start-up.  A norm that feeds only a
"<= tolerance" gate takes ``opnorm_bound`` instead, a proved upper bound that
needs no iteration.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.linalg import eigvals_banded
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

_SEED = 0  # start vectors of every power iteration
_POWER_TOL = 1e-10
_POWER_MAX_ITER = 2000
_LANCZOS_NCV = 30  # Lanczos basis size
_SI_NCV = 8  # shift-invert basis size
_SI_MAX_ITER = 20  # shift-invert restarts
# Cost in ns of one Gram product (``_gram_fft_length``) by dtype kind, fitted
# to timings on a 2-core x86-64 host with numpy 2.4 (pocketfft) and OpenBLAS:
# (per call, per element) of each dot product of direct convolution, and
# (fixed, per N log2 N) of the FFT kernel
_DOT_NS = {"f": (22.0, 0.092), "c": (43.0, 0.33)}
_FFT_NS = {"f": (48_000, 4.3), "c": (56_000, 7.2)}
# Cost in ns of each route of ``banded_toeplitz_opnorm`` (``_section_routes``)
# on an m x m section of half-bandwidth b, fitted the same way to timings of
# step and delta-difference sections, m = 63 ... 4095, b = 1 ... 870:
# (fixed, per m, per m^2 (b - 1)) of the band, (fixed, per m, per m b) of
# shift-invert, and for Lanczos (fixed, per m / (b + 1)) matvecs, each costing
# a Gram product plus the last entry
_BAND_NS = {"f": (54_000, 590, 1.1), "c": (61_000, 570, 3.7)}
_SI_NS = {"f": (370_000, 580, 26.0), "c": (420_000, 870, 61.0)}
_LANCZOS_COST = {"f": (14.0, 2.6, 28_000), "c": (8.5, 5.2, 40_000)}
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


def lower_triangular_matmul(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """L @ B for a real lower-triangular L and a real 2-D B, both C-ordered,
    by BLAS ``dtrmm`` at half the flops of a general product.

    A C-ordered array is its transpose in Fortran order, so dtrmm forms
    B^T L^T = (L B)^T from L^T (upper-triangular) and B^T without a
    transposed copy of either; its one new array is the result.
    """
    return scipy.linalg.blas.dtrmm(1.0, L.T, B.T, side=1, lower=0).T


def toeplitz_opnorm(c: np.ndarray) -> float:
    """Operator 2-norm of the lower-triangular Toeplitz matrix with first column c,
    for full columns (resolvents and their products): power iteration first,
    then the routes of ``_section_routes``."""
    return _toeplitz_opnorm(c, lambda m, b, kind: [_toeplitz_power_opnorm,
                                                   *_section_routes(m, b, kind)])


def banded_toeplitz_opnorm(c: np.ndarray) -> float:
    """Operator 2-norm of the lower-triangular Toeplitz matrix with first column c,
    for F(-uA) = sum_k w_k S^k on the shift model: the routes of ``_section_routes``."""
    return _toeplitz_opnorm(c, _section_routes)


def _toeplitz_opnorm(c: np.ndarray, routes) -> float:
    """||T|| for the lower-triangular Toeplitz T with first column c: the first
    value that is not None of the routes that routes(m, b, kind) lists.

    Non-finite entries are refused; a zero column has norm 0.  The live
    offsets (c_k != 0) share a gcd g that splits T into g chains, and by
    interlacing the longest, c[::g], carries the norm.  With k0 its first
    live offset, T = S^k0 T' and the partial isometry S^k0 drops, leaving
    the m x m section T' with first column c[k0:].  Each route(band, m) gets
    the band of T' up to its last live offset, of half-bandwidth b and dtype
    kind, scaled by ``_pow2_scaled``.
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
    m = len(c) - k0
    for route in routes(m, k1 - k0, band.dtype.kind):
        value = route(band, m)
        if value is not None:
            return math.ldexp(value, exp)


def _toeplitz_power_opnorm(c: np.ndarray, m: int) -> float | None:
    """Power iteration on ``_toeplitz_gram``, or None when it does not converge."""
    res = _power_iteration(_toeplitz_gram(c, m), m, c.dtype)
    return res.value if res.converged else None


@functools.cache
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
    b and dtype kind ("f" or "c"), or 0 where direct convolution costs less
    (``_gram_cost``)."""
    return _gram_cost(m, b, kind)[1]


def _gram_cost(m: int, b: int, kind: str) -> tuple[float, int]:
    """(cost in ns, FFT length or 0) of the cheaper Gram kernel.

    N is the smallest 2-3-5-smooth length >= m + b.  Direct convolution
    takes one dot product of length at most b + 1 per output, 2 (m + b) of
    them; the FFT kernel four transforms of length N.
    """
    N = _smooth_length(m + b)
    per_dot, per_term = _DOT_NS[kind]
    fixed, per_nlogn = _FFT_NS[kind]
    direct_ns = 2 * (m + b) * (per_dot + per_term * (b + 1))
    fft_ns = fixed + per_nlogn * N * math.log2(N)
    return (fft_ns, N) if fft_ns < direct_ns else (direct_ns, 0)


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


def _section_routes(m: int, b: int, kind: str) -> list:
    """The routes of an m x m section T' of half-bandwidth b and dtype kind,
    cheapest first by the fitted costs _BAND_NS, _SI_NS and _LANCZOS_COST, up
    to and including the band, which always answers.

    ``_band_opnorm``, sqrt(lambda_max) of the banded Gram matrix T'^H T' by
    LAPACK (neither side of ||T'||), costs O(m^2 b) (tridiagonal reduction;
    none for b = 1).  ``_shift_invert_opnorm`` and ``_lanczos_opnorm`` run
    ARPACK on T'^H T' (``_eigsh_witness``): shift-invert O(m b^2) once for a
    banded Cholesky of sigma I - T'^H T', whose success certifies sigma, up
    to the factorization's backward error, as an upper bound on ||T'||^2,
    then O(m b) per step and a few steps; Lanczos a number of Gram products
    that grows with m / (b + 1) on these sections, each O(m b) or
    O(N log N) (``_gram_cost``).
    """
    b0, b1, b2 = _BAND_NS[kind]
    s0, s1, s2 = _SI_NS[kind]
    l0, l1, l2 = _LANCZOS_COST[kind]
    costs = [(b0 + b1 * m + b2 * m * m * max(b - 1, 0), _band_opnorm),
             (s0 + s1 * m + s2 * m * b, _shift_invert_opnorm),
             ((l0 + l1 * m / (b + 1)) * (_gram_cost(m, b, kind)[0] + l2), _lanczos_opnorm)]
    routes = [route for _, route in sorted(costs, key=lambda cost: cost[0])]
    return routes[: routes.index(_band_opnorm) + 1]


def _gram_band(c: np.ndarray, m: int) -> np.ndarray:
    """Lower band of T'^H T' for the m x m lower-triangular Toeplitz T' with
    first column c, in LAPACK's lower band storage: band[d, j] = (T'^H T')[j+d, j].

    T'^H T' has half-bandwidth b = len(c) - 1 and (T'^H T')[j+d, j] =
    P[d, min(b, m-1-j)], with P[d, t] = sum_{s=d}^{t} conj(c_(s-d)) c_s the
    prefix sums over s of each diagonal (0 for t < d, where j + d is past
    the matrix): one (b + 1)^2 table, at most the size of the band since
    b < m, gathered into the band.  Fortran order, so LAPACK works on it in
    place: the band is the only array of size (b + 1) m that a route makes.
    """
    b = len(c) - 1
    lag = np.arange(b + 1) - np.arange(b + 1)[:, None]  # lag[d, s] = s - d
    P = np.cumsum(np.where(lag >= 0, np.conj(c)[np.maximum(lag, 0)] * c, 0), axis=1)
    band = np.empty((m, b + 1), dtype=c.dtype).T
    np.take(P, np.minimum(b, np.arange(m - 1, -1, -1)), axis=1, out=band, mode="clip")
    return band


def _band_opnorm(c: np.ndarray, m: int) -> float:
    """||T'|| as sqrt(lambda_max) of ``_gram_band``: LAPACK reduces the band to
    tridiagonal form, O(m^2 b) flops."""
    lam = eigvals_banded(_gram_band(c, m), lower=True, overwrite_a_band=True,
                         check_finite=False, select="i", select_range=(m - 1, m - 1))
    return math.sqrt(max(float(lam[0]), 0.0))


def _shift_invert_opnorm(c: np.ndarray, m: int) -> float | None:
    """Lower bound on ||T'|| by ARPACK in shift-invert mode, or None.

    ||T'|| <= sup |a| for the symbol a(z) = sum_k c_k z^k, so the square of
    its peak sampled at N >= 8m points, rounded up, is a shift sigma just
    above lambda_max(T'^H T').  A successful banded Cholesky of
    sigma I - T'^H T' (O(m b^2)) proves sigma above every eigenvalue, up to
    the factorization's backward error, and then one triangular band solve
    per step (O(m b)) drives ARPACK to the eigenvalue nearest sigma, the
    largest.  None when the Cholesky fails or ARPACK does not converge.
    """
    real = c.dtype.kind == "f"
    N = _smooth_length(8 * m)
    peak = float(np.max(np.abs(np.fft.rfft(c, N) if real else np.fft.fft(c, N))))
    sigma = peak * peak * _ROUND_UP
    band = _gram_band(c, m)
    np.negative(band, out=band)
    band[0] += sigma
    factor, solve = ((scipy.linalg.lapack.dpbtrf, scipy.linalg.lapack.dpbtrs) if real
                     else (scipy.linalg.lapack.zpbtrf, scipy.linalg.lapack.zpbtrs))
    chol, info = factor(band, lower=1, overwrite_ab=1)
    if info:
        return None

    def shifted_inverse(x):  # (T'^H T' - sigma I)^-1 x
        return -solve(chol, x, lower=1)[0]

    return _eigsh_witness(c, m, sigma=sigma, which="LM", ncv=min(_SI_NCV, m),
                          maxiter=_SI_MAX_ITER,
                          OPinv=LinearOperator((m, m), matvec=shifted_inverse, dtype=c.dtype))


def _lanczos_opnorm(c: np.ndarray, m: int) -> float | None:
    """Lower bound on ||T'|| by ARPACK Lanczos on T'^H T', or None."""
    return _eigsh_witness(c, m, which="LA", ncv=min(_LANCZOS_NCV, m))


def _eigsh_witness(c: np.ndarray, m: int, **mode) -> float | None:
    """Lower bound on ||T'|| by ARPACK (``eigsh`` in the given mode) on T'^H T'
    for the m x m section T' with first column c, or None if ARPACK does not
    converge.

    Each matvec is a ``_toeplitz_gram`` product.  The value returned is the
    witness ||T'x|| / ||x|| of the Ritz vector x, by the forward product of
    the same kernel, a lower bound on ||T'|| whatever ARPACK converged to.
    The start vector is fixed, so the result does not depend on earlier calls.
    """
    gram = _toeplitz_gram(c, m)
    op = LinearOperator((m, m), matvec=gram, dtype=c.dtype)
    v0 = np.random.default_rng(_SEED).normal(size=m)
    try:
        _, vec = eigsh(op, k=1, v0=v0, tol=0, **mode)
    except ArpackNoConvergence:
        return None
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
