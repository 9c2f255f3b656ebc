"""Character geometry and idempotent decompositions for diagonal models.

A diagonal semigroup T(t) = diag(e^{-lambda_k t}) realizes the character
picture exactly: each coordinate is a character with value a_chi = lambda_k.
This module slices the character set, builds the exhaustive chain of 0/1
coordinate projections, and computes both sides of the strict spectral-radius
criterion and the certificate of the separating curve that encloses a slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexfn import (
    RadiusPair,
    RayMaximum,
    SeparationCurve,
    babylem_radius,
    ray_max,
    separation_curve,
)
from .errors import ConfigError, NotDiagonalError
from .measures import CompactMeasure, laplace, require_mass_zero
from .semigroups import DiagonalSemigroup, MultiplicationC0, SemigroupBackend


@dataclass(frozen=True)
class CharacterSet:
    """Character values a_chi with nested slices Lambda_m = {Re a_chi <= m}."""

    lambdas: tuple
    slices: dict  # m -> tuple of coordinate indices
    radii: dict  # m -> radius of the smallest centered disk holding the slice

    def slice_values(self, m) -> np.ndarray:
        return np.asarray([self.lambdas[k] for k in self.slices[m]])


def character_set(backend: SemigroupBackend) -> CharacterSet:
    """Extract the character set of a diagonal backend.

    Verifies the defining relation chi(T(t)) = e^{-t a_chi} by reconstructing
    each a_chi from the diagonal of T(1).
    """
    if not isinstance(backend, DiagonalSemigroup):
        raise NotDiagonalError("character extraction needs a diagonal model")
    lambdas = backend.lambdas
    recon = -np.log(backend.diagonal(1.0))
    # -log(e^{-lambda}) recovers lambda modulo 2 pi i; compare modulo that
    twopi = 2.0 * math.pi
    im_err = np.abs((lambdas.imag - recon.imag + math.pi) % twopi - math.pi)
    err = np.max(np.abs(lambdas.real - recon.real) + im_err)
    if err > 1e-10:
        raise NotDiagonalError(f"character reconstruction failed (error {err:.3g})")
    top = int(math.ceil(float(np.max(lambdas.real))))
    slices = {}
    radii = {}
    for m in range(0, top + 1):
        idx = np.flatnonzero(lambdas.real <= m)
        slices[m] = tuple(idx.tolist())
        radii[m] = float(np.max(np.abs(lambdas[idx]))) if idx.size else 0.0
    return CharacterSet(tuple(complex(l) for l in lambdas), slices, radii)


@dataclass(frozen=True)
class CriterionRow:
    u: float
    rho: float
    sup_ray: float
    window_m: int | None  # largest slice with u * R_m < r, None if none fits


@dataclass(frozen=True)
class CriterionReport:
    rows: tuple
    ray: RayMaximum  # sup_{x>0} |F(x)| and its maximizer
    radii: RadiusPair  # the separation window is u * R_m < radii.r


def criterion_check(charset: CharacterSet, mu: CompactMeasure, u_list) -> CriterionReport:
    """Both sides of the strict criterion rho(F(-uA)) < sup_{x>0} |F(x)|.

    rho is the exhaustive maximum of |F(u a_chi)| over the character set.  The
    report keeps the ray maximum and the radius pair, which the separation
    certificate reuses.
    """
    require_mass_zero(mu)
    ray = ray_max(mu)
    radii = babylem_radius(mu)
    lambdas = np.asarray(charset.lambdas)
    rows = []
    for u in u_list:
        u = float(u)
        rho = float(np.max(np.abs(laplace(mu, u * lambdas))))
        window_m = None
        for m in sorted(charset.slices):
            if charset.slices[m] and u * charset.radii[m] < radii.r:
                window_m = m
        rows.append(CriterionRow(u, rho, ray.value, window_m))
    return CriterionReport(tuple(rows), ray, radii)


@dataclass(frozen=True)
class IdempotentChain:
    """Nested 0/1 coordinate projections, exact by integer arithmetic."""

    m_list: tuple
    diagonals: tuple  # tuple of 0/1 integer arrays
    covered_indices: tuple  # tuple of index tuples

    def projection(self, i: int) -> np.ndarray:
        return np.diag(self.diagonals[i].astype(complex))

    @property
    def exhaustive(self) -> bool:
        return bool(np.all(self.diagonals[-1] == 1))


def build_idempotents(charset: CharacterSet, m_list) -> IdempotentChain:
    """Coordinate projections onto the slices Lambda_m, checked exactly.

    P^2 = P and P_m P_{m'} = P_m hold by integer 0/1 arithmetic; both are
    asserted anyway so a corrupted slice table cannot slip through.
    """
    m_list = tuple(sorted(m_list))
    n = len(charset.lambdas)
    diagonals = []
    covered = []
    for m in m_list:
        diag = np.zeros(n, dtype=np.int64)
        diag[list(charset.slices[m])] = 1
        diagonals.append(diag)
        covered.append(charset.slices[m])
    for d in diagonals:
        assert np.array_equal(d * d, d)
    for d1, d2 in zip(diagonals, diagonals[1:]):
        assert np.array_equal(d1 * d2, d1), "slices are not nested"
    return IdempotentChain(m_list, tuple(diagonals), tuple(covered))


@dataclass(frozen=True)
class GeneratorBoundRow:
    m: float
    t: float
    defect: float  # ||P - P T(t)||
    generator_bound: float  # max |lambda_k| over the covered slice


def bounded_generator_check(
    backend: DiagonalSemigroup,
    chain: IdempotentChain,
    t_grid,
) -> list[GeneratorBoundRow]:
    """||P_m - P_m T(t)|| along t_grid for each projection in the chain.

    On a diagonal model the norm is the exact maximum of |1 - e^{-lambda_k t}|
    over the covered slice, which tends to 0 with t precisely because the
    compressed semigroup has the bounded generator max |lambda_k|.
    """
    if not isinstance(backend, DiagonalSemigroup):
        raise NotDiagonalError("generator-bound check needs a diagonal model")
    lambdas = np.asarray(backend.lambdas)
    rows = []
    for m, idx in zip(chain.m_list, chain.covered_indices):
        if not idx:
            continue
        lam = lambdas[list(idx)]
        gbound = float(np.max(np.abs(lam)))
        for t in t_grid:
            t = float(t)
            defect = float(np.max(np.abs(1.0 - np.exp(-lam * t))))
            rows.append(GeneratorBoundRow(m, t, defect, gbound))
    return rows


# ---------------------------------------------------------------------------
# separation certificate


@dataclass(frozen=True)
class SeparationReport:
    u: float
    m: float
    R_m: float
    r_window: float
    alpha_k: float
    radius: float
    curve_min_excess: float  # min over curve samples of |F(uz)| - F(alpha)
    lam_margins: tuple  # (lambda, F(alpha) - |F(u lambda)|)
    min_distance: float
    # max over the slice of ||winding number| - 1|, inf for a point on the polygon
    winding_defect: float


_SAMPLES_PER_SEGMENT = 200
_SEMICIRCLE_POINTS = 96


def separation_certificate(
    charset: CharacterSet,
    mu: CompactMeasure,
    u: float,
    m,
    ray: RayMaximum,
    radii: RadiusPair,
) -> tuple[SeparationReport, SeparationCurve]:
    """The numbers that certify the slice Lambda_m strictly inside the curve Gamma_k.

    The closed curve is Gamma_{k,0}, the left semicircle of radius |v_k|, and
    the conjugate arc.  The certificate holds when the curve samples stay at
    or above the ray maximum (curve_min_excess >= 0) and each lambda in the
    slice has |F(u lambda)| strictly below it (lam_margins), winding number
    +-1 and positive distance to the polygon.  ``ray`` and ``radii`` are
    those of ``criterion_check``'s report, so neither is computed again.
    Returns the report and the curve.
    """
    require_mass_zero(mu)
    R_m = charset.radii[m]
    curve = separation_curve(mu, u, R_m, ray, radii)

    # curve samples dominate the ray maximum (sample in the scale-1 frame)
    gamma = np.asarray(curve.gamma_k0_vertices)
    z1, z2 = gamma[:-1, None], gamma[1:, None]
    zz = z1 + np.linspace(0.0, 1.0, _SAMPLES_PER_SEGMENT) * (z2 - z1)
    excess = np.abs(laplace(mu, u * zz)) - ray.value
    # the real-axis endpoint alpha_k attains the ray maximum exactly
    excess[np.abs(gamma[:-1] - curve.alpha_k) < 1e-15, 0] = np.inf
    min_excess = float(np.min(excess))

    # closed polygon: gamma up, left semicircle, conjugate arc down
    radius = curve.radius
    angles = np.linspace(0.5 * math.pi, 1.5 * math.pi, _SEMICIRCLE_POINTS + 2)[1:-1]
    semicircle = [radius * complex(math.cos(a), math.sin(a)) for a in angles]
    closed = np.concatenate([gamma, semicircle, np.conj(gamma[::-1])[:-1]])

    # every slice point p against every edge a -> b of the polygon
    lams = charset.slice_values(m)
    margins = ray.value - np.abs(laplace(mu, u * lams))
    p, a, b = lams[:, None], closed, np.roll(closed, -1)
    za, zb = a - p, b - p
    winding = np.sum(np.arctan2(za.real * zb.imag - za.imag * zb.real,
                                za.real * zb.real + za.imag * zb.imag), axis=1) / (2.0 * math.pi)
    ab = b - a
    denom = np.abs(ab) ** 2
    t = ((p - a).real * ab.real + (p - a).imag * ab.imag) / np.where(denom == 0, 1.0, denom)
    dists = np.min(np.abs(p - (a + np.clip(t, 0.0, 1.0) * ab)), axis=1)
    defects = np.where(dists > 0, np.abs(np.abs(winding) - 1.0), math.inf)

    return SeparationReport(
        u=float(u),
        m=m,
        R_m=R_m,
        r_window=curve.r_window,
        alpha_k=curve.alpha_k,
        radius=radius,
        curve_min_excess=min_excess,
        lam_margins=tuple((complex(lam), float(mg)) for lam, mg in zip(lams, margins)),
        min_distance=float(np.min(dists, initial=math.inf)),
        winding_defect=float(np.max(defects, initial=0.0)),
    ), curve


# ---------------------------------------------------------------------------
# sharpness on the multiplication model


@dataclass(frozen=True)
class SharpnessRow:
    u: float
    norm_F: float
    gap: float  # | ||F(-uA)|| - sup_x |F(x)| |


@dataclass(frozen=True)
class SharpnessReport:
    n: int
    ray_value: float
    rows: tuple
    note: str

    @property
    def max_gap(self) -> float:
        return max(row.gap for row in self.rows)


def sharpness_demo(n: int, mu: CompactMeasure, u_list, ray: RayMaximum) -> SharpnessReport:
    """Near-equality of norm and ray maximum on the sup-norm multiplication model.

    The grid x_j = j/n realizes x -> x^t; substituting x^u = e^{-s} shows the
    norm of F(-uA) approaches sup_{s>0} |F(s)| from below as the grid refines,
    so the strict lower estimate is sharp for this non-quasinilpotent model.
    ``ray`` is ``ray_max(mu)``, computed once by the caller for every n.
    """
    require_mass_zero(mu)
    if not mu.is_real:
        raise ConfigError("sharpness demo expects a real measure")
    try:
        lambdas = MultiplicationC0(n).lambdas.real  # -log x_j, real: real exp in laplace
    except ValueError as exc:
        raise ConfigError(f"sharpness at n = {n}: {exc}") from None
    rows = []
    for u in u_list:
        u = float(u)
        norm_F = float(np.max(np.abs(laplace(mu, u * lambdas))))
        rows.append(SharpnessRow(u, norm_F, abs(norm_F - ray.value)))
    note = (
        "norm equals spectral radius on this model; the continuum limit has "
        "no nontrivial idempotents, so equality in the estimate is attained "
        "there (flagged, not proven, at finite n)"
    )
    return SharpnessReport(int(n), ray.value, tuple(rows), note)
