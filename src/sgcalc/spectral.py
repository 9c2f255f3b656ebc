"""Character geometry and idempotent decompositions for diagonal models.

A diagonal semigroup T(t) = diag(e^{-lambda_k t}) realizes the character
picture exactly: each coordinate is a character with value a_chi = lambda_k.
This module slices that one character set, whose slices Lambda_m are also
the exhaustive chain of 0/1 coordinate projections P_m, and computes both
sides of the strict spectral-radius criterion, the defects ||P_m - P_m T(t)||,
and the scaled separation curve that encloses a slice with its certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexfn import RadiusPair, RayMaximum, babylem_radius, jordan_curve, ray_max
from .errors import ConfigError, NotDiagonalError, WindowViolationError
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
    """The character set a_chi = lambda_k of a diagonal backend, sliced.

    This is the idempotent pipeline's one refusal of a non-diagonal model.
    """
    if not isinstance(backend, DiagonalSemigroup):
        raise NotDiagonalError("character extraction needs a diagonal model")
    lambdas = backend.lambdas
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
    row: CriterionRow
    ray: RayMaximum  # sup_{x>0} |F(x)| and its maximizer
    radii: RadiusPair  # the separation window is u * R_m < radii.r


def criterion_check(charset: CharacterSet, mu: CompactMeasure, u: float) -> CriterionReport:
    """Both sides of the strict criterion rho(F(-uA)) < sup_{x>0} |F(x)| at u.

    rho is the exhaustive maximum of |F(u a_chi)| over the character set.  The
    report keeps the ray maximum and the radius pair, which the separation
    certificate reuses.
    """
    require_mass_zero(mu)
    ray = ray_max(mu)
    radii = babylem_radius(mu)
    u = float(u)
    rho = float(np.max(np.abs(laplace(mu, u * np.asarray(charset.lambdas)))))
    window_m = None
    for m in sorted(charset.slices):
        if charset.slices[m] and u * charset.radii[m] < radii.r:
            window_m = m
    return CriterionReport(CriterionRow(u, rho, ray.value, window_m), ray, radii)


@dataclass(frozen=True)
class IdempotentChain:
    """The projections P_m, m in m_list ascending, onto nested slices of charset."""

    charset: CharacterSet
    m_list: tuple

    def projection(self, i: int) -> np.ndarray:
        """P_{m_list[i]}: the exact 0/1 diagonal of its slice."""
        diag = np.zeros(len(self.charset.lambdas), dtype=complex)
        diag[list(self.charset.slices[self.m_list[i]])] = 1.0
        return np.diag(diag)

    @property
    def exhaustive(self) -> bool:
        """The last slice covers every coordinate."""
        return set(self.charset.slices[self.m_list[-1]]) == set(range(len(self.charset.lambdas)))


def build_idempotents(charset: CharacterSet, m_list) -> IdempotentChain:
    """The chain of coordinate projections onto the slices Lambda_m, m in m_list.

    Each P_m is a 0/1 diagonal, so P^2 = P holds by construction; that
    consecutive slices nest (P_m P_m' = P_m for m < m') is checked exactly, by
    set inclusion, so a corrupted slice table cannot slip through.
    """
    m_list = tuple(sorted(m_list))
    for m1, m2 in zip(m_list, m_list[1:]):
        if not set(charset.slices[m1]) <= set(charset.slices[m2]):
            raise ValueError(f"slices are not nested: Lambda_{m1} is not in Lambda_{m2}")
    return IdempotentChain(charset, m_list)


@dataclass(frozen=True)
class GeneratorBoundRow:
    m: float
    t: float
    defect: float  # ||P - P T(t)||
    generator_bound: float  # max |lambda_k| over the covered slice


def bounded_generator_check(chain: IdempotentChain, t_grid) -> list[GeneratorBoundRow]:
    """||P_m - P_m T(t)|| along t_grid for each projection in the chain.

    On a diagonal model the norm is the exact maximum of |1 - e^{-lambda_k t}|
    over the slice, which tends to 0 with t precisely because the compressed
    semigroup has the bounded generator max |lambda_k|, the slice radius.
    """
    charset = chain.charset
    rows = []
    for m in chain.m_list:
        if not charset.slices[m]:
            continue
        lam = charset.slice_values(m)
        for t in t_grid:
            t = float(t)
            defect = float(np.max(np.abs(1.0 - np.exp(-lam * t))))
            rows.append(GeneratorBoundRow(m, t, defect, charset.radii[m]))
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
) -> tuple[SeparationReport, tuple[complex, ...]]:
    """The numbers that certify the slice Lambda_m strictly inside the curve Gamma_k.

    Gamma_{k,0} joins alpha_k = alpha / u on the real axis to v_k on the
    imaginary axis, with |v_k| > R_m and |F(u z)| >= |F(alpha)| along it.  It
    is the certified path alpha, Gamma_1, a3 of ``jordan_curve`` at the
    natural scale of F, each vertex divided by u, so the flood-fill grid
    resolution does not depend on u; the window u * R_m < radii.r is checked
    first.  The closed curve is Gamma_{k,0}, the left semicircle of radius
    |v_k|, and the conjugate arc.  The certificate holds when the curve
    samples stay at or above the ray maximum (curve_min_excess >= 0) and each
    lambda in the slice has |F(u lambda)| strictly below it (lam_margins),
    winding number +-1 and positive distance to the polygon.  ``ray`` and
    ``radii`` are those of ``criterion_check``'s report, so neither is
    computed again.  Returns the report and the vertices of Gamma_{k,0}.
    """
    require_mass_zero(mu)
    R_m = charset.radii[m]
    if u * R_m >= radii.r:
        raise WindowViolationError(
            f"window violated: u*R_m = {u * R_m:.6g} >= r = {radii.r:.6g}"
        )
    curve = jordan_curve(mu, ray, min_axis_height=u * R_m)
    vertices = tuple(z / u for z in (complex(curve.alpha), *curve.gamma1_vertices, curve.a3))
    alpha_k = curve.alpha / u

    # curve samples dominate the ray maximum (sample in the scale-1 frame)
    gamma = np.asarray(vertices)
    z1, z2 = gamma[:-1, None], gamma[1:, None]
    zz = z1 + np.linspace(0.0, 1.0, _SAMPLES_PER_SEGMENT) * (z2 - z1)
    excess = np.abs(laplace(mu, u * zz)) - ray.value
    # the real-axis endpoint alpha_k attains the ray maximum exactly
    excess[np.abs(gamma[:-1] - alpha_k) < 1e-15, 0] = np.inf
    min_excess = float(np.min(excess))

    # closed polygon: gamma up, left semicircle, conjugate arc down
    radius = abs(curve.a3) / u
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
        r_window=radii.r,
        alpha_k=alpha_k,
        radius=radius,
        curve_min_excess=min_excess,
        lam_margins=tuple((complex(lam), float(mg)) for lam, mg in zip(lams, margins)),
        min_distance=float(np.min(dists, initial=math.inf)),
        winding_defect=float(np.max(defects, initial=0.0)),
    ), vertices


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
