"""Complex-function machinery behind the lower-estimate arguments.

Works on the entire function F = ``laplace(mu, .)`` of a compactly supported
measure mu, which every function here takes: locating the ray maximum of
|F|, detecting the (even) vanishing order at the maximizer, certifying a
small-disk/large-circle radius pair, and constructing the piecewise-linear
Jordan curves that separate the maximizer from the rest of the
spectrum-relevant region.

All curve constructions are a-posteriori certified by dense sampling; the
underlying existence results guarantee that failure only ever signals
insufficient grid resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZeroError,
    ComponentClosedError,
    ConfigError,
    NoCircleFoundError,
    OrderNotFoundError,
    SimplicityRepairFailedError,
    WindowViolationError,
)
from .measures import CompactMeasure, laplace, tv_moment


@dataclass(frozen=True)
class RayMaximum:
    """Maximizer of |F| on [0, inf), normalized so the max value is positive."""

    alpha: float
    value: float
    sign_flipped: bool


@dataclass(frozen=True)
class JordanCurve:
    """Certified piecewise-linear curve through the upper half-plane.

    gamma1_vertices runs from a1 to a2 inside the level region
    {|F| > |F(a0)|}; full_vertices is the closed curve alpha, gamma1, a3, then
    the mirror image of that path back to alpha.
    """

    alpha: float
    a0: complex
    a1: complex
    a2: complex
    a3: complex
    m: int
    delta: float
    gamma1_vertices: tuple[complex, ...]
    full_vertices: tuple[complex, ...]
    f_alpha: float = 0.0
    f_a0_abs: float = 0.0
    cond2_margin: float = 0.0


@dataclass(frozen=True)
class SeparationCurve:
    """Upper-quadrant separation path for the scaled transform z -> F(u z)."""

    alpha_k: float
    v_k: complex
    gamma_k0_vertices: tuple[complex, ...]
    radius: float
    u: float = 1.0
    r_window: float = 0.0


# ---------------------------------------------------------------------------
# ray maximum

_RAY_DECAY_FLOOR = 1e-9  # window ends where the decay bound drops below this * tv0
_RAY_GRID_POINTS = 4096  # at least; more where the support reaches far (``ray_max``)
_RAY_GRID_MAX = 2**20
_RAY_NEWTON_STEPS = 8  # a simple maximum takes 3-4
_RAY_STEP_TOL = 1e-12  # times the window; the step after one this small is below rounding


def _ray_window(mu: CompactMeasure) -> tuple[float, float]:
    """Search window end X and zero floor for ``ray_max``.

    |F(x)| <= tv0 * exp(-x * support_min) on the real ray, with
    tv0 = int d|mu| (the bound is 0 for the zero measure).  X starts at
    max(4 * support_max, 1) and grows by 1.5 until that bound falls below
    floor = _RAY_DECAY_FLOOR * tv0.
    """
    tv0 = tv_moment(mu, 0)
    floor = _RAY_DECAY_FLOOR * max(tv0, 1e-300)
    x_hi = max(4.0 * mu.support_max, 1.0)
    for _ in range(60):
        if tv0 * math.exp(-x_hi * mu.support_min) < floor:
            break
        x_hi *= 1.5
    return x_hi, floor


def ray_max(mu: CompactMeasure) -> RayMaximum:
    """Locate alpha >= 0 maximizing |F| on the positive ray.

    |F| varies on the scale 1/support_max, so the grid on the ``_ray_window``
    steps at most 1/(8 support_max); a measure that needs more than
    _RAY_GRID_MAX points is refused.  The grid optimum x_i is polished by
    Newton steps on g = |F|^2, each read off one ``taylor_coefficients`` ring
    of radius one grid step: with q_k = c_k / c_0, g'/g'' = Re q1 / (|q1|^2 +
    2 Re q2), a ratio that stays finite however large the weights of mu are.
    The steps stop once they fall to rounding, where g is not concave, or
    where they would leave [x_{i-1}, x_{i+1}], so alpha never strays from the
    bracket the grid found.
    """
    x_hi, floor = _ray_window(mu)
    points = max(_RAY_GRID_POINTS, math.ceil(8.0 * x_hi * mu.support_max))
    if points > _RAY_GRID_MAX:
        raise ConfigError(f"the ray grid needs {points} points on [0, {x_hi:.3g}], "
                          f"more than {_RAY_GRID_MAX}")
    xs = np.linspace(0.0, x_hi, points)
    vals = np.abs(laplace(mu, xs))
    i = int(np.argmax(vals))
    if vals[i] < floor:
        raise AllZeroError("transform is numerically zero on the sampled ray")
    lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
    radius = xs[1] - xs[0]

    alpha = float(xs[i])
    for _ in range(_RAY_NEWTON_STEPS):
        c0, c1, c2 = taylor_coefficients(mu, alpha, radius, 3)
        q1, q2 = c1 / c0, c2 / c0
        curvature = abs(q1) ** 2 + 2.0 * q2.real
        if curvature >= 0.0:
            break
        step = -q1.real / curvature
        if not lo <= alpha + step <= hi:
            break
        alpha += step
        if abs(step) <= _RAY_STEP_TOL * x_hi:
            break

    f_alpha = complex(laplace(mu, alpha))
    return RayMaximum(alpha=alpha, value=abs(f_alpha),
                      sign_flipped=mu.is_real and f_alpha.real < 0)


# ---------------------------------------------------------------------------
# Taylor coefficients and vanishing order

_TAYLOR_NODES = 256
_ORDER_TOL = 1e-9
_MAX_ORDER = 12


def taylor_coefficients(mu: CompactMeasure, alpha: float, radius: float, count: int):
    """Taylor coefficients of F at alpha via trapezoidal contour integrals on
    the circle |z - alpha| = radius, every order from one FFT of the samples.

    Exponentially accurate for entire functions; avoids the cancellation of
    high-order finite differences.
    """
    theta = 2.0 * np.pi * np.arange(_TAYLOR_NODES) / _TAYLOR_NODES
    ring = alpha + radius * np.exp(1j * theta)
    c = np.fft.fft(laplace(mu, ring))[:count] / _TAYLOR_NODES
    return [complex(ck) / radius**k for k, ck in enumerate(c)]


def vanishing_order(mu: CompactMeasure, alpha: float):
    """Smallest k >= 1 with F^{(k)}(alpha) != 0, plus the Taylor coefficient.

    Returns (m, F^{(m)}(alpha) / m!).
    """
    radius = max(alpha / 4.0, 0.05)
    coeffs = taylor_coefficients(mu, alpha, radius, _MAX_ORDER + 1)
    scale_ref = max(abs(c) * radius**k for k, c in enumerate(coeffs))
    for k in range(1, _MAX_ORDER + 1):
        if abs(coeffs[k]) * radius**k > _ORDER_TOL * scale_ref:
            return k, coeffs[k]
    raise OrderNotFoundError(
        f"no Taylor coefficient above tolerance up to order {_MAX_ORDER}"
    )


# ---------------------------------------------------------------------------
# small-disk / big-circle radii


@dataclass(frozen=True)
class RadiusPair:
    r: float
    R: float
    delta_circle: float


_CIRCLE_MARGIN = 1e-3
_CIRCLE_SAMPLES = 1024
_CIRCLE_CANDIDATES = 140


def babylem_radius(mu: CompactMeasure) -> RadiusPair:
    """Radii r < R with sup_{|z|<=r} |F| < min_{|z|=R} |F| - margin, where
    margin = _CIRCLE_MARGIN * int d|mu| scales with mu.

    Scans candidate circles for one staying well away from zeros of F, then
    grows r from 0 while the boundary maximum (= the disk sup, by the maximum
    principle) stays below the certified circle minimum.
    """
    theta = 2.0 * np.pi * np.arange(_CIRCLE_SAMPLES) / _CIRCLE_SAMPLES
    ring = np.exp(1j * theta)
    margin = _CIRCLE_MARGIN * tv_moment(mu, 0)

    best_R, best_delta = None, -1.0
    for R in np.geomspace(1e-2, 50.0, _CIRCLE_CANDIDATES):
        dmin = float(np.min(np.abs(laplace(mu, R * ring))))
        if dmin > best_delta:
            best_R, best_delta = float(R), dmin

    # re-certify the chosen circle at four times the angular density; the
    # denser ring holds the scan's points exactly, so its minimum is no larger
    theta_fine = 2.0 * np.pi * np.arange(4 * _CIRCLE_SAMPLES) / (4 * _CIRCLE_SAMPLES)
    delta_circle = float(np.min(np.abs(laplace(mu, best_R * np.exp(1j * theta_fine)))))
    if delta_circle <= margin:
        raise NoCircleFoundError("no candidate circle keeps |F| above the margin")

    r_found = 0.0
    sup_inside = 0.0
    for r in np.linspace(best_R / 500.0, best_R, 500):
        sup_inside = max(sup_inside, float(np.max(np.abs(laplace(mu, r * ring[::4])))))
        if sup_inside < delta_circle - margin:
            r_found = float(r)
        else:
            break
    if r_found == 0.0:
        raise NoCircleFoundError("no positive inner radius certified")
    return RadiusPair(r=r_found, R=best_R, delta_circle=delta_circle)


# ---------------------------------------------------------------------------
# Jordan curve construction

_GRID_CELLS = 256  # starting cells per axis of the flood-fill grid
_GRID_REFINEMENTS = 4
_SEGMENT_SAMPLES = 1000


def jordan_curve(mu: CompactMeasure, ray: RayMaximum, min_axis_height: float = 0.0) -> JordanCurve:
    """Constructive version of the upper-half-plane separation curve.

    The level region U = {|F| > |F(a0)|} is explored by flood fill on a
    rectangular grid; the connected component V of a1 must reach the
    imaginary axis, which the underlying maximum-principle argument
    guarantees, so exhaustion of the refinement budget raises
    ComponentClosedError (resolution, not mathematics).  The closed curve is
    the certified path alpha, Gamma_1, a3 followed by its mirror image: for a
    real mu, |F(conj z)| = |F(z)|, so the mirror carries the same certificate.
    """
    alpha = ray.alpha
    f_alpha = ray.value
    m, _coeff = vanishing_order(mu, alpha)
    if not (alpha > 0.0 and m >= 2):
        raise OrderNotFoundError(f"the level curve needs a ray maximum at alpha > 0 of "
                                 f"order m >= 2, not alpha = {alpha:.6g}, m = {m}")

    # --- a1 and the condition (i) fit
    seg_n = _SEGMENT_SAMPLES
    ts = np.linspace(0.0, 1.0, seg_n + 1)[1:]
    rho = max(alpha / 4.0, 0.05)
    for _ in range(48):
        cand = alpha + rho * np.exp(1j * np.pi / m)
        zs = alpha + ts * (cand - alpha)
        vals = np.abs(laplace(mu, zs))
        ratios = (vals - f_alpha) / np.abs(zs - alpha) ** m
        dmin = float(np.min(ratios))
        f_a1 = abs(complex(laplace(mu, cand)))
        if dmin > 0.0 and vals[0] < f_a1:
            break
        rho *= 0.5  # unreached: every fit tried at alpha > 0, m >= 2 holds at the first rho
    else:
        raise OrderNotFoundError(  # unreached: the order-m term dominates as rho shrinks
            "could not fit a positive delta for condition (i)")
    a1, delta = complex(cand), dmin

    # --- a0: the fit's sample closest to the mid-value of f_alpha and f_a1.
    # Every sample exceeds f_alpha (delta > 0) and the first is below f_a1, so
    # the closest lies strictly between the two.
    target = 0.5 * (f_alpha + f_a1)
    i0 = int(np.argmin(np.abs(vals - target)))
    a0 = complex(zs[i0])
    f_a0 = float(vals[i0])

    # --- flood fill for the component V of a1 in {|F| > |F(a0)|}
    x_max = 3.0 * max(alpha, 1.0)
    y_max = max(6.0 * max(alpha, 1.0), 2.0 * min_axis_height + 1e-9)
    nx = ny = _GRID_CELLS

    for _ in range(_GRID_REFINEMENTS + 1):
        result = _flood_fill_curve(
            mu, a1, f_a0=f_a0,
            nx=nx, ny=ny, x_max=x_max, y_max=y_max,
            min_axis_height=min_axis_height,
        )
        if result is not None:
            break
        nx = min(2 * nx, 4096)
        ny = min(2 * ny, 4096)
        y_max *= 1.5
        x_max *= 1.2
    else:
        raise ComponentClosedError(
            "level-set component never reached the imaginary axis "
            f"(grid {nx}x{ny}, extent {x_max:.3g}x{y_max:.3g})"
        )
    path_points, a2, a3 = result

    # --- simplify the grid path inside U, keeping a strict level margin
    level_margin = 1e-12 * f_a0

    def seg_ok(z1, z2):
        ts_ = np.linspace(0.0, 1.0, 64)
        zz = z1 + ts_ * (z2 - z1)
        return bool(np.all(np.abs(laplace(mu, zz)) > f_a0 + level_margin))

    gamma1 = _simplify_path([a1] + path_points + [a2], seg_ok)
    # Each vertex of gamma1 is a1 = alpha + rho e^(i pi/m) with m >= 2, or a cell
    # centre: all lie in the open first quadrant.  So upper meets the real axis
    # only at alpha > 0 and the imaginary axis only at a3, and the closed curve,
    # upper and its mirror joined by [a3, conj a3], is simple when upper is.
    upper = [complex(alpha)] + gamma1 + [a3]
    if not _is_simple_polyline(upper):
        raise SimplicityRepairFailedError("the simplified level path self-intersects")
    full = upper + [z.conjugate() for z in reversed(upper[1:])] + [upper[0]]

    # --- condition (ii) certification on Gamma_1 and [a2, a3], in one laplace call
    z1 = np.array(gamma1[:-1] + [a2])[:, None]
    z2 = np.array(gamma1[1:] + [a3])[:, None]
    zz = z1 + np.linspace(0.0, 1.0, max(8, seg_n // len(z1))) * (z2 - z1)
    cond2_margin = float(np.min(np.abs(laplace(mu, zz)) - f_a0))

    return JordanCurve(
        alpha=float(alpha),
        a0=a0,
        a1=complex(a1),
        a2=complex(a2),
        a3=complex(a3),
        m=int(m),
        delta=float(delta),
        gamma1_vertices=tuple(gamma1),
        full_vertices=tuple(full),
        f_alpha=float(f_alpha),
        f_a0_abs=f_a0,
        cond2_margin=float(cond2_margin),
    )


def _flood_fill_curve(mu, a1, f_a0, nx, ny, x_max, y_max, min_axis_height):
    """Sweep the superlevel component of a1; return (path, a2, a3) or None."""
    dx = x_max / nx
    dy = y_max / ny
    xc = (np.arange(nx) + 0.5) * dx
    yc = (np.arange(ny) + 0.5) * dy
    Z = xc[None, :] + 1j * yc[:, None]  # [row=j (y), col=i (x)]
    absF = np.abs(laplace(mu, Z))
    mask = absF > f_a0

    i1 = min(int(a1.real / dx), nx - 1)
    j1 = min(int(a1.imag / dy), ny - 1)
    if not mask[j1, i1]:
        # a1 sits on a cell whose center fell below the level; nudge to the
        # neighboring cell with the largest |F|
        jlo, jhi = max(j1 - 1, 0), min(j1 + 2, ny)
        ilo, ihi = max(i1 - 1, 0), min(i1 + 2, nx)
        sub = absF[jlo:jhi, ilo:ihi]
        jj, ii = np.unravel_index(np.argmax(sub), sub.shape)
        j1, i1 = jlo + jj, ilo + ii
        if not mask[j1, i1]:
            return None

    # Breadth-first, one level at a time, on flat indices of the mask padded
    # with a False border.  A level is expanded in frontier order and, per
    # cell, in neighbour order (+y, -y, +x, -x); each new cell keeps its first
    # discoverer as parent and the next frontier keeps discovery order, so the
    # parent tree is exactly that of a FIFO-queue BFS.
    w = nx + 2
    steps = np.array([w, -w, 1, -1])
    unseen = np.pad(mask, 1).ravel()
    parent = np.full(unseen.size, -1)
    start = (j1 + 1) * w + i1 + 1
    unseen[start] = False
    frontier = np.array([start])
    while frontier.size:
        cand = (frontier[:, None] + steps).ravel()  # position p*4 + direction
        found = np.flatnonzero(unseen[cand])
        _, first = np.unique(cand[found], return_index=True)
        found = found[np.sort(first)]
        parent[cand[found]] = frontier[found // 4]
        frontier = cand[found]
        unseen[frontier] = False

    # contact: the lowest reached cell of column 0 above min_axis_height
    reached_axis = mask[:, 0] & ~unseen.reshape(ny + 2, w)[1:-1, 1]
    rows = np.flatnonzero(reached_axis & (yc > min_axis_height))
    if rows.size == 0:
        return None
    jc = int(rows[0])
    a2 = complex(xc[0], yc[jc])
    a3 = 1j * yc[jc]
    # certify the actual axis point; scan within the contact cell if needed
    if abs(complex(laplace(mu, a3))) <= f_a0:
        ys = yc[jc] + dy * np.linspace(-0.5, 0.5, 41)
        ys = ys[(ys > min_axis_height) & (ys > 0)]
        vals = np.abs(laplace(mu, 1j * ys))
        k = int(np.argmax(vals))
        if vals[k] <= f_a0:
            return None  # unreached: no input found whose contact cell misses the level
        a3 = 1j * float(ys[k])

    # path from the contact cell back to a1 via parents, both ends excluded
    cells = []
    c = (jc + 1) * w + 1
    while c != start:
        cells.append(c)
        c = parent[c]
    points = [complex(xc[c % w - 1], yc[c // w - 1]) for c in reversed(cells[1:])]
    return points, a2, a3


def _simplify_path(points, seg_ok):
    """Greedy line-of-sight simplification keeping segments inside the level set."""
    out = [points[0]]
    i = 0
    n = len(points)
    while i < n - 1:
        j = n - 1
        while j > i + 1 and not seg_ok(points[i], points[j]):
            j -= 1
        # j == i + 1 falls back to the raw grid step
        out.append(points[j])
        i = j
    return out


_CROSS_EPS = 1e-12


def _is_simple_polyline(points) -> bool:
    """No two segments of the open polyline cross strictly (beyond _CROSS_EPS).

    O[i, k] is the orientation of vertex k against segment i; segments i and
    j cross when each one's endpoints lie strictly on opposite sides of the
    other.  A vertex's orientation against a segment that ends at it is
    exactly 0, so segments sharing a vertex never count as crossing.
    """
    pts = np.asarray(points, dtype=complex)
    p, q = pts[:-1, None], pts[1:, None]
    O = (q.real - p.real) * (pts.imag - p.imag) - (q.imag - p.imag) * (pts.real - p.real)
    pos, neg = O > _CROSS_EPS, O < -_CROSS_EPS
    straddle = (pos[:, :-1] & neg[:, 1:]) | (neg[:, :-1] & pos[:, 1:])
    return not np.any(straddle & straddle.T)


# ---------------------------------------------------------------------------
# separation curve for the scaled transform


def separation_curve(
    mu: CompactMeasure,
    u: float,
    R_m: float,
    ray: RayMaximum,
    radii: RadiusPair,
) -> SeparationCurve:
    """Curve joining alpha/u on the real axis to v_k on the imaginary axis,
    with |v_k| > R_m and |F(u z)| >= |F(alpha)| along the path.

    ``ray`` and ``radii`` are ``ray_max(mu)`` and ``babylem_radius(mu)``, which
    the caller has already computed (``spectral.criterion_check`` does, once
    per run); the window u * R_m < radii.r is checked here.  Constructed at
    the natural scale of F (the curve for (F, u) is the curve of
    z -> F(u z) rescaled by 1/u), which keeps the flood-fill grid
    resolution independent of u.
    """
    if u * R_m >= radii.r:
        raise WindowViolationError(
            f"window violated: u*R_m = {u * R_m:.6g} >= r = {radii.r:.6g}"
        )
    curve = jordan_curve(mu, ray, min_axis_height=u * R_m)
    gamma0 = (
        [complex(curve.alpha)]
        + list(curve.gamma1_vertices)
        + [curve.a3]
    )
    scaled = tuple(z / u for z in gamma0)
    return SeparationCurve(
        alpha_k=curve.alpha / u,
        v_k=curve.a3 / u,
        gamma_k0_vertices=scaled,
        radius=abs(curve.a3) / u,
        u=u,
        r_window=radii.r,
    )
