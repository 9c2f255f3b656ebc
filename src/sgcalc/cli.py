"""Command-line front door.

Subcommands map one-to-one onto module operations; the CLI only formats
their outputs (CSV/JSON artifacts plus a summary with pass/fail), never
computes anything itself.  Identical config and seed give byte-identical
artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import calculus, complexfn, semigroups, spectral
from .errors import ConfigError, SgcalcError
from .linalg import op_norm
from .measures import (
    distribution_from_dict,
    from_atoms,
    indicator,
    measure_from_dict,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2

NAMED_MEASURES = {
    "delta-difference": lambda: from_atoms([(1.0, 1.0), (2.0, -1.0)]),
    "four-atom": lambda: from_atoms(
        [(1.0, 1.0), (2.0, -3.0), (3.0, 1.0), (4.0, 1.0)]
    ),
    "step": lambda: indicator(1, 2) + indicator(2, 3, -1.0),
    "twisted-delta-difference": lambda: from_atoms(
        [(1.0, 1.0 + 1.0j), (2.0, -1.0 - 1.0j)]
    ),
}


@dataclasses.dataclass
class RunConfig:
    command: str
    measure: object = None
    distribution: object = None
    backend: dict | None = None
    u_grid: dict | None = None
    lambda_grid: tuple = ()
    t_grid: tuple = ()
    m: int | None = None
    m_list: tuple = ()
    u: float | None = None
    n_list: tuple = ()
    output: Path = Path(".")
    seed: int = 0
    tolerances: dict = dataclasses.field(default_factory=dict)


# The shipped check registry: `verify-all` runs every config here.
CONFIG_DIR = Path(__file__).resolve().parents[2] / "configs"


def _parse_measure(spec):
    if spec is None:
        return None
    if isinstance(spec, str):
        try:
            return NAMED_MEASURES[spec]()
        except KeyError:
            raise ConfigError(f"unknown named measure {spec!r}")
    if isinstance(spec, dict):
        try:
            return measure_from_dict(spec)
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"bad measure spec: {exc}")
    raise ConfigError(f"measure spec must be a name or an object, got {type(spec)}")


def _build_backend(spec):
    if not isinstance(spec, dict):
        raise ConfigError("this command needs a backend spec (a JSON object)")
    kind = spec.get("kind")
    try:
        if kind == "nilpotent_shift":
            return semigroups.nilpotent_shift(int(spec["n"]))
        if kind == "riemann_liouville":
            return semigroups.riemann_liouville(int(spec["n"]))
        if kind == "diagonal":
            return semigroups.diagonal_semigroup([_complex(v) for v in spec["lambdas"]])
        if kind == "diagonal-range":
            return semigroups.diagonal_semigroup(
                np.arange(int(spec["start"]), int(spec["stop"]) + 1)
            )
        if kind == "matrix":
            return semigroups.matrix_semigroup(np.asarray(spec["matrix"], dtype=complex))
        if kind == "multiplication_c0":
            return semigroups.multiplication_c0(int(spec["n"]))
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad backend spec: {exc}")
    raise ConfigError(f"unknown backend kind {kind!r}")


def _build_u_grid(spec, backend=None):
    if not isinstance(spec, dict):
        raise ConfigError("this command needs a u_grid spec (a JSON object)")
    try:
        if "values" in spec:
            vals = [_number(v) for v in spec["values"]]
        elif spec.get("kind") == "grid-aligned":
            if backend is None or not hasattr(backend, "grid_step"):
                raise ConfigError("grid-aligned u_grid needs a shift backend")
            vals = [k * backend.grid_step for k in range(1, _number(spec["count"], int) + 1)]
        else:
            start, stop = _number(spec["start"]), _number(spec["stop"])
            count = _number(spec["count"], int)
            if spec.get("spacing") == "log":
                vals = list(np.geomspace(start, stop, count))
            else:
                vals = list(np.linspace(start, stop, count))
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad u_grid spec: {exc}")
    if not vals or any(v <= 0 for v in vals) or any(
        b <= a for a, b in zip(vals, vals[1:])
    ):
        raise ConfigError("u_grid must be strictly positive and increasing")
    return vals


def _number(value, kind=float):
    """A finite JSON number as kind (float or int); text is refused, not parsed."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or kind(value) != value):
        raise ValueError(f"expected a finite {kind.__name__}, got {value!r}")
    return kind(value)


def _complex(value):
    """A JSON number or [re, im] pair as a complex number."""
    re, im = value if isinstance(value, list) else (value, 0.0)
    return complex(_number(re), _number(im))


def load_config(path: str, output=None, seed=None) -> RunConfig:
    """Read a config, converting and checking every field it reads, so that a
    malformed value is a ConfigError (exit 2) rather than a failed check."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    command = raw.get("command")
    if command not in _DISPATCH:
        raise ConfigError(f"unknown command {command!r}")
    try:
        cfg = RunConfig(
            command=command,
            measure=_parse_measure(raw.get("measure")),
            distribution=(None if raw.get("distribution") is None
                          else distribution_from_dict(raw["distribution"])),
            backend=raw.get("backend"),
            u_grid=raw.get("u_grid"),
            lambda_grid=tuple(_complex(v) for v in raw.get("lambda_grid", ())),
            t_grid=tuple(_number(t) for t in raw.get("t_grid", ())),
            m=None if raw.get("m") is None else _number(raw["m"], int),
            m_list=tuple(_number(k, int) for k in raw.get("m_list", ())),
            u=None if raw.get("u") is None else _number(raw["u"]),
            n_list=tuple(_number(k, int) for k in raw.get("n_list", ())),
            output=Path(output if output is not None else raw.get("output", ".")),
            seed=_number(seed if seed is not None else raw.get("seed", 0), int),
            tolerances={key: _number(v)
                        for key, v in dict(raw.get("tolerances", {})).items()},
        )
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad config {path}: {exc}")
    positive = [*cfg.t_grid, *cfg.m_list, *cfg.n_list,
                *(v for v in (cfg.m, cfg.u) if v is not None)]
    if cfg.seed < 0 or any(v <= 0 for v in positive):
        raise ConfigError("u, t_grid, m, m_list and n_list must be positive and seed >= 0")
    return cfg


# ---------------------------------------------------------------------------
# formatting


def _fmt(x) -> str:
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"not serializable: {type(obj)}")


def _write_json(path: Path, payload):
    path.write_text(
        json.dumps(payload, default=_json_default, sort_keys=True, indent=2) + "\n"
    )


# ---------------------------------------------------------------------------
# command implementations


def _sweep_summary(rows, cfg: RunConfig, out: Path, **extra):
    """Write sweep.csv and gate the rows.

    With ``tolerances.min_margin`` every row must lie above it; without it
    the sweep passes on a positive prefix (eta > 0).
    """
    _write_csv(out / "sweep.csv", ("u", "norm_F", "rho_F", "ray_max", "margin"),
               [(r.u, r.norm_F, r.rho_F, r.ray_max_value, r.margin) for r in rows])
    eta = calculus.empirical_eta(rows)
    floor = cfg.tolerances.get("min_margin")
    passed = eta > 0 if floor is None else all(r.margin > floor for r in rows)
    return {
        "eta": eta,
        "min_margin": min(r.margin for r in rows),
        "rows": len(rows),
        "passed": bool(passed),
        **extra,
    }


def _cmd_sweep(cfg: RunConfig, out: Path):
    backend = _build_backend(cfg.backend)
    rows = calculus.sweep(backend, cfg.measure, _build_u_grid(cfg.u_grid, backend))
    return _sweep_summary(rows, cfg, out, max_quadrature_budget=max(
        r.quadrature_budget for r in rows))


def _cmd_symmetrized_sweep(cfg: RunConfig, out: Path):
    backend = _build_backend(cfg.backend)
    rows = calculus.symmetrized_sweep(backend, cfg.measure,
                                      _build_u_grid(cfg.u_grid, backend))
    return _sweep_summary(rows, cfg, out)


def _cmd_curve(cfg: RunConfig, out: Path):
    F = complexfn.as_transform(cfg.measure)
    ray = complexfn.ray_max(F)
    curve = complexfn.jordan_curve(F, ray)
    _write_csv(out / "curve_vertices.csv", ("re", "im"),
               [(z.real, z.imag) for z in curve.full_vertices])
    summary = {
        "alpha": curve.alpha,
        "m": curve.m,
        "delta": curve.delta,
        "f_alpha": curve.f_alpha,
        "f_a0_abs": curve.f_a0_abs,
        "cond2_margin": curve.cond2_margin,
        "vertices": len(curve.full_vertices),
        "passed": bool(curve.delta > 0 and curve.cond2_margin > 0
                       and cfg.tolerances.get("m", curve.m) == curve.m),
    }
    _write_json(out / "curve.json", summary)
    return summary


def _lemma_summary(cfg: RunConfig, out: Path, report, **extra):
    """Write <command>.json; the check itself raises if a bound fails, so the
    gate left here is the decomposition identity residual."""
    tol = float(cfg.tolerances.get("identity_residual", 1e-7))
    passed = bool(report.identity_residual <= tol)
    payload = {
        "rows": [
            {"lambda": lam, "lhs": lhs, "bound": bound, "margin": margin}
            for lam, lhs, bound, margin in report.rows
        ],
        "identity_residual": report.identity_residual,
        "passed": passed,
        **extra,
    }
    _write_json(out / f"{cfg.command}.json", payload)
    return {
        "max_lhs": report.max_lhs,
        "identity_residual": report.identity_residual,
        "passed": passed,
    }


def _cmd_lemma24(cfg: RunConfig, out: Path):
    backend = _build_backend(cfg.backend)
    grid = cfg.lambda_grid or _default_lambda_grid()
    report = calculus.lemma_24_check(backend, cfg.measure, grid)
    return _lemma_summary(cfg, out, report,
                          quadrature_budget=report.quadrature_budget)


def _cmd_lemma27(cfg: RunConfig, out: Path):
    backend = _build_backend(cfg.backend)
    grid = cfg.lambda_grid or _default_lambda_grid(avoid_integers=True)
    return _lemma_summary(
        cfg, out, calculus.lemma_27_check(backend, cfg.distribution, grid))


def _cmd_resolvent_check(cfg: RunConfig, out: Path):
    backend = _build_backend(cfg.backend)
    rng = np.random.default_rng(cfg.seed)
    tol = float(cfg.tolerances.get("resolvent_identity", 1e-4))
    # five (lam, nu) pairs, lam drawn first in each
    lams = [complex(rng.uniform(0, 3), rng.uniform(-3, 3)) for _ in range(10)]
    R = calculus.resolvent(backend, lams)
    pairs = []
    worst = 0.0
    for lam, nu, R1, R2 in zip(lams[::2], lams[1::2], R[::2], R[1::2]):
        res = op_norm(R1 - R2 - (nu - lam) * (R1 @ R2))
        worst = max(worst, res)
        pairs.append({"lambda": lam, "nu": nu, "residual": res})
    payload = {"pairs": pairs, "worst_residual": worst, "tolerance": tol,
               "passed": bool(worst <= tol)}
    _write_json(out / "resolvent_check.json", payload)
    return {"worst_residual": worst, "passed": payload["passed"]}


def _cmd_idempotents(cfg: RunConfig, out: Path):
    backend = _build_backend(cfg.backend)
    charset = spectral.character_set(backend)
    m_list = cfg.m_list or tuple(sorted(charset.slices))[-4:]
    chain = spectral.build_idempotents(charset, m_list)
    u = cfg.u if cfg.u is not None else 1e-3
    crit = spectral.criterion_check(charset, cfg.measure, [u])
    m = cfg.m if cfg.m is not None else crit.rows[0].window_m
    if m is None:
        raise ConfigError("no slice fits the separation window at this u")
    cert, curve = spectral.separation_certificate(charset, cfg.measure, u, m,
                                                  crit.ray, crit.radii)
    t_grid = cfg.t_grid or (1e-3,)
    bg_rows = spectral.bounded_generator_check(backend, chain, t_grid)
    payload = {
        "criterion": dataclasses.asdict(crit.rows[0]),
        "chain": {"m_list": list(chain.m_list), "exhaustive": chain.exhaustive},
        "generator_bounds": [dataclasses.asdict(r) for r in bg_rows],
        "certificate": dataclasses.asdict(cert),
        "passed": bool(crit.all_strict and chain.exhaustive and cert.passed),
    }
    _write_json(out / "idempotents.json", payload)
    _write_csv(out / "certificate_curve.csv", ("re", "im"),
               [(z.real, z.imag) for z in curve.gamma_k0_vertices])
    return {"passed": payload["passed"], "m": m, "u": u,
            "rho": crit.rows[0].rho, "sup_ray": crit.rows[0].sup_ray,
            "min_distance": cert.min_distance}


def _cmd_sharpness(cfg: RunConfig, out: Path):
    n_list = cfg.n_list or (1000, 10000, 100000)
    grid = _build_u_grid(cfg.u_grid) if cfg.u_grid else [0.1, 0.5, 1.0, 2.0]
    ray = complexfn.ray_max(cfg.measure)
    reports = [spectral.sharpness_demo(n, cfg.measure, grid, ray) for n in n_list]
    rows = []
    for rep in reports:
        for row in rep.rows:
            rows.append((rep.n, row.u, row.norm_F, row.gap))
    _write_csv(out / "sharpness.csv", ("n", "u", "norm_F", "gap"), rows)
    monotone = all(
        b.max_gap <= a.max_gap + 1e-6 for a, b in zip(reports, reports[1:])
    )
    payload = {
        "ray_value": reports[0].ray_value,
        "max_gap_by_n": {str(r.n): r.max_gap for r in reports},
        "monotone": monotone,
        "note": reports[0].note,
        "passed": bool(monotone),
    }
    _write_json(out / "sharpness.json", payload)
    return {"passed": payload["passed"], "max_gap": reports[-1].max_gap}


def _default_lambda_grid(avoid_integers: bool = False):
    pts = []
    radii = (0.0, 1.3, 2.7, 4.1, 4.9)
    for k, rad in enumerate(radii):
        if rad == 0.0:
            pts.append(0j)
            continue
        for j in range(5):
            theta = math.pi * (j / 4.0 - 0.5)
            pts.append(rad * complex(math.cos(theta), math.sin(theta)))
    if avoid_integers:
        pts = [p + 0.21 for p in pts]
    return pts[:20]


def _cmd_renormalization(cfg: RunConfig, out: Path):
    if not cfg.t_grid:
        raise ConfigError("renormalization needs a t_grid")
    report = semigroups.feller_renorm(_build_backend(cfg.backend), cfg.t_grid,
                                      seed=cfg.seed)
    return {
        "contraction_margin": report.contraction_margin,
        "commutant_ok": report.commutant_ok,
        "passed": bool(report.contraction_margin >= -1e-6 and report.commutant_ok),
    }


def _cmd_verify_all(cfg: RunConfig, out: Path):
    """Run every config in CONFIG_DIR, in sorted order, as ``sgcalc run`` does.

    Each check is named by its file stem and writes to out/<stem>/; a check
    that raises is recorded as failed and the rest still run.
    """
    paths = sorted(CONFIG_DIR.glob("*.json"))
    if not paths:
        raise ConfigError(f"no check configs in {CONFIG_DIR}")
    checks = {}
    for path in paths:
        check = load_config(str(path), output=out / path.stem)
        if check.command == "verify-all":
            raise ConfigError(f"{path.name}: verify-all cannot be a check")
        run(check)
        checks[path.stem] = json.loads((check.output / "summary.json").read_text())
    failed = [name for name, summary in checks.items() if not summary["passed"]]
    _write_json(out / "verify_all.json",
                {"checks": checks, "passed": not failed, "failed": failed})
    return {"passed": not failed, "failed": failed}


_DISPATCH = {
    "sweep": _cmd_sweep,
    "symmetrized-sweep": _cmd_symmetrized_sweep,
    "curve": _cmd_curve,
    "lemma24": _cmd_lemma24,
    "lemma27": _cmd_lemma27,
    "resolvent-check": _cmd_resolvent_check,
    "idempotents": _cmd_idempotents,
    "sharpness": _cmd_sharpness,
    "renormalization": _cmd_renormalization,
    "verify-all": _cmd_verify_all,
}


def run(cfg: RunConfig) -> int:
    out = cfg.output
    out.mkdir(parents=True, exist_ok=True)
    try:
        summary = _DISPATCH[cfg.command](cfg, out)
    except ConfigError:
        raise
    except SgcalcError as exc:
        summary = {"passed": False, "error": type(exc).__name__, "detail": str(exc)}
    _write_json(out / "summary.json", {"command": cfg.command, **summary})
    return EXIT_OK if summary.get("passed", True) else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sgcalc",
        description="semigroup functional-calculus checks and sweeps",
    )
    parser.add_argument("command", choices=(*_DISPATCH, "run"),
                        help="subcommand, or 'run' to take it from the config")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--output", help="output directory")
    parser.add_argument("--seed", type=int, help="seed for randomized numerics")
    args = parser.parse_args(argv)

    try:
        if args.config:
            cfg = load_config(args.config, output=args.output, seed=args.seed)
            if args.command != "run" and args.command != cfg.command:
                raise ConfigError(
                    f"command line says {args.command!r}, config says {cfg.command!r}"
                )
        else:
            if args.command != "verify-all":
                raise ConfigError(f"{args.command!r} needs --config")
            cfg = RunConfig(
                command=args.command,
                output=Path(args.output or "."),
                seed=args.seed or 0,
            )
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
