"""Command-line front door.

Subcommands map one-to-one onto module operations, which compute and
report; the CLI makes every pass/fail decision, from one list of gates per
command, and writes the CSV/JSON artifacts, the gates and a summary.
Identical config and seed give byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import operator
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import calculus, complexfn, linalg, semigroups, spectral
from .errors import ConfigError, SgcalcError
from .measures import (
    CompactDistribution,
    CompactMeasure,
    Piece,
    from_atoms,
    indicator,
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
    """A checked config: backend, u_grid, measure and distribution are built."""

    command: str
    measure: CompactMeasure | None = None
    distribution: CompactDistribution | None = None
    backend: semigroups.SemigroupBackend | None = None
    u_grid: list | None = None
    lambda_grid: tuple = ()
    t_grid: tuple = ()
    m: int | None = None
    m_list: tuple = ()
    u: float | None = None
    n_list: tuple = ()
    output: Path = Path(".")
    seed: int | None = 0  # None only on verify-all: each check keeps its own
    tolerances: dict = dataclasses.field(default_factory=dict)


# The shipped check registry: `verify-all` runs every config here.
CONFIG_DIR = Path(__file__).resolve().parents[2] / "configs"


def _parse_measure(spec):
    """A named measure, or {"atoms": [{"t", "re", "im"}], "pieces": [{"a", "b", "coeffs"}]}."""
    if isinstance(spec, str):
        if spec not in NAMED_MEASURES:
            raise ConfigError(f"unknown named measure {spec!r}")
        return NAMED_MEASURES[spec]()
    spec = _object(spec, "measure")
    atoms = tuple(
        (_number(a["t"]), complex(_number(a["re"]), _number(a.get("im", 0.0))))
        for a in spec.get("atoms", ())
    )
    pieces = tuple(
        Piece(_number(p["a"]), _number(p["b"]), tuple(_complex(c) for c in p["coeffs"]))
        for p in spec.get("pieces", ())
    )
    return CompactMeasure(atoms, pieces)


def _parse_distribution(spec):
    return CompactDistribution(
        order=_number(spec["order"], int),
        components=tuple(_parse_measure(m) for m in spec["components"]),
    )


def _build_backend(spec):
    kind = _object(spec, "backend").get("kind")
    if kind == "nilpotent_shift":
        return semigroups.nilpotent_shift(_number(spec["n"], int))
    if kind == "riemann_liouville":
        return semigroups.riemann_liouville(_number(spec["n"], int))
    if kind == "diagonal":
        return semigroups.diagonal_semigroup([_complex(v) for v in spec["lambdas"]])
    if kind == "diagonal-range":
        return semigroups.diagonal_semigroup(
            np.arange(_number(spec["start"], int), _number(spec["stop"], int) + 1))
    if kind == "matrix":
        return semigroups.matrix_semigroup(
            np.array([[_complex(v) for v in row] for row in spec["matrix"]]))
    if kind == "multiplication_c0":
        return semigroups.multiplication_c0(_number(spec["n"], int))
    raise ConfigError(f"unknown backend kind {kind!r}")


def _build_u_grid(spec, backend):
    """{"values": [u, ...]}, or {"kind": "grid-aligned", "count": c}: u = k/n
    for k = 1..c on an n-cell shift backend."""
    spec = _object(spec, "u_grid")
    if "values" in spec:
        vals = [_number(v) for v in spec["values"]]
    elif spec.get("kind") == "grid-aligned":
        if not hasattr(backend, "grid_step"):
            raise ConfigError("grid-aligned u_grid needs a shift backend")
        vals = [k * backend.grid_step for k in range(1, _number(spec["count"], int) + 1)]
    else:
        raise ConfigError('u_grid must be {"values": [...]} or '
                          '{"kind": "grid-aligned", "count": ...}')
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


def _object(spec, name):
    if not isinstance(spec, dict):
        raise ConfigError(f"{name} must be a JSON object, got {type(spec).__name__}")
    return spec


def load_config(path: str, output=None, seed=None) -> RunConfig:
    """Read a config and build every field it has, so that each command gets
    checked objects: a key that names no RunConfig field, a malformed value,
    or a field the command needs that is missing, is a ConfigError (exit 2)
    rather than a crash, a failed check or a silently default gate."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    _object(raw, f"config {path}")
    command = raw.get("command")
    if command not in _DISPATCH:
        raise ConfigError(f"unknown command {command!r}")
    unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(RunConfig)})
    if unknown:
        raise ConfigError(f"unknown config keys {unknown} in {path}")
    if seed is not None:
        raw["seed"] = seed

    def field(name, parse, default=None):
        """raw[name] parsed, or default when it is absent or null."""
        if raw.get(name) is None:
            return default
        try:
            return parse(raw[name])
        except KeyError as exc:
            raise ConfigError(f"bad {name} in {path}: missing {exc}")
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"bad {name} in {path}: {exc}")

    def numbers(kind):
        return lambda values: tuple(_number(v, kind) for v in values)

    # the backend first: a grid-aligned u grid is built from its step
    backend = field("backend", _build_backend)
    cfg = RunConfig(
        command=command,
        backend=backend,
        u_grid=field("u_grid", lambda spec: _build_u_grid(spec, backend)),
        measure=field("measure", _parse_measure),
        distribution=field("distribution", _parse_distribution),
        lambda_grid=field("lambda_grid", lambda values: tuple(map(_complex, values)), ()),
        t_grid=field("t_grid", numbers(float), ()),
        m=field("m", lambda v: _number(v, int)),
        m_list=field("m_list", numbers(int), ()),
        u=field("u", _number),
        n_list=field("n_list", numbers(int), ()),
        output=Path(output) if output is not None else field("output", Path, Path(".")),
        seed=field("seed", lambda v: _number(v, int), None if command == "verify-all" else 0),
        tolerances=field("tolerances",
                         lambda spec: {k: _number(v) for k, v in dict(spec).items()}, {}),
    )
    _, needs, reads = _DISPATCH[command]
    unknown = sorted(set(cfg.tolerances) - set(reads))
    if unknown:
        raise ConfigError(f"{command} reads no tolerances {unknown}; it reads {list(reads)}")
    positive = [*cfg.t_grid, *cfg.m_list, *cfg.n_list,
                *(v for v in (cfg.m, cfg.u) if v is not None)]
    if (cfg.seed or 0) < 0 or any(v <= 0 for v in positive):
        raise ConfigError("u, t_grid, m, m_list and n_list must be positive and seed >= 0")
    missing = [name for name in needs if getattr(cfg, name) in (None, ())]
    if missing:
        raise ConfigError(f"{command} needs {' and '.join(missing)}")
    return cfg


# ---------------------------------------------------------------------------
# formatting


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path: Path, header, rows):
    lines = [",".join(header), *(",".join(map(_fmt, row)) for row in rows)]
    path.write_text("\n".join(lines) + "\n")


def _json_default(obj):
    """complex -> {"re", "im"}: every payload is built of Python floats, ints,
    bools, strings and complex values (``idempotents`` calls ``asdict``)."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not serializable: {type(obj)}")


def _write_json(path: Path, payload):
    path.write_text(
        json.dumps(payload, default=_json_default, sort_keys=True, indent=2) + "\n"
    )


# ---------------------------------------------------------------------------
# gates and command implementations
#
# Each command returns (summary, gates, artifacts); artifacts maps a file name
# to a JSON payload or, for .csv, to (header, rows).  ``run`` decides and writes.


class Gate(NamedTuple):
    """One pass/fail decision of a check: ``value op threshold``."""

    name: str
    value: float
    op: str  # a key of _OPS
    threshold: float

    @property
    def passed(self) -> bool:
        return bool(_OPS[self.op](self.value, self.threshold))


_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le,
        "==": operator.eq}

# symmetrized-sweep: the product and convolution paths give one operator up to
# rounding, so their proved difference bound must stay below this times the norm
_PATH_TOL = 1e-9
# rho and ray.value are computed values of |F|, each a few ulps off, so a tie
# shows only to that rounding: rho this close (relatively) below ray.value
# counts as equality, for mu and 2^k mu alike.
_DEGENERATE_TOL = 1e-12
# a winding number is an integer, computed as a sum of angles: +-1 within
# this relative rounding allowance counts as +-1
_WINDING_TOL = 1e-6


def _sweep_result(rows, cfg: RunConfig, gates=(), **extra):
    """With ``tolerances.min_margin`` every row must lie above it, that is
    min_margin > floor; without it the sweep passes on a positive prefix
    (eta > 0)."""
    eta = calculus.empirical_eta(rows)
    min_margin = min(r.margin for r in rows)
    floor = cfg.tolerances.get("min_margin")
    gate = (Gate("eta", eta, ">", 0.0) if floor is None
            else Gate("min_margin", min_margin, ">", floor))
    summary = {"eta": eta, "min_margin": min_margin, "rows": len(rows), **extra}
    csv = (("u", "norm_F", "rho_F", "ray_max", "margin"),
           [(r.u, r.norm_F, r.rho_F, r.ray_max_value, r.margin) for r in rows])
    return summary, [gate, *gates], {"sweep.csv": csv}


def _cmd_sweep(cfg: RunConfig):
    rows = calculus.sweep(cfg.backend, cfg.measure, cfg.u_grid)
    return _sweep_result(rows, cfg, max_quadrature_budget=max(
        r.quadrature_budget for r in rows))


def _cmd_symmetrized_sweep(cfg: RunConfig):
    rows = calculus.symmetrized_sweep(cfg.backend, cfg.measure, cfg.u_grid)
    path = Gate("path_gap", max(r.path_gap - _PATH_TOL * r.norm_F for r in rows), "<=", 0.0)
    return _sweep_result(rows, cfg, gates=[path])


def _cmd_curve(cfg: RunConfig):
    ray = complexfn.ray_max(cfg.measure)
    curve = complexfn.jordan_curve(cfg.measure, ray)
    summary = {
        "alpha": curve.alpha,
        "m": curve.m,
        "delta": curve.delta,
        "f_alpha": curve.f_alpha,
        "f_a0_abs": curve.f_a0_abs,
        "cond2_margin": curve.cond2_margin,
        "vertices": len(curve.full_vertices),
    }
    gates = [Gate("delta", curve.delta, ">", 0.0),
             Gate("cond2_margin", curve.cond2_margin, ">", 0.0)]
    if "m" in cfg.tolerances:
        gates.append(Gate("m", curve.m, "==", cfg.tolerances["m"]))
    return summary, gates, {
        "curve_vertices.csv": (("re", "im"), [(z.real, z.imag) for z in curve.full_vertices]),
        "curve.json": summary,
    }


def _lemma_result(cfg: RunConfig, report):
    """<command>.json, and the gates: every margin and the identity residual."""
    payload = {
        "rows": [
            {"lambda": lam, "lhs": lhs, "bound": bound, "margin": margin}
            for lam, lhs, bound, margin in report.rows
        ],
        "identity_residual": report.identity_residual,
    }
    gates = [Gate("min_margin", min(row[3] for row in report.rows), ">=", 0.0),
             Gate("identity_residual", report.identity_residual, "<=",
                  cfg.tolerances.get("identity_residual", 1e-7))]
    summary = {"max_lhs": report.max_lhs, "identity_residual": report.identity_residual}
    return summary, gates, {f"{cfg.command}.json": payload}


def _cmd_lemma24(cfg: RunConfig):
    grid = cfg.lambda_grid or _default_lambda_grid()
    return _lemma_result(cfg, calculus.lemma_24_check(cfg.backend, cfg.measure, grid))


def _cmd_lemma27(cfg: RunConfig):
    grid = cfg.lambda_grid or _default_lambda_grid(avoid_integers=True)
    return _lemma_result(cfg, calculus.lemma_27_check(cfg.backend, cfg.distribution, grid))


def _cmd_resolvent_check(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    tol = cfg.tolerances.get("resolvent_identity", 1e-4)
    # five (lam, nu) pairs, lam drawn first in each
    lams = [complex(rng.uniform(0, 3), rng.uniform(-3, 3)) for _ in range(10)]
    pairs = list(zip(lams[::2], lams[1::2]))
    residuals, inverse = calculus.resolvent_residuals(cfg.backend, pairs)
    rows = [{"lambda": lam, "nu": nu, "residual": res}
            for (lam, nu), res in zip(pairs, residuals)]
    summary = {"worst_residual": max(residuals)}
    if inverse:  # matrix backends: (A + lam I) R(lam) = I at each of the ten lam
        summary["worst_inverse_residual"] = max(inverse)
    gates = [Gate(name, value, "<=", tol) for name, value in summary.items()]
    payload = {"pairs": rows, **summary, "tolerance": tol}
    return summary, gates, {"resolvent_check.json": payload}


def _cmd_idempotents(cfg: RunConfig):
    charset = spectral.character_set(cfg.backend)
    top = charset.top
    for m in (*cfg.m_list, cfg.m):
        if m is not None and m > top:
            raise ConfigError(f"m = {m} names no slice of the character set, whose "
                              f"slices are m = 0..{top}")
    if cfg.m is not None and not charset.slice(cfg.m):
        raise ConfigError(f"m = {cfg.m} names an empty slice: no character "
                          f"has Re lambda <= {cfg.m}")
    chain = spectral.IdempotentChain(charset, cfg.m_list or range(max(top - 3, 0), top + 1))
    u = cfg.u if cfg.u is not None else 1e-3
    crit = spectral.criterion_check(charset, cfg.measure, u)
    row = crit.row
    m = cfg.m if cfg.m is not None else row.window_m
    if m is None:
        raise ConfigError("no slice fits the separation window at this u")
    cert, vertices = spectral.separation_certificate(charset, cfg.measure, u, m,
                                                     crit.ray, crit.radii)
    t_grid = cfg.t_grid or (1e-3,)
    bg_rows = spectral.bounded_generator_check(chain, t_grid)

    criterion = Gate("rho", row.rho, "<", row.sup_ray * (1.0 - _DEGENERATE_TOL))
    certificate = [
        Gate("curve_min_excess", cert.curve_min_excess, ">=", 0.0),
        Gate("min_slice_margin", min((mg for _, mg in cert.lam_margins), default=math.inf),
             ">", 0.0),
        Gate("winding_defect", cert.winding_defect, "<=", _WINDING_TOL),
    ]
    cert_payload = dataclasses.asdict(cert)
    del cert_payload["winding_defect"]  # reported in gates.json
    payload = {
        "criterion": {**dataclasses.asdict(row), "strict": criterion.passed},
        "chain": {"m_list": list(chain.m_list), "exhaustive": chain.exhaustive},
        "generator_bounds": [dataclasses.asdict(r) for r in bg_rows],
        "certificate": {**cert_payload, "passed": all(g.passed for g in certificate)},
    }
    summary = {"m": m, "u": u, "rho": row.rho, "sup_ray": row.sup_ray,
               "min_distance": cert.min_distance}
    gates = [criterion, Gate("exhaustive", chain.exhaustive, "==", True), *certificate]
    return summary, gates, {
        "idempotents.json": payload,
        "certificate_curve.csv": (("re", "im"), [(z.real, z.imag) for z in vertices]),
    }


def _cmd_sharpness(cfg: RunConfig):
    n_list = cfg.n_list or (1000, 10000, 100000)
    grid = cfg.u_grid or [0.1, 0.5, 1.0, 2.0]
    ray = complexfn.ray_max(cfg.measure)
    reports = [spectral.sharpness_demo(n, cfg.measure, grid, ray) for n in n_list]
    rows = [(rep.n, row.u, row.norm_F, row.gap) for rep in reports for row in rep.rows]
    # the largest rise of max_gap from one n to the next
    rise = max((b.max_gap - a.max_gap for a, b in zip(reports, reports[1:])), default=0.0)
    monotone = Gate("gap_rise", rise, "<=", 0.0)
    payload = {
        "ray_value": reports[0].ray_value,
        "max_gap_by_n": {str(r.n): r.max_gap for r in reports},
        "monotone": monotone.passed,
        "note": reports[0].note,
    }
    return {"max_gap": reports[-1].max_gap}, [monotone], {
        "sharpness.csv": (("n", "u", "norm_F", "gap"), rows),
        "sharpness.json": payload,
    }


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


def _cmd_renormalization(cfg: RunConfig):
    report = semigroups.feller_renorm(cfg.backend, cfg.t_grid, seed=cfg.seed)
    excess = max(est - full for _, est, full in report.commutant_bound_checks)
    commutant = Gate("commutant_excess", excess, "<=", 0.0)
    gates = [Gate("contraction_margin", report.contraction_margin, ">=", 0.0), commutant]
    return {"contraction_margin": report.contraction_margin,
            "commutant_ok": commutant.passed}, gates, {}


def _cmd_verify_all(cfg: RunConfig):
    """Run every config in CONFIG_DIR, in sorted order, as ``sgcalc run`` does.

    Each check is named by its file stem, writes to <output>/<stem>/ and is one
    gate; a check that raises is recorded as failed and the rest still run.  A
    seed given to verify-all replaces each check's own.
    """
    paths = sorted(CONFIG_DIR.glob("*.json"))
    if not paths:
        raise ConfigError(f"no check configs in {CONFIG_DIR}")
    checks = {}
    for path in paths:
        check = load_config(str(path), output=cfg.output / path.stem, seed=cfg.seed)
        if check.command == "verify-all":
            raise ConfigError(f"{path.name}: verify-all cannot be a check")
        run(check)
        checks[path.stem] = json.loads((check.output / "summary.json").read_text())
    failed = [name for name, summary in checks.items() if not summary["passed"]]
    gates = [Gate(name, summary["passed"], "==", True) for name, summary in checks.items()]
    return {"failed": failed}, gates, {"verify_all.json": {"checks": checks, "failed": failed}}


# command -> (implementation, the RunConfig fields it cannot run without,
#             the tolerances keys it reads; any other key is a ConfigError)
_DISPATCH = {
    "sweep": (_cmd_sweep, ("measure", "backend", "u_grid"), ("min_margin",)),
    "symmetrized-sweep": (_cmd_symmetrized_sweep, ("measure", "backend", "u_grid"),
                          ("min_margin",)),
    "curve": (_cmd_curve, ("measure",), ("m",)),
    "lemma24": (_cmd_lemma24, ("measure", "backend"), ("identity_residual",)),
    "lemma27": (_cmd_lemma27, ("distribution", "backend"), ("identity_residual",)),
    "resolvent-check": (_cmd_resolvent_check, ("backend",), ("resolvent_identity",)),
    "idempotents": (_cmd_idempotents, ("measure", "backend"), ()),
    "sharpness": (_cmd_sharpness, ("measure",), ()),
    "renormalization": (_cmd_renormalization, ("backend", "t_grid"), ()),
    "verify-all": (_cmd_verify_all, (), ()),
}


def run(cfg: RunConfig) -> int:
    """Run one command with BLAS at one thread (``linalg.serial_blas``).

    ``passed`` is the conjunction of the command's gates, written into
    summary.json and every JSON artifact; gates.json lists each gate with its
    verdict.  A check that cannot compute (an SgcalcError other than a
    ConfigError) writes only summary.json, with passed false and the error.
    """
    out = cfg.output
    out.mkdir(parents=True, exist_ok=True)
    try:
        with linalg.serial_blas():
            summary, gates, artifacts = _DISPATCH[cfg.command][0](cfg)
    except ConfigError:
        raise
    except SgcalcError as exc:
        summary, passed = {"error": type(exc).__name__, "detail": str(exc)}, False
    else:
        passed = all(gate.passed for gate in gates)
        for name, payload in artifacts.items():
            if name.endswith(".csv"):
                _write_csv(out / name, *payload)
            else:
                _write_json(out / name, {**payload, "passed": passed})
        _write_json(out / "gates.json",
                    [{**gate._asdict(), "passed": gate.passed} for gate in gates])
    _write_json(out / "summary.json", {"command": cfg.command, **summary, "passed": passed})
    return EXIT_OK if passed else EXIT_CHECK_FAILED


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
                seed=args.seed,
            )
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
