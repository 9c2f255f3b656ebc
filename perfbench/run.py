"""sgcalc benchmark: named workloads through the CLI front door.

    python3 perfbench/run.py --workload verify_all --seed 0 --seconds 50 --trace 0

Each op is a generated JSON config fed to ``sgcalc.cli.load_config`` +
``sgcalc.cli.run``, with every artifact written under a temporary directory
in ``.bench_tmp/`` and checked against the shipped reference (refs/).  Passes
over the workload's ops repeat while the next one is expected to end within
``--seconds``.  The last line of stdout is the result JSON; with ``--trace 0``
it holds the end-to-end metrics, with ``--trace 1`` the per-layer ones from
passes traced by spans.py (alternating with untraced passes, whose difference
is ``trace.overhead_s``).  The line before it is the run record: environment,
per-pass figures and failures.  Span dumps go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import ops
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5

SPAN_METRICS = (
    "calculus.norm.shift_dense", "calculus.norm.shift_svds", "calculus.norm.diag",
    "calculus.norm.generic", "calculus.func_calc", "calculus.resolvent",
    "linalg.op_norm", "linalg.spectral_radius", "linalg.expm",
    "semigroups.materialize", "semigroups.apply",
    "complexfn.ray_max", "complexfn.jordan_curve", "complexfn.separation_curve",
    "measures.laplace", "cli.run",
)
SELF_ONLY = (
    "calculus.lemma_24_check", "semigroups.feller_renorm", "spectral.character_set",
    "spectral.separation_certificate", "spectral.sharpness_demo",
)


def import_sgcalc():
    """sgcalc.cli from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sgcalc.cli
    except ImportError as exc:
        raise SystemExit(f"cannot import sgcalc from {src}: {exc}")
    if not Path(sgcalc.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"sgcalc was imported from {sgcalc.cli.__file__}, not {src}")
    return sgcalc.cli


class OpTimeout(Exception):
    """An op ran past its workload's per-op time limit."""


def _alarm(signum, frame):
    raise OpTimeout("per-op time limit reached")


def write_configs(op_list, directory: Path):
    """Write each op's config; returns [(name, command, path, input hash)], inputs hash."""
    directory.mkdir(parents=True)
    digest = hashlib.sha256()
    out = []
    for name, raw in op_list:
        text = json.dumps(raw, sort_keys=True)
        digest.update(text.encode())
        path = directory / f"{name}.json"
        path.write_text(text)
        out.append((name, raw["command"], path, hashlib.sha256(text.encode()).hexdigest()[:16]))
    return out, digest.hexdigest()


def run_op(cli, command: str, cfg_path: Path, outdir: Path, limit: float) -> dict:
    """Run one op; returns its time, CPU time, exit code or error, and checked fields."""
    signal.signal(signal.SIGALRM, _alarm)
    error = code = None
    t0, c0 = time.perf_counter(), time.process_time()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        code = cli.run(cli.load_config(str(cfg_path), output=outdir))
    except Exception as exc:  # any raise is an op failure, recorded with its type
        error = f"{type(exc).__name__}: {exc}"[:300]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if error is None and wall > limit:
        error = "OpTimeout: per-op time limit reached"
    fields = None if error else {"exit": code, **ops.checked_fields(command, outdir)}
    out_bytes = sum(f.stat().st_size for f in outdir.rglob("*") if f.is_file())
    shutil.rmtree(outdir, ignore_errors=True)
    return {"wall": wall, "cpu": cpu, "error": error, "fields": fields, "bytes": out_bytes}


def run_pass(cli, configs, refs, workdir: Path, limit: float) -> dict:
    """One pass over the ops.  A failed op is charged ``limit`` as its time."""
    gc.collect()
    wall = cpu = 0.0
    out_bytes = 0
    failures = []
    wrong = 0
    op_wall = {}
    for name, command, path, key in configs:
        r = run_op(cli, command, path, workdir / name, limit)
        op_wall[name] = r["wall"]
        why = r["error"]
        if why is None:
            bad = ops.mismatches(r["fields"], refs[key]["fields"])
            if bad:
                wrong += 1
                why = "mismatch: " + "; ".join(bad[:5])
        if why:
            failures.append({"op": name, "why": why})
        wall += limit if why else r["wall"]
        cpu += r["cpu"]
        out_bytes += r["bytes"]
    return {"wall_s": wall, "cpu_s": cpu, "failures": failures, "wrong": wrong,
            "output_bytes": out_bytes, "op_wall_s": op_wall}


def measure_setup(workload: str, seed: int) -> list:
    """Process start to ready-for-first-pass, in fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def environment(inputs_sha: str) -> dict:
    import numpy
    import scipy
    import sgcalc

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(numpy),
                 "env": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sgcalc": sgcalc.__version__,
        "git_commit": git_commit(),
        "src_sha256": tree_hash(ROOT / "src"),
        "inputs_sha256": inputs_sha,
    }


def blas_threads(numpy):
    """OpenBLAS's own thread count, asked through its C API; None if not found."""
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("lib*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def tree_hash(directory: Path) -> str:
    """sha256 over the paths and bytes of the Python sources under directory."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    """HEAD of the checkout, read from .git; None when it is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def layer_metrics(tracer, traced_wall: float, untraced_wall: float, out_bytes: int) -> dict:
    s = tracer.summary()
    calls, self_s, c = s["calls"], s["self_s"], tracer.counters
    m = {}
    for name in SPAN_METRICS:
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_s"] = (self_s[name], "s")
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = (self_s[name], "s")
    mat = calls["semigroups.materialize"]
    m.update({
        "calculus.norm.shift_dense.n3_sum": (c["n3_sum"], "count"),
        "calculus.norm.gcd_reduced_ratio":
            (c["gcd_reduced"] / c["shift_norms"] if c["shift_norms"] else 0.0, "ratio"),
        "linalg.power_opnorm.iterations": (c["power_iterations"], "count"),
        "linalg.power_opnorm.unconverged": (c["power_unconverged"], "count"),
        "semigroups.materialize.distinct_t": (s["distinct_materialized"], "count"),
        "semigroups.materialize.reuse_ratio":
            ((mat - s["distinct_materialized"]) / mat if mat else 0.0, "ratio"),
        "cli.output_bytes": (out_bytes, "B"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    })
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(ops.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    cli = import_sgcalc()
    family, op_list = ops.build(args.workload, args.seed)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_tmp") as tmp:
        tmp = Path(tmp)
        configs, inputs_sha = write_configs(op_list, tmp / "configs")
        if args.setup_probe:
            print(time.monotonic())
            return 0
        refs = json.loads((HERE / "refs" / f"{args.workload}.json").read_text())
        missing = [name for name, _, _, key in configs if key not in refs]
        if missing:
            raise SystemExit(f"no reference for ops {missing} (input family {family})")
        return measure(args, cli, configs, refs, family, inputs_sha, tmp)


def measure(args, cli, configs, refs, family, inputs_sha, tmp: Path) -> int:
    limit = ops.OP_LIMIT_S[args.workload]
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    untraced, traced, layers = [], [], []
    t0 = time.perf_counter()
    while True:
        untraced.append(run_pass(cli, configs, refs, tmp / "out", limit))
        if args.trace:
            tracer = spans.Tracer()
            patches = spans.install(tracer)
            try:
                traced.append(run_pass(cli, configs, refs, tmp / "out", limit))
            finally:
                spans.uninstall(patches)
            layers.append(layer_metrics(tracer, traced[-1]["wall_s"], untraced[-1]["wall_s"],
                                        traced[-1]["output_bytes"]))
        elapsed = time.perf_counter() - t0
        if elapsed * (1 + 1 / len(untraced)) > args.seconds:
            break

    passes = untraced + traced
    if args.trace:
        metrics = {k: {"value": statistics.median_low(l[k][0] for l in layers), "unit": u}
                   for k, (_, u) in layers[0].items()}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans_{args.workload}_seed{args.seed}.json").write_text(
            json.dumps(tracer.dump()))
    else:
        metrics = {
            "wall_s": {"value": statistics.median(q["wall_s"] for q in untraced), "unit": "s"},
            "cpu_s": {"value": statistics.median(q["cpu_s"] for q in untraced), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    attempted = len(configs) * len(passes)
    failed = sum(len(q["failures"]) for q in passes)
    record = {
        "workload": args.workload, "seed": args.seed, "input_family": family,
        "trace": args.trace, "passes": len(passes), "op_limit_s": limit,
        "fail_frac": failed / attempted,
        "pass_wall_s": [q["wall_s"] for q in untraced],
        "pass_cpu_s": [q["cpu_s"] for q in untraced],
        "traced_pass_wall_s": [q["wall_s"] for q in traced],
        "setup_s": setup,
        "op_wall_s": {name: statistics.median(q["op_wall_s"][name] for q in untraced)
                      for name in untraced[0]["op_wall_s"]},
        "failures": [f for q in passes for f in q["failures"]],
        "environment": environment(inputs_sha),
    }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(record))
    print(json.dumps({"correct": not any(q["wrong"] for q in passes),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
