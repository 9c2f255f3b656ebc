"""Write refs/<workload>.json: the checked output fields of every op input.

    python3 perfbench/make_refs.py [workload ...]

Each op of each input family is run once through the CLI, exactly as the
benchmark runs it, and its checked fields are stored under the hash of its
config.  A shift-model sweep that the program cannot finish (the svds route
above 2048 cells raises) gets the fields the CLI would write, with each norm
taken from dense SVD of ``OperatorValue.to_dense()`` instead.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import ops
import run

REF_LIMIT_S = 600.0


def dense_sweep_fields(raw: dict) -> dict:
    from scipy.linalg import svdvals
    from sgcalc import calculus, cli, complexfn, semigroups

    backend = semigroups.nilpotent_shift(raw["backend"]["n"])
    mu = cli.NAMED_MEASURES[raw["measure"]]()
    ray = complexfn.ray_max(mu).value
    rows = []
    for u in raw["u_grid"]["values"]:
        op = calculus.func_calc(backend, mu, u)
        norm = float(svdvals(op.to_dense(), overwrite_a=True, check_finite=False)[0])
        rows.append(calculus.SweepRow(u, norm, op.spectral_radius(), ray, norm - ray))
    eta = calculus.empirical_eta(rows)
    passed = bool(all(r.margin > 0 for r in rows if r.u <= eta) and eta > 0)
    summary = {"eta": eta, "min_margin": min(r.margin for r in rows), "passed": passed}
    fields = {"exit": 0 if passed else 1}
    ops._leaves(summary, "summary", fields)
    ops._leaves([{"norm_F": r.norm_F, "margin": r.margin} for r in rows], "sweep", fields)
    return fields


def main(workloads) -> int:
    cli = run.import_sgcalc()
    (run.ROOT / ".bench_tmp").mkdir(exist_ok=True)
    for workload in workloads:
        refs = {}
        for family in range(ops.FAMILIES):
            with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_tmp") as tmp:
                _, op_list = ops.build(workload, family)
                raws = dict(op_list)
                configs, _ = run.write_configs(op_list, Path(tmp) / "configs")
                for name, command, path, key in configs:
                    if key in refs:
                        continue
                    r = run.run_op(cli, command, path, Path(tmp) / name, REF_LIMIT_S)
                    if r["error"] is not None:
                        print(f"{workload} {family} {name}: {r['error']}; dense reference",
                              flush=True)
                        fields, source = dense_sweep_fields(raws[name]), "dense-svd"
                    else:
                        fields, source = r["fields"], "program"
                    refs[key] = {"op": name, "family": family, "source": source,
                                 "fields": fields}
                    print(f"{workload} {family} {name}: {r['wall']:.2f} s", flush=True)
        out = run.HERE / "refs" / f"{workload}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or sorted(ops.WORKLOADS)))
