"""Which statements of src/sgcalc do tier-1 and ``sgcalc verify-all`` reach?

Both run in child interpreters under a stdlib line tracer, which a
``sitecustomize`` module put first on PYTHONPATH installs; the interpreters
that they start (the CLI tests run ``python -m sgcalc.cli``) are traced the
same way.  A compound statement counts as reached when any line inside it
ran.  Every statement that nothing reached is listed; the exit status is 1
when one of them has no ``# unreached: <reason>`` comment on its first line,
or when a traced run failed.

    python tools/reach.py [extra pytest arguments]
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sgcalc"
MARK = "# unreached:"

# Writes the set of (file, line) it saw ran in src/sgcalc to <dir>/<pid>.hits
# when the interpreter exits.
SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_PACKAGE, _OUT = {package!r}, {out!r}
_hits, _keep = set(), {{}}


def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    keep = _keep.get(name)
    if keep is None:
        keep = _keep[name] = os.path.realpath(name).startswith(_PACKAGE)
    return _line if keep else None


def _dump():
    sys.settrace(None)
    with open(os.path.join(_OUT, f"{{os.getpid()}}.hits"), "w") as f:
        f.writelines(f"{{os.path.realpath(n)}}\\t{{k}}\\n" for n, k in _hits)


atexit.register(_dump)
threading.settrace(_call)
sys.settrace(_call)
'''


def statements(tree):
    """Every statement that compiles to code: docstrings and other bare
    constants, ``global`` and ``nonlocal`` compile to nothing."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        yield first, node.end_lineno


def unreached(path: Path, lines_hit: set[int]):
    """(first line, text) of each statement of path that no hit falls in,
    outermost first, skipping statements nested in one already listed."""
    source = path.read_text()
    text = source.splitlines()
    found, covered = [], set()
    for first, last in sorted(statements(ast.parse(source)), key=lambda s: (s[0], -s[1])):
        if first in covered or lines_hit.intersection(range(first, last + 1)):
            continue
        covered.update(range(first, last + 1))
        found.append((first, text[first - 1].strip()))
    return found


def main(pytest_args) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        site, hits = Path(tmp, "site"), Path(tmp, "hits")
        site.mkdir()
        hits.mkdir()
        (site / "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(package=str(PACKAGE), out=str(hits)))
        path = [str(site), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
        runs = [
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", *pytest_args],
            [sys.executable, "-m", "sgcalc.cli", "verify-all", "--output", str(Path(tmp, "out"))],
        ]
        failed = [run for run in runs if subprocess.run(run, cwd=ROOT, env=env).returncode != 0]
        by_file: dict[str, set[int]] = {}
        for dump in hits.glob("*.hits"):
            for line in dump.read_text().splitlines():
                name, lineno = line.split("\t")
                by_file.setdefault(name, set()).add(int(lineno))

    bare = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for lineno, text in unreached(path, by_file.get(str(path), set())):
            marked = MARK in text
            bare += not marked
            print(f"{path.relative_to(ROOT)}:{lineno}: {'' if marked else 'UNMARKED '}{text}")
    for run in failed:
        print("traced run failed:", " ".join(run[1:]))
    print(f"{bare} unreached statement(s) without '{MARK} <reason>'")
    return int(bool(bare or failed))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
