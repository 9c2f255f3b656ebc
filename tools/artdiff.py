"""Which leaves of two output trees differ, and by how much?

Walks two directories (say, two ``sgcalc verify-all --output`` trees) and
prints every file present under one of them only, and, for each file under
both, every JSON or CSV leaf that differs: numbers with their relative change
(b - a)/|a|, anything else as it reads.  A file whose leaves agree but whose
bytes differ, or that is neither JSON nor CSV, is reported when its bytes
differ.  The exit status is 1 on any difference and 0 when the trees are
byte-identical, in which case nothing is printed.  Standard library only.

    python tools/artdiff.py A B
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

_MISSING = object()


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _flatten(obj, path: str, out: dict) -> dict:
    if isinstance(obj, dict):
        for key, val in obj.items():
            _flatten(val, f"{path}.{key}" if path else str(key), out)
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            _flatten(val, f"{path}[{i}]", out)
    else:
        out[path] = obj
    return out


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _leaves(name: str, data: bytes) -> dict | None:
    """path -> value of a JSON or CSV file, or None for any other file."""
    text = data.decode("utf-8", errors="replace")
    if name.endswith(".json"):
        try:
            return _flatten(json.loads(text), "", {})
        except ValueError:
            return None
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
        header = rows[0] if rows else []
        return {f"[{r}].{col}": _number(cell)
                for r, row in enumerate(rows[1:]) for col, cell in zip(header, row)}
    return None


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _describe(a, b) -> str:
    if a is _MISSING or b is _MISSING:
        return f"{'absent' if a is _MISSING else repr(a)} -> {'absent' if b is _MISSING else repr(b)}"
    if _is_number(a) and _is_number(b) and a != 0:
        return f"{a!r} -> {b!r} (relative change {(b - a) / abs(a):+.3e})"
    return f"{a!r} -> {b!r}"


def _same(a, b) -> bool:
    return a == b or (a != a and b != b)  # NaN equals NaN here


def compare(a: Path, b: Path) -> list[str]:
    """One line per difference between the trees a and b."""
    files_a, files_b = _files(a), _files(b)
    lines = [f"only in {a}: {name}" for name in sorted(files_a - files_b)]
    lines += [f"only in {b}: {name}" for name in sorted(files_b - files_a)]
    for name in sorted(files_a & files_b):
        data_a, data_b = (a / name).read_bytes(), (b / name).read_bytes()
        if data_a == data_b:
            continue
        leaves_a, leaves_b = _leaves(name, data_a), _leaves(name, data_b)
        moved = []
        if leaves_a is not None and leaves_b is not None:
            for key in [*leaves_a, *(k for k in leaves_b if k not in leaves_a)]:
                va, vb = leaves_a.get(key, _MISSING), leaves_b.get(key, _MISSING)
                if not _same(va, vb):
                    moved.append(f"{name}: {key}: {_describe(va, vb)}")
        lines += moved or [f"{name}: bytes differ"]
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(p).is_dir() for p in args):
        print("usage: python tools/artdiff.py A B  (two directories)", file=sys.stderr)
        return 2
    lines = compare(Path(args[0]), Path(args[1]))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
