import shutil
import subprocess
import sys
from pathlib import Path

ARTDIFF = Path(__file__).resolve().parents[1] / "tools" / "artdiff.py"


def _tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def _artdiff(a: Path, b: Path):
    proc = subprocess.run([sys.executable, str(ARTDIFF), str(a), str(b)],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout.splitlines()


def test_reports_every_moved_leaf_and_one_sided_file(tmp_path):
    a = _tree(tmp_path / "a", {
        "check/summary.json": '{"passed": true, "rows": [0.5, 2.0], "tag": "x"}',
        "check/sweep.csv": "u,norm_F\n0.25,1.0\n0.5,4.0\n",
        "check/format.json": '{"v": 1}',
        "check/same.json": '{"v": 1}',
        "note.txt": "one",
        "only_a.json": "{}",
    })
    b = _tree(tmp_path / "b", {
        "check/summary.json": '{"passed": false, "rows": [0.5, 2.5, 3.0], "tag": "x"}',
        "check/sweep.csv": "u,norm_F\n0.25,1.0\n0.5,3.0\n",
        "check/format.json": '{"v":1}',
        "check/same.json": '{"v": 1}',
        "note.txt": "two",
        "only_b.csv": "u\n",
    })
    code, lines = _artdiff(a, b)
    assert code == 1
    assert lines == [
        f"only in {a}: only_a.json",
        f"only in {b}: only_b.csv",
        "check/format.json: bytes differ",
        "check/summary.json: passed: True -> False",
        "check/summary.json: rows[1]: 2.0 -> 2.5 (relative change +2.500e-01)",
        "check/summary.json: rows[2]: absent -> 3.0",
        "check/sweep.csv: [1].norm_F: 4.0 -> 3.0 (relative change -2.500e-01)",
        "note.txt: bytes differ",
    ]

    shutil.copytree(a, tmp_path / "a2")
    assert _artdiff(a, tmp_path / "a2") == (0, [])
