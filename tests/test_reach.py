import importlib.util
import subprocess
import types
from pathlib import Path

import pytest

REACH = Path(__file__).resolve().parents[1] / "tools" / "reach.py"


@pytest.fixture
def reach(tmp_path, monkeypatch):
    """tools/reach.py on a package under tmp_path whose two modules nothing
    reaches, both marked, with the traced runs replaced by ones that succeed
    and record what they were given."""
    spec = importlib.util.spec_from_file_location("reach", REACH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    package = tmp_path / "src" / "sgcalc"
    package.mkdir(parents=True)
    for name in ("a.py", "b.py"):
        (package / name).write_text("x = 1  # unreached: nothing imports it\n")
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "PACKAGE", package)
    module.runs = []

    def run(args, **kwargs):
        module.runs.append(args)
        return subprocess.CompletedProcess(args, 0)

    monkeypatch.setattr(module, "subprocess", types.SimpleNamespace(run=run))
    return module


def test_marked_package_passes(reach, capsys):
    assert reach.main([]) == 0
    assert len(reach.runs) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "0 unreached statement(s) without '# unreached: <reason>'"
    assert not any("changed" in line for line in out)


def test_a_file_edited_during_the_runs_is_refused(reach, capsys, monkeypatch):
    run = reach.subprocess.run

    def edit_then_run(args, **kwargs):
        # the edit moves the marked statement to line 3 and unmarks it
        (reach.PACKAGE / "b.py").write_text("\n\nx = 1\n")
        return run(args, **kwargs)

    monkeypatch.setattr(reach.subprocess, "run", edit_then_run)
    assert reach.main([]) == 1
    out = capsys.readouterr().out.splitlines()
    # statements are listed from the text read before the runs
    assert "src/sgcalc/b.py:1: x = 1  # unreached: nothing imports it" in out
    assert "changed during the runs: src/sgcalc/b.py" in out
    assert out[-1] == "0 unreached statement(s) without '# unreached: <reason>'"
