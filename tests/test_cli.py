import contextlib
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import sgcalc
from sgcalc import calculus, cli, complexfn, linalg, semigroups, spectral
from sgcalc.calculus import func_calc
from sgcalc.cli import main
from sgcalc.measures import conj_reflect, laplace


def _child_env():
    """The environment with sgcalc's source directory first on PYTHONPATH,
    keeping whatever PYTHONPATH already held."""
    path = [str(Path(sgcalc.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}


def _write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _sweep_config(tmp_path, name="config.json", **overrides):
    payload = {
        "command": "sweep",
        "measure": "delta-difference",
        "backend": {"kind": "nilpotent_shift", "n": 64},
        "u_grid": {"kind": "grid-aligned", "count": 31},
    }
    payload.update(overrides)
    return _write_config(tmp_path / name, payload)


def test_import_loads_neither_scipy_integrate_nor_signal():
    # each costs start-up time (scipy.fft about 0.07 s, scipy.special about
    # 0.1 s, the others a quarter second or more), and no shipped run needs it
    code = ("import sys, sgcalc.cli; print([m for m in "
            "('scipy.fft', 'scipy.integrate', 'scipy.signal', 'scipy.special') "
            "if m in sys.modules])")
    env = _child_env()
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout.strip() == "[]"


class TestConfigErrors:
    def test_unknown_command_exits_2(self, tmp_path):
        cfg = _write_config(tmp_path / "c.json", {"command": "frobnicate"})
        assert main(["run", "--config", cfg, "--output", str(tmp_path / "o")]) == 2

    def test_unknown_measure_exits_2(self, tmp_path):
        cfg = _sweep_config(tmp_path, measure="no-such-measure")
        assert main(["run", "--config", cfg, "--output", str(tmp_path / "o")]) == 2

    def test_decreasing_u_grid_exits_2(self, tmp_path):
        cfg = _sweep_config(tmp_path, u_grid={"values": [0.5, 0.25]})
        assert main(["run", "--config", cfg, "--output", str(tmp_path / "o")]) == 2

    def test_command_config_mismatch_exits_2(self, tmp_path):
        cfg = _sweep_config(tmp_path)
        assert main(["curve", "--config", cfg, "--output", str(tmp_path / "o")]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["sweep"]) == 2
        assert main(["run"]) == 2

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        (tmp_path / "broken.json").write_text("{")
        for name in ("absent.json", "broken.json"):
            assert main(["run", "--config", str(tmp_path / name)]) == 2
            assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [
        {"command": "lemma24", "measure": "delta-difference",
         "backend": {"kind": "nilpotent_shift", "n": 16}, "lambda_grid": ["abc"]},
        {"command": "renormalization", "backend": {"kind": "riemann_liouville", "n": 16},
         "t_grid": ["x"]},
        {"command": "idempotents", "measure": "delta-difference",
         "backend": {"kind": "diagonal-range", "start": 1, "stop": 200}, "u": "0.001"},
        {"command": "sweep", "measure": "delta-difference",
         "backend": {"kind": "nilpotent_shift", "n": 64},
         "u_grid": {"kind": "grid-aligned", "count": "many"}},
        {"command": "sweep", "measure": "delta-difference",
         "backend": {"kind": "nilpotent_shift", "n": 64}, "u_grid": [0.25, 0.5]},
        {"command": "sweep", "measure": "delta-difference",
         "backend": {"kind": "nilpotent_shift", "n": 64},
         "u_grid": {"values": [0.25, 0.5]}, "seed": 10**400},
        {"command": "sweep", "measure": "delta-difference", "backend": [64],
         "u_grid": {"values": [0.25, 0.5]}},
        {"command": "sweep", "measure": "delta-difference",
         "backend": {"kind": "nilpotent_shift", "n": 64.7},
         "u_grid": {"values": [0.25, 0.5]}},
        {"command": "sweep", "measure": "delta-difference",
         "backend": {"kind": "nilpotent_shift", "n": "64"},
         "u_grid": {"values": [0.25, 0.5]}},
        {"command": "sweep",
         "measure": {"atoms": [{"t": "1.0", "re": 1.0}, {"t": 2.0, "re": -1.0}]},
         "backend": {"kind": "nilpotent_shift", "n": 64},
         "u_grid": {"values": [0.25, 0.5]}},
        {"command": "resolvent-check",
         "backend": {"kind": "matrix", "matrix": [["-1.0", 0.0], [0.0, -2.0]]}},
        {"command": "sweep", "measure": "delta-difference",
         "backend": {"kind": "nilpotent_shift", "n": 64},
         "u_grid": {"start": 0.25, "stop": 0.5, "count": 2}},
        {"command": "sweep", "measure": "delta-difference",
         "backend": {"kind": "nilpotent_shift", "n": 64},
         "u_grid": {"values": [0.25, 0.5]}, "seed": -1},
        {"command": "sweep", "measure": "delta-difference", "backend": {"kind": "shift"},
         "u_grid": {"values": [0.25, 0.5]}},
        {"command": "sweep", "measure": "delta-difference",
         "backend": {"kind": "diagonal", "lambdas": [1.0, 2.0]},
         "u_grid": {"kind": "grid-aligned", "count": 4}},
    ], ids=["lambda_grid", "t_grid", "u", "u_grid-count", "u_grid-list", "seed-overflow",
            "backend-list", "n-fraction", "n-text", "atom-t-text", "matrix-text",
            "u_grid-start-stop", "seed-negative", "backend-kind", "u_grid-aligned-diagonal"])
    def test_malformed_value_exits_2(self, tmp_path, capsys, payload):
        cfg = _write_config(tmp_path / "c.json", payload)
        assert main(["run", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [
        {"command": "sweep", "measure": None, "backend": {"kind": "nilpotent_shift", "n": 64},
         "u_grid": {"values": [0.25, 0.5]}},
        {"command": "symmetrized-sweep", "backend": {"kind": "nilpotent_shift", "n": 64},
         "u_grid": {"values": [0.25, 0.5]}},
        {"command": "curve"},
        {"command": "lemma24", "backend": {"kind": "nilpotent_shift", "n": 16}},
        {"command": "idempotents",
         "backend": {"kind": "diagonal-range", "start": 1, "stop": 200}},
        {"command": "sharpness", "n_list": [100]},
        {"command": "lemma27", "backend": {"kind": "diagonal-range", "start": 1, "stop": 20}},
    ], ids=["sweep", "symmetrized-sweep", "curve", "lemma24", "idempotents", "sharpness",
            "lemma27"])
    def test_missing_required_field_exits_2(self, tmp_path, capsys, payload):
        cfg = _write_config(tmp_path / "c.json", payload)
        assert main(["run", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [
        ("sweep", "min_margn"), ("symmetrized-sweep", "identity_residual"),
        ("curve", "min_margin"), ("lemma24", "m"), ("lemma27", "resolvent_identity"),
        ("resolvent-check", "identity_residual"), ("renormalization", "m"),
    ])
    def test_unknown_tolerance_key_exits_2(self, tmp_path, capsys, command, key):
        # a key the command does not read would otherwise leave its gate at
        # the default without a word
        cfg = _write_config(tmp_path / "c.json", {"command": command, "tolerances": {key: 1}})
        assert main(["run", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        assert f"reads no tolerances ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize("key, payload", [
        # "tolerance" would leave the sweep gated on eta > 0, which it passes
        ("tolerance", {"command": "sweep", "measure": "delta-difference",
                       "backend": {"kind": "nilpotent_shift", "n": 64},
                       "u_grid": {"kind": "grid-aligned", "count": 31},
                       "tolerance": {"min_margin": 100.0}}),
        # "lamda_grid" would leave lemma24 on its default grid
        ("lamda_grid", {"command": "lemma24", "measure": "delta-difference",
                        "backend": {"kind": "nilpotent_shift", "n": 16},
                        "lamda_grid": [[1.0, 0.0]]}),
    ], ids=["tolerance", "lamda_grid"])
    def test_unknown_top_level_key_exits_2(self, tmp_path, capsys, key, payload):
        cfg = _write_config(tmp_path / "c.json", payload)
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 2
        assert f"unknown config keys ['{key}']" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_key_is_named(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "c.json", {
            "command": "renormalization", "backend": {"kind": "riemann_liouville"},
            "t_grid": [0.5]})
        assert main(["run", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        assert "bad backend in" in (err := capsys.readouterr().err)
        assert "missing 'n'" in err


class TestSweepCommand:
    def test_passing_sweep_writes_artifacts(self, tmp_path):
        cfg = _sweep_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        csv = (out / "sweep.csv").read_text().splitlines()
        assert csv[0] == "u,norm_F,rho_F,ray_max,margin"
        assert len(csv) == 32
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        assert summary["min_margin"] > 0
        assert summary["command"] == "sweep"

    def test_negative_tail_margin_still_passes_with_positive_prefix(self, tmp_path):
        # the sweep certifies a positive prefix (eta); a negative margin at
        # large u is the expected behavior, not a failure
        cfg = _sweep_config(tmp_path, u_grid={"values": [0.25, 1.0]})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["eta"] == 0.25
        assert summary["min_margin"] < 0

    def test_failing_sweep_exits_1(self, tmp_path):
        # no positive prefix at all: every scale is past the horizon
        cfg = _sweep_config(tmp_path, u_grid={"values": [1.0, 2.0]})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is False

    def test_check_error_reported_in_summary(self, tmp_path):
        # dirac measure has nonzero mass: the run fails with a recorded error
        cfg = _sweep_config(
            tmp_path, measure={"atoms": [{"t": 1.0, "re": 1.0, "im": 0.0}]}
        )
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error"] == "MassNotZeroError"


    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_scaled_measure_scales_norm_F(self, tmp_path, scale):
        # both sides of the lower estimate are homogeneous in mu, so the
        # verdict must not depend on its scale; the norm of each scaled
        # section is taken on it rescaled by an exact power of two
        norms = []
        for s in (1.0, scale):
            cfg = _sweep_config(tmp_path, u_grid={"values": [1 / 16]}, measure={
                "atoms": [{"t": 1.0, "re": s}, {"t": 2.0, "re": -s}]})
            out = tmp_path / f"out-{s}"
            assert main(["run", "--config", cfg, "--output", str(out)]) == 0
            assert json.loads((out / "summary.json").read_text())["passed"] is True
            norms.append(float((out / "sweep.csv").read_text().splitlines()[1].split(",")[1]))
        assert norms[1] == pytest.approx(scale * norms[0], rel=1e-14, abs=0)


class TestConfigDeterminedRefusals:
    """A check that the config alone rules out exits 2 (or, where it is a
    failed check, 1 with the error in summary.json), never with a traceback."""

    SHIFT = {"kind": "nilpotent_shift", "n": 16}
    RANGE = {"kind": "diagonal-range", "start": 1, "stop": 200}
    TWISTED = "twisted-delta-difference"
    DD = {"atoms": [{"t": 1.0, "re": 1.0}, {"t": 2.0, "re": -1.0}]}

    @pytest.mark.parametrize("payload, code, error", [
        ({"command": "sweep", "measure": "delta-difference",
          "backend": {"kind": "matrix", "matrix": [[-1.0, 0.5], [0.2, -2.0]]},
          "u_grid": {"values": [0.5]}}, 1, "NotQuasinilpotentError"),
        ({"command": "sweep", "measure": TWISTED, "backend": SHIFT,
          "u_grid": {"values": [0.5]}}, 2, None),
        ({"command": "lemma24", "measure": "delta-difference",
          "backend": {"kind": "riemann_liouville", "n": 16}}, 2, None),
        ({"command": "lemma24", "measure": "delta-difference", "backend": SHIFT,
          "lambda_grid": [[-1, 0]]}, 2, None),
        ({"command": "sharpness", "measure": TWISTED, "n_list": [100]}, 2, None),
        ({"command": "lemma24", "measure": "delta-difference", "backend": SHIFT,
          "lambda_grid": [[1000, 0]]}, 2, None),
        ({"command": "lemma24", "measure": {"atoms": [{"t": 0.5, "re": 1e300},
                                                      {"t": 0.25, "re": -1e300}]},
          "backend": SHIFT, "lambda_grid": [[100, 0]]}, 2, None),
        ({"command": "sweep", "measure": "delta-difference",
          "backend": {"kind": "nilpotent_shift", "n": 512},
          "u_grid": {"values": [0.001]}}, 2, None),
        ({"command": "idempotents", "measure": "delta-difference",
          "backend": RANGE, "m_list": [50, 500]}, 2, None),
        ({"command": "idempotents", "measure": "delta-difference",
          "backend": RANGE, "m": 999}, 2, None),
        # the certificate would hold vacuously on the empty slice Lambda_2
        ({"command": "idempotents", "measure": "delta-difference",
          "backend": {"kind": "diagonal-range", "start": 5, "stop": 200},
          "m": 2, "m_list": [2, 200]}, 2, None),
        ({"command": "sharpness", "measure": "delta-difference", "n_list": [5]}, 2, None),
        ({"command": "resolvent-check", "backend": {"kind": "riemann_liouville", "n": 16}},
         1, "NoGeneratorError"),
        ({"command": "lemma27", "distribution": {"order": 1, "components": [DD, DD]},
          "backend": {"kind": "riemann_liouville", "n": 16}}, 1, "NoGeneratorError"),
        # the samples sit at kh: [0.1, 0.5] would be measured on [0.1, 0.2]
        ({"command": "renormalization", "backend": {"kind": "riemann_liouville", "n": 16},
          "t_grid": [0.1, 0.5]}, 2, None),
    ], ids=["sweep-matrix", "sweep-twisted", "lemma24-riemann-liouville",
            "lemma24-left-half-plane", "sharpness-twisted", "lemma24-overflow",
            "lemma24-left-side-overflow", "sweep-offgrid-atom", "idempotents-m_list-no-slice",
            "idempotents-m-no-slice", "idempotents-m-empty-slice", "sharpness-coarse-grid",
            "resolvent-check-riemann-liouville", "lemma27-riemann-liouville",
            "renormalization-off-grid"])
    def test_exit_code_without_traceback(self, tmp_path, payload, code, error):
        cfg = _write_config(tmp_path / "c.json", payload)
        out = tmp_path / "out"
        env = _child_env()
        proc = subprocess.run(
            [sys.executable, "-m", "sgcalc.cli", "run", "--config", cfg, "--output", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        if error is None:
            assert "config error" in proc.stderr
            assert not (out / "summary.json").exists()
        else:
            # a check that cannot compute writes its summary and nothing else
            assert [p.name for p in out.iterdir()] == ["summary.json"]
            summary = json.loads((out / "summary.json").read_text())
            assert summary["passed"] is False and summary["error"] == error


    @pytest.mark.parametrize("payload", [
        {"command": "lemma27", "distribution": {"order": 1, "components": [DD, DD]}},
        {"command": "resolvent-check"},
    ], ids=["lemma27", "resolvent-check"])
    def test_dense_cap_exits_2(self, tmp_path, monkeypatch, capsys, payload):
        # the cap is lowered to 8 here, so no matrix near the real cap is built
        monkeypatch.setattr(semigroups.DiagonalSemigroup, "_DENSE_CAP", 8)
        cfg = _write_config(tmp_path / "c.json", {
            **payload, "backend": {"kind": "diagonal-range", "start": 5, "stop": 14}})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 2
        assert "refusing dense 10x10" in capsys.readouterr().err
        assert not (out / "summary.json").exists()


def test_json_refuses_what_no_payload_holds(tmp_path):
    # payloads hold Python floats, ints, bools, strings and complex values only
    with pytest.raises(TypeError):
        cli._write_json(tmp_path / "x.json", {"value": np.float32(1.0)})


class TestSerialBlas:
    """cli.run holds every loaded OpenBLAS pool at one thread and gives each
    its previous count back: after a return, a raise and a nested verify-all."""

    BEFORE = 3  # neither 1 nor a usual default, so a restore cannot pass by chance

    @staticmethod
    def _counts(pools):
        return [get() for get, _ in pools]

    @pytest.fixture
    def pools(self):
        pools = linalg._openblas_pools()
        if not pools:
            pytest.skip("numpy and scipy load no OpenBLAS here")
        counts = self._counts(pools)
        for _, set_ in pools:
            set_(self.BEFORE)
        yield pools
        for (_, set_), count in zip(pools, counts):
            set_(count)

    @pytest.fixture
    def inside(self, monkeypatch, pools):
        """The pool counts seen on entry to each command, nested ones included."""
        seen = []

        def recording(fn):
            def wrapped(cfg):
                seen.append(self._counts(pools))
                return fn(cfg)
            return wrapped

        for name, (fn, *fields) in list(cli._DISPATCH.items()):
            monkeypatch.setitem(cli._DISPATCH, name, (recording(fn), *fields))
        return seen

    def test_one_thread_inside_and_restored_after_a_return(self, tmp_path, pools, inside):
        cfg = _sweep_config(tmp_path, backend={"kind": "nilpotent_shift", "n": 16},
                            u_grid={"values": [0.25, 0.5]})
        assert main(["run", "--config", cfg, "--output", str(tmp_path / "out")]) == 0
        assert inside == [[1] * len(pools)]
        assert self._counts(pools) == [self.BEFORE] * len(pools)

    @pytest.mark.parametrize("payload, code", [
        ({"command": "lemma24", "measure": "delta-difference",
          "backend": {"kind": "nilpotent_shift", "n": 16}, "lambda_grid": [[1000, 0]]},
         cli.EXIT_CONFIG),
        ({"command": "sweep", "measure": {"atoms": [{"t": 1.0, "re": 1.0}]},
          "backend": {"kind": "nilpotent_shift", "n": 16}, "u_grid": {"values": [0.5]}},
         cli.EXIT_CHECK_FAILED),
    ], ids=["config-error", "recorded-error"])
    def test_restored_after_a_check_that_raises(self, tmp_path, pools, inside, payload, code):
        cfg = _write_config(tmp_path / "c.json", payload)
        assert main(["run", "--config", cfg, "--output", str(tmp_path / "out")]) == code
        assert inside == [[1] * len(pools)]
        assert self._counts(pools) == [self.BEFORE] * len(pools)

    def test_restored_after_a_nested_verify_all(self, tmp_path, monkeypatch, pools, inside):
        registry = tmp_path / "configs"
        registry.mkdir()
        _sweep_config(registry, "a-good.json", backend={"kind": "nilpotent_shift", "n": 16},
                      u_grid={"values": [0.25, 0.5]})
        _sweep_config(registry, "b-bad.json",
                      measure={"atoms": [{"t": 1.0, "re": 1.0, "im": 0.0}]})
        _sweep_config(registry, "c-good.json", backend={"kind": "nilpotent_shift", "n": 16},
                      u_grid={"values": [0.25]})
        monkeypatch.setattr(cli, "CONFIG_DIR", registry)
        assert main(["verify-all", "--output", str(tmp_path / "out")]) == 1
        # verify-all itself, then each check: the nested exits keep the cap
        assert inside == [[1] * len(pools)] * 4
        assert self._counts(pools) == [self.BEFORE] * len(pools)

    @pytest.mark.parametrize("name", ["sweep-step", "renormalization"])
    def test_artifacts_do_not_depend_on_the_cap(self, tmp_path, monkeypatch, name):
        def artifacts(out):
            assert main(["run", "--config", str(cli.CONFIG_DIR / f"{name}.json"),
                         "--output", str(out)]) == 0
            return sorted((p.name, p.read_bytes()) for p in out.iterdir())

        capped = artifacts(tmp_path / "capped")
        monkeypatch.setattr(linalg, "serial_blas", contextlib.nullcontext)
        assert artifacts(tmp_path / "uncapped") == capped


class TestSymmetrizedSweepCommand:
    def test_non_triangular_matrix_backend_rho_is_the_eigvals_radius(self, tmp_path):
        # the one config route to a non-triangular spectral radius: the
        # product F(-uA) Ftilde(-uA) of a dense generator
        rng = np.random.default_rng(1)
        A = -2.0 * np.eye(6) + 0.5 * rng.normal(size=(6, 6))
        u_grid = [0.1, 0.5, 1.0]
        cfg = _write_config(tmp_path / "c.json", {
            "command": "symmetrized-sweep", "measure": "delta-difference",
            "backend": {"kind": "matrix", "matrix": A.tolist()},
            "u_grid": {"values": u_grid}})
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--output", str(out)])
        assert "error" not in json.loads((out / "summary.json").read_text())
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == len(u_grid)

        backend = semigroups.matrix_semigroup(A)
        mu = cli.NAMED_MEASURES["delta-difference"]()
        for u, row in zip(u_grid, rows):
            P = (func_calc(backend, mu, u).to_dense()
                 @ func_calc(backend, conj_reflect(mu), u).to_dense())
            ref = float(np.max(np.abs(np.linalg.eigvals(P))))
            assert float(row.split(",")[2]) == pytest.approx(ref, rel=1e-12)


    def test_diagonal_backend_rho_is_the_norm(self, tmp_path):
        # a diagonal F(-uA) Ftilde(-uA) has norm = spectral radius =
        # max |F(u lambda)|^2 for the real delta-difference
        lambdas = [1.0, 2.0 + 1.0j, 3.5]
        u_grid = [0.5, 1.0, 2.0]
        cfg = _write_config(tmp_path / "c.json", {
            "command": "symmetrized-sweep", "measure": "delta-difference",
            "backend": {"kind": "diagonal", "lambdas": [1.0, [2.0, 1.0], 3.5]},
            "u_grid": {"values": u_grid}})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        mu = cli.NAMED_MEASURES["delta-difference"]()
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        for u, row in zip(u_grid, rows, strict=True):
            _, norm_F, rho_F, *_ = map(float, row.split(","))
            assert rho_F == norm_F
            ref = np.max(np.abs(laplace(mu, u * np.array(lambdas))) ** 2)
            assert norm_F == pytest.approx(ref, rel=1e-14)


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write_config(
            tmp_path / "c.json",
            {
                "command": "resolvent-check",
                "backend": {"kind": "nilpotent_shift", "n": 64},
                "seed": 42,
                # identity residual is O(n^-2) on the cell model
                "tolerances": {"resolvent_identity": 1e-2},
            },
        )
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["run", "--config", cfg, "--output", str(out)]) == 0
            outs.append(
                sorted((p.name, p.read_bytes()) for p in out.iterdir())
            )
        assert outs[0] == outs[1]


class TestResolventCheck:
    def test_shift_builds_no_dense_matrix(self, tmp_path):
        # one dense complex 2048 x 2048 matrix takes 64 MB; the check's ten
        # resolvents and five products stay first columns
        cfg = _write_config(tmp_path / "c.json", {
            "command": "resolvent-check", "backend": {"kind": "nilpotent_shift", "n": 2048}})
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main(["run", "--config", cfg, "--output", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert code == 0
        # O(n^-2): about a sixteenth of the 1.5e-5 of the shipped n = 512 check
        assert json.loads((out / "summary.json").read_text())["worst_residual"] < 2e-6

    def test_resolvents_of_another_generator_fail_the_inverse_gate(self, tmp_path, monkeypatch):
        # the resolvents of 1.1 A satisfy the resolvent identity exactly, so
        # only ||(A + lam I) R(lam) - I|| can see that they are not A's
        rng = np.random.default_rng(32)
        A = -5.0 * np.eye(16) + 0.5 * rng.normal(size=(16, 16)) / 4.0
        cfg = _write_config(tmp_path / "c.json", {
            "command": "resolvent-check", "backend": {"kind": "matrix", "matrix": A.tolist()}})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        gates = {g["name"]: g for g in json.loads((out / "gates.json").read_text())}
        assert gates["worst_inverse_residual"]["value"] < 1e-12
        real = calculus.resolvent
        monkeypatch.setattr(calculus, "resolvent", lambda backend, lams: real(
            semigroups.matrix_semigroup(1.1 * backend.generator), lams))
        assert main(["run", "--config", cfg, "--output", str(out)]) == 1
        gates = {g["name"]: g for g in json.loads((out / "gates.json").read_text())}
        assert gates["worst_residual"]["passed"]
        assert gates["worst_inverse_residual"]["value"] > 0.05
        assert not gates["worst_inverse_residual"]["passed"]


class TestCurveCommand:
    def test_artifacts(self, tmp_path):
        cfg = _write_config(
            tmp_path / "c.json",
            {"command": "curve", "measure": "delta-difference"},
        )
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        verts = (out / "curve_vertices.csv").read_text().splitlines()
        assert verts[0] == "re,im"
        assert len(verts) > 10
        summary = json.loads((out / "curve.json").read_text())
        assert summary["m"] == 2
        assert summary["delta"] > 0

    def test_order_two_at_a_maximizer_off_the_grid(self, tmp_path):
        # F = y (1 - y)(2 - y), y = e^{-x/2}: its maximizer is no grid point
        # of ray_max, so m = 2 needs alpha polished well past sqrt(eps)
        atoms = [{"t": t, "re": w} for t, w in ((0.5, 2.0), (1.0, -3.0), (1.5, 1.0))]
        cfg = _write_config(tmp_path / "c.json", {
            "command": "curve", "measure": {"atoms": atoms}, "tolerances": {"m": 2}})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["m"] == 2

    def test_order_two_at_small_weights(self, tmp_path):
        # the level-curve construction is invariant under scaling mu, so
        # 1e-9 (delta_1 - delta_2) has m = 2 as the unit-weight measure does
        atoms = [{"t": 1.0, "re": 1e-9}, {"t": 2.0, "re": -1e-9}]
        cfg = _write_config(tmp_path / "c.json", {
            "command": "curve", "measure": {"atoms": atoms}, "tolerances": {"m": 2}})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["m"] == 2


class TestIdempotentsCommand:
    def test_certified_curve_is_built_once_and_written(self, tmp_path, monkeypatch):
        cfg = _write_config(
            tmp_path / "c.json",
            {"command": "idempotents", "measure": "delta-difference",
             "backend": {"kind": "diagonal-range", "start": 1, "stop": 50},
             "u": 1e-3, "m": 50, "m_list": [25, 50]},
        )
        calls = {"ray_max": 0, "babylem_radius": 0, "jordan_curve": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # spectral imports ray_max and babylem_radius by name, so both
        # bindings are counted
        for name in calls:
            for module in (complexfn, spectral):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        assert calls == {"ray_max": 1, "babylem_radius": 1, "jordan_curve": 1}
        monkeypatch.undo()

        charset = spectral.character_set(semigroups.diagonal_semigroup(range(1, 51)))
        mu = cli.NAMED_MEASURES["delta-difference"]()
        _, vertices = spectral.separation_certificate(
            charset, mu, 1e-3, 50, complexfn.ray_max(mu), complexfn.babylem_radius(mu))
        rows = (out / "certificate_curve.csv").read_text().splitlines()
        assert rows[0] == "re,im"
        assert [complex(*map(float, r.split(","))) for r in rows[1:]] == list(vertices)


    def test_multiplication_c0_backend(self, tmp_path):
        # lambda_j = -log(j/20): slices m = 0..3, the last one holding all 20
        cfg = _write_config(tmp_path / "c.json", {
            "command": "idempotents", "measure": "delta-difference",
            "backend": {"kind": "multiplication_c0", "n": 20}, "u": 1e-3})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        payload = json.loads((out / "idempotents.json").read_text())
        assert payload["chain"] == {"m_list": [0, 1, 2, 3], "exhaustive": True}

    def test_characters_past_exp_underflow_pass(self, tmp_path):
        # e^-lambda underflows from lambda ~ 745 on; the characters 1..800
        # are read as given, so the check passes with no RuntimeWarning
        cfg = _write_config(tmp_path / "c.json", {
            "command": "idempotents", "measure": "delta-difference",
            "backend": {"kind": "diagonal-range", "start": 1, "stop": 800},
            "u": 1e-4, "m": 150, "m_list": [50, 100, 150, 800]})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        payload = json.loads((out / "idempotents.json").read_text())
        assert payload["chain"] == {"m_list": [50, 100, 150, 800], "exhaustive": True}
        assert payload["generator_bounds"][-1]["generator_bound"] == 800.0

    @pytest.mark.parametrize("far, m", [(1e6, 999999), (1e9, 999999999)])
    def test_a_far_character_costs_no_slice_per_integer(self, tmp_path, far, m):
        # the slices m = 0..far are read off the two characters, not tabulated:
        # only m moves with far, the certificate is that of the slice {1}
        cfg = _write_config(tmp_path / "c.json", {
            "command": "idempotents", "measure": "delta-difference",
            "backend": {"kind": "diagonal", "lambdas": [1, far]}, "u": 1e-3})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["m"], summary["rho"], summary["min_distance"]) == (
            m, 0.000998501166041943, 269.5121031193049)
        payload = json.loads((out / "idempotents.json").read_text())
        assert payload["chain"] == {"m_list": [m - 2, m - 1, m, m + 1], "exhaustive": True}

    def test_no_slice_in_the_window_exits_2(self, tmp_path, capsys):
        # at u = 10 even the smallest slice has u R_m far beyond the disk radius r
        cfg = _write_config(tmp_path / "c.json", {
            "command": "idempotents", "measure": "delta-difference",
            "backend": {"kind": "diagonal-range", "start": 1, "stop": 5}, "u": 10.0})
        assert main(["run", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        assert "no slice fits the separation window" in capsys.readouterr().err


class TestSharpnessCommand:
    def test_ray_max_is_computed_once_for_every_n(self, tmp_path, monkeypatch):
        cfg = _write_config(
            tmp_path / "c.json",
            {"command": "sharpness", "measure": "delta-difference",
             "n_list": [100, 1000, 10000], "u_grid": {"values": [0.5, 1.0]}},
        )
        calls = []

        def counted(mu):
            calls.append(mu)
            return ray
        ray = complexfn.ray_max(cli.NAMED_MEASURES["delta-difference"]())
        for module in (complexfn, spectral):
            monkeypatch.setattr(module, "ray_max", counted)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        assert len(calls) == 1
        rows = (out / "sharpness.csv").read_text().splitlines()
        assert len(rows) == 1 + 3 * 2
        assert json.loads((out / "sharpness.json").read_text())["ray_value"] == ray.value


def _up(x):
    """The next float above x."""
    return float(np.nextafter(x, math.inf))


def _wrap(monkeypatch, module, name, change):
    """Patch module.name so that its result passes through change."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kw: change(real(*args, **kw)))


def _first_row_margin(command, value):
    def patch(monkeypatch):
        _wrap(monkeypatch, calculus, command,
              lambda rows: [dataclasses.replace(rows[0], margin=value), *rows[1:]])
    return patch


def _replace(module, name, **fields):
    return lambda monkeypatch: _wrap(monkeypatch, module, name,
                                     lambda r: dataclasses.replace(r, **fields))


def _step_budgets_just_past_the_margins(monkeypatch):
    # margin = norm - ray - budget lands one ulp below 0 at every u
    ray = complexfn.ray_max(cli.NAMED_MEASURES["step"]()).value
    _wrap(monkeypatch, calculus, "func_calc", lambda op: dataclasses.replace(
        op, quadrature_budget=_up(op.norm() - ray)))


def _path_gap_just_past_tolerance(monkeypatch):
    monkeypatch.setattr(calculus, "_difference_bound",
                        lambda prod, conv: _up(cli._PATH_TOL * prod.norm()))


def _lemma24_lhs_just_past_the_bound(monkeypatch):
    # the bound is int t d|mu| = 3 for delta-difference
    monkeypatch.setattr(calculus, "toeplitz_opnorm", lambda col: _up(3.0))


def _lemma27_budget_just_past_the_smallest_margin(monkeypatch):
    cfg = cli.load_config(str(cli.CONFIG_DIR / "lemma27.json"))
    rows = calculus.lemma_27_check(cfg.backend, cfg.distribution,
                                   cli._default_lambda_grid(avoid_integers=True)).rows
    budget = _up(min(row[3] for row in rows))
    _wrap(monkeypatch, calculus, "ep_calc",
          lambda op: dataclasses.replace(op, quadrature_budget=budget))


def _separation_laplace(pick, value):
    """Patch the |F| values of the separation check's laplace calls that pick
    selects to value(ray), ray the delta-difference ray maximum."""
    def patch(monkeypatch):
        ray = complexfn.ray_max(cli.NAMED_MEASURES["delta-difference"]()).value
        real = spectral.laplace

        def laplace(mu, z):
            return np.full(np.shape(z), value(ray)) if pick(np.asarray(z)) else real(mu, z)
        monkeypatch.setattr(spectral, "laplace", laplace)
    return patch


class _Doctored:
    """A character set whose method name answers change(its true answer);
    everything else, the radius among it, is the true character set's."""

    def __init__(self, charset, name, change):
        self._charset, self._name, self._change = charset, name, change

    def __getattr__(self, attr):
        real = getattr(self._charset, attr)
        return (lambda m: self._change(real(m))) if attr == self._name else real


def _doctor_character_set(name, change):
    return lambda monkeypatch: _wrap(monkeypatch, spectral, "character_set",
                                     lambda charset: _Doctored(charset, name, change))


# the first point of each slice moved to 1e6, past the true slice radius: |F|
# there is ~e^-1000, far below the ray maximum, but the winding is 0
_slice_point_outside_the_curve = _doctor_character_set(
    "slice_values", lambda values: np.concatenate([[1e6 + 0j], values[1:]]))
# each slice's index list loses its last entry, so the top slice misses a
# coordinate; the values and radii the certificate reads are the true ones
_chain_missing_a_point = _doctor_character_set("slice", lambda idx: idx[:-1])


def _gap_growing_by_an_ulp(monkeypatch):
    real, gaps = spectral.sharpness_demo, []

    def demo(n, mu, u_list, ray):
        rep = real(n, mu, u_list, ray)
        if gaps:
            rep = dataclasses.replace(rep, rows=tuple(
                dataclasses.replace(row, gap=_up(gaps[-1])) for row in rep.rows))
        gaps.append(rep.max_gap)
        return rep
    monkeypatch.setattr(spectral, "sharpness_demo", demo)


def _commutant_estimates_just_past_the_norms(monkeypatch):
    _wrap(monkeypatch, semigroups, "feller_renorm", lambda rep: dataclasses.replace(
        rep, commutant_bound_checks=tuple(
            (tag, _up(full), full) for tag, _, full in rep.commutant_bound_checks)))


# "<shipped config stem>/<gate>" -> the patches that move the value of that
# gate, as the library computes it, just past the gate's threshold.  Each
# patch fails exactly its gate, so a run that fails for another reason does not
# pass the case.  A passing verify-all writes exactly these gates.
_GATE_CASES = {
    "sweep-flagship/min_margin": (_first_row_margin("sweep", 0.1),),
    "sweep-four-atom/min_margin": (_first_row_margin("sweep", 0.0),),
    "sweep-step/min_margin": (_first_row_margin("sweep", 0.0),
                              _step_budgets_just_past_the_margins),
    "symmetrized-sweep/min_margin": (_first_row_margin("symmetrized_sweep", 0.0),),
    "symmetrized-sweep/path_gap": (_path_gap_just_past_tolerance,),
    "curve/delta": (_replace(complexfn, "jordan_curve", delta=0.0),),
    "curve/cond2_margin": (_replace(complexfn, "jordan_curve", cond2_margin=0.0),),
    "curve/m": (_replace(complexfn, "jordan_curve", m=3),),
    "lemma24/min_margin": (_lemma24_lhs_just_past_the_bound,),
    "lemma24/identity_residual": (_replace(calculus, "lemma_24_check",
                                           identity_residual=_up(1e-7)),),
    "lemma27/min_margin": (_lemma27_budget_just_past_the_smallest_margin,),
    "lemma27/identity_residual": (_replace(calculus, "lemma_27_check",
                                           identity_residual=_up(1e-7)),),
    "resolvent-check/worst_residual": (lambda monkeypatch: monkeypatch.setattr(
        calculus, "resolvent_residuals",
        lambda backend, pairs: ([_up(1e-4)] * len(pairs), [])),),
    # criterion_check evaluates F at all 200 characters, the certificate at
    # the 150 of the slice and on a 2-D grid of curve samples
    "separation/rho": (_separation_laplace(
        lambda z: z.shape == (200,), lambda ray: ray * (1.0 - cli._DEGENERATE_TOL)),),
    "separation/exhaustive": (_chain_missing_a_point,),
    "separation/curve_min_excess": (_separation_laplace(
        lambda z: z.ndim == 2, lambda ray: ray * (1.0 - 1e-10)),),
    "separation/min_slice_margin": (_separation_laplace(
        lambda z: z.shape == (150,), lambda ray: ray),),
    "separation/winding_defect": (_slice_point_outside_the_curve,),
    "sharpness/gap_rise": (_gap_growing_by_an_ulp,),
    "renormalization/contraction_margin": (_replace(
        semigroups, "feller_renorm", contraction_margin=-5e-324),),
    "renormalization/commutant_excess": (_commutant_estimates_just_past_the_norms,),
}

# the artifact field that each of these gates decides besides passed
_VERDICT_FIELDS = {
    "separation/rho": ("idempotents.json", "criterion", "strict"),
    "separation/curve_min_excess": ("idempotents.json", "certificate", "passed"),
    "separation/min_slice_margin": ("idempotents.json", "certificate", "passed"),
    "separation/winding_defect": ("idempotents.json", "certificate", "passed"),
    "sharpness/gap_rise": ("sharpness.json", "monotone"),
    "renormalization/commutant_excess": ("summary.json", "commutant_ok"),
}


class TestGates:
    def test_min_margin_gate(self, tmp_path):
        out = tmp_path / "free"
        assert main(["run", "--config", _sweep_config(tmp_path), "--output", str(out)]) == 0
        achieved = json.loads((out / "summary.json").read_text())["min_margin"]
        for floor, code in ((achieved - 0.01, 0), (achieved + 0.01, 1)):
            cfg = _sweep_config(tmp_path, tolerances={"min_margin": floor})
            out = tmp_path / f"floor{code}"
            assert main(["run", "--config", cfg, "--output", str(out)]) == code
            summary = json.loads((out / "summary.json").read_text())
            assert summary["passed"] is (code == 0)

    def test_misspelled_gate_exits_2(self, tmp_path):
        # a misspelled floor would leave the sweep gated on eta > 0, which it passes
        cfg = _sweep_config(tmp_path, tolerances={"min_margn": 10})
        assert main(["run", "--config", cfg, "--output", str(tmp_path / "o")]) == 2

    def test_lemma24_identity_residual_gate(self, tmp_path):
        cfg = _write_config(
            tmp_path / "c.json",
            {
                "command": "lemma24",
                "measure": "delta-difference",
                "backend": {"kind": "nilpotent_shift", "n": 64},
                "tolerances": {"identity_residual": 1e-30},
            },
        )
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is False
        assert summary["identity_residual"] > 1e-30
        assert json.loads((out / "lemma24.json").read_text())["passed"] is False

    @pytest.mark.parametrize("gate, patch", [
        pytest.param(gate, patch, id=gate if len(patches) == 1 else f"{gate}-{i}")
        for gate, patches in _GATE_CASES.items() for i, patch in enumerate(patches)])
    def test_a_value_just_past_its_gate_fails(self, tmp_path, monkeypatch, gate, patch):
        # every gate of every shipped check decides on its strict side: the
        # gated value moved just past the threshold, on the unsafe side, fails
        # the check at that gate alone, and the check still writes every
        # artifact, each with passed false
        stem, name = gate.split("/")
        patch(monkeypatch)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cli.CONFIG_DIR / f"{stem}.json"),
                     "--output", str(out)]) == 1
        gates = json.loads((out / "gates.json").read_text())
        assert [g["name"] for g in gates if not g["passed"]] == [name]
        assert "error" not in json.loads((out / "summary.json").read_text())
        written = {p.name: json.loads(p.read_text()) for p in out.glob("*.json")}
        assert all(p["passed"] is False for n, p in written.items() if n != "gates.json")
        if gate in _VERDICT_FIELDS:
            file, *keys = _VERDICT_FIELDS[gate]
            value = written[file]
            for key in keys:
                value = value[key]
            assert value is False


# output fields and gates homogeneous of degree 1 in mu (degree 2 on
# symmetrized-sweep, which is quadratic in mu); every other field, and every
# complex value (a point, never a value of |F|), must not move at all
_HOMOGENEOUS = {"norm_F", "rho_F", "ray_max", "margin", "min_margin", "max_quadrature_budget",
                "lhs", "bound", "identity_residual", "max_lhs", "gap", "ray_value",
                "max_gap_by_n", "max_gap", "path_gap", "gap_rise", "delta", "f_alpha",
                "f_a0_abs", "cond2_margin", "rho", "sup_ray", "curve_min_excess",
                "lam_margins", "min_slice_margin"}


def _scaled_spec(mu, c):
    """The config spec of the measure c mu."""
    return {"atoms": [{"t": t, "re": (c * w).real, "im": (c * w).imag} for t, w in mu.atoms],
            "pieces": [{"a": p.a, "b": p.b, "coeffs": [[(c * x).real, (c * x).imag]
                                                       for x in p.coeffs]}
                       for p in mu.pieces]}


def _scaled_run(tmp_path, stem, k):
    """Run the shipped config stem with every weight times 2^k and every
    absolute tolerance (defaults included; not curve's order m) scaled to
    match; its output tree."""
    cfg = json.loads((cli.CONFIG_DIR / f"{stem}.json").read_text())
    c = 2.0**k
    if "measure" in cfg:
        cfg["measure"] = _scaled_spec(cli.NAMED_MEASURES[cfg["measure"]](), c)
    for mu in cfg.get("distribution", {}).get("components", ()):
        for atom in mu["atoms"]:
            atom["re"] *= c
    tol = cfg.setdefault("tolerances", {})
    if cfg["command"] in ("lemma24", "lemma27"):
        tol.setdefault("identity_residual", 1e-7)
    degree = 2 if cfg["command"] == "symmetrized-sweep" else 1
    cfg["tolerances"] = {key: value if key == "m" else value * c**degree
                         for key, value in tol.items()}
    out = tmp_path / f"{stem}-{k}"
    code = main(["run", "--config", _write_config(tmp_path / f"{stem}-{k}.json", cfg),
                 "--output", str(out)])
    return code, out


def _assert_scaled(base, scaled, factor, homogeneous=False):
    """scaled equals base, times factor where homogeneous, bit for bit."""
    if isinstance(base, dict):
        assert base.keys() == scaled.keys()
        homogeneous = homogeneous and base.keys() != {"re", "im"}
        for key in base:
            _assert_scaled(base[key], scaled[key], factor, homogeneous or key in _HOMOGENEOUS)
    elif isinstance(base, list):
        assert len(base) == len(scaled)
        for b, s in zip(base, scaled):
            _assert_scaled(b, s, factor, homogeneous)
    elif homogeneous and isinstance(base, float):
        assert scaled == base * factor
    else:
        assert scaled == base


def _read_tree(out):
    """{file name: JSON payload, or CSV rows as {column: value}}; gates.json as
    {gate name: gate}."""
    tree = {}
    for path in sorted(out.iterdir()):
        if path.name == "gates.json":
            tree[path.name] = {g["name"]: g for g in json.loads(path.read_text())}
        elif path.suffix == ".json":
            tree[path.name] = json.loads(path.read_text())
        else:
            header, *rows = path.read_text().splitlines()
            tree[path.name] = [dict(zip(header.split(","), map(float, row.split(","))))
                               for row in rows]
    return tree


class TestScaleEquivariance:
    """The paper's estimates are homogeneous in mu, and scaling by 2^k is exact
    in floating point: every output of a check on 2^k mu is its output on mu
    times 2^k bit for bit, and every verdict is the same."""

    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        return {}, tmp_path_factory.mktemp("base")

    @pytest.mark.parametrize("k", [-60, -40, 40, 60])
    @pytest.mark.parametrize("stem", ["sweep-flagship", "sweep-four-atom", "sweep-step",
                                      "symmetrized-sweep", "lemma24", "lemma27", "sharpness",
                                      "curve", "separation"])
    def test_outputs_scale_exactly(self, tmp_path, base, stem, k):
        cache, base_dir = base
        if stem not in cache:
            cache[stem] = _scaled_run(base_dir, stem, 0)
        code, out = _scaled_run(tmp_path, stem, k)
        assert code == cache[stem][0] == 0
        degree = 2 if stem == "symmetrized-sweep" else 1
        _assert_scaled(_read_tree(cache[stem][1]), _read_tree(out), 2.0 ** (k * degree))


class TestVerifyAll:
    def test_failing_check_is_recorded_and_the_rest_run(self, tmp_path, monkeypatch):
        registry = tmp_path / "configs"
        registry.mkdir()
        _sweep_config(registry, "a-good.json")
        # dirac measure has nonzero mass: this check raises
        _sweep_config(registry, "b-bad.json",
                      measure={"atoms": [{"t": 1.0, "re": 1.0, "im": 0.0}]})
        monkeypatch.setattr(cli, "CONFIG_DIR", registry)
        out = tmp_path / "out"
        assert main(["verify-all", "--output", str(out)]) == 1
        payload = json.loads((out / "verify_all.json").read_text())
        assert payload["passed"] is False
        assert payload["failed"] == ["b-bad"]
        assert payload["checks"]["a-good"]["passed"] is True
        assert payload["checks"]["b-bad"]["error"] == "MassNotZeroError"
        assert (out / "a-good" / "sweep.csv").exists()

    def test_verify_all_config_in_the_registry_exits_2(self, tmp_path, monkeypatch, capsys):
        registry = tmp_path / "configs"
        registry.mkdir()
        _write_config(registry / "loop.json", {"command": "verify-all"})
        monkeypatch.setattr(cli, "CONFIG_DIR", registry)
        assert main(["verify-all", "--output", str(tmp_path / "out")]) == 2
        assert "verify-all cannot be a check" in capsys.readouterr().err

    @staticmethod
    def _resolvent_check(tmp_path, name, *args):
        out = tmp_path / name
        assert main([*args, "--output", str(out)]) == 0
        check = out / "resolvent-check" if args[0] == "verify-all" else out
        return (check / "resolvent_check.json").read_bytes()

    def test_seed_replaces_each_checks_own(self, tmp_path, monkeypatch):
        # resolvent-check draws its lambdas from the seed
        shipped = cli.CONFIG_DIR / "resolvent-check.json"
        registry = tmp_path / "configs"
        registry.mkdir()
        (registry / shipped.name).write_bytes(shipped.read_bytes())
        monkeypatch.setattr(cli, "CONFIG_DIR", registry)
        seeded = self._resolvent_check(tmp_path, "a", "verify-all", "--seed", "7")
        assert seeded == self._resolvent_check(
            tmp_path, "b", "run", "--config", str(shipped), "--seed", "7")
        assert seeded != self._resolvent_check(tmp_path, "c", "verify-all")

    def test_without_seed_each_check_keeps_its_own(self, tmp_path, monkeypatch):
        registry = tmp_path / "configs"
        registry.mkdir()
        cfg = json.loads((cli.CONFIG_DIR / "resolvent-check.json").read_text())
        own = _write_config(registry / "resolvent-check.json", {**cfg, "seed": 3})
        monkeypatch.setattr(cli, "CONFIG_DIR", registry)
        kept = self._resolvent_check(tmp_path, "a", "verify-all")
        assert kept == self._resolvent_check(tmp_path, "b", "run", "--config", own)
        assert kept != self._resolvent_check(
            tmp_path, "c", "run", "--config", own, "--seed", "0")

    def test_gates_are_the_gate_cases(self, tmp_path):
        # a gate added to a shipped check without a case in _GATE_CASES fails here
        out = tmp_path / "out"
        assert main(["verify-all", "--output", str(out)]) == 0
        gates = [(path.parent.name, g) for path in sorted(out.glob("*/gates.json"))
                 for g in json.loads(path.read_text())]
        assert all(g["passed"] for _, g in gates)
        assert sorted(f"{stem}/{g['name']}" for stem, g in gates) == sorted(_GATE_CASES)
        top = json.loads((out / "gates.json").read_text())
        assert [(g["name"], g["value"]) for g in top] == [
            (p.stem, True) for p in sorted(cli.CONFIG_DIR.glob("*.json"))]

    def test_two_runs_write_byte_identical_trees(self, tmp_path):
        trees = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["verify-all", "--output", str(out)]) == 0
            trees.append(sorted((str(p.relative_to(out)), p.read_bytes())
                                for p in out.rglob("*") if p.is_file()))
        assert trees[0] and trees[0] == trees[1]

    def test_empty_or_missing_registry_exits_2(self, tmp_path, monkeypatch):
        for registry in (tmp_path, tmp_path / "missing"):
            monkeypatch.setattr(cli, "CONFIG_DIR", registry)
            assert main(["verify-all", "--output", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out" / "verify_all.json").exists()
