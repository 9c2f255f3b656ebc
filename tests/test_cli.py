import contextlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sgcalc
from sgcalc import calculus, cli, complexfn, linalg, semigroups, spectral
from sgcalc.calculus import func_calc
from sgcalc.cli import main
from sgcalc.measures import conj_reflect


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
    env = {**os.environ, "PYTHONPATH": str(Path(sgcalc.__file__).parents[1])}
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
    ], ids=["lambda_grid", "t_grid", "u", "u_grid-count", "u_grid-list", "seed-overflow",
            "backend-list", "n-fraction", "n-text", "atom-t-text", "matrix-text",
            "u_grid-start-stop"])
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
        assert norms[1] == pytest.approx(scale * norms[0], rel=1e-14)


class TestConfigDeterminedRefusals:
    """A check that the config alone rules out exits 2 (or, where it is a
    failed check, 1 with the error in summary.json), never with a traceback."""

    SHIFT = {"kind": "nilpotent_shift", "n": 16}
    RANGE = {"kind": "diagonal-range", "start": 1, "stop": 200}
    TWISTED = "twisted-delta-difference"

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
        ({"command": "sharpness", "measure": "delta-difference", "n_list": [5]}, 2, None),
    ], ids=["sweep-matrix", "sweep-twisted", "lemma24-riemann-liouville",
            "lemma24-left-half-plane", "sharpness-twisted", "lemma24-overflow",
            "lemma24-left-side-overflow", "sweep-offgrid-atom", "idempotents-m_list-no-slice",
            "idempotents-m-no-slice", "sharpness-coarse-grid"])
    def test_exit_code_without_traceback(self, tmp_path, payload, code, error):
        cfg = _write_config(tmp_path / "c.json", payload)
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": str(Path(sgcalc.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "sgcalc.cli", "run", "--config", cfg, "--output", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        if error is None:
            assert "config error" in proc.stderr
            assert not (out / "summary.json").exists()
        else:
            summary = json.loads((out / "summary.json").read_text())
            assert summary["passed"] is False and summary["error"] == error


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
            def wrapped(cfg, out):
                seen.append(self._counts(pools))
                return fn(cfg, out)
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
        curve = complexfn.separation_curve(
            mu, 1e-3, charset.radii[50], complexfn.ray_max(mu), complexfn.babylem_radius(mu))
        rows = (out / "certificate_curve.csv").read_text().splitlines()
        assert rows[0] == "re,im"
        assert [complex(*map(float, r.split(","))) for r in rows[1:]] == list(
            curve.gamma_k0_vertices)


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

    def test_a_growing_gap_fails(self, tmp_path, monkeypatch):
        # the gap grows by 4e-7 from n = 1000 to n = 10000: not monotone
        def demo(n, mu, u_list, ray):
            gap = {1000: 1e-7, 10000: 5e-7}[n]
            row = spectral.SharpnessRow(0.5, ray.value - gap, gap)
            return spectral.SharpnessReport(n, ray.value, (row,), "")
        monkeypatch.setattr(spectral, "sharpness_demo", demo)
        cfg = _write_config(tmp_path / "c.json", {"command": "sharpness",
                                                  "measure": "delta-difference",
                                                  "n_list": [1000, 10000]})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 1
        assert json.loads((out / "sharpness.json").read_text())["monotone"] is False


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

    def test_lemma24_bound_has_no_allowance(self, tmp_path, monkeypatch):
        # a left side 5e-7 above the bound int t d|mu| = 3 of the shipped config
        monkeypatch.setattr(calculus, "toeplitz_opnorm", lambda col: 3.0 + 5e-7)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cli.CONFIG_DIR / "lemma24.json"),
                     "--output", str(out)]) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is False and summary["error"] == "BoundViolationError"


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
