import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

import sgcalc
from sgcalc import calculus, linalg
from sgcalc.calculus import _shift_column, func_calc
from sgcalc.cli import CONFIG_DIR, NAMED_MEASURES, _default_lambda_grid, load_config, main
from sgcalc.linalg import (
    _band_opnorm,
    _gram_fft_length,
    _lanczos_opnorm,
    _lower_toeplitz,
    _power_iteration,
    _section_routes,
    _shift_invert_opnorm,
    _smooth_length,
    _toeplitz_gram,
    banded_toeplitz_opnorm,
    expm,
    lower_triangular_matmul,
    op_norm,
    opnorm_bound,
    power_opnorm,
    spectral_radius,
    toeplitz_opnorm,
)
from sgcalc.semigroups import nilpotent_shift


class TestExpm:
    def test_zero_matrix(self):
        # a real argument still gives a complex exponential
        E = expm(np.zeros((4, 4)))
        assert E.dtype == complex and np.allclose(E, np.eye(4), atol=1e-15)

    def test_diagonal_entrywise(self):
        D = np.diag([1.0, -2.0, 0.5 + 1.0j])
        E = expm(D)
        assert np.allclose(np.diag(E), np.exp(np.diag(D)), atol=1e-14)
        assert np.allclose(E - np.diag(np.diag(E)), 0)

    def test_against_scipy_oracle(self):
        rng = np.random.default_rng(3)
        for scale in [0.1, 1.0, 10.0, 40.0]:
            A = scale * (rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
            ref = scipy.linalg.expm(A)
            err = np.linalg.norm(expm(A) - ref) / np.linalg.norm(ref)
            assert err < 1e-11

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            expm(np.zeros((2, 3)))


class TestOpNorm:
    def test_identity(self):
        assert op_norm(np.eye(7)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert op_norm(np.diag([3.0, -4.0j])) == pytest.approx(4.0, abs=1e-9)

    def test_against_svd_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            M = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            assert op_norm(M) == pytest.approx(np.linalg.norm(M, 2), abs=1e-9)

    def test_zero(self):
        assert op_norm(np.zeros((3, 3))) == 0.0

    @pytest.mark.parametrize("exp", [300, -300])
    def test_scale_by_power_of_two_is_exact(self, exp):
        # unscaled, M*M v overflows at 2^300 and underflows to 0 at 2^-300
        rng = np.random.default_rng(4)
        M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        scaled = np.ldexp(M.real, exp) + 1j * np.ldexp(M.imag, exp)
        assert op_norm(scaled) == math.ldexp(op_norm(M), exp)

    def test_power_iteration_reports_convergence(self):
        rng = np.random.default_rng(1)
        M = rng.normal(size=(6, 6))
        res = power_opnorm(M)
        assert res.converged
        assert res.value == pytest.approx(np.linalg.norm(M, 2), abs=1e-8)


@pytest.fixture(scope="module")
def lemma24_columns():
    """Every first column whose norm lemma_24_check takes in the lemma24 config's
    run: the left sides (its residuals take ``opnorm_bound``)."""
    cols = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(calculus, "toeplitz_opnorm", lambda c: cols.append(c.copy()) or 0.0)
        calculus.lemma_24_check(nilpotent_shift(512), NAMED_MEASURES["delta-difference"](),
                                _default_lambda_grid())
    return cols


class TestToeplitzOpNorm:
    def test_matches_dense_power_iteration_on_lemma24_columns(self, lemma24_columns):
        # 20 lambdas, one lhs column each
        assert len(lemma24_columns) == 20
        for c in lemma24_columns:
            # the front end iterates on the reduced section of the column
            live, section = np.flatnonzero(c), c
            if live.size:
                g = max(int(np.gcd.reduce(live)), 1)
                section = c[::g][live[0] // g:]
            dense = _lower_toeplitz(section)
            fft_res = _power_iteration(_toeplitz_gram(section, len(section)), len(section))
            dense_res = power_opnorm(dense)
            assert fft_res.iterations == dense_res.iterations
            fft, ref = toeplitz_opnorm(c), op_norm(dense)
            assert fft == ref == 0.0 or abs(fft - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("m", [1, 2, 3, 17, 64])
    def test_against_dense_route_and_svd_oracle(self, m):
        # power iteration stops on a 1e-10 step, so it may sit 1e-9 below the SVD
        rng = np.random.default_rng(m)
        for c in (rng.normal(size=m), rng.normal(size=m) + 1j * rng.normal(size=m)):
            dense = _lower_toeplitz(c)
            assert toeplitz_opnorm(c) == pytest.approx(op_norm(dense), rel=1e-13)
            assert toeplitz_opnorm(c) == pytest.approx(np.linalg.norm(dense, 2), rel=1e-6)

    def test_zero_and_empty(self):
        assert toeplitz_opnorm(np.zeros(5)) == 0.0
        assert toeplitz_opnorm(np.zeros(0)) == 0.0

    @pytest.mark.parametrize("exp", [-60, -40, 300, -300, 600, -600, 1000, -1000])
    @pytest.mark.parametrize("route", ["band", "lanczos", "fft", "shift_invert"])
    def test_scale_by_power_of_two_is_exact(self, lemma24_columns, monkeypatch, route, exp):
        # unscaled, T^H T v overflows at 2^300 and underflows to 0 at 2^-300,
        # so each route runs on the section scaled back into range
        if route == "fft":
            norm, c = toeplitz_opnorm, lemma24_columns[1]  # lhs at lam = -1.3i, norm 0.77
        else:
            # the step section at n = 64 (band b = 10), n = 1024 (b = 324) or
            # n = 512 (b = 32)
            k, n = {"band": (5, 64), "lanczos": (162, 1024), "shift_invert": (16, 512)}[route]
            op = func_calc(nilpotent_shift(n), NAMED_MEASURES["step"](), k / n)
            norm, c = banded_toeplitz_opnorm, _shift_column(n, op.shift_weights)
            taken = _spy_routes(monkeypatch)
            norm(c)
            assert [route for *_, route in taken] == [route]
        scaled = np.ldexp(c.real, exp) + 1j * np.ldexp(c.imag, exp)
        assert norm(scaled) == math.ldexp(norm(c), exp)

    @pytest.mark.parametrize("k", [8, 16, 24])
    def test_sweep_step_sections_scale_exactly(self, k):
        # the step sections at u = k/512 take Lanczos; at 2^-40 their Gram
        # eigenvalue fell below ARPACK's absolute threshold eps^(2/3) until
        # every section was normalized, and the norms came out 4e-7 to 8e-5 low
        op = func_calc(nilpotent_shift(512), NAMED_MEASURES["step"](), k / 512)
        c = _shift_column(512, op.shift_weights)
        for exp in (-60, -40, 100):
            scaled = np.ldexp(c.real, exp) + 1j * np.ldexp(c.imag, exp)
            assert banded_toeplitz_opnorm(scaled) == math.ldexp(banded_toeplitz_opnorm(c), exp)

    @pytest.mark.parametrize("real", [False, True])
    def test_scaling_allocates_only_its_result(self, real):
        # 2^300 M: the scaled copy is the one new array (float64 for a real M,
        # complex otherwise, as the routes take it), with no full-size
        # temporaries beside it
        M = np.ldexp(np.random.default_rng(0).normal(size=(256, 256)), 300)
        if not real:
            M = M + 1j * M
        tracemalloc.start()
        try:
            scaled, exp = linalg._pow2_scaled(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scaled.dtype == (float if real else complex)
        assert 0.5 <= np.max(np.abs(scaled)) < 1.0
        assert np.array_equal(scaled, M * 2.0**-exp)
        assert peak < 1.1 * 256 * 256 * scaled.itemsize

    @pytest.mark.parametrize("exp", [300, -300])
    def test_scaling_decides_real_or_complex(self, exp):
        # float64 for a real operand and for a complex one with no nonzero
        # imaginary part, complex otherwise; every entry scaled exactly
        M = np.random.default_rng(1).normal(size=(6, 6))
        big = np.ldexp(M, exp)
        for X, dtype in ((big, float), (big + 0j, float), (big + 1j * big, complex)):
            scaled, e = linalg._pow2_scaled(X)
            assert scaled.dtype == dtype and 0.5 <= np.max(np.abs(scaled)) < 1.0
            assert np.array_equal(np.ldexp(scaled.real, e), big)
            assert np.array_equal(scaled, np.ldexp(M, exp - e) * (1 if dtype is float else 1 + 1j))

    def test_real_column_and_its_complex_copy_agree_bit_for_bit(self, lemma24_columns,
                                                                 monkeypatch):
        # the lhs columns at real lam = 1.3, 2.7, 4.1, 4.9 on the power route,
        # and step sections on the band, Lanczos and shift-invert routes
        real = [c.real for c in lemma24_columns if np.any(c) and not np.any(c.imag)]
        assert len(real) == 4
        choices = _spy_kernel_choices(monkeypatch)
        for c in real:
            assert toeplitz_opnorm(c) == toeplitz_opnorm(c + 0j)
        assert choices and all(kind == "f" for _, _, kind, _ in choices)
        for n, k in ((64, 5), (1024, 162), (512, 16)):
            op = func_calc(nilpotent_shift(n), NAMED_MEASURES["step"](), k / n)
            c = _shift_column(n, op.shift_weights)
            assert not np.any(c.imag)
            assert banded_toeplitz_opnorm(c.real) == banded_toeplitz_opnorm(c)

    def test_unconverged_falls_back_to_the_section_routes(self, lemma24_columns, monkeypatch):
        c = lemma24_columns[1]  # lhs at lam = -1.3i, norm 0.77
        sigma1 = np.linalg.norm(_lower_toeplitz(c), 2)
        monkeypatch.setattr(linalg, "_POWER_MAX_ITER", 1)
        assert not _power_iteration(_toeplitz_gram(c, len(c)), len(c)).converged
        assert toeplitz_opnorm(c) == banded_toeplitz_opnorm(c)
        assert abs(toeplitz_opnorm(c) - sigma1) <= 1e-14

    def test_no_norm_builds_the_dense_matrix(self, lemma24_columns, sweep_step_sections,
                                             monkeypatch):
        # every lemma24 column and sweep-step section against dense sigma_1,
        # with power iteration capped so that full columns take the section
        # routes, and the dense matrix refused
        refs = [np.linalg.norm(_lower_toeplitz(c), 2) for c in lemma24_columns]
        monkeypatch.setattr(linalg, "_POWER_MAX_ITER", 1)

        def refused(col):
            raise AssertionError("a Toeplitz norm built the dense matrix")

        monkeypatch.setattr(linalg, "_lower_toeplitz", refused)
        for c, sigma1 in zip(lemma24_columns, refs):
            assert abs(toeplitz_opnorm(c) - sigma1) <= 1e-14 * max(sigma1, 1.0)
        for c, m, sigma1 in sweep_step_sections:
            full = np.pad(c, (0, m - len(c)))
            for norm in (toeplitz_opnorm, banded_toeplitz_opnorm):
                assert abs(norm(full) - sigma1) <= 1e-14 * sigma1


def _force_kernel(monkeypatch, kernel):
    """Make every ``_toeplitz_gram`` take direct convolution or the FFT."""
    if kernel == "direct":
        monkeypatch.setattr(linalg, "_gram_fft_length", lambda m, b, kind: 0)
    else:
        monkeypatch.setattr(linalg, "_gram_fft_length", lambda m, b, kind: _smooth_length(m + b))


def _spy_kernel_choices(monkeypatch) -> list:
    """(m, b, kind, FFT length or 0) of every ``_toeplitz_gram`` built from now on."""
    choices = []
    choose = linalg._gram_fft_length

    def spy(m, b, kind):
        choices.append((m, b, kind, choose(m, b, kind)))
        return choices[-1][3]

    monkeypatch.setattr(linalg, "_gram_fft_length", spy)
    return choices


_ROUTE_NAMES = {"_band_opnorm": "band", "_shift_invert_opnorm": "shift_invert",
                "_lanczos_opnorm": "lanczos"}


def _spy_routes(monkeypatch) -> list:
    """(m, b, kind, route) of every section ``banded_toeplitz_opnorm`` routes from
    now on; route names the first route tried."""
    taken = []
    routes_for = linalg._section_routes

    def spy(m, b, kind):
        routes = routes_for(m, b, kind)
        taken.append((m, b, kind, _ROUTE_NAMES[routes[0].__name__]))
        return routes

    monkeypatch.setattr(linalg, "_section_routes", spy)
    return taken


class TestToeplitzGram:
    @pytest.mark.parametrize("kernel", ["direct", "fft"])
    @pytest.mark.parametrize("dtype", [float, complex])
    # b = 0, b = m - 1, and m + b = 48, 199, 267, none a power of two
    @pytest.mark.parametrize("m, b", [(1, 0), (40, 0), (64, 63), (37, 11), (100, 99), (250, 17)])
    def test_matches_the_dense_gram_product(self, monkeypatch, kernel, dtype, m, b):
        _force_kernel(monkeypatch, kernel)
        rng = np.random.default_rng(1000 * m + b)
        c, v = rng.normal(size=b + 1), rng.normal(size=m)
        if dtype is complex:
            c, v = c + 1j * rng.normal(size=b + 1), v + 1j * rng.normal(size=m)
        T = _lower_toeplitz(np.pad(c, (0, m - b - 1)))
        gram = _toeplitz_gram(c, m)
        for got, want in ((gram(v), T.conj().T @ (T @ v)), (gram.forward(v), T @ v)):
            assert got.shape == (m,) and got.dtype.kind == c.dtype.kind
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("m, b", [(1, 0), (5, 4), (40, 0), (64, 63), (100, 17), (511, 3)])
    def test_gram_band_matches_the_per_diagonal_prefix_sums(self, m, b):
        # the prefix-sum table gathered at once against the loop over diagonals
        # it replaced: the same products summed in the same order, so a real
        # band is equal bit for bit; a complex product may take a fused
        # multiply-add on one path only, so a complex band agrees to rounding
        rng = np.random.default_rng(100 * m + b)
        for c in (rng.normal(size=b + 1), rng.normal(size=b + 1) + 1j * rng.normal(size=b + 1)):
            want = np.zeros((b + 1, m), dtype=c.dtype)
            for d in range(b + 1):
                prefix = np.cumsum(np.conj(c[: b + 1 - d]) * c[d:])
                want[d, : m - d] = prefix[np.minimum(b, m - 1 - np.arange(m - d)) - d]
            got = linalg._gram_band(c, m)
            assert got.shape == want.shape and got.flags.f_contiguous
            if c.dtype.kind == "f":
                assert got.tobytes("F") == np.asfortranarray(want).tobytes("F")
            else:
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_smooth_length_matches_a_brute_force_search(self):
        def smooth(N):
            for p in (2, 3, 5):
                while N % p == 0:
                    N //= p
            return N == 1

        lengths = [N for N in range(1, 5121) if smooth(N)]
        for L in range(1, 5001):
            assert _smooth_length(L) == next(N for N in lengths if N >= L)

    def test_lanczos_on_the_fft_kernel_agrees_with_the_direct_kernel(self, monkeypatch):
        # step at n = 4096, u = 1/8: offsets 512..1536, so m = 3584 and b = 1024
        n = 4096
        op = func_calc(nilpotent_shift(n), NAMED_MEASURES["step"](), 1 / 8)
        c = _shift_column(n, op.shift_weights).real
        live = np.flatnonzero(c)
        section, m = c[live[0]: live[-1] + 1], n - int(live[0])
        assert (m, len(section) - 1) == (3584, 1024)
        assert _gram_fft_length(m, 1024, "f") == _smooth_length(m + 1024) == 4608
        fft = _lanczos_opnorm(section, m)
        _force_kernel(monkeypatch, "direct")
        direct = _lanczos_opnorm(section, m)
        assert abs(fft - direct) <= 1e-14 * direct


class TestKernelChoiceOnShippedConfigs:
    """The shipped configs keep the kernels they had before the FFT Gram
    product, so their artifacts stay byte-identical."""

    def _run(self, tmp_path, stem):
        assert main(["run", "--config", str(CONFIG_DIR / f"{stem}.json"),
                     "--output", str(tmp_path / stem)]) == 0

    def test_sweep_sections_take_direct_convolution(self, monkeypatch, tmp_path):
        choices = _spy_kernel_choices(monkeypatch)
        for stem in ("sweep-step", "sweep-flagship", "sweep-four-atom", "symmetrized-sweep"):
            self._run(tmp_path, stem)
        assert choices and all(N == 0 for *_, N in choices)
        assert max(choices, key=lambda choice: choice[1])[:3] == (448, 128, "f")

    def test_lemma24_columns_take_the_fft_at_1024(self, monkeypatch, tmp_path):
        # the four columns at real lam = 1.3, 2.7, 4.1, 4.9 are real and take
        # the real FFT; the other 15 live columns the complex one
        choices = _spy_kernel_choices(monkeypatch)
        self._run(tmp_path, "lemma24")
        assert sorted((kind, N) for _, _, kind, N in choices) == [("c", 1024)] * 15 + [("f", 1024)] * 4

    def test_sweep_sections_take_their_pinned_routes(self, monkeypatch, tmp_path):
        # sweep-step: the band at b = 2, shift-invert for b = 4 ... 86 and
        # Lanczos from b = 88 on (m = 512 - b / 2); every other section the band,
        # but four-atom's widest (m = 511, b = 3), which takes shift-invert
        taken = _spy_routes(monkeypatch)
        for stem in ("sweep-step", "sweep-flagship", "sweep-four-atom", "symmetrized-sweep"):
            start = len(taken)
            self._run(tmp_path, stem)
            routes = {(m, b, route) for m, b, kind, route in taken[start:]}
            assert all(kind == "f" for *_, kind, _ in taken[start:])
            if stem == "sweep-step":
                assert routes == {(512 - k, 2 * k, "band" if k == 1 else "shift_invert"
                                   if k <= 43 else "lanczos") for k in range(1, 65)}
            else:
                fast = {(m, b) for m, b, route in routes if route != "band"}
                assert fast == ({(511, 3)} if stem == "sweep-four-atom" else set())

    def test_shift_refine_sections_keep_their_routes(self):
        # the sections of the benchmark's shift_refine ops at seed 0: delta-
        # difference (b = 1) at full size and on gcd chains take the band,
        # the step sections (b = 582, 870) Lanczos; every list ends with the band
        for m, b in ((1023, 1), (4095, 1), (3, 1), (6, 1)):
            assert _section_routes(m, b, "f") == [_band_opnorm]
        for m, b in ((733, 582), (1613, 870)):
            routes = _section_routes(m, b, "f")
            assert routes[0] is _lanczos_opnorm and routes[-1] is _band_opnorm


@pytest.fixture(scope="module")
def sweep_step_sections():
    """(c, m, dense sigma_1) of every section the sweep-step config's norms route."""
    sections = []
    with pytest.MonkeyPatch.context() as mp:
        routes = linalg._section_routes
        # a first route that records the section and answers None
        mp.setattr(linalg, "_section_routes", lambda m, b, kind: [
            lambda c, m: sections.append((c.copy(), m)), *routes(m, b, kind)])
        cfg = load_config(CONFIG_DIR / "sweep-step.json")
        calculus.sweep(cfg.backend, cfg.measure, cfg.u_grid)
    return [(c, m, np.linalg.norm(_lower_toeplitz(np.pad(c, (0, m - len(c)))), 2))
            for c, m in sections]


def _random_bands(kind):
    """Twelve random sections, b = 4 ... 71 and m = 64 ... 600, of dtype kind."""
    rng = np.random.default_rng(35 if kind == "f" else 36)
    for _ in range(12):
        m, b = int(rng.integers(64, 601)), int(rng.integers(4, 72))
        c = rng.normal(size=b + 1)
        if kind == "c":
            c = c + 1j * rng.normal(size=b + 1)
        yield c, m, np.linalg.norm(_lower_toeplitz(np.pad(c, (0, m - b - 1))), 2)


class TestShiftInvertRoute:
    """The witness of the shift-invert route against dense SVD, its shift
    against sigma_1^2, and its two ways out."""

    @staticmethod
    def _spy_shifts(monkeypatch) -> list:
        """The shift of every ARPACK call in shift-invert mode from now on:
        each follows a successful banded Cholesky."""
        shifts, real = [], linalg.eigsh

        def spy(*args, **kwargs):
            if "sigma" in kwargs:
                shifts.append(kwargs["sigma"])
            return real(*args, **kwargs)

        monkeypatch.setattr(linalg, "eigsh", spy)
        return shifts

    def _check(self, monkeypatch, sections):
        # the witness is a lower bound in exact arithmetic; here it and the
        # dense sigma_1 each carry a few ulps of rounding, so "at or below
        # sigma_1" holds up to 1e-14 relative, on either side
        shifts = self._spy_shifts(monkeypatch)
        for c, m, sigma1 in sections:
            witness = _shift_invert_opnorm(c, m)
            assert witness is not None and shifts
            assert sigma1 * (1 - 1e-14) <= witness <= sigma1 * (1 + 1e-14)
            assert shifts[-1] >= sigma1**2
            shifts.clear()

    def test_every_sweep_step_section(self, monkeypatch, sweep_step_sections):
        assert len(sweep_step_sections) == 64
        self._check(monkeypatch, sweep_step_sections)

    @pytest.mark.parametrize("kind", ["f", "c"])
    def test_random_bands(self, monkeypatch, kind):
        self._check(monkeypatch, _random_bands(kind))

    @staticmethod
    def _section():
        # step at n = 512, u = 16/512: m = 496, b = 32, shift-invert then Lanczos
        op = func_calc(nilpotent_shift(512), NAMED_MEASURES["step"](), 16 / 512)
        c = _shift_column(512, op.shift_weights).real
        assert _section_routes(496, 32, "f") == [_shift_invert_opnorm, _lanczos_opnorm,
                                                 _band_opnorm]
        return c

    def _without_shift_invert(self, monkeypatch, c):
        """The norm by the routes after shift-invert, in a patch undone after."""
        routes = linalg._section_routes
        with monkeypatch.context() as mp:
            mp.setattr(linalg, "_section_routes", lambda m, b, kind: [
                route for route in routes(m, b, kind) if route is not _shift_invert_opnorm])
            return banded_toeplitz_opnorm(c)

    def test_failed_cholesky_falls_back(self, monkeypatch):
        c = self._section()
        expected = self._without_shift_invert(monkeypatch, c)
        factored = []

        def indefinite(ab, **kwargs):  # info > 0: a leading minor is not positive
            factored.append(ab.shape)
            return ab, 1

        monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", indefinite)
        shifts = self._spy_shifts(monkeypatch)
        assert banded_toeplitz_opnorm(c) == expected
        assert factored == [(33, 496)] and shifts == []

    def test_unconverged_arpack_falls_back(self, monkeypatch):
        c = self._section()
        expected = self._without_shift_invert(monkeypatch, c)
        real, calls = linalg.eigsh, []

        def no_convergence(*args, **kwargs):
            calls.append("sigma" in kwargs)
            if "sigma" in kwargs:
                raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))
            return real(*args, **kwargs)

        monkeypatch.setattr(linalg, "eigsh", no_convergence)
        assert banded_toeplitz_opnorm(c) == expected
        assert calls == [True, False]


class TestLowerTriangularMatmul:
    @pytest.mark.parametrize("n, k", [(1, 1), (7, 3), (64, 48), (257, 2), (512, 96)])
    def test_equals_the_general_product(self, n, k):
        rng = np.random.default_rng(n)
        L, Y = np.tril(rng.normal(size=(n, n))), rng.normal(size=(n, k))
        got, want = lower_triangular_matmul(L, Y), L @ Y
        assert got.shape == want.shape and got.dtype == want.dtype and got.flags.c_contiguous
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    def test_copies_nothing_but_its_result(self):
        # a transposed copy of L would cost 2 MiB here, of Y 0.75 MiB
        rng = np.random.default_rng(1)
        L, Y = np.tril(rng.normal(size=(512, 512))), rng.normal(size=(512, 192))
        tracemalloc.start()
        try:
            got = lower_triangular_matmul(L, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * got.nbytes


@pytest.mark.parametrize("n", [1, 2, 7, 64, 513])
def test_lower_toeplitz_matches_scipy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for col in (rng.normal(size=n) + 1j * rng.normal(size=n), rng.normal(size=n)):
        oracle = scipy.linalg.toeplitz(col, np.zeros(n, dtype=col.dtype))
        built = _lower_toeplitz(col)
        assert built.dtype == oracle.dtype and built.tobytes() == oracle.tobytes()


class TestOpnormBound:
    """The proved upper bound against dense SVD."""

    @pytest.mark.parametrize("n", [1, 2, 17, 64])
    def test_toeplitz_column_bound_is_its_one_norm_and_above_svd(self, n):
        rng = np.random.default_rng(n)
        for c in (rng.normal(size=n), rng.normal(size=n) + 1j * rng.normal(size=n)):
            bound = opnorm_bound(c)
            assert bound >= math.fsum(np.abs(c).tolist())
            assert bound == pytest.approx(np.sum(np.abs(c)), rel=1e-14)
            assert bound >= np.linalg.norm(_lower_toeplitz(c), 2)

    @pytest.mark.parametrize("shape", [(1, 1), (5, 5), (32, 32), (7, 3)])
    def test_matrix_bound_is_above_svd(self, shape):
        rng = np.random.default_rng(shape[0])
        M = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        one, inf = np.linalg.norm(M, 1), np.linalg.norm(M, np.inf)
        assert opnorm_bound(M) == pytest.approx(math.sqrt(one * inf), rel=1e-14)
        assert opnorm_bound(M) >= np.linalg.norm(M, 2)

    def test_rank_one_all_ones_is_tight(self):
        # sqrt(||M||_1 ||M||_inf) = n = ||M|| for the all-ones matrix
        assert opnorm_bound(np.ones((6, 6))) == pytest.approx(6.0, rel=1e-15)
        assert opnorm_bound(np.ones((6, 6))) >= 6.0

    def test_zero_and_empty(self):
        assert opnorm_bound(np.zeros(4)) == 0.0
        assert opnorm_bound(np.zeros(0)) == 0.0
        assert opnorm_bound(np.zeros((3, 3))) == 0.0

    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(np.inf, 0)])
    def test_refuses_non_finite_entries(self, bad):
        for x in (np.array([1.0, bad]), np.array([[1.0, bad], [0.0, 1.0]])):
            with pytest.raises(ValueError, match="non-finite"):
                opnorm_bound(x)


class TestSerialBlas:
    """The cap on fake pools, so that it is checked whatever BLAS is loaded."""

    @pytest.fixture
    def fake_pools(self, monkeypatch):
        counts = [4, 2]
        pools = tuple((lambda i=i: counts[i], lambda c, i=i: counts.__setitem__(i, c))
                      for i in range(len(counts)))
        monkeypatch.setattr(linalg, "_openblas_pools", lambda: pools)
        return counts

    def test_one_thread_inside_nested_and_restored(self, fake_pools):
        with linalg.serial_blas():
            assert fake_pools == [1, 1]
            with linalg.serial_blas():
                assert fake_pools == [1, 1]
            assert fake_pools == [1, 1]
        assert fake_pools == [4, 2]

    def test_restored_when_the_body_raises(self, fake_pools):
        with pytest.raises(ZeroDivisionError):
            with linalg.serial_blas():
                1 / 0
        assert fake_pools == [4, 2]

    def test_no_pool_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(linalg, "_openblas_pools", lambda: ())
        with linalg.serial_blas():
            pass


class TestSpectralRadius:
    def test_nilpotent_exact_zero(self):
        N = np.eye(6, k=-2)
        assert spectral_radius(N) == 0.0

    def test_diagonal(self):
        assert spectral_radius(np.diag([1.0, -3.0, 2.0j])) == 3.0

    def test_triangular(self):
        rng = np.random.default_rng(2)
        M = np.triu(rng.normal(size=(5, 5)))
        assert spectral_radius(M) == pytest.approx(np.max(np.abs(np.diag(M))), abs=1e-12)

    def test_generic_matches_eigvals(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            M = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
            ref = float(np.max(np.abs(np.linalg.eigvals(M))))
            assert spectral_radius(M) == pytest.approx(ref, rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_norm_dominates_spectral_radius(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    assert op_norm(M) >= spectral_radius(M) - 1e-8


def test_only_linalg_imports_scipy():
    # linalg is the one home of the scipy numerics; the one other import is
    # the lazy quad of measures._piece_tv_moment, which only complex pieces reach
    outside = []
    for path in sorted(Path(sgcalc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        lazy = next((node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                     and path.stem == "measures" and node.name == "_piece_tv_moment"), None)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if path.stem == "linalg" or all(m.split(".")[0] != "scipy" for m in modules):
                continue
            if lazy is None or not lazy.lineno < node.lineno <= lazy.end_lineno:
                outside.append((path.name, node.lineno, modules))
    assert outside == []
