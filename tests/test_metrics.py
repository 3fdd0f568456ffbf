"""Tests for PAPR statistics, Monte Carlo curves, and complexity reporting."""

import math
import tracemalloc

import numpy as np
import pytest

import rpsdm.channel
import rpsdm.detection
import rpsdm.metrics
import rpsdm.ramanujan
import rpsdm.transforms
from rpsdm.channel import (ChannelRealization, add_cp, awgn, draw_channel, effective_channel,
                           remove_cp, transmit)
from rpsdm.detection import (Detector, DetectorSpec, QamConstellation, SingularChannelError,
                             equalize, qam_demap, qam_map)
from rpsdm.metrics import (_CCDF_CHUNK, _CCDF_TILE, _ber_draws, _ccdf_synthesis, _papr_db,
                           ber_curve, ber_curves, ccdf_crossing, complexity_report,
                           gamma_coefficient, noise_variance, papr, papr_ccdf, papr_ccdfs,
                           papr_db, worst_case_papr)
from rpsdm.number_theory import totient
from rpsdm.streams import _key_streams, _raw_indices
from rpsdm.transforms import Scheme, demodulate, make_plan, modulate

PRIMES_TO_97 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                53, 59, 61, 67, 71, 73, 79, 83, 89, 97]

QAM16 = QamConstellation.from_order(16)
SCHEMES = (Scheme.OFDM, Scheme.RPSDM)


def measured_worst_case_db(scheme: Scheme, n: int, qam: QamConstellation) -> float:
    """Independent oracle: synthesize the all-corner block directly and put
    its peak power over the ensemble average power alpha^2."""
    plan = make_plan(scheme, n)
    block = modulate(plan, np.full(n, qam.peak_point))
    peak = np.max(np.abs(block) ** 2)
    return 10.0 * math.log10(peak / qam.alpha2)


class TestPapr:
    def test_constant_block(self):
        assert papr(np.ones(8, dtype=complex)) == pytest.approx(1.0)
        assert papr_db(np.ones(8, dtype=complex)) == pytest.approx(0.0)

    def test_impulse(self):
        x = np.array([1.0, 0, 0, 0])
        assert papr(x) == pytest.approx(4.0)
        assert papr_db(x) == pytest.approx(10 * math.log10(4), abs=1e-9)

    @pytest.mark.parametrize("block", [np.zeros(4), np.array([])])
    def test_rejects_zero_block(self, block):
        with pytest.raises(ValueError):
            papr(block)

    def test_ofdm_corner_block_hits_worst_case(self):
        # all-corner 16-QAM block at N=8: peak power N^2 beta^2 / N over
        # ensemble power alpha^2 equals the closed form N beta^2/alpha^2
        n = 8
        plan = make_plan(Scheme.OFDM, n)
        block = modulate(plan, np.full(n, QAM16.peak_point))
        measured = np.max(np.abs(block) ** 2) / QAM16.alpha2
        assert measured == pytest.approx(n * QAM16.beta2 / QAM16.alpha2, rel=1e-12)


class TestGammaCoefficient:
    def test_prime_values(self):
        for q in PRIMES_TO_97:
            assert gamma_coefficient(q) == q - totient(q) == 1

    def test_prime_power_values(self):
        for p in (2, 3, 5):
            for t in range(2, 5):
                assert gamma_coefficient(p ** t) == p ** (t - 1)

    def test_composite_direct_sum(self):
        # gamma_6 = c_6[0] + c_6[1] = 2 + 1
        assert gamma_coefficient(6) == 3


class TestWorstCasePapr:
    def test_spec_anchor_values(self):
        # printed table values; closed forms land within the print precision
        assert worst_case_papr(Scheme.OFDM, 8, QAM16) == pytest.approx(11.58, abs=0.01)
        assert worst_case_papr(Scheme.RPSDM, 8, QAM16) == pytest.approx(8.19, abs=0.01)
        assert worst_case_papr(Scheme.RPSDM, 16, QAM16) == pytest.approx(8.83, abs=0.01)
        assert worst_case_papr(Scheme.OFDM, 512, QAM16) == pytest.approx(29.64, abs=0.01)

    @pytest.mark.parametrize("scheme", [Scheme.OFDM, Scheme.RPSDM])
    @pytest.mark.parametrize("n", [4, 8, 16, 64])
    def test_matches_brute_force_synthesis(self, scheme, n):
        closed = worst_case_papr(scheme, n, QAM16)
        assert abs(closed - measured_worst_case_db(scheme, n, QAM16)) < 1e-9

    def test_ofdm_grows_3db_per_doubling(self):
        values = [worst_case_papr(Scheme.OFDM, 2 ** m, QAM16) for m in range(3, 10)]
        for lo, hi in zip(values, values[1:]):
            assert hi - lo == pytest.approx(10 * math.log10(2), abs=1e-9)

    def test_rpsdm_monotone_and_bounded(self):
        values = [worst_case_papr(Scheme.RPSDM, 2 ** m, QAM16) for m in range(3, 10)]
        assert all(hi > lo for lo, hi in zip(values, values[1:]))
        assert max(values) < 10.0


class TestPaprCcdf:
    def test_low_thresholds_give_probability_one(self):
        curve = papr_ccdf(Scheme.OFDM, 8, QAM16, np.array([-3.0, -1.0]), 500, seed=1)
        np.testing.assert_array_equal(curve.values, [1.0, 1.0])

    def test_monotone_non_increasing(self):
        grid = np.arange(0.0, 12.0, 0.5)
        for scheme in (Scheme.OFDM, Scheme.RPSDM):
            curve = papr_ccdf(scheme, 16, QAM16, grid, 3000, seed=2)
            assert (np.diff(curve.values) <= 0).all()

    def test_deterministic_and_chunk_independent(self, monkeypatch):
        grid = np.arange(0.0, 12.0, 0.5)
        calls = [
            (SCHEMES, (8, 12)),  # OFDM, RPSDM's butterfly (N=8) and its gemm (N=12)
            ((Scheme.OFDM,), (12, 64)),  # the ifft in tiles at any N
        ]
        expected = [papr_ccdfs(schemes, n_list, QAM16, grid, 2100, seed=3)
                    for schemes, n_list in calls]
        for chunk in (1, 7, _CCDF_CHUNK):
            for tile in (1, 777, _CCDF_TILE):
                monkeypatch.setattr(rpsdm.metrics, "_CCDF_CHUNK", chunk)
                monkeypatch.setattr(rpsdm.metrics, "_CCDF_TILE", tile)
                for (schemes, n_list), want in zip(calls, expected):
                    got = papr_ccdfs(schemes, n_list, QAM16, grid, 2100, seed=3)
                    got = [c.values.tobytes() for c in got]
                    assert got == [c.values.tobytes() for c in want], (chunk, tile, n_list)

    @pytest.mark.parametrize("chunk", [1, 7, _CCDF_CHUNK])
    def test_counts_equal_a_strict_count_of_each_block(self, monkeypatch, chunk):
        # N=2 at 64-QAM puts many blocks exactly on 0 dB; N=8 and 64 take
        # RPSDM's butterfly, N=12 its gemm, and OFDM the ifft at every N.
        # The thresholds hold some blocks' exact PAPRs, repeated and unsorted
        monkeypatch.setattr(rpsdm.metrics, "_CCDF_CHUNK", chunk)
        qam = QamConstellation.from_order(64)
        n_list, trials, seed = (2, 8, 12, 64), 150, 61
        ratios = {}
        for n in n_list:
            idx = np.array([np.random.default_rng([seed, t]).integers(0, 64, n)
                            for t in range(trials)])
            for scheme in SCHEMES:
                synthesize = _ccdf_synthesis(scheme, n)
                ratios[n, scheme] = np.concatenate(
                    [_papr_db(synthesize(qam.points[idx[lo:lo + chunk]]))
                     for lo in range(0, trials, chunk)])
        exact = np.concatenate([ratios[n, Scheme.RPSDM][:3] for n in n_list])
        thresholds = np.concatenate([[6.0, 0.0, 0.0, 3.5], exact, exact[::-1], [-1.0, 20.0]])
        curves = papr_ccdfs(SCHEMES, n_list, qam, thresholds, trials, seed)
        for curve in curves:
            ratio = ratios[curve.n, curve.scheme]
            want = (ratio[:, None] > thresholds[None, :]).sum(axis=0) / trials
            assert curve.values.tobytes() == want.tobytes(), (curve.n, curve.scheme)
        # the ties are real: some blocks sit exactly on a threshold
        assert (ratios[2, Scheme.OFDM] == 0.0).any()

    def test_papr_does_not_depend_on_the_batch_layout(self):
        # a transposed (F-ordered) batch, as the butterfly returns, gives each
        # row the bytes of its C copy: the row mean sums a contiguous row
        rng = np.random.default_rng(67)
        for n, rows in ((64, 300), (512, 40)):
            c_batch = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
            f_batch = np.asfortranarray(c_batch)
            assert _papr_db(f_batch).tobytes() == _papr_db(c_batch).tobytes()

    def test_never_holds_a_chunk_of_blocks(self):
        # one (2048, 2048) complex128 block array is 64 MiB; row tiles keep a
        # job's traced peak to the chunk's raw words (16 MiB) and a few tiles
        grid = np.arange(0.0, 12.0, 0.5)
        tracemalloc.start()
        try:
            papr_ccdfs(SCHEMES, (2048,), QAM16, grid, 2048, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_confidence_band_contains_estimate(self):
        curve = papr_ccdf(Scheme.OFDM, 8, QAM16, np.arange(0, 12.0), 2000, seed=4)
        assert (curve.ci_low <= curve.values).all()
        assert (curve.values <= curve.ci_high).all()

    @pytest.mark.parametrize("n", [12, 16])
    def test_block_mean_power_bound(self, n):
        # ensemble-average block power never exceeds alpha^2 (up to the
        # Monte Carlo margin); raw-grid symbols so the bound reads directly
        trials = 2000
        plan = make_plan(Scheme.RPSDM, n)
        total = 0.0
        for t in range(trials):
            rng = np.random.default_rng([55, t])
            symbols = QAM16.points[rng.integers(0, 16, n)]
            total += float(np.mean(np.abs(modulate(plan, symbols)) ** 2))
        mean_power = total / trials
        assert mean_power <= QAM16.alpha2 * (1 + 5 / math.sqrt(trials))


def reference_ccdf(scheme, n, qam, grid, trials, seed):
    """Oracle: the per-curve loop, seeding ``default_rng([seed, t])`` for
    every block of every curve and drawing at the curve's own N."""
    forward_t = make_plan(scheme, n).forward.T.copy() if scheme is Scheme.RPSDM else None
    exceed = np.zeros(grid.shape[0], dtype=np.int64)
    for start in range(0, trials, _CCDF_CHUNK):
        stop = min(start + _CCDF_CHUNK, trials)
        idx = np.array([np.random.default_rng([seed, t]).integers(0, qam.m, n)
                        for t in range(start, stop)])
        symbols = qam.points[idx]
        if scheme is Scheme.OFDM:
            blocks = math.sqrt(n) * np.fft.ifft(symbols, axis=1)
        else:
            blocks = symbols.real @ forward_t + 1j * (symbols.imag @ forward_t)
        power = np.abs(blocks) ** 2
        ratios_db = 10.0 * np.log10(power.max(axis=1) / power.mean(axis=1))
        exceed += (ratios_db[:, None] > grid[None, :]).sum(axis=0)
    return exceed / trials


class TestPaprCcdfEngine:
    """``papr_ccdfs`` draws each block once for every curve; each curve is
    the one that seeding every block of that curve alone gives."""

    @pytest.mark.parametrize("n_list, m, trials", [
        ((512, 12, 64, 12), 16, 300),
        ((8, 1, 24), 64, 200),
        ((4, 16), 4, _CCDF_CHUNK + 5),  # two chunks
        ((1, 2, 32, 96, 2048), 256, 120),  # butterfly, gemm and prefix draws in one call
    ])
    def test_curves_equal_the_per_curve_reference(self, n_list, m, trials):
        qam = QamConstellation.from_order(m)
        grid = np.arange(0.0, 12.0, 0.5)
        curves = papr_ccdfs(SCHEMES, n_list, qam, grid, trials, seed=2**32 + 7)
        assert [(c.n, c.scheme) for c in curves] == [(n, s) for n in n_list for s in SCHEMES]
        for curve in curves:
            expected = reference_ccdf(curve.scheme, curve.n, qam, grid, trials, 2**32 + 7)
            assert curve.values.tobytes() == expected.tobytes()
            alone = papr_ccdf(curve.scheme, curve.n, qam, grid, trials, seed=2**32 + 7)
            for attr in ("values", "ci_low", "ci_high"):
                assert getattr(curve, attr).tobytes() == getattr(alone, attr).tobytes()

    def test_power_of_two_lengths_build_no_plan(self, monkeypatch):
        # OFDM's ifft and RPSDM's butterfly need no N x N matrix
        def no_plan(scheme, n):
            raise AssertionError(f"make_plan({scheme}, {n}) called")
        monkeypatch.setattr(rpsdm.metrics, "make_plan", no_plan)
        n_list = (1, 2, 16, 64, 512, 2048)
        curves = papr_ccdfs(SCHEMES, n_list, QAM16, np.arange(0.0, 12.0, 0.5), 50, seed=3)
        assert [(c.n, c.scheme) for c in curves] == [(n, s) for n in n_list for s in SCHEMES]

    def test_rejects_a_modulation_order_that_is_not_a_power_of_two(self):
        # a hand-built constellation: its symbols cannot be read from raw words
        nine = QamConstellation(m=9, points=np.arange(9) + 1j, alpha2=1.0, beta2=1.0)
        with pytest.raises(ValueError, match="power-of-two modulation order, got 9"):
            papr_ccdfs(SCHEMES, (8,), nine, np.array([3.0]), 10, seed=1)

    def test_rejects_bad_arguments(self):
        grid = np.array([3.0])
        with pytest.raises(ValueError, match="trials"):
            papr_ccdfs(SCHEMES, (8,), QAM16, grid, 0, seed=1)
        with pytest.raises(ValueError, match="one scheme and one block length"):
            papr_ccdfs(SCHEMES, (), QAM16, grid, 10, seed=1)
        with pytest.raises(ValueError, match="non-negative"):
            papr_ccdfs(SCHEMES, (8,), QAM16, grid, 10, seed=-1)


class TestKeyStreams:
    """``_key_streams`` gives, row by row, the stream of
    ``np.random.default_rng`` of that row's key."""

    #: trial indices of one word, of two (from 2^32) and of the largest int64
    TRIALS = np.array([0, 1, 2, 3, 99, 2047, 2048, 65535, 2**31, 2**32 - 1, 2**32,
                       2**32 + 1, 2**40 + 3, 2**63 - 1])

    @pytest.mark.parametrize("seed", [0, 1, 20_240, 2**32 - 1, 2**32, 2**64 + 1, 2**100 + 5])
    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_two_entry_keys(self, seed, m):
        streams = _key_streams(seed, self.TRIALS)
        for k, (t, rng) in enumerate(zip(self.TRIALS, streams, strict=True)):
            n = 1 + (37 * k) % 512 if k else 512
            expected = np.random.default_rng([seed, int(t)]).integers(0, m, n)
            assert rng.integers(0, m, n).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("m", [1, 2, 4, 16, 64, 256])
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 511, 2047, 2048])
    def test_symbol_indices_from_raw_words(self, m, n):
        # the CCDF's indices, read from raw PCG64 words, are the draws of
        # integers(0, m, n) on each row's stream
        trials = self.TRIALS[::3]
        raw = [rng.bit_generator.random_raw((n + 1) // 2)
               for rng in _key_streams(20_240, trials)]
        idx = _raw_indices(np.array(raw), n, m)
        expected = [np.random.default_rng([20_240, int(t)]).integers(0, m, n) for t in trials]
        assert idx.tobytes() == np.array(expected, dtype=np.intp).tobytes()

    def test_random_four_entry_keys(self):
        # the BER stream layout (seed, point, trial, attempt), every entry of
        # random width, drawing the BER engine's integers and normals
        draw = np.random.default_rng(2024)
        for _ in range(20):
            seed = int(draw.integers(0, 2**63)) << int(draw.integers(0, 70))
            points, trials = (draw.integers(0, 2**63, 8) >> draw.integers(0, 63, 8)
                              for _ in range(2))
            attempt = int(draw.integers(0, 3))
            streams = _key_streams(seed, points, trials, attempt)
            for p, t, rng in zip(points, trials, streams, strict=True):
                expected = np.random.default_rng([seed, int(p), int(t), attempt])
                assert rng.integers(0, 2, 64).tobytes() == expected.integers(0, 2, 64).tobytes()
                assert (rng.standard_normal(9).tobytes()
                        == expected.standard_normal(9).tobytes())

    def test_scalar_key_is_one_row(self):
        (rng,) = _key_streams(2**32 + 9)
        assert rng.random(5).tobytes() == np.random.default_rng(2**32 + 9).random(5).tobytes()

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_draws_share_a_prefix(self, m):
        # the shared CCDF draw: a block of length n is the first n indices
        # that the same stream draws at a larger N
        for key in ([0, 0], [20_240, 7], [2**32, 2**32 + 1]):
            full = np.random.default_rng(key).integers(0, m, 512)
            for n in range(1, 513):
                np.testing.assert_array_equal(
                    np.random.default_rng(key).integers(0, m, n), full[:n])

    @pytest.mark.parametrize("key", [(-1, np.arange(3)), (5, np.array([0, -2, 1])), (-(2**40),)])
    def test_negative_entry_raises_as_default_rng_does(self, key):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            next(_key_streams(*key))
        row = [entry[1] if isinstance(entry, np.ndarray) else entry for entry in key]
        with pytest.raises(ValueError, match="expected non-negative integer"):
            np.random.default_rng(row)


class TestCcdfCrossing:
    def test_interpolates_logarithmically(self):
        grid = np.array([0.0, 1.0, 2.0])
        values = np.array([1.0, 1e-2, 1e-4])
        assert ccdf_crossing(grid, values, 1e-3) == pytest.approx(1.5)

    def test_none_when_never_crossed(self):
        assert ccdf_crossing(np.array([0.0, 1.0]), np.array([1.0, 0.5]), 1e-3) is None


class TestBerCurve:
    def test_effectively_noise_free_is_error_free(self):
        curve = ber_curve(Scheme.RPSDM, Detector.ZF, 8, 3, QAM16,
                          np.array([200.0]), trials=50, seed=6)
        assert curve.values[0] == 0.0

    def test_monotone_in_snr_within_band(self):
        curve = ber_curve(Scheme.OFDM, Detector.ZF, 16, 4, QAM16,
                          np.arange(0.0, 30.0, 5.0), trials=150, seed=8)
        bits = curve.trials * 16 * 4
        for i in range(len(curve.values) - 1):
            p = max(curve.values[i], 1.0 / bits)
            band = 3 * math.sqrt(p * (1 - p) / bits)
            assert curve.values[i + 1] <= curve.values[i] + band

    def test_config_echo_round_trips(self):
        curve = ber_curve(Scheme.RPSDM, Detector.ZF, 8, 2, QAM16,
                          np.array([10.0]), trials=5, seed=9)
        echo = curve.config_echo()
        assert echo["scheme"] == "rpsdm" and echo["detector"] == "zf"
        assert echo["n"] == 8 and echo["l"] == 2 and echo["seed"] == 9

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ber_curve(Scheme.OFDM, Detector.ZF, 8, 9, QAM16, np.array([5.0]), 10, 0)
        with pytest.raises(ValueError):
            ber_curve(Scheme.OFDM, Detector.ZF, 8, 2, QAM16, np.array([5.0]), 0, 0)
        # SNRs whose noise variance 10^(-SNR/10) is not positive and finite
        for snr in (np.inf, np.nan, -4000.0, 3300.0):
            with pytest.raises(ValueError, match="noise variance"):
                ber_curve(Scheme.OFDM, Detector.MMSE, 8, 2, QAM16, np.array([5.0, snr]), 1, 0)
        with pytest.raises(ValueError, match="one scheme and one detector"):
            ber_curves((Scheme.OFDM,), (), 8, 2, QAM16, np.array([5.0]), 1, 0)


DETECTORS = (Detector.ZF, Detector.MMSE)


def refuse(name):
    """A stand-in for ``name`` that fails the test when called."""
    def call(*args, **kwargs):
        raise AssertionError(f"{name} called")
    return call


class TestBerEngine:
    """``ber_curves`` runs every receiver on one set of draws; each curve is
    the one its receiver gives alone."""

    @pytest.mark.parametrize("n, l, trials", [(1, 1, 20), (12, 4, 10), (24, 5, 30),
                                              (128, 8, 3)])
    def test_each_curve_equals_its_single_receiver_run(self, n, l, trials):
        # N=24 with 4 points x 30 trials: 120 rows, more than one chunk
        grid = np.array([0.0, 10.0, 20.0, 30.0])
        curves = ber_curves(SCHEMES, DETECTORS, n, l, QAM16, grid, trials, seed=31)
        assert [(c.scheme, c.detector) for c in curves] == [
            (s, d) for s in SCHEMES for d in DETECTORS]
        for curve in curves:
            alone = ber_curve(curve.scheme, curve.detector, n, l, QAM16, grid, trials, seed=31)
            for attr in ("values", "ci_low", "ci_high", "squared_error"):
                assert getattr(curve, attr).tobytes() == getattr(alone, attr).tobytes()
            assert curve.metadata == alone.metadata

    @pytest.mark.parametrize("n", [12, 16, 96, 128])
    def test_no_length_runs_a_dense_product(self, monkeypatch, n):
        # OFDM's ffts, RPSDM's butterflies and its per-subspace maps need no
        # N x N matrix
        for module, name in ((rpsdm.transforms, "ofdm_synthesis_matrix"),
                             (rpsdm.metrics, "modulate"), (rpsdm.metrics, "demodulate"),
                             (rpsdm.detection, "_real_matvec")):
            monkeypatch.setattr(module, name, refuse(name))
        grid = np.array([0.0, 20.0])
        curves = ber_curves(SCHEMES, DETECTORS, n, 4, QAM16, grid, trials=5, seed=33)
        assert [(c.scheme, c.detector) for c in curves] == [
            (s, d) for s in SCHEMES for d in DETECTORS]

    @pytest.mark.parametrize("n", [12, 16, 96, 128, 4096])
    def test_no_length_builds_the_dense_pair(self, monkeypatch, n):
        # the butterflies, the per-bin equalizer and the per-subspace maps
        # read only the RPSDM transform's layout, so its dense pair is never
        # built
        monkeypatch.setattr(rpsdm.ramanujan, "subspace_basis", refuse("subspace_basis"))
        curves = ber_curves(SCHEMES, DETECTORS, n, 4, QAM16, np.array([0.0, 20.0]), trials=2,
                            seed=34)
        assert [(c.scheme, c.detector) for c in curves] == [
            (s, d) for s in SCHEMES for d in DETECTORS]

    @pytest.mark.parametrize("n", [1, 2, 12, 128])
    @pytest.mark.parametrize("m", [4, 16, 64, 256])
    @pytest.mark.parametrize("l", [1, 3])
    def test_draws_equal_the_per_row_calls(self, n, m, l):
        # the engine's three draws per row against the per-row draw_channel,
        # integers(0, 2, n k) and awgn on default_rng(row key), byte for byte:
        # a last-place noise difference could hide under hard decisions. L is
        # capped at N, and the rows span the noise variances of --snr=-20,0,300
        l = min(l, n)
        bits_per = QamConstellation.from_order(m).bits_per_symbol
        seed, attempt = 2**40 + 3, 2
        points = np.repeat(np.arange(3), 3)
        trials = np.tile([0, 5, 2**32 + 1], 3)
        sigma2 = noise_variance(np.array([-20.0, 0.0, 300.0]))[points]
        taps, bits, noise = _ber_draws(seed, points, trials, attempt, n, l, bits_per, sigma2)
        for r, (p, t) in enumerate(zip(points, trials)):
            rng = np.random.default_rng([seed, int(p), int(t), attempt])
            assert taps[r].tobytes() == draw_channel(rng, l, n).taps.tobytes()
            assert bits[r].tobytes() == rng.integers(0, 2, n * bits_per).tobytes()
            assert noise[r].tobytes() == awgn(rng, n + l - 1, sigma2[r]).tobytes()

    @pytest.mark.parametrize("n", [12, 96])
    def test_no_receiver_demodulates(self, monkeypatch, n):
        # every receiver, RPSDM-MMSE's block solves included, equalizes the
        # frame's spectrum, so no row demodulates at non-power-of-two N either
        for name in ("demodulate", "equalize"):
            monkeypatch.setattr(rpsdm.metrics, name, refuse(name))
        grid = np.array([0.0, 20.0])
        curves = ber_curves(SCHEMES, DETECTORS, n, 4, QAM16, grid, trials=5, seed=35)
        assert [(c.scheme, c.detector) for c in curves] == [
            (s, d) for s in SCHEMES for d in DETECTORS]

    @pytest.mark.parametrize("n", [12, 96, 128])
    @pytest.mark.parametrize("l", [1, 3, "n"])
    def test_matches_the_time_domain_replay(self, n, l):
        # the engine's per-bin channel Y = H X + fft(w[l-1:]) against the
        # time-domain chain add_cp -> transmit -> remove_cp -> demodulate ->
        # equalize on the same streams; L=1 has no CP, L=N the longest one
        l = n if l == "n" else l
        grid = np.array([0.0, 10.0, 20.0])
        curves = ber_curves(SCHEMES, DETECTORS, n, l, QAM16, grid, trials=4, seed=37)
        for curve in curves:
            values, resamples, squared = replay_ber(curve.scheme, curve.detector, n, l, QAM16,
                                                    grid, 4, 37, rpsdm.channel.draw_channel)
            assert curve.metadata["resampled_trials"] == resamples == 0
            assert np.array_equal(curve.values, values)
            np.testing.assert_allclose(curve.squared_error, squared, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [12, 128])
    def test_no_row_runs_the_time_domain_channel_or_seeds_a_stream(self, monkeypatch, n):
        # the channel is a per-bin product on the frame spectrum, and every
        # row's stream comes from _key_streams, not from a seeded default_rng
        for name in ("add_cp", "transmit", "remove_cp"):
            monkeypatch.setattr(rpsdm.metrics, name, refuse(name))
        monkeypatch.setattr(np, "convolve", refuse("np.convolve"))
        default_rng = np.random.default_rng

        def generators_only(seed=None):
            if not isinstance(seed, np.random.Generator):
                raise AssertionError(f"default_rng({seed!r}) called")
            return default_rng(seed)
        monkeypatch.setattr(np.random, "default_rng", generators_only)
        grid = np.array([0.0, 20.0])
        curves = ber_curves(SCHEMES, DETECTORS, n, 4, QAM16, grid, trials=5, seed=39)
        assert [(c.scheme, c.detector) for c in curves] == [
            (s, d) for s in SCHEMES for d in DETECTORS]

    def test_one_plan_per_scheme_and_one_draw_per_row(self, monkeypatch):
        calls = {"make_plan": 0, "draw_channel": 0}

        def counted(name):
            original = getattr(rpsdm.metrics, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(rpsdm.metrics, name, counted(name))
        grid = np.array([0.0, 10.0, 20.0])
        ber_curves(SCHEMES, DETECTORS, 16, 4, QAM16, grid, trials=30, seed=32)
        assert calls == {"make_plan": 2, "draw_channel": 3 * 30}


#: (point, trial) -> how many leading attempts draw the singular channel
SINGULAR_ATTEMPTS = {(0, 1): 1, (1, 3): 2, (2, 0): 1, (2, 5): 1}

#: taps (1, -1j) put an exact zero in DFT bin 1 of N = 4
SINGULAR_TAPS = np.array([1, -1j])


def pcg64_state(rng) -> tuple[int, int]:
    """The (state, inc) pair of a PCG64 stream, which identifies it."""
    state = rng.bit_generator.state["state"]
    return state["state"], state["inc"]


#: the (seed, point, trial, attempt) key of every stream the resampling tests
#: draw from, by the PCG64 state ``np.random.default_rng(key)`` starts from:
#: seed 21's 3 points x 6 trials x 3 attempts, and seed 0's (0, 0) attempts
#: 0 ... 1000
STREAM_KEYS = {pcg64_state(np.random.default_rng(key)): key for key in [
    *((21, p, t, a) for p in range(3) for t in range(6) for a in range(3)),
    *((0, 0, 0, a) for a in range(1001))]}


def forced_draw_channel(real_draw, singular=SINGULAR_ATTEMPTS):
    """draw_channel that still consumes the real taps' draws, then hands back
    the singular taps for the chosen (point, trial, attempt) streams. It keys
    on the stream's state before its first draw, not on call order, so a
    stream that is not ``default_rng``'s for its key raises KeyError."""
    def draw(rng, l, n):
        _, p, t, attempt = STREAM_KEYS[pcg64_state(rng)]
        ch = real_draw(rng, l, n)
        if attempt < singular.get((p, t), 0):
            return ChannelRealization(taps=SINGULAR_TAPS.copy(), n=n)
        return ch
    return draw


def replay_ber(scheme, detector, n, l, qam, snr_grid_db, trials, seed, draw):
    """Per-trial scalar replay of ber_curve's draws: (BER per point, resamples,
    summed squared symbol error per point)."""
    plan = make_plan(scheme, n)
    values, squared, resamples = [], [], 0
    for p, snr_db in enumerate(snr_grid_db):
        sigma2 = 10.0 ** (-snr_db / 10.0)
        spec = DetectorSpec.zf() if detector is Detector.ZF else DetectorSpec.mmse(sigma2)
        errors, point_squared = 0, 0.0
        for t in range(trials):
            attempt = 0
            while True:
                rng = np.random.default_rng([seed, p, t, attempt])
                ch = draw(rng, l, n)
                bits = rng.integers(0, 2, n * qam.bits_per_symbol)
                symbols = qam_map(bits, qam)
                frame = transmit(add_cp(modulate(plan, symbols), l), ch,
                                 awgn(rng, n + l - 1, sigma2))
                demod = demodulate(plan, remove_cp(frame, l))
                eff = effective_channel(scheme, ch, plan.transform)
                try:
                    estimates = equalize(spec, eff, demod)
                    break
                except SingularChannelError:
                    attempt += 1
            resamples += attempt
            errors += np.count_nonzero(qam_demap(estimates, qam) != bits)
            point_squared += np.sum(np.abs(estimates - symbols) ** 2)
        values.append(errors / (trials * n * qam.bits_per_symbol))
        squared.append(point_squared)
    return np.array(values), resamples, np.array(squared)


class TestSingularResampling:
    """Exactly singular ZF draws are redrawn from the next attempt's stream
    and counted; MMSE never resamples."""

    GRID = np.array([0.0, 10.0, 20.0])

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    @pytest.mark.parametrize("scheme", [Scheme.OFDM, Scheme.RPSDM])
    @pytest.mark.parametrize("detector", [Detector.ZF, Detector.MMSE])
    def test_resampled_draws_match_a_scalar_replay(self, monkeypatch, scheme, detector, chunk):
        # 18 (point, trial) rows: one batch, or split across batch boundaries
        draw = forced_draw_channel(rpsdm.metrics.draw_channel)
        monkeypatch.setattr(rpsdm.metrics, "draw_channel", draw)
        monkeypatch.setattr(rpsdm.metrics, "_BER_CHUNK", chunk)
        curve = ber_curve(scheme, detector, 4, 2, QAM16, self.GRID, trials=6, seed=21)
        values, resamples, squared = replay_ber(scheme, detector, 4, 2, QAM16, self.GRID,
                                                6, 21, draw)
        expected = sum(SINGULAR_ATTEMPTS.values()) if detector is Detector.ZF else 0
        assert resamples == expected
        assert curve.metadata["resampled_trials"] == expected
        assert np.array_equal(curve.values, values)
        np.testing.assert_allclose(curve.squared_error, squared, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_only_the_singular_receiver_resamples(self, monkeypatch, chunk):
        # all four receivers in one call: the ZF ones rerun their rows, the
        # MMSE ones keep attempt 0, and every curve still equals its replay
        draw = forced_draw_channel(rpsdm.metrics.draw_channel)
        monkeypatch.setattr(rpsdm.metrics, "draw_channel", draw)
        monkeypatch.setattr(rpsdm.metrics, "_BER_CHUNK", chunk)
        curves = ber_curves(SCHEMES, DETECTORS, 4, 2, QAM16, self.GRID, trials=6, seed=21)
        singular = sum(SINGULAR_ATTEMPTS.values())
        assert [c.metadata["resampled_trials"] for c in curves] == [singular, 0, singular, 0]
        for curve in curves:
            values, resamples, squared = replay_ber(curve.scheme, curve.detector, 4, 2, QAM16,
                                                    self.GRID, 6, 21, draw)
            assert curve.metadata["resampled_trials"] == resamples
            assert np.array_equal(curve.values, values)
            np.testing.assert_allclose(curve.squared_error, squared, rtol=1e-12, atol=0)

    def test_endless_singular_draws_raise(self, monkeypatch):
        always = {(0, 0): np.inf}
        monkeypatch.setattr(rpsdm.metrics, "draw_channel",
                            forced_draw_channel(rpsdm.metrics.draw_channel, always))
        with pytest.raises(RuntimeError, match="exceeded 1000 singular-channel resamples"):
            ber_curve(Scheme.OFDM, Detector.ZF, 4, 2, QAM16, np.array([10.0]), 1, 0)


class TestComplexityReport:
    def test_table_rows_n4(self):
        rows = {(r.operation, r.scheme): (r.real_mults, r.real_adds)
                for r in complexity_report(4)}
        assert rows[("modulator_fast", Scheme.OFDM)] == (16, 24)
        assert rows[("modulator_fast", Scheme.RPSDM)] == (24, 16)
        assert rows[("modulator_direct", Scheme.OFDM)] == (64, 56)
        assert rows[("modulator_direct", Scheme.RPSDM)] == (32, 24)

    def test_table_rows_n64(self):
        rows = {(r.operation, r.scheme): (r.real_mults, r.real_adds)
                for r in complexity_report(64)}
        assert rows[("modulator_fast", Scheme.OFDM)] == (768, 1152)
        assert rows[("modulator_fast", Scheme.RPSDM)] == (896, 768)

    def test_degenerate_n1(self):
        rows = {(r.operation, r.scheme): (r.real_mults, r.real_adds)
                for r in complexity_report(1)}
        assert rows[("modulator_direct", Scheme.OFDM)] == (4, 2)
        assert rows[("modulator_direct", Scheme.RPSDM)] == (2, 0)
        assert rows[("modulator_fast", Scheme.OFDM)] == (0, 0)
        assert rows[("modulator_fast", Scheme.RPSDM)] == (2, 0)

    def test_no_fast_rows_for_non_power_of_two(self):
        operations = {r.operation for r in complexity_report(12)}
        assert operations == {"modulator_direct", "receiver"}
