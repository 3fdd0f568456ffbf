"""Tests for PAPR statistics, Monte Carlo curves, and complexity reporting."""

import math

import numpy as np
import pytest

import rpsdm.metrics
from rpsdm.channel import (ChannelRealization, add_cp, awgn, effective_channel, remove_cp,
                           transmit)
from rpsdm.detection import (Detector, DetectorSpec, QamConstellation, SingularChannelError,
                             equalize, qam_demap, qam_map)
from rpsdm.metrics import (ber_curve, ber_curves, ccdf_crossing, complexity_report,
                           gamma_coefficient, papr, papr_ccdf, papr_db,
                           worst_case_papr)
from rpsdm.number_theory import totient
from rpsdm.transforms import Scheme, demodulate, make_plan, modulate

PRIMES_TO_97 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                53, 59, 61, 67, 71, 73, 79, 83, 89, 97]

QAM16 = QamConstellation.from_order(16)


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

    def test_rejects_zero_block(self):
        with pytest.raises(ValueError):
            papr(np.zeros(4))

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

    def test_deterministic_and_chunk_independent(self):
        grid = np.arange(0.0, 12.0, 1.0)
        a = papr_ccdf(Scheme.RPSDM, 8, QAM16, grid, 2500, seed=3)
        b = papr_ccdf(Scheme.RPSDM, 8, QAM16, grid, 2500, seed=3)
        np.testing.assert_array_equal(a.values, b.values)

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


SCHEMES = (Scheme.OFDM, Scheme.RPSDM)
DETECTORS = (Detector.ZF, Detector.MMSE)


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


def forced_draw_channel(real_draw, singular=SINGULAR_ATTEMPTS):
    """draw_channel that still consumes the real taps' draws, then hands back
    the singular taps for the chosen (point, trial, attempt) streams. It keys
    on the stream's seed, not on call order."""
    def draw(rng, l, n):
        ch = real_draw(rng, l, n)
        _, p, t, attempt = rng.bit_generator.seed_seq.entropy
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
