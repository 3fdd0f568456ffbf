"""PAPR statistics, BER Monte Carlo, and operation-count reporting.

Monte Carlo determinism: every trial draws from its own stream seeded by
(master seed, curve point index, trial index, attempt), so curves are
bit-identical regardless of chunking. One BER engine (``ber_curves``) runs
every requested receiver on the same draws: each (point, trial) row's stream
draws its taps, bits and noise once (``transmit`` adds the drawn noise and
draws none itself), each scheme modulates, transmits and demodulates them
once, and each (scheme, detector) receiver equalizes and demaps them.
Every stage runs once per chunk of rows on (rows, N) arrays, giving each row
the bytes of its own 1-D call, so a curve does not depend on the chunk size,
on which rows share a batch, or on which other receivers run beside it. A
receiver whose ZF equalizer draws an exactly singular channel in a batch
reruns that batch a row at a time, each row redrawn from its next attempt's
stream until it equalizes; the other receivers keep the batch. SNR is Es/N0
with unit-power symbols: sigma^2 = 10^(-SNR/10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (ChannelRealization, add_cp, awgn, draw_channel, effective_channel,
                      remove_cp, transmit)
from .detection import (Detector, DetectorSpec, QamConstellation, SingularChannelError,
                        equalize, qam_demap, qam_map)
from .number_theory import divisor_set, is_power_of_two, totient
from .ramanujan import ramanujan_sum
from .transforms import Scheme, direct_flops, fast_flops, make_plan, modulate, demodulate

#: binomial 95% confidence half-width multiplier
_CI_Z = 1.96

#: trials per batched CCDF chunk (fixed so output never depends on memory)
_CCDF_CHUNK = 2048

#: (SNR point, trial) rows per batched BER chunk (fixed, like _CCDF_CHUNK)
_BER_CHUNK = 64

#: guard against unbounded resampling on pathological configurations
_MAX_RESAMPLES_PER_TRIAL = 1000


def papr(x: np.ndarray) -> float:
    """Peak-to-average power ratio max|x|^2 / mean|x|^2 (linear)."""
    x = np.asarray(x)
    power = np.abs(x) ** 2
    mean = power.mean()
    if x.size == 0 or mean == 0.0:
        raise ValueError("PAPR is undefined for an empty or all-zero block")
    return float(power.max() / mean)


def papr_db(x: np.ndarray) -> float:
    return 10.0 * math.log10(papr(x))


def gamma_coefficient(q: int) -> int:
    """Partial period sum gamma_q = sum_{l=0}^{phi(q)-1} c_q[l].

    Equals q - phi(q) for prime q and p^{t-1} for prime powers p^t.
    """
    return int(ramanujan_sum(q).values[:totient(q)].sum())


def worst_case_papr(scheme: Scheme, n: int, constellation: QamConstellation) -> float:
    """Closed-form worst-case PAPR in dB for an all-corner-symbol block.

    OFDM: beta^2 N / alpha^2. Subspace scheme: the block peaks at sample 0
    with amplitude (beta/sqrt(N)) * sum_q gamma_q / sqrt(phi(q)), giving
    beta^2 (sum_q gamma_q/sqrt(phi_q))^2 / (N alpha^2).
    """
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    if scheme is Scheme.OFDM:
        chi = constellation.beta2 * n / constellation.alpha2
    else:
        layout = divisor_set(n)
        total = sum(gamma_coefficient(q) / math.sqrt(phi) for q, phi, _ in layout.blocks())
        chi = constellation.beta2 * total ** 2 / (n * constellation.alpha2)
    return 10.0 * math.log10(chi)


@dataclass(frozen=True)
class CurveResult:
    """One measured curve plus enough configuration to re-run it."""

    scheme: Scheme
    detector: Detector | None
    n: int
    l: int | None
    m: int
    grid: np.ndarray
    values: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    trials: int
    seed: int
    metadata: dict = field(default_factory=dict)
    #: summed squared symbol error per point (BER curves); no writer prints it
    squared_error: np.ndarray | None = None

    def config_echo(self) -> dict:
        return {
            "scheme": self.scheme.value,
            "detector": self.detector.value if self.detector else None,
            "n": self.n, "l": self.l, "m": self.m,
            "trials": self.trials, "seed": self.seed,
            "grid": [float(v) for v in self.grid],
        }


def _binomial_ci(values: np.ndarray, trials: int) -> tuple[np.ndarray, np.ndarray]:
    half = _CI_Z * np.sqrt(values * (1.0 - values) / trials)
    return np.clip(values - half, 0.0, 1.0), np.clip(values + half, 0.0, 1.0)


def papr_ccdf(scheme: Scheme, n: int, constellation: QamConstellation,
              thresholds_db: np.ndarray, trials: int, seed: int) -> CurveResult:
    """Fraction of random-symbol blocks whose PAPR exceeds each threshold.

    Symbols are uniform over the constellation; PAPR is computed at Nyquist
    rate over the n block samples.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    thresholds_db = np.asarray(thresholds_db, dtype=np.float64)
    points = constellation.points
    forward_t = None
    if scheme is Scheme.RPSDM:
        forward_t = make_plan(scheme, n).forward.T.copy()
    exceed = np.zeros(thresholds_db.shape[0], dtype=np.int64)
    for start in range(0, trials, _CCDF_CHUNK):
        stop = min(start + _CCDF_CHUNK, trials)
        idx = np.empty((stop - start, n), dtype=np.int64)
        for t in range(start, stop):
            idx[t - start] = np.random.default_rng([seed, t]).integers(0, constellation.m, n)
        symbols = points[idx]
        if scheme is Scheme.OFDM:
            blocks = math.sqrt(n) * np.fft.ifft(symbols, axis=1)
        else:
            # real basis: two real gemms cost half of one complex gemm
            blocks = symbols.real @ forward_t + 1j * (symbols.imag @ forward_t)
        power = np.abs(blocks) ** 2
        ratios_db = 10.0 * np.log10(power.max(axis=1) / power.mean(axis=1))
        exceed += (ratios_db[:, None] > thresholds_db[None, :]).sum(axis=0)
    values = exceed / trials
    ci_low, ci_high = _binomial_ci(values, trials)
    return CurveResult(scheme=scheme, detector=None, n=n, l=None, m=constellation.m,
                       grid=thresholds_db, values=values, ci_low=ci_low, ci_high=ci_high,
                       trials=trials, seed=seed)


def ccdf_crossing(grid_db: np.ndarray, values: np.ndarray, level: float) -> float | None:
    """Threshold (dB) where the curve crosses ``level``, log-linear
    interpolation between grid points; None if the curve never reaches it."""
    grid_db = np.asarray(grid_db, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    below = np.flatnonzero(values < level)
    if below.size == 0:
        return None
    i = int(below[0])
    if i == 0:
        return float(grid_db[0])
    v0, v1 = values[i - 1], values[i]
    if v1 <= 0.0:
        # fall back to linear interpolation when the tail hits exactly zero
        frac = (v0 - level) / (v0 - v1)
    else:
        frac = (math.log10(v0) - math.log10(level)) / (math.log10(v0) - math.log10(v1))
    return float(grid_db[i - 1] + frac * (grid_db[i] - grid_db[i - 1]))


def noise_variance(snr_grid_db: np.ndarray) -> np.ndarray:
    """sigma^2 = 10^(-SNR/10) per point of an SNR grid in dB; raises
    ValueError unless every one is a positive finite number."""
    with np.errstate(over="ignore"):
        sigma2 = np.array([10.0 ** (-snr_db / 10.0) for snr_db in snr_grid_db])
    bad = np.flatnonzero(~((sigma2 > 0) & np.isfinite(sigma2)))
    if bad.size:
        i = bad[0]
        raise ValueError(f"SNR {snr_grid_db[i]:g} dB gives noise variance {sigma2[i]:g}, "
                         "not a positive finite number")
    return sigma2


def _ber_trial(receivers, constellation, l: int, sigma2: np.ndarray,
               seed_keys: list[tuple[int, ...]], attempt: int) -> list:
    """End-to-end trials as one batch, a row per seed key at stream
    ``attempt`` and noise variance ``sigma2[row]``, through every ``(plan,
    detector)`` receiver. Each row's stream draws its taps, bits and AWGN in
    that order, once for all receivers; each scheme modulates, transmits,
    demodulates and builds its effective channel once on the (rows, N)
    arrays, and each receiver equalizes and demaps once. Returns, per
    receiver, each row's (bit errors, summed squared symbol error), or None
    where a ZF row hit an exact zero and that receiver's equalize raised
    SingularChannelError for the whole batch."""
    n = receivers[0][0].n
    bits_per = constellation.bits_per_symbol
    frame = n + l - 1
    rows = len(seed_keys)
    taps = np.empty((rows, l), dtype=np.complex128)
    bits = np.empty((rows, n * bits_per), dtype=np.int64)
    noise = np.empty((rows, frame), dtype=np.complex128)
    for r, key in enumerate(seed_keys):
        rng = np.random.default_rng([*key, attempt])
        taps[r] = draw_channel(rng, l, n).taps
        bits[r] = rng.integers(0, 2, n * bits_per)
        noise[r] = awgn(rng, frame, sigma2[r])
    ch = ChannelRealization(taps=taps, n=n)
    symbols = qam_map(bits, constellation)
    received = {}
    results = []
    for plan, detector in receivers:
        if plan.scheme not in received:
            x = modulate(plan, symbols)
            frames = transmit(add_cp(x, l), ch, noise)
            received[plan.scheme] = (demodulate(plan, remove_cp(frames, l)),
                                     effective_channel(plan.scheme, ch, plan.transform))
        demod, eff = received[plan.scheme]
        spec = DetectorSpec.zf() if detector is Detector.ZF else DetectorSpec.mmse(sigma2)
        try:
            estimates = equalize(spec, eff, demod)
        except SingularChannelError:
            results.append(None)
            continue
        decided = qam_demap(estimates, constellation)
        results.append((np.count_nonzero(decided != bits, axis=1),
                        np.sum(np.abs(estimates - symbols) ** 2, axis=1)))
    return results


def ber_curves(schemes, detectors, n: int, l: int, constellation: QamConstellation,
               snr_grid_db: np.ndarray, trials: int, seed: int) -> list[CurveResult]:
    """Bit error rate per SNR point of every (scheme, detector) receiver, in
    ``for scheme ... for detector ...`` order, over fresh channel, symbols
    and noise per trial. Every receiver sees the same draws.

    The (point, trial) rows run through ``_ber_trial`` in batches of
    ``_BER_CHUNK``, with one plan per scheme. A receiver whose ZF equalizer
    hits a singular draw in a batch reruns that batch one row at a time,
    each row on attempts 0, 1, ... of its own stream until one equalizes;
    every attempt that fails counts as a resampled trial of that curve. The
    other receivers keep the batch's attempt-0 results. Each curve also
    carries its summed squared symbol error per point."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= n, got l={l}, n={n}")
    if not schemes or not detectors:
        raise ValueError("need at least one scheme and one detector")
    snr_grid_db = np.asarray(snr_grid_db, dtype=np.float64)
    sigma2 = noise_variance(snr_grid_db)
    plans = {scheme: make_plan(scheme, n) for scheme in schemes}
    receivers = [(plans[scheme], detector) for scheme in schemes for detector in detectors]
    points = snr_grid_db.shape[0]
    errors = np.zeros((len(receivers), points * trials), dtype=np.int64)
    squared = np.zeros((len(receivers), points * trials))
    resamples = [0] * len(receivers)

    def run(chosen: list, rows: np.ndarray, attempt: int) -> list:
        keys = [(seed, *divmod(int(row), trials)) for row in rows]
        return _ber_trial(chosen, constellation, l, sigma2[rows // trials], keys, attempt)

    for start in range(0, points * trials, _BER_CHUNK):
        rows = np.arange(start, min(start + _BER_CHUNK, points * trials))
        for i, result in enumerate(run(receivers, rows, 0)):
            if result is not None:
                errors[i, rows], squared[i, rows] = result
                continue
            for row in rows[:, None]:
                for attempt in range(_MAX_RESAMPLES_PER_TRIAL):
                    (result,) = run([receivers[i]], row, attempt)
                    if result is not None:
                        errors[i, row], squared[i, row] = result
                        break
                    resamples[i] += 1
                else:
                    raise RuntimeError(
                        f"exceeded {_MAX_RESAMPLES_PER_TRIAL} singular-channel resamples")

    bits_per_trial = n * constellation.bits_per_symbol
    curves = []
    for i, (plan, detector) in enumerate(receivers):
        values = errors[i].reshape(points, trials).sum(axis=1) / (trials * bits_per_trial)
        ci_low, ci_high = _binomial_ci(values, trials * bits_per_trial)
        curves.append(CurveResult(
            scheme=plan.scheme, detector=detector, n=n, l=l, m=constellation.m,
            grid=snr_grid_db, values=values, ci_low=ci_low, ci_high=ci_high,
            trials=trials, seed=seed, metadata={"resampled_trials": resamples[i]},
            squared_error=squared[i].reshape(points, trials).sum(axis=1)))
    return curves


def ber_curve(scheme: Scheme, detector: Detector, n: int, l: int,
              constellation: QamConstellation, snr_grid_db: np.ndarray,
              trials: int, seed: int) -> CurveResult:
    """The BER curve of one receiver: ``ber_curves`` with a single scheme and
    detector, so its values equal that receiver's curve in any larger call."""
    return ber_curves((scheme,), (detector,), n, l, constellation, snr_grid_db,
                      trials, seed)[0]


@dataclass(frozen=True)
class ComplexityRow:
    operation: str
    scheme: Scheme
    real_mults: int
    real_adds: int


def complexity_report(n: int) -> list[ComplexityRow]:
    """Real-operation counts for both schemes: dense modulators for any n,
    fast paths when n is a power of two, and the per-block receiver."""
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    counts = {"modulator_direct": direct_flops}
    if is_power_of_two(n):
        counts["modulator_fast"] = fast_flops
    rows = []
    for operation, flops in counts.items():
        for scheme in (Scheme.OFDM, Scheme.RPSDM):
            fc = flops(scheme, n)
            rows.append(ComplexityRow(operation, scheme, fc.real_mults, fc.real_adds))
    layout = divisor_set(n)
    block_mults = 4 * sum(phi * phi for _, phi, _ in layout.blocks())
    block_adds = sum(2 * phi * (2 * phi - 1) for _, phi, _ in layout.blocks())
    rows.append(ComplexityRow("receiver", Scheme.OFDM, 4 * n, 2 * n))
    rows.append(ComplexityRow("receiver", Scheme.RPSDM, block_mults, block_adds))
    return rows
