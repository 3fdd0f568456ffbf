"""PAPR statistics, BER Monte Carlo, and operation-count reporting.

Monte Carlo determinism: every trial draws from its own stream keyed by
(master seed, curve point index, trial index, attempt), so curves are
bit-identical regardless of chunking, but for the CCDF's gemm case below.
One BER engine (``ber_curves``) runs every requested receiver on the same
draws: each (point, trial) row's stream draws its taps, bits and frame
noise once, in three generator calls (``_ber_draws``). The engine runs the
channel on the frame spectrum: a CP of L-1 samples makes the channel
circular, so the unitary spectrum of the CP-stripped received block is the
per-bin product Y = H X + fft(w[L-1:], norm="ortho"), with H the DFT of the taps (the
effective channel's gains), X the unitary spectrum of the transmitted block
and w the frame noise. X is the symbols themselves for OFDM. For RPSDM it
is the fft of the O(N) Haar butterfly's block at power-of-two N, and at
other N the per-subspace spectrum X[supp q] = A_q s_q / sqrt(N)
(``PeriodicTransform.spectrum``). The time-domain chain ``add_cp``,
``transmit`` and ``remove_cp`` stays the library route and the engine's
test oracle; no row runs it. Each (scheme, detector) receiver equalizes Y
through ``equalize_spectrum``, per bin or per divisor block, and demaps;
``forward @ e_r = I`` makes Y the spectrum that ``equalize`` would rebuild
from the demodulated block, so no receiver demodulates. So at any N a trial
runs no N x N product and a BER job builds no N x N matrix.
Every stage runs once per chunk of rows on (rows, N) arrays, giving each row
the bytes of its own 1-D call, so a curve does not depend on the chunk size,
on which rows share a batch, or on which other receivers run beside it. A
receiver whose ZF equalizer draws an exactly singular channel in a batch
reruns that batch a row at a time, each row redrawn from its next attempt's
stream until it equalizes; the other receivers keep the batch. SNR is Es/N0
with unit-power symbols: sigma^2 = 10^(-SNR/10).

One CCDF engine (``papr_ccdfs``) runs every curve of a job on the same
blocks: block t draws its symbol indices from the stream keyed (master
seed, t), once at the job's largest N, and the curve at each N reads the
first N of them, which is the draw of that length from the same stream.
The indices ``integers(0, m, N)`` would draw are read straight from each
stream's raw 64-bit words (m is a power of two), held for a chunk in one
array. Each N walks the chunk in row tiles of ``_CCDF_TILE // N`` rows, so
a tile's symbols and blocks stay in cache: a tile gathers its symbols once,
and each curve synthesizes its blocks and writes their PAPRs into a
chunk-long buffer once per tile. Each curve then counts the chunk's PAPRs
above every threshold at once, from their sorted order. OFDM synthesizes by
the unitary ifft and RPSDM at power-of-two N by the O(N) Haar butterfly,
with no plan, both row-exact at any tile height. RPSDM at other N takes a
real gemm on its basis, whose 1-row product (a gemv) rounds differently, so
at such N the tile is the whole chunk. A 1-row chunk (a trial count one more
than a multiple of ``_CCDF_CHUNK``) is still a gemv there, so at such N a
block whose PAPR lies within that rounding (up to 2.2e-15 at N = 360) of a
threshold could count differently under another chunk size.

Every stream of both engines is the one ``np.random.default_rng(key)``
gives, but neither engine seeds one per row: ``streams._key_streams``
computes a chunk's SeedSequence hashes and PCG64 seeds together in numpy
and loads each row's state into one reused Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelRealization, draw_channel, effective_channel
from .detection import (Detector, DetectorSpec, QamConstellation, SingularChannelError,
                        equalize_spectrum, qam_demap, qam_map)
from .number_theory import divisor_set, is_power_of_two, totient
from .ramanujan import ramanujan_sum
from .streams import _key_streams, _raw_indices
from .transforms import Scheme, direct_flops, fast_flops, haar_synthesis, make_plan
# unused here: the benchmark tracer (bench/spans.py) looks these up in this module
from .channel import add_cp, remove_cp, transmit  # noqa: F401
from .detection import equalize  # noqa: F401
from .transforms import demodulate, modulate  # noqa: F401

#: binomial 95% confidence half-width multiplier
_CI_Z = 1.96

#: trials per batched CCDF chunk (fixed so output never depends on memory)
_CCDF_CHUNK = 2048

#: samples per CCDF row tile: 512 KiB of complex128 per block array, so a
#: tile's symbols and blocks stay in a core's L2 cache
_CCDF_TILE = 1 << 15

#: (SNR point, trial) rows per batched BER chunk (fixed, like _CCDF_CHUNK)
_BER_CHUNK = 64

#: guard against unbounded resampling on pathological configurations
_MAX_RESAMPLES_PER_TRIAL = 1000


def papr(x: np.ndarray) -> float:
    """Peak-to-average power ratio max|x|^2 / mean|x|^2 (linear)."""
    power = np.abs(np.asarray(x)) ** 2
    mean = power.mean() if power.size else 0.0
    if mean == 0.0:
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


def _ccdf_synthesis(scheme: Scheme, n: int):
    """The synthesis of (rows, N) symbols for one CCDF curve: OFDM's ifft,
    RPSDM's Haar butterfly at power-of-two N, and else the real gemm on the
    dense basis, the fastest route per row there and its only engine use."""
    if scheme is Scheme.OFDM:
        return lambda symbols: np.fft.ifft(symbols, norm="ortho")
    if is_power_of_two(n):
        return haar_synthesis
    forward_t = make_plan(scheme, n).forward.T.copy()
    # real basis: two real gemms cost half of one complex gemm
    return lambda symbols: symbols.real @ forward_t + 1j * (symbols.imag @ forward_t)


def _papr_db(blocks: np.ndarray) -> np.ndarray:
    """The PAPR in dB of each row of (rows, N) blocks in any memory order.
    The power is made row-contiguous before the row mean: numpy sums a
    contiguous row pairwise, so a row's value does not depend on the batch's
    layout."""
    power = np.abs(blocks, order="C")
    np.square(power, out=power)
    return 10.0 * np.log10(power.max(axis=1) / power.mean(axis=1))


def papr_ccdfs(schemes, n_list, constellation: QamConstellation,
               thresholds_db: np.ndarray, trials: int, seed: int) -> list[CurveResult]:
    """Fraction of random-symbol blocks whose PAPR exceeds each threshold,
    one curve per (N, scheme) in ``for n ... for scheme ...`` order.

    Symbols are uniform over the constellation; PAPR is computed at Nyquist
    rate over the n block samples. Block t of every curve draws from the
    stream ``[seed, t]``, once at the largest N: a shorter block is the
    prefix of that draw, which is what a draw of its own length from the
    same stream gives. So each curve equals its own ``papr_ccdf`` call.
    Blocks are synthesized once per row tile of a chunk (see the module
    docstring). Each curve counts a chunk's blocks above every threshold at
    once: the chunk's rows less the threshold's right insertion point in
    the sorted PAPRs, which is a strict ">" count for thresholds in any
    order. A curve does not depend on the chunk or tile size, but for one
    case: RPSDM at non-power-of-two N synthesizes a 1-row chunk by gemv,
    which can round differently (by up to 2.2e-15 at N = 360), so there a
    block whose PAPR lies that close to a threshold could count differently.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not schemes or not n_list:
        raise ValueError("need at least one scheme and one block length")
    if not is_power_of_two(constellation.m):
        raise ValueError(f"CCDF symbols need a power-of-two modulation order, "
                         f"got {constellation.m}")
    thresholds_db = np.asarray(thresholds_db, dtype=np.float64)
    points = constellation.points
    synthesis = {n: {scheme: _ccdf_synthesis(scheme, n) for scheme in schemes} for n in n_list}
    exceed = {(n, scheme): np.zeros(thresholds_db.shape[0], dtype=np.int64)
              for n in n_list for scheme in schemes}
    raw = np.empty((min(trials, _CCDF_CHUNK), (max(n_list) + 1) // 2), dtype=np.uint64)
    ratios = {scheme: np.empty(raw.shape[0]) for scheme in schemes}
    for start in range(0, trials, _CCDF_CHUNK):
        rows = min(_CCDF_CHUNK, trials - start)
        chunk = raw[:rows]
        for r, rng in enumerate(_key_streams(seed, np.arange(start, start + rows))):
            chunk[r] = rng.bit_generator.random_raw(chunk.shape[1])
        for n, by_scheme in synthesis.items():
            # rows per tile; where RPSDM takes the gemm, the whole chunk
            gemm = Scheme.RPSDM in by_scheme and not is_power_of_two(n)
            height = rows if gemm else max(1, _CCDF_TILE // n)
            for lo in range(0, rows, height):
                hi = min(lo + height, rows)
                # each row's first N indices of its draw at the largest N,
                # gathered once for every scheme
                words = chunk[lo:hi, :(n + 1) // 2]
                symbols = points[_raw_indices(words, n, constellation.m)]
                for scheme, synthesize in by_scheme.items():
                    ratios[scheme][lo:hi] = _papr_db(synthesize(symbols))
            for scheme in by_scheme:
                ranked = np.sort(ratios[scheme][:rows])
                exceed[n, scheme] += rows - np.searchsorted(ranked, thresholds_db, side="right")
    curves = []
    for n in n_list:
        for scheme in schemes:
            values = exceed[n, scheme] / trials
            ci_low, ci_high = _binomial_ci(values, trials)
            curves.append(CurveResult(
                scheme=scheme, detector=None, n=n, l=None, m=constellation.m,
                grid=thresholds_db, values=values, ci_low=ci_low, ci_high=ci_high,
                trials=trials, seed=seed))
    return curves


def papr_ccdf(scheme: Scheme, n: int, constellation: QamConstellation,
              thresholds_db: np.ndarray, trials: int, seed: int) -> CurveResult:
    """The CCDF of one scheme at one N: ``papr_ccdfs`` with a single curve,
    so its values equal that curve in any larger call."""
    return papr_ccdfs((scheme,), (n,), constellation, thresholds_db, trials, seed)[0]


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


def _ber_draws(seed: int, points: np.ndarray, trials: np.ndarray, attempt: int, n: int,
               l: int, bits_per: int, sigma2: np.ndarray):
    """Each row's taps, bits and frame noise, drawn in that order from stream
    ``[seed, points[row], trials[row], attempt]`` (``_key_streams``) with
    three calls: ``draw_channel``, then the raw words that hold the bits
    ``integers(0, 2, n * bits_per)`` would draw, then the 2(N + L - 1)
    normals of ``awgn`` at noise variance ``sigma2[row]``, scaled for all
    rows at once. Each row gets the bytes of those per-row draws."""
    frame = n + l - 1
    rows = len(points)
    taps = np.empty((rows, l), dtype=np.complex128)
    raw = np.empty((rows, (n * bits_per + 1) // 2), dtype=np.uint64)
    normals = np.empty((rows, 2 * frame))
    for r, rng in enumerate(_key_streams(seed, points, trials, attempt)):
        taps[r] = draw_channel(rng, l, n).taps
        raw[r] = rng.bit_generator.random_raw(raw.shape[1])
        rng.standard_normal(out=normals[r])
    bits = _raw_indices(raw, n * bits_per, 2)
    noise = (normals[:, :frame] + 1j * normals[:, frame:]) * np.sqrt(sigma2 / 2.0)[:, None]
    return taps, bits, noise


def _ber_trial(receivers, constellation, l: int, sigma2: np.ndarray, seed: int,
               points: np.ndarray, trials: np.ndarray, attempt: int) -> list:
    """End-to-end trials as one batch, a row per ``(points[row], trials[row])``
    on stream ``[seed, point, trial, attempt]`` (``_key_streams``) with noise
    variance ``sigma2[row]``, through every ``(plan, detector)`` receiver.
    Each row's stream draws its taps, bits and frame AWGN in that order,
    once for all receivers. The CP makes the channel circular, so the
    unitary spectrum of a received block is the per-bin product
    ``Y = H X + fft(w[l-1:], norm="ortho")``: H the DFT of the taps
    (``effective_channel``'s gains), X the unitary spectrum of the
    transmitted block and w the frame noise, whose spectrum every scheme
    shares. X is the symbols for OFDM; for RPSDM, the fft of the Haar
    butterfly's block at power-of-two N, else the transform's ``spectrum``.
    Each receiver makes one ``equalize_spectrum`` call on its scheme's Y.
    Returns, per receiver, each row's (bit errors, summed squared symbol
    error), or None where a ZF row hit an exact zero and that receiver's
    equalizer raised SingularChannelError for the whole batch."""
    n = receivers[0][0].n
    taps, bits, noise = _ber_draws(seed, points, trials, attempt, n, l,
                                   constellation.bits_per_symbol, sigma2)
    ch = ChannelRealization(taps=taps, n=n)
    symbols = qam_map(bits, constellation)
    noise_spectrum = np.fft.fft(noise[:, l - 1:], norm="ortho")
    received = {}
    results = []
    for plan, detector in receivers:
        if plan.scheme not in received:
            eff = effective_channel(plan.scheme, ch, plan.transform)
            if plan.scheme is Scheme.OFDM:
                sent = symbols
            elif plan.transform.transpose_path:
                sent = np.fft.fft(haar_synthesis(symbols), norm="ortho")
            else:
                sent = plan.transform.spectrum(symbols)
            received[plan.scheme] = (eff.gains * sent + noise_spectrum, eff)
        spectrum, eff = received[plan.scheme]
        spec = DetectorSpec.zf() if detector is Detector.ZF else DetectorSpec.mmse(sigma2)
        try:
            estimates = equalize_spectrum(spec, eff, spectrum)
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
        point, trial = np.divmod(rows, trials)
        return _ber_trial(chosen, constellation, l, sigma2[point], seed, point, trial,
                          attempt)

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
