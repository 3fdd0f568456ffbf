"""Tests for ZF/MMSE equalization and QAM mapping."""

import numpy as np
import pytest

from rpsdm.channel import (ChannelRealization, EffectiveChannel, add_cp, awgn, circulant_matrix,
                           draw_channel, effective_channel, remove_cp, transmit)
from rpsdm.detection import (Detector, DetectorSpec, QamConstellation,
                             SingularChannelError, equalize, equalize_spectrum, qam_demap,
                             qam_map)
from rpsdm.metrics import complexity_report
from rpsdm.number_theory import divisor_set
from rpsdm.ramanujan import build_transform
from rpsdm.transforms import Scheme, demodulate, make_plan, modulate


def min_singular_value(eff: EffectiveChannel) -> float:
    return float(np.linalg.svd(eff.matrix, compute_uv=False).min())


def run_noise_free_chain(scheme: Scheme, n: int, l: int, qam: QamConstellation,
                         rng: np.random.Generator):
    """map -> modulate -> CP -> channel -> demodulate -> equalize -> demap."""
    plan = make_plan(scheme, n)
    ch = draw_channel(rng, l, n)
    eff = effective_channel(scheme, ch, plan.transform)
    bits = rng.integers(0, 2, n * qam.bits_per_symbol)
    x = modulate(plan, qam_map(bits, qam))
    y = remove_cp(transmit(add_cp(x, l), ch), l)
    estimates = equalize(DetectorSpec.zf(), eff, demodulate(plan, y))
    return bits, qam_demap(estimates, qam), eff


class TestDetectorSpec:
    def test_constructors(self):
        assert DetectorSpec.zf() == DetectorSpec(Detector.ZF, 0.0)
        assert DetectorSpec.mmse(0.25).zeta == 0.25

    def test_invariants(self):
        with pytest.raises(ValueError):
            DetectorSpec(Detector.MMSE, 0.0)
        with pytest.raises(ValueError):
            DetectorSpec(Detector.ZF, 0.1)
        with pytest.raises(ValueError):
            DetectorSpec(Detector.ZF, -1.0)


class TestEqualize:
    def test_identity_channel(self):
        ch = ChannelRealization(taps=np.array([1.0 + 0j]), n=4)
        eff = effective_channel(Scheme.OFDM, ch)
        y = np.arange(4) + 1j
        np.testing.assert_allclose(equalize(DetectorSpec.zf(), eff, y), y, atol=1e-12)

    def test_scalar_block_inversion(self):
        # N = 1: a single 1x1 block with coefficient 2, so y = 4 -> estimate 2
        ch = ChannelRealization(taps=np.array([2.0 + 0j]), n=1)
        eff = effective_channel(Scheme.RPSDM, ch, build_transform(1))
        out = equalize(DetectorSpec.zf(), eff, np.array([4.0 + 0j]))
        np.testing.assert_allclose(out, [2.0], atol=1e-12)

    def test_zf_inverts_random_block_channel(self):
        transform = build_transform(8)
        rng = np.random.default_rng(17)
        for _ in range(10):
            ch = draw_channel(rng, 4, 8)
            eff = effective_channel(Scheme.RPSDM, ch, transform)
            x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            y = eff.matrix @ x
            np.testing.assert_allclose(equalize(DetectorSpec.zf(), eff, y), x, atol=1e-9)

    def test_large_regularizer_shrinks_to_zero(self):
        ch = draw_channel(3, 2, 8)
        eff = effective_channel(Scheme.OFDM, ch)
        out = equalize(DetectorSpec.mmse(1e12), eff, np.ones(8, dtype=complex))
        assert np.abs(out).max() < 1e-9

    def test_singular_bin_flagged(self):
        # taps (1, -1j) have the DFT gain 1 - 1j * (-1j) = 0 at bin 1 of N = 4
        ch = ChannelRealization(taps=np.array([1, -1j]), n=4)
        eff = effective_channel(Scheme.OFDM, ch)
        with pytest.raises(SingularChannelError) as info:
            equalize(DetectorSpec.zf(), eff, np.ones(4, dtype=complex))
        assert "bin 1" in str(info.value)

    def test_length_mismatch(self):
        ch = draw_channel(3, 2, 8)
        eff = effective_channel(Scheme.OFDM, ch)
        with pytest.raises(ValueError):
            equalize(DetectorSpec.zf(), eff, np.ones(7, dtype=complex))


def dense_solve(spec: DetectorSpec, dense: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Reference equalizer: one full N x N solve, solve(D, y) for ZF and
    solve(D^H D + zeta I, D^H y) for MMSE."""
    if spec.kind is Detector.ZF:
        return np.linalg.solve(dense, y)
    d_adj = dense.conj().T
    return np.linalg.solve(d_adj @ dense + spec.zeta * np.eye(len(y)), d_adj @ y)


class TestPerBinEqualizer:
    """``equalize`` (per bin, or MMSE's per-block solve on the spectrum at
    non-power-of-two N) against a full dense solve on the product
    e_r @ H_cir @ forward."""

    @pytest.mark.parametrize("n", [1, 2, 4, 6, 12, 30, 96, 128, 360])
    def test_matches_dense_block_solve(self, n):
        transform = build_transform(n)
        rng = np.random.default_rng(2024 + n)
        specs = [DetectorSpec.zf()] + [DetectorSpec.mmse(s2) for s2 in (1e-3, 0.1, 1.0)]
        for l in sorted({1, min(3, n), n}):
            ch = draw_channel(rng, l, n)
            dense = transform.e_r @ circulant_matrix(ch) @ transform.forward
            eff = effective_channel(Scheme.RPSDM, ch, transform)
            y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for spec in specs:
                oracle = dense_solve(spec, dense, y)
                error = np.abs(equalize(spec, eff, y) - oracle).max() / np.abs(oracle).max()
                assert error <= 1e-10, (n, l, spec, error)

    @pytest.mark.parametrize("scheme", [Scheme.OFDM, Scheme.RPSDM])
    @pytest.mark.parametrize("n", [1, 2, 12, 96, 128])
    def test_spectrum_route_matches_the_demodulated_route(self, scheme, n):
        # the frame's unitary spectrum stands in for the demodulated block,
        # since forward @ e_r = I, for every detector at every N
        plan = make_plan(scheme, n)
        rng = np.random.default_rng(3100 + n)
        r = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        taps = draw_channel(rng, min(4, n), n).taps
        eff = effective_channel(scheme, ChannelRealization(taps=np.tile(taps, (3, 1)), n=n),
                                plan.transform)
        for spec in (DetectorSpec.zf(), DetectorSpec.mmse(np.array([1e-3, 0.1, 1.0]))):
            oracle = equalize(spec, eff, demodulate(plan, r))
            got = equalize_spectrum(spec, eff, np.fft.fft(r, norm="ortho"))
            assert np.abs(got - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_rejects_integer_basis(self):
        # the raw (e_t^T, e_t) blocks are not A_q^{-1} diag(H_q) A_q
        transform = build_transform(8)
        eff = effective_channel(Scheme.RPSDM, draw_channel(8, 3, 8), transform, basis="integer")
        with pytest.raises(ValueError, match="normalized"):
            equalize(DetectorSpec.zf(), eff, np.ones(8, dtype=complex))

    @pytest.mark.parametrize("n", [8, 128])
    def test_no_dense_matrix_built(self, n):
        # ZF and MMSE at power-of-two N never read the dense effective matrix
        transform = build_transform(n)
        ch = draw_channel(7, 4, n)
        y = np.ones(n, dtype=complex)
        for spec in (DetectorSpec.zf(), DetectorSpec.mmse(0.1)):
            eff = effective_channel(Scheme.RPSDM, ch, transform)
            equalize(spec, eff, y)
            assert eff._matrix is None

    @pytest.mark.parametrize("taps, n, where", [((1, -1j), 4, "q=4"), ((1, 1), 8, "q=2")])
    def test_singular_zf_names_block(self, taps, n, where):
        # each channel has an exact zero DFT bin: (1, -1j) at k=1 of N=4,
        # (1, 1) at k=4 of N=8; the block is q = N / gcd(k, N)
        ch = ChannelRealization(taps=np.array(taps, dtype=complex), n=n)
        eff = effective_channel(Scheme.RPSDM, ch, build_transform(n))
        with pytest.raises(SingularChannelError) as info:
            equalize(DetectorSpec.zf(), eff, np.ones(n, dtype=complex))
        assert info.value.where == where
        # MMSE stays defined on the same channel
        assert np.all(np.isfinite(equalize(DetectorSpec.mmse(0.1), eff, np.ones(n))))

    @pytest.mark.parametrize("scheme", [Scheme.OFDM, Scheme.RPSDM])
    @pytest.mark.parametrize("singular", [[(1, -1j), (1, 1)], [(1, 1), (1, -1j)]])
    def test_singular_batch_names_first_singular_row(self, scheme, singular):
        # at N = 8, (1, -1j) zeroes bin 2 (block q=4) and (1, 1) bin 4 (q=2);
        # rows 1 and 3 are singular, so the batch names what row 1 names
        n, transform = 8, build_transform(8)
        taps = np.array([(0.5, 0.25j), singular[0], (1, 0.5), singular[1]], dtype=complex)
        batch = effective_channel(scheme, ChannelRealization(taps=taps, n=n), transform)
        with pytest.raises(SingularChannelError) as info:
            equalize(DetectorSpec.zf(), batch, np.ones((4, n), dtype=complex))
        row = effective_channel(scheme, ChannelRealization(taps=taps[1], n=n), transform)
        with pytest.raises(SingularChannelError) as first:
            equalize(DetectorSpec.zf(), row, np.ones(n, dtype=complex))
        assert info.value.where == first.value.where

    @pytest.mark.parametrize("scheme", [Scheme.OFDM, Scheme.RPSDM])
    @pytest.mark.parametrize("n", [1, 2, 12, 96, 128, 512])
    def test_batch_rows_equal_one_dimensional_calls(self, scheme, n):
        # effective_channel, equalize (ZF, MMSE with one zeta per row or one
        # for all) and qam_demap on a (rows, N) batch are byte for byte the
        # stack of their rows' own calls; at N = 12 and 96 MMSE solves blocks on
        # the spectrum
        transform = build_transform(n) if scheme is Scheme.RPSDM else None
        rng = np.random.default_rng(500 + n)
        l = min(5, n)
        taps = (rng.standard_normal((4, l)) + 1j * rng.standard_normal((4, l))) / np.sqrt(2)
        y = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        sigma2 = np.array([1e-3, 0.1, 1.0, 3.0])
        batch = effective_channel(scheme, ChannelRealization(taps=taps, n=n), transform)
        singles = [effective_channel(scheme, ChannelRealization(taps=row, n=n), transform)
                   for row in taps]
        assert batch.gains.tobytes() == np.stack([e.gains for e in singles]).tobytes()
        qam = QamConstellation.from_order(16)
        per_row = [DetectorSpec.mmse(s) for s in sigma2]
        for spec, specs in ((DetectorSpec.zf(), [DetectorSpec.zf()] * 4),
                            (DetectorSpec.mmse(sigma2), per_row),
                            (DetectorSpec.mmse(0.1), [DetectorSpec.mmse(0.1)] * 4)):
            got = equalize(spec, batch, y)
            expected = np.stack([equalize(one, eff, row)
                                 for one, eff, row in zip(specs, singles, y)])
            assert got.tobytes() == expected.tobytes(), spec
            decided = qam_demap(got, qam)
            assert decided.shape == (4, n * qam.bits_per_symbol)
            rows = np.stack([qam_demap(row, qam) for row in got])
            assert decided.tobytes() == rows.tobytes()
        if scheme is Scheme.RPSDM:
            stacked = np.stack([e.matrix for e in singles])
            assert batch.matrix.tobytes() == stacked.tobytes()


class TestZfPerfectRecovery:
    @pytest.mark.parametrize("scheme", [Scheme.OFDM, Scheme.RPSDM])
    @pytest.mark.parametrize("n", [8, 64])
    def test_noise_free_end_to_end(self, scheme, n):
        qam = QamConstellation.from_order(16)
        recovered = 0
        seed = 0
        while recovered < 100:
            rng = np.random.default_rng([815, n, seed])
            seed += 1
            # vary the path count across trials, 1..8
            l = int(rng.integers(1, 9))
            plan_rng = np.random.default_rng([815, n, seed, 1])
            bits, decided, eff = run_noise_free_chain(scheme, n, l, qam, plan_rng)
            if min_singular_value(eff) < 1e-6:
                continue  # excluded: near-singular draw would swamp fp error
            recovered += 1
            assert np.array_equal(bits, decided)


class TestMmseBehaviour:
    def test_converges_to_zf_as_zeta_vanishes(self):
        transform = build_transform(8)
        rng = np.random.default_rng(5)
        for _ in range(10):
            ch = draw_channel(rng, 4, 8)
            eff = effective_channel(Scheme.RPSDM, ch, transform)
            y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            zf = equalize(DetectorSpec.zf(), eff, y)
            mmse = equalize(DetectorSpec.mmse(1e-12), eff, y)
            assert np.abs(zf - mmse).max() < 1e-6

    def test_ofdm_mmse_is_shrunk_zf(self):
        # bin by bin, MMSE = gamma_k * ZF with gamma_k = |H_k|^2 / (|H_k|^2 + sigma^2)
        # in (0, 1): the estimate is biased toward the origin, which is why its
        # hard decisions can lose to ZF while its mean-square error stays below ZF's
        n, l = 128, 8
        rng = np.random.default_rng(41)
        for sigma2 in 10.0 ** (-np.array([0.0, 5.0, 15.0, 25.0]) / 10.0):
            for _ in range(10):
                ch = draw_channel(rng, l, n)
                eff = effective_channel(Scheme.OFDM, ch)
                y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                power = np.abs(np.fft.fft(ch.taps, n)) ** 2
                gamma = power / (power + sigma2)
                assert np.all((gamma > 0.0) & (gamma < 1.0))
                zf = equalize(DetectorSpec.zf(), eff, y)
                mmse = equalize(DetectorSpec.mmse(sigma2), eff, y)
                np.testing.assert_allclose(mmse, gamma * zf, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("scheme", [Scheme.OFDM, Scheme.RPSDM])
    def test_lower_mse_than_zf_in_noise(self, scheme):
        n, l, sigma2 = 16, 4, 0.1
        qam = QamConstellation.from_order(16)
        plan = make_plan(scheme, n)
        se_zf = se_mmse = 0.0
        for trial in range(1000):
            rng = np.random.default_rng([99, trial])
            ch = draw_channel(rng, l, n)
            eff = effective_channel(scheme, ch, plan.transform)
            if min_singular_value(eff) < 1e-6:
                continue
            symbols = qam_map(rng.integers(0, 2, n * 4), qam)
            x = modulate(plan, symbols)
            y = remove_cp(transmit(add_cp(x, l), ch, awgn(rng, n + l - 1, sigma2)), l)
            demod = demodulate(plan, y)
            zf = equalize(DetectorSpec.zf(), eff, demod)
            mmse = equalize(DetectorSpec.mmse(sigma2), eff, demod)
            se_zf += float(np.sum(np.abs(zf - symbols) ** 2))
            se_mmse += float(np.sum(np.abs(mmse - symbols) ** 2))
        assert se_mmse <= se_zf


class TestEqualizerComplexity:
    def test_block_solve_counts(self):
        for n in (8, 16, 128):
            rows = {(r.operation, r.scheme): r for r in complexity_report(n)}
            ofdm = rows[("receiver", Scheme.OFDM)]
            rpsdm = rows[("receiver", Scheme.RPSDM)]
            assert ofdm.real_mults == 4 * n
            layout = divisor_set(n)
            assert rpsdm.real_mults == 4 * sum(phi ** 2 for _, phi, _ in layout.blocks())
            assert rpsdm.real_adds == sum(2 * phi * (2 * phi - 1)
                                          for _, phi, _ in layout.blocks())


class TestQamConstellation:
    def test_m4(self):
        qam = QamConstellation.from_order(4)
        assert sorted((p.real, p.imag) for p in qam.points) == [
            (-1, -1), (-1, 1), (1, -1), (1, 1)]
        assert qam.alpha2 == pytest.approx(np.mean(np.abs(qam.points) ** 2))
        assert qam.alpha2 == pytest.approx(2.0)

    def test_m16_powers(self):
        qam = QamConstellation.from_order(16)
        # brute-force oracle over the defining point set
        assert qam.alpha2 == pytest.approx(np.mean(np.abs(qam.points) ** 2))
        assert qam.beta2 == pytest.approx(np.max(np.abs(qam.points) ** 2))
        assert (qam.alpha2, qam.beta2) == (10.0, 18.0)
        assert qam.peak_point == 3 + 3j
        assert qam.peak_point in set(qam.points)

    def test_defining_grid(self):
        for m in (4, 16, 64):
            qam = QamConstellation.from_order(m)
            side = int(np.sqrt(m))
            expected = {complex(2 * n1 - 1 - side, 2 * n2 - 1 - side)
                        for n1 in range(1, side + 1) for n2 in range(1, side + 1)}
            assert set(qam.points) == expected

    @pytest.mark.parametrize("m", [2, 8, 32, 36, 15])
    def test_invalid_orders(self, m):
        with pytest.raises(ValueError):
            QamConstellation.from_order(m)


class TestQamMapping:
    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_noiseless_round_trip(self, m):
        qam = QamConstellation.from_order(m)
        rng = np.random.default_rng(m)
        bits = rng.integers(0, 2, 10_000 * qam.bits_per_symbol)
        symbols = qam_map(bits, qam)
        assert np.array_equal(qam_demap(symbols, qam), bits)

    def test_unit_average_power(self):
        qam = QamConstellation.from_order(16)
        # all 16 labels once: exact average power 1 after normalization
        bits = np.array([[b >> i & 1 for i in range(3, -1, -1)]
                         for b in range(16)]).ravel()
        symbols = qam_map(bits, qam)
        assert np.mean(np.abs(symbols) ** 2) == pytest.approx(1.0)

    def test_raw_grid_option(self):
        # unit-energy symbols are the raw grid points scaled by unit_scale
        qam = QamConstellation.from_order(16)
        symbols = qam_map(np.zeros(4, dtype=int), qam)
        assert symbols[0] in set(qam.points * qam.unit_scale)

    def test_demap_is_nearest_point(self):
        qam = QamConstellation.from_order(16)
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2, 400)
        symbols = qam_map(bits, qam)
        # perturbation below half the minimum distance never flips a decision
        jitter = 0.4 * qam.unit_scale * np.exp(2j * np.pi * rng.random(100))
        assert np.array_equal(qam_demap(symbols + jitter, qam), bits)

    def test_gray_adjacency(self):
        # adjacent decision levels differ in exactly one bit per axis
        qam = QamConstellation.from_order(64)
        side = qam.side
        half = qam.bits_per_symbol // 2
        amps = 2 * np.arange(side) + 1 - side
        labels = []
        for amp in amps:
            bits = qam_demap(np.array([complex(amp, 1 - side)]) * qam.unit_scale, qam)
            labels.append(bits[:half])
        for a, b in zip(labels, labels[1:]):
            assert int(np.sum(a != b)) == 1

    def test_rejects_bad_bit_count(self):
        qam = QamConstellation.from_order(16)
        with pytest.raises(ValueError):
            qam_map(np.zeros(6, dtype=int), qam)
        for bad in (2, -1):
            with pytest.raises(ValueError, match="0/1"):
                qam_map(np.array([0, bad, 1, 1]), qam)
        # fractional bits must not pass as their int64 truncation [0, 1, 1, 0]
        with pytest.raises(ValueError, match="0/1"):
            qam_map(np.array([0.5, 1.9, 1, 0]), qam)


def per_axis_qam_map(bits: np.ndarray, qam: QamConstellation):
    """The per-axis Gray route that ``qam_map``'s label table replaced: each
    axis's bits to an integer, Gray-decoded to an amplitude index."""
    k, half, side = qam.bits_per_symbol, qam.bits_per_symbol // 2, qam.side
    groups = np.asarray(bits, dtype=np.int64).reshape(-1, k)

    def index(axis_bits):
        code = axis_bits @ (1 << np.arange(half - 1, -1, -1))
        out, shift = code.copy(), code >> 1
        while np.any(shift):
            out ^= shift
            shift >>= 1
        return out

    amp = lambda idx: 2 * idx + 1 - side
    symbols = amp(index(groups[:, :half])) + 1j * amp(index(groups[:, half:]))
    return symbols * qam.unit_scale


def per_axis_qam_demap(symbols: np.ndarray, qam: QamConstellation):
    """The per-axis route that ``qam_demap``'s bit table replaced. Each axis
    is scaled on its own, so an infinite component leaves the other alone."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    scale = 1.0 / qam.unit_scale
    real, imag = symbols.real * scale, symbols.imag * scale
    side, half = qam.side, qam.bits_per_symbol // 2

    def axis_bits(values):
        idx = np.clip(np.rint((values + side - 1) / 2.0), 0, side - 1).astype(np.int64)
        code = idx ^ (idx >> 1)
        return (code[:, None] >> np.arange(half - 1, -1, -1)) & 1

    return np.concatenate([axis_bits(real), axis_bits(imag)], axis=1).ravel()


class TestQamTables:
    """The table-driven map and demap are byte-identical to the per-axis route."""

    ORDERS = [4, 16, 64, 256]

    @pytest.mark.parametrize("layout", ["flat", "rows"])
    @pytest.mark.parametrize("m", ORDERS)
    def test_map_matches_per_axis_route(self, m, layout):
        qam = QamConstellation.from_order(m)
        k = qam.bits_per_symbol
        every_label = (np.arange(m)[:, None] >> np.arange(k - 1, -1, -1)) & 1
        bits = np.concatenate([every_label.ravel(),
                               np.random.default_rng(m).integers(0, 2, 300 * k)])
        if layout == "flat":
            got = qam_map(bits, qam)
            expected = per_axis_qam_map(bits, qam)
        else:
            # a (rows, bits) batch maps row by row
            rows = bits[:len(bits) // (3 * k) * 3 * k].reshape(3, -1)
            got = qam_map(rows, qam)
            assert got.shape == (3, rows.shape[1] // k)
            expected = np.stack([per_axis_qam_map(row, qam) for row in rows])
        assert got.dtype == expected.dtype == np.complex128
        assert got.tobytes() == expected.tobytes()

    @staticmethod
    def demap_estimates(kind, qam):
        side, scale = qam.side, qam.unit_scale
        if kind == "random":
            rng = np.random.default_rng(100 + qam.m)
            spread = (side + 2) * scale
            return spread * (rng.standard_normal(500) + 1j * rng.standard_normal(500))
        if kind == "halfway":
            # decision boundaries on the raw grid sit at the even integers
            edges = np.arange(-side - 2, side + 3, 2.0)
            return (edges[:, None] + 1j * edges[None, :]).ravel() * scale
        # an infinite axis decides the outermost level; the other axis keeps
        # its own decision (no NaN, so no invalid-value warning)
        return np.array([complex(re, im) for re in (np.inf, -np.inf, 0.0)
                         for im in (np.inf, -np.inf, 1.0)])

    @pytest.mark.parametrize("kind", ["random", "halfway", "infinite"])
    @pytest.mark.parametrize("m", ORDERS)
    def test_demap_matches_per_axis_route(self, m, kind):
        qam = QamConstellation.from_order(m)
        estimates = self.demap_estimates(kind, qam)
        got = qam_demap(estimates, qam)
        expected = per_axis_qam_demap(estimates, qam)
        assert got.dtype == expected.dtype == np.int64
        assert got.tobytes() == expected.tobytes()
        # a (rows, symbols) batch demaps row by row
        batch = np.stack([estimates, estimates[::-1]])
        rows = qam_demap(batch, qam)
        assert rows.shape == (2, len(expected))
        assert rows.tobytes() == np.stack(
            [expected, per_axis_qam_demap(estimates[::-1], qam)]).tobytes()

    @pytest.mark.parametrize("m", ORDERS)
    def test_nan_demaps_to_the_zero_label(self, m):
        # a NaN axis decides index 0, whose Gray bits are all zero; the other
        # axis keeps its decision, at the corner level and at 1.0 alike
        qam = QamConstellation.from_order(m)
        half = qam.bits_per_symbol // 2
        corner = (qam.side - 1.0) * qam.unit_scale
        other = qam_demap(np.array([complex(corner, corner)]), qam)[:half]
        one = qam_demap(np.array([complex(1.0, 1.0)]), qam)[:half]
        with np.errstate(invalid="ignore"):
            at_corner = qam_demap(np.array([complex(np.nan, corner), complex(corner, np.nan)]),
                                  qam)
            at_one = qam_demap(np.array([complex(np.nan, 1.0)]), qam)
        zero = [0] * half
        assert other.tolist() != zero
        assert at_corner.reshape(2, 2, half).tolist() == [[zero, other.tolist()],
                                                          [other.tolist(), zero]]
        assert at_one.tolist() == zero + one.tolist()
