"""Tests for the multipath channel, CP framing, and structural decomposition."""

import numpy as np
import pytest

from rpsdm.channel import (ChannelRealization, add_cp, awgn, circulant_from_column,
                           circulant_matrix, draw_channel, effective_channel, is_skew_circulant,
                           is_stair_block_diagonal, is_toeplitz, STRUCTURE_RTOL, remove_cp,
                           structure_report, transmit)
from rpsdm.number_theory import divisor_set
from rpsdm.ramanujan import build_transform
from rpsdm.transforms import Scheme, ofdm_synthesis_matrix

# worked 4x4 example: circulant first column and its block-diagonal image
# under the raw integer pair
FIXTURE_COLUMN = np.array([-2 + 4j, 3 + 0j, 1 - 5j, 0 - 4j])
FIXTURE_BLOCKS = np.array([
    [8 - 20j, 0, 0, 0],
    [0, -16 + 12j, 0, 0],
    [0, 0, -24 + 72j, -24 - 32j],
    [0, 0, 24 + 32j, -24 + 72j],
])


def random_circulant_channel(n: int, seed: int) -> ChannelRealization:
    """Full-length random circulant: n iid CN(0,1) taps."""
    return draw_channel(seed, n, n)


class TestDrawChannel:
    def test_deterministic_for_fixed_seed(self):
        a = draw_channel(42, 4, 8)
        b = draw_channel(42, 4, 8)
        np.testing.assert_array_equal(a.taps, b.taps)

    def test_rejects_bad_path_count(self):
        with pytest.raises(ValueError):
            draw_channel(0, 9, 8)
        with pytest.raises(ValueError):
            draw_channel(0, 0, 8)

    def test_unit_tap_power(self):
        # 12500 realizations x 8 taps = 1e5 tap draws
        rng = np.random.default_rng(7)
        power = np.array([np.abs(draw_channel(rng, 8, 8).taps) ** 2
                          for _ in range(12500)])
        assert abs(power.mean() - 1.0) < 0.02
        # per delay position as well
        assert np.all(np.abs(power.mean(axis=0) - 1.0) < 0.02)

    def test_flat_channel_gives_constant_diagonal(self):
        ch = ChannelRealization(taps=np.array([0.5 - 0.25j]), n=8)
        eff = effective_channel(Scheme.OFDM, ch)
        diag = np.diag(eff.matrix)
        np.testing.assert_allclose(diag, diag[0], atol=1e-12)


class TestCyclicPrefix:
    def test_symbolic_example(self):
        x = np.array([1, 2, 3, 4], dtype=complex)  # [a, b, c, d]
        np.testing.assert_array_equal(add_cp(x, 3), [3, 4, 1, 2, 3, 4])

    def test_single_path_no_prefix(self):
        x = np.arange(5, dtype=complex)
        np.testing.assert_array_equal(add_cp(x, 1), x)

    def test_round_trip(self):
        x = np.arange(8, dtype=complex) + 1j
        for l in (1, 3, 8):
            np.testing.assert_array_equal(remove_cp(add_cp(x, l), l), x)

    def test_frame_length(self):
        assert add_cp(np.ones(8, dtype=complex), 5).shape == (12,)

    def test_rejects_l_above_n(self):
        with pytest.raises(ValueError):
            add_cp(np.ones(4, dtype=complex), 5)

    def test_batch_rows(self):
        x = np.arange(16, dtype=complex).reshape(2, 8) + 1j
        for l in (1, 3, 8):
            framed = add_cp(x, l)
            np.testing.assert_array_equal(framed, [add_cp(row, l) for row in x])
            np.testing.assert_array_equal(remove_cp(framed, l), x)


class TestTransmit:
    def test_identity_channel(self):
        ch = ChannelRealization(taps=np.array([1.0 + 0j]), n=6)
        x = np.arange(6, dtype=complex)
        np.testing.assert_allclose(transmit(x, ch), x, atol=1e-12)

    def test_cp_equivalence_with_circulant(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            ch = draw_channel(rng, 4, 8)
            x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            received = remove_cp(transmit(add_cp(x, ch.l), ch), ch.l)
            np.testing.assert_allclose(received, circulant_matrix(ch) @ x, atol=1e-9)

    def test_noise_statistics(self):
        # zero channel, unit-variance noise over 1e5 samples
        ch = ChannelRealization(taps=np.array([0.0 + 0j]), n=10 ** 5)
        x = np.zeros(10 ** 5, dtype=complex)
        y = transmit(x, ch, awgn(np.random.default_rng(3), 10 ** 5, 1.0))
        assert abs(np.mean(np.abs(y) ** 2) - 1.0) < 0.02

    def test_awgn_rejects_negative_variance(self):
        with pytest.raises(ValueError, match="noise variance"):
            awgn(np.random.default_rng(0), 4, -0.5)

    @pytest.mark.parametrize("k", [1, 7, 270])
    def test_draws_take_real_parts_then_imaginary_parts(self, k):
        # draw_channel and awgn each draw k real parts, then k imaginary
        # parts, from the stream: the bytes of one standard_normal call each
        rng = np.random.default_rng(k)
        taps = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2.0)
        noise = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * np.sqrt(0.3 / 2.0)
        rng = np.random.default_rng(k)
        assert draw_channel(rng, k, k).taps.tobytes() == taps.tobytes()
        assert awgn(rng, k, 0.3).tobytes() == noise.tobytes()

    def test_rejects_wrong_frame_length(self):
        ch = ChannelRealization(taps=np.ones(3, dtype=complex), n=8)
        with pytest.raises(ValueError):
            transmit(np.ones(8, dtype=complex), ch)

    def test_rejects_noise_of_another_shape(self):
        # one frame's draw must not broadcast across every row of a batch
        n, l = 8, 3
        taps = np.ones((2, l), dtype=complex)
        frames = np.ones((2, n + l - 1), dtype=complex)
        one_frame = awgn(np.random.default_rng(0), n + l - 1, 0.5)
        with pytest.raises(ValueError, match="noise shape"):
            transmit(frames, ChannelRealization(taps=taps, n=n), one_frame)
        with pytest.raises(ValueError, match="noise shape"):
            transmit(frames[0], ChannelRealization(taps=taps[0], n=n), one_frame[:-1])

    def test_batch_rows_equal_one_dimensional_calls(self):
        # row r of a batch goes through taps[r] and adds noise[r], byte for
        # byte as the 1-D call given the same noise row
        n, l = 12, 4
        rng = np.random.default_rng(9)
        taps = rng.standard_normal((3, l)) + 1j * rng.standard_normal((3, l))
        frames = rng.standard_normal((3, n + l - 1)) + 1j * rng.standard_normal((3, n + l - 1))
        noise = np.stack([awgn(np.random.default_rng(r), n + l - 1, sigma2)
                          for r, sigma2 in enumerate([0.5, 1e-3, 2.0])])
        batch = transmit(frames, ChannelRealization(taps=taps, n=n), noise)
        clean = transmit(frames, ChannelRealization(taps=taps, n=n))
        for r in range(3):
            one = transmit(frames[r], ChannelRealization(taps=taps[r], n=n), noise[r])
            assert batch[r].tobytes() == one.tobytes()
            one_clean = transmit(frames[r], ChannelRealization(taps=taps[r], n=n))
            assert clean[r].tobytes() == one_clean.tobytes()


class TestCirculantMatrix:
    def test_identity_for_unit_tap(self):
        ch = ChannelRealization(taps=np.array([1.0 + 0j]), n=4)
        np.testing.assert_array_equal(circulant_matrix(ch), np.eye(4, dtype=complex))

    def test_worked_fixture_rows(self):
        mat = circulant_from_column(FIXTURE_COLUMN)
        np.testing.assert_array_equal(mat[0], [-2 + 4j, 0 - 4j, 1 - 5j, 3 + 0j])
        np.testing.assert_array_equal(mat[1], [3 + 0j, -2 + 4j, 0 - 4j, 1 - 5j])
        # same matrix through the channel path with L = N taps
        ch = ChannelRealization(taps=FIXTURE_COLUMN, n=4)
        np.testing.assert_array_equal(circulant_matrix(ch), mat)

    def test_closed_under_multiplication(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            a = circulant_from_column(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            b = circulant_from_column(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            product = a @ b
            np.testing.assert_allclose(product, circulant_from_column(product[:, 0]),
                                       atol=1e-9)


class TestEffectiveChannelOfdm:
    def test_impulse_channel_is_identity(self):
        ch = ChannelRealization(taps=np.array([1.0 + 0j, 0j]), n=4)
        eff = effective_channel(Scheme.OFDM, ch)
        np.testing.assert_allclose(eff.matrix, np.eye(4), atol=1e-12)

    def test_matches_similarity_transform(self):
        # eigenvalue route (DFT of taps) vs the full F H F^H product
        for seed in range(5):
            ch = draw_channel(seed, 3, 8)
            eff = effective_channel(Scheme.OFDM, ch)
            synthesis = ofdm_synthesis_matrix(8)
            full = synthesis.conj().T @ circulant_matrix(ch) @ synthesis
            np.testing.assert_allclose(eff.matrix, np.diag(np.diag(full)), atol=1e-9)
            np.testing.assert_allclose(full - np.diag(np.diag(full)), 0, atol=1e-9)


class TestEffectiveChannelRpsdm:
    def test_worked_fixture_integer_pair(self):
        ch = ChannelRealization(taps=FIXTURE_COLUMN, n=4)
        eff = effective_channel(Scheme.RPSDM, ch, build_transform(4), basis="integer")
        np.testing.assert_allclose(eff.matrix, FIXTURE_BLOCKS, atol=1e-9)

    def test_block_views(self):
        ch = ChannelRealization(taps=FIXTURE_COLUMN, n=4)
        eff = effective_channel(Scheme.RPSDM, ch, build_transform(4), basis="integer")
        blocks = eff.blocks()
        assert [b.shape for b in blocks] == [(1, 1), (1, 1), (2, 2)]
        np.testing.assert_allclose(blocks[2], FIXTURE_BLOCKS[2:, 2:], atol=1e-9)

    def test_skew_circulant_blocks_n8(self):
        transform = build_transform(8)
        for seed in range(20):
            ch = draw_channel(seed, 4, 8)
            eff = effective_channel(Scheme.RPSDM, ch, transform)
            scale = np.abs(eff.matrix).max()
            for i in range(1, len(eff.layout)):
                ok, residual = is_skew_circulant(eff.block(i), scale=scale)
                assert ok, (seed, i, residual)

    def test_normalized_and_integer_structures_agree(self):
        # same zero pattern; for a power-of-two length the blocks differ by
        # the block-constant factor 1/(N phi)
        ch = draw_channel(5, 3, 8)
        transform = build_transform(8)
        prod = effective_channel(Scheme.RPSDM, ch, transform)
        raw = effective_channel(Scheme.RPSDM, ch, transform, basis="integer")
        for i, (q, phi, _) in enumerate(transform.layout.blocks()):
            np.testing.assert_allclose(prod.block(i), raw.block(i) / (8 * phi), atol=1e-9)
        ok_p, _ = is_stair_block_diagonal(prod.matrix, transform.layout)
        ok_r, _ = is_stair_block_diagonal(raw.matrix, transform.layout)
        assert ok_p and ok_r

    def test_inverse_path_blocks_not_toeplitz_in_general(self):
        # negative control: for a non-power-of-two length the normalized
        # (inverse-path) blocks stay block diagonal but lose the constant
        # diagonals; the integer pair keeps them
        ch = random_circulant_channel(6, 123)
        transform = build_transform(6)
        prod = effective_channel(Scheme.RPSDM, ch, transform)
        raw = effective_channel(Scheme.RPSDM, ch, transform, basis="integer")
        ok, _ = is_stair_block_diagonal(prod.matrix, transform.layout)
        assert ok
        scale = np.abs(prod.matrix).max()
        q3_block = prod.block(2)  # divisor 3, size phi(3) = 2
        ok_prod, residual_prod = is_toeplitz(q3_block, scale=scale)
        assert not ok_prod and residual_prod > 1e-3
        ok_raw, _ = is_toeplitz(raw.block(2), scale=np.abs(raw.matrix).max())
        assert ok_raw

    @pytest.mark.parametrize("n", [1, 2, 4, 6, 12, 96, 128])
    def test_matches_dense_products(self, n):
        # per-subspace DFT construction vs the dense oracles, both bases;
        # off-block entries are exact zeros, not rounding residue
        transform = build_transform(n)
        mask = np.ones((n, n), dtype=bool)
        for i in range(len(transform.layout)):
            s = transform.layout.block_slice(i)
            mask[s, s] = False
        for l in sorted({1, min(3, n), n}):
            ch = draw_channel(1000 * n + l, l, n)
            h_cir = circulant_matrix(ch)
            oracles = {"normalized": transform.e_r @ h_cir @ transform.forward,
                       "integer": transform.e_t.T @ h_cir @ transform.e_t}
            for basis, dense in oracles.items():
                matrix = effective_channel(Scheme.RPSDM, ch, transform, basis=basis).matrix
                error = np.abs(matrix - dense).max() / np.abs(dense).max()
                assert error <= 1e-12, (n, l, basis, error)
                assert np.all(matrix[mask] == 0), (n, l, basis)

    def test_blocks_on_demand_match_the_matrix(self):
        # before the dense build, block(i) computes the values the build stores
        for n in (12, 128):
            transform = build_transform(n)
            for basis in ("normalized", "integer"):
                eff = effective_channel(Scheme.RPSDM, draw_channel(n, 3, n), transform,
                                        basis=basis)
                lazy = eff.blocks()
                matrix = eff.matrix
                for i, block in enumerate(lazy):
                    s = transform.layout.block_slice(i)
                    np.testing.assert_array_equal(block, matrix[s, s])

    def test_requires_matching_transform(self):
        ch = draw_channel(0, 2, 8)
        with pytest.raises(ValueError):
            effective_channel(Scheme.RPSDM, ch, build_transform(4))
        with pytest.raises(ValueError):
            effective_channel(Scheme.RPSDM, ch, build_transform(8), basis="weird")


class TestStructureCheckers:
    def test_identity_passes_everything(self):
        eye = np.eye(4)
        layout = divisor_set(4)
        assert is_stair_block_diagonal(eye, layout) == (True, 0.0)
        assert is_toeplitz(eye) == (True, 0.0)
        assert is_skew_circulant(eye) == (True, 0.0)

    def test_fixture_is_stair_block_diagonal(self):
        ok, residual = is_stair_block_diagonal(FIXTURE_BLOCKS, divisor_set(4))
        assert ok and residual == 0.0

    def test_random_dense_fails(self):
        rng = np.random.default_rng(2)
        dense = rng.standard_normal((6, 6))
        ok, residual = is_stair_block_diagonal(dense, divisor_set(6))
        assert not ok and residual > 0.01
        ok, residual = is_toeplitz(dense)
        assert not ok and residual > 0.01

    def test_skew_circulant_detects_sign(self):
        block = np.array([[1.0, 2.0], [-2.0, 1.0]])
        assert is_skew_circulant(block)[0]
        plain_circulant = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert not is_skew_circulant(plain_circulant)[0]

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 12, 64])
    def test_skew_circulant_residual_equals_row_loop(self, n):
        # reference: build each expected row as the previous row rotated
        # right with the wrapped entry negated, and take the largest deviation
        def row_loop(matrix):
            first, dev = matrix[0], 0.0
            for i in range(1, n):
                expected = np.concatenate([-first[n - i:], first[:n - i]])
                dev = max(dev, float(np.abs(matrix[i] - expected).max()))
            return dev / np.abs(matrix).max()

        rng = np.random.default_rng(n)
        idx = np.arange(n)
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        skew = np.where(idx[None, :] >= idx[:, None], 1, -1) * a[(idx[None, :] - idx[:, None]) % n]
        for matrix in (skew, skew + 1e-13 * rng.standard_normal((n, n)),
                       rng.standard_normal((n, n))):
            ok, residual = is_skew_circulant(matrix)
            assert residual == row_loop(matrix)
            assert ok == (residual < STRUCTURE_RTOL)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            is_toeplitz(np.ones((2, 3)))


class TestDecompositionProperty:
    """Stair-block structure over random circulants (reduced-size version of
    the acceptance suite)."""

    @pytest.mark.parametrize("n", [4, 6, 8, 12, 16])
    def test_structure_over_random_circulants(self, n):
        transform = build_transform(n)
        power_of_two = (n & (n - 1)) == 0
        for seed in range(100):
            ch = random_circulant_channel(n, 10_000 + 97 * n + seed)
            h_cir = circulant_matrix(ch)
            prod = transform.e_r @ h_cir @ transform.forward
            ok, residual = is_stair_block_diagonal(prod, transform.layout)
            assert ok, (n, seed, residual)
            raw = transform.e_t.T @ h_cir @ transform.e_t
            raw_scale = np.abs(raw).max()
            prod_scale = np.abs(prod).max()
            for i, (q, phi, offset) in enumerate(transform.layout.blocks()):
                view = slice(offset, offset + phi)
                assert is_toeplitz(raw[view, view], scale=raw_scale)[0], (n, q, seed)
                if power_of_two and q >= 2:
                    assert is_skew_circulant(prod[view, view], scale=prod_scale)[0]

    def test_structure_report_shape(self):
        ch = draw_channel(1, 3, 12)
        transform = build_transform(12)
        eff = effective_channel(Scheme.RPSDM, ch, transform)
        report = structure_report(eff.matrix, transform.layout)
        assert report["structure"] == "stair_block_diagonal"
        assert report["stair_block_ok"]
        assert [b["size"] for b in report["blocks"]] == [1, 1, 2, 2, 2, 4]
        ofdm_report = structure_report(effective_channel(Scheme.OFDM, ch).matrix)
        assert ofdm_report["structure"] == "diagonal"
        assert ofdm_report["diagonal_ok"]
