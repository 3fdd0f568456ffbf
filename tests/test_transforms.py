"""Tests for modulation/demodulation, the sparse oracle, and flop accounting."""

import math

import numpy as np
import pytest

from rpsdm.detection import QamConstellation
from rpsdm.number_theory import divisor_set
from rpsdm.ramanujan import build_transform, subspace_basis
import rpsdm.transforms
from rpsdm.transforms import (Scheme, demodulate, direct_flops, fast_flops, haar_analysis,
                              haar_synthesis, make_plan, modulate, sparse_irpt,
                              synthesize_by_subspaces)


def random_symbols(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestModulate:
    def test_rpsdm_dc_basis_vector(self):
        plan = make_plan(Scheme.RPSDM, 4)
        e0 = np.zeros(4)
        e0[0] = 1.0
        np.testing.assert_allclose(modulate(plan, e0), 0.5 * np.ones(4), atol=1e-12)

    def test_ofdm_dc_basis_vector(self):
        for n in (4, 6, 16):
            plan = make_plan(Scheme.OFDM, n)
            e0 = np.zeros(n)
            e0[0] = 1.0
            np.testing.assert_allclose(modulate(plan, e0), np.ones(n) / math.sqrt(n),
                                       atol=1e-12)

    def test_rpsdm_corner_symbol_peak(self):
        # all symbols at the 16-QAM corner: the first output sample hits
        # beta * (1 + 1 + sqrt(2)) / 2 for a length-4 block
        qam = QamConstellation.from_order(16)
        beta = qam.peak_point
        plan = make_plan(Scheme.RPSDM, 4)
        x = modulate(plan, np.full(4, beta))
        expected = beta * (1 + 1 + math.sqrt(2)) / 2
        assert abs(x[0] - expected) < 1e-9

    def test_length_mismatch(self):
        plan = make_plan(Scheme.OFDM, 8)
        with pytest.raises(ValueError):
            modulate(plan, np.ones(7))


class TestDemodulate:
    @pytest.mark.parametrize("scheme", [Scheme.OFDM, Scheme.RPSDM])
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 12, 16, 64, 128])
    def test_round_trip(self, scheme, n):
        plan = make_plan(scheme, n)
        for trial in range(100):
            s = random_symbols(n, 1000 * n + trial)
            out = demodulate(plan, modulate(plan, s))
            np.testing.assert_allclose(out, s, atol=1e-9)

    def test_ofdm_constant_block(self):
        plan = make_plan(Scheme.OFDM, 8)
        out = demodulate(plan, np.ones(8) / math.sqrt(8))
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_rpsdm_basis_column(self):
        plan = make_plan(Scheme.RPSDM, 4)
        out = demodulate(plan, plan.forward[:, 2])
        expected = np.zeros(4)
        expected[2] = 1.0
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_length_mismatch(self):
        plan = make_plan(Scheme.RPSDM, 8)
        with pytest.raises(ValueError):
            demodulate(plan, np.ones(9))


class TestModemProducts:
    """RPSDM's real-gemm modem against the dense complex product."""

    @pytest.mark.parametrize("n", [1, 2, 12, 96, 128, 512])
    def test_rpsdm_complex_matches_dense_product(self, n):
        plan = make_plan(Scheme.RPSDM, n)
        s = random_symbols(n, n)
        for got, expected in ((modulate(plan, s), plan.forward.astype(complex) @ s),
                              (demodulate(plan, s), plan.inverse.astype(complex) @ s)):
            assert got.dtype == np.complex128
            assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("n", [1, 12, 128])
    def test_rpsdm_real_symbols_stay_real(self, n):
        plan = make_plan(Scheme.RPSDM, n)
        s = np.random.default_rng(n).standard_normal(n)
        x = modulate(plan, s)
        assert x.dtype == np.float64
        assert np.array_equal(x, plan.forward @ s)
        y = demodulate(plan, s)
        assert y.dtype == np.float64
        assert np.array_equal(y, plan.inverse @ s)

    @pytest.mark.parametrize("n", [1, 12, 128])
    def test_ofdm_is_the_dense_product(self, n):
        plan = make_plan(Scheme.OFDM, n)
        s = random_symbols(n, n)
        assert np.array_equal(modulate(plan, s), plan.forward @ s)
        assert np.array_equal(demodulate(plan, s), plan.inverse @ s)

    @pytest.mark.parametrize("scheme", [Scheme.OFDM, Scheme.RPSDM])
    @pytest.mark.parametrize("n", [1, 2, 12, 96, 128, 512])
    def test_batch_rows_equal_one_dimensional_calls(self, scheme, n):
        # a (rows, N) batch is byte for byte the stack of its rows' own
        # calls, for complex symbols and for real ones (RPSDM stays float64)
        plan = make_plan(scheme, n)
        rng = np.random.default_rng(300 + n)
        complex_rows = np.stack([random_symbols(n, 100 * n + r) for r in range(5)])
        for batch in (complex_rows, rng.standard_normal((3, n))):
            for stage in (modulate, demodulate):
                got = stage(plan, batch)
                expected = np.stack([stage(plan, row) for row in batch])
                assert got.shape == batch.shape and got.dtype == expected.dtype
                assert got.tobytes() == expected.tobytes()

    def test_rejects_bad_batch_shapes(self):
        plan = make_plan(Scheme.RPSDM, 8)
        for bad in (np.ones((2, 7)), np.ones((2, 2, 8)), np.array(1.0)):
            with pytest.raises(ValueError, match="expected 8 symbols"):
                modulate(plan, bad)
            with pytest.raises(ValueError, match="expected block of length 8"):
                demodulate(plan, bad)


class TestSubspaceSynthesisRoute:
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 12, 16, 64])
    def test_matches_matrix_route(self, n):
        plan = make_plan(Scheme.RPSDM, n)
        for trial in range(10):
            s = random_symbols(n, 77 * n + trial)
            via_sum = synthesize_by_subspaces(plan.transform, s)
            np.testing.assert_allclose(via_sum, modulate(plan, s), atol=1e-9)


def max_relative_error(got: np.ndarray, expected: np.ndarray) -> float:
    return float(np.abs(got - expected).max() / np.abs(expected).max())


class TestHaarSynthesis:
    """The O(N) butterfly against the dense product ``forward @ s``."""

    @pytest.mark.parametrize("n", [2 ** k for k in range(12)])
    def test_matches_dense_product_and_subspace_sum(self, n):
        plan = make_plan(Scheme.RPSDM, n)
        for trial in range(3):
            s = random_symbols(n, 91 * n + trial)
            got = haar_synthesis(s)
            assert got.dtype == np.complex128
            assert max_relative_error(got, plan.forward @ s) <= 1e-13
            assert max_relative_error(got, synthesize_by_subspaces(plan.transform, s)) <= 1e-13

    def test_matches_dense_product_at_4096(self):
        # forward[:, block] is subspace_basis(q, n) * q_norm[block]: the dense
        # product one divisor block at a time, without a 4096 x 4096 matrix
        n = 4096
        s = random_symbols(n, 4096)
        expected = np.zeros(n, dtype=complex)
        for q, phi, offset in divisor_set(n).blocks():
            expected += subspace_basis(q, n) @ (s[offset:offset + phi] / np.sqrt(n * phi))
        assert max_relative_error(haar_synthesis(s), expected) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 64, 512])
    def test_real_symbols_stay_real(self, n):
        plan = make_plan(Scheme.RPSDM, n)
        s = np.random.default_rng(n).standard_normal(n)
        x = haar_synthesis(s)
        assert x.dtype == np.float64
        assert max_relative_error(x, plan.forward @ s) <= 1e-13

    @pytest.mark.parametrize("n", [1, 8, 256])
    def test_batch_rows_equal_one_dimensional_calls(self, n):
        batch = np.stack([random_symbols(n, 500 * n + r) for r in range(4)])
        expected = np.stack([haar_synthesis(row) for row in batch]).tobytes()
        for ordered in (batch, np.asfortranarray(batch)):
            got = haar_synthesis(ordered)
            assert got.shape == batch.shape
            assert got.tobytes() == expected

    @pytest.mark.parametrize("n", [3, 6, 12, 96])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError, match="power-of-two"):
            haar_synthesis(np.ones(n, dtype=complex))

    @pytest.mark.parametrize("n", [1, 2, 512])
    def test_weights_are_cached_read_only(self, n):
        # one weight array per N serves every call, so no caller may write it
        weights = rpsdm.transforms._haar_weights(n)
        assert rpsdm.transforms._haar_weights(n) is weights
        assert not weights.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            weights[0] = 0.0


class TestHaarAnalysis:
    """The transpose butterfly against the dense product ``e_r @ v``."""

    @pytest.mark.parametrize("n", [2 ** k for k in range(12)])
    def test_matches_dense_product(self, n):
        e_r = build_transform(n).e_r
        for trial in range(3):
            v = random_symbols(n, 93 * n + trial)
            got = haar_analysis(v)
            assert got.dtype == np.complex128
            assert max_relative_error(got, e_r @ v) <= 1e-13
            real = v.real.copy()
            got = haar_analysis(real)
            assert got.dtype == np.float64
            assert max_relative_error(got, e_r @ real) <= 1e-13

    @pytest.mark.parametrize("n", [1, 8, 256])
    def test_batch_rows_equal_one_dimensional_calls(self, n):
        batch = np.stack([random_symbols(n, 700 * n + r) for r in range(4)])
        expected = np.stack([haar_analysis(row) for row in batch]).tobytes()
        for ordered in (batch, np.asfortranarray(batch)):
            got = haar_analysis(ordered)
            assert got.shape == batch.shape
            assert got.flags.c_contiguous
            assert got.tobytes() == expected

    @pytest.mark.parametrize("n", [1, 2, 64, 2048])
    def test_inverts_the_synthesis(self, n):
        s = random_symbols(n, 800 + n)
        assert max_relative_error(haar_analysis(haar_synthesis(s)), s) <= 1e-13

    def test_leaves_its_input_alone(self):
        v = random_symbols(16, 5)
        before = v.copy()
        haar_analysis(v)
        assert v.tobytes() == before.tobytes()

    @pytest.mark.parametrize("n", [3, 6, 12, 96])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError, match="power-of-two"):
            haar_analysis(np.ones(n, dtype=complex))


class TestPlan:
    def test_ofdm_matrix_is_built_on_first_read_and_kept(self, monkeypatch):
        real = rpsdm.transforms.ofdm_synthesis_matrix
        calls = []
        monkeypatch.setattr(rpsdm.transforms, "ofdm_synthesis_matrix",
                            lambda n: calls.append(n) or real(n))
        plan = make_plan(Scheme.OFDM, 8)
        assert calls == []
        assert plan.inverse is plan.inverse
        assert plan.forward is plan.forward
        assert calls == [8]
        assert np.array_equal(plan.inverse, real(8).conj().T)

    def test_rpsdm_matrices_are_the_transform_pair(self):
        plan = make_plan(Scheme.RPSDM, 12)
        assert plan.forward is plan.transform.forward
        assert plan.inverse is plan.transform.e_r


class TestPowerScale:
    def test_parseval_ofdm(self):
        plan = make_plan(Scheme.OFDM, 16)
        s = random_symbols(16, 9)
        x = modulate(plan, s)
        energy = np.sum(np.abs(x) ** 2)
        assert energy == pytest.approx(np.sum(np.abs(s) ** 2), rel=1e-9)


class TestSparseIrpt:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 64, 256])
    def test_matches_dense_product(self, n):
        transform = build_transform(n)
        s = random_symbols(n, 3 * n + 1)
        out, _ = sparse_irpt(transform, s)
        np.testing.assert_allclose(out, transform.forward @ s, atol=1e-9)

    def test_flop_counts(self):
        t4 = build_transform(4)
        _, flops = sparse_irpt(t4, np.ones(4, dtype=complex))
        assert (flops.real_mults, flops.real_adds) == (24, 16)
        t256 = build_transform(256)
        _, flops = sparse_irpt(t256, np.ones(256, dtype=complex))
        assert (flops.real_mults, flops.real_adds) == (4608, 4096)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            sparse_irpt(build_transform(6), np.ones(6, dtype=complex))


class TestFlopClosedForms:
    @pytest.mark.parametrize("n", [1, 4, 16, 64, 256])
    def test_direct(self, n):
        ofdm = direct_flops(Scheme.OFDM, n)
        assert (ofdm.real_mults, ofdm.real_adds) == (4 * n * n, 2 * n * (2 * n - 1))
        rpsdm = direct_flops(Scheme.RPSDM, n)
        assert (rpsdm.real_mults, rpsdm.real_adds) == (2 * n * n, 2 * n * (n - 1))

    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    def test_fast(self, n):
        stages = int(math.log2(n))
        ofdm = fast_flops(Scheme.OFDM, n)
        assert (ofdm.complex_mults, ofdm.complex_adds) == (n // 2 * stages, n * stages)
        assert (ofdm.real_mults, ofdm.real_adds) == (2 * n * stages, 3 * n * stages)
        rpsdm = fast_flops(Scheme.RPSDM, n)
        assert (rpsdm.real_mults, rpsdm.real_adds) == (2 * n * (stages + 1), 2 * n * stages)

    def test_fast_counts_match_op_reports(self):
        _, flops = sparse_irpt(build_transform(64), np.ones(64, dtype=complex))
        assert flops == fast_flops(Scheme.RPSDM, 64)

    def test_fast_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fast_flops(Scheme.OFDM, 12)
