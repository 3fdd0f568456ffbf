"""Tests for Ramanujan sums, subspace bases, and the transform pair.

The production sums come from the exact Mobius identity; the independent
oracle here evaluates the defining complex-exponential sum in floating point
and rounds, with a 1e-9 consistency check on the imaginary residue.
"""

import math

import numpy as np
import pytest

from rpsdm.number_theory import divisor_set, is_power_of_two, totient
from rpsdm.ramanujan import (build_transform, circulant_integer_matrix, dft_support,
                             ramanujan_sum, subspace_basis)

PRIMES_TO_97 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def ramanujan_sum_reference(q: int, n: int) -> int:
    """Defining sum over residues coprime to q, evaluated in complex
    arithmetic at arbitrary n; must land on an integer within 1e-9."""
    total = sum(np.exp(2j * np.pi * k * n / q) for k in range(1, q + 1) if math.gcd(k, q) == 1)
    assert abs(total.imag) < 1e-9
    rounded = round(total.real)
    assert abs(total.real - rounded) < 1e-9
    return rounded


class TestRamanujanSum:
    def test_period_four(self):
        assert ramanujan_sum(4).values.tolist() == [2, 0, -2, 0]

    def test_period_one(self):
        assert ramanujan_sum(1).values.tolist() == [1]

    def test_prime_five(self):
        assert ramanujan_sum(5).values.tolist() == [4, -1, -1, -1, -1]

    def test_period_six_multiplicative(self):
        c2, c3 = ramanujan_sum(2).values, ramanujan_sum(3).values
        expected = [int(c2[n % 2] * c3[n % 3]) for n in range(6)]
        assert expected == [2, 1, -1, -2, -1, 1]
        assert ramanujan_sum(6).values.tolist() == expected
        # double-checked against the defining summation
        assert [ramanujan_sum_reference(6, n) for n in range(6)] == expected

    def test_matches_defining_sum(self):
        for q in range(1, 65):
            values = ramanujan_sum(q).values
            for n in range(q):
                assert values[n] == ramanujan_sum_reference(q, n)

    def test_leading_value_is_totient(self):
        for q in range(1, 65):
            assert ramanujan_sum(q).values[0] == totient(q)

    def test_period_sum(self):
        assert ramanujan_sum(1).values.sum() == 1
        for q in range(2, 65):
            assert ramanujan_sum(q).values.sum() == 0

    def test_integer_dtype(self):
        assert ramanujan_sum(12).values.dtype == np.int64

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ramanujan_sum(0)


class TestTableOfProperties:
    """The classical identities, checked in exact integer arithmetic."""

    def test_periodicity(self):
        for q in range(1, 65):
            values = ramanujan_sum(q).values
            for n in range(3 * q + 1):
                assert values[n % q] == ramanujan_sum_reference(q, n)
                assert values[(n + q) % q] == values[n % q]

    def test_orthogonality(self):
        for q1 in range(1, 25):
            c1 = ramanujan_sum(q1).values
            for q2 in range(1, 25):
                c2 = ramanujan_sum(q2).values
                period = math.lcm(q1, q2)
                total = sum(int(c1[n % q1]) * int(c2[n % q2]) for n in range(period))
                assert total == (q1 * totient(q1) if q1 == q2 else 0)

    def test_prime_case(self):
        for q in PRIMES_TO_97:
            values = ramanujan_sum(q).values
            for n in range(q):
                assert values[n] == (q - 1 if n % q == 0 else -1)

    def test_prime_power_case(self):
        for p in (2, 3, 5):
            for t in range(2, 5):
                q = p ** t
                values = ramanujan_sum(q).values
                for n in range(q):
                    if n % p ** (t - 1):
                        assert values[n] == 0
                    elif n % q:
                        assert values[n] == -p ** (t - 1)
                    else:
                        assert values[n] == p ** (t - 1) * (p - 1)

    def test_multiplicative(self):
        for qi in range(1, 17):
            ci = ramanujan_sum(qi).values
            for qj in range(1, 17):
                if math.gcd(qi, qj) != 1:
                    continue
                cj = ramanujan_sum(qj).values
                cij = ramanujan_sum(qi * qj).values
                for n in range(qi * qj):
                    assert cij[n] == ci[n % qi] * cj[n % qj]


class TestCirculantIntegerMatrix:
    def test_period_four_columns(self):
        mat = circulant_integer_matrix(4)
        assert mat[:, 0].tolist() == [2, 0, -2, 0]
        assert mat[:, 1].tolist() == [0, 2, 0, -2]

    def test_trivial(self):
        assert circulant_integer_matrix(1).tolist() == [[1]]

    def test_rank_is_totient(self):
        for q in (2, 3, 4, 6, 8, 9, 12):
            assert np.linalg.matrix_rank(circulant_integer_matrix(q)) == totient(q)


class TestSubspaceBasis:
    def test_full_period_four(self):
        basis = subspace_basis(4, 4)
        assert basis[:, 0].tolist() == [2, 0, -2, 0]
        assert basis[:, 1].tolist() == [0, 2, 0, -2]

    def test_dc_column(self):
        assert subspace_basis(1, 4).ravel().tolist() == [1, 1, 1, 1]

    def test_alternating_tiled(self):
        assert subspace_basis(2, 8).ravel().tolist() == [1, -1] * 4

    def test_column_periodicity(self):
        for q, n in ((3, 12), (4, 8), (6, 12)):
            mat = subspace_basis(q, n)
            for r in range(n):
                assert (mat[r] == mat[r % q]).all()

    def test_columns_are_shifts(self):
        mat = subspace_basis(6, 12)
        for l in range(mat.shape[1]):
            rows = np.arange(12)
            assert (mat[rows, l] == mat[(rows - l) % 6, 0]).all()

    def test_rank(self):
        for q, n in ((4, 8), (6, 12), (8, 16)):
            assert np.linalg.matrix_rank(subspace_basis(q, n)) == totient(q)

    @pytest.mark.parametrize("n", list(range(1, 65)) + [96, 128])
    def test_matches_column_definition(self, n):
        # column l holds c_q[(row - l) mod q], entry by entry, for every q | n
        for q in (d for d in range(1, n + 1) if n % d == 0):
            c = ramanujan_sum(q).values
            expected = [[c[(row - l) % q] for l in range(totient(q))] for row in range(n)]
            mat = subspace_basis(q, n)
            assert mat.dtype == np.int64
            assert mat.tolist() == expected

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            subspace_basis(3, 8)


class TestBuildTransform:
    def test_integer_matrix_n4(self):
        t = build_transform(4)
        assert t.e_t.tolist() == [[1, 1, 2, 0], [1, -1, 0, 2], [1, 1, -2, 0], [1, -1, 0, -2]]

    def test_normalization_n4(self):
        t = build_transform(4)
        expected = [0.5, 0.5, 1 / (2 * math.sqrt(2)), 1 / (2 * math.sqrt(2))]
        np.testing.assert_allclose(t.q_norm, expected, atol=1e-15)

    def test_trivial(self):
        t = build_transform(1)
        assert t.e_t.tolist() == [[1]]
        np.testing.assert_allclose(t.e_r, [[1.0]])

    def test_blocks_match_subspace_bases(self):
        t = build_transform(12)
        for q, phi, offset in t.layout.blocks():
            expected = subspace_basis(q, 12)
            assert (t.e_t[:, offset:offset + phi] == expected).all()

    def test_inverse_residual_all_n(self):
        for n in range(1, 65):
            t = build_transform(n)
            residual = np.abs(t.e_r @ t.forward - np.eye(n)).max()
            assert residual < 1e-9, (n, residual)

    def test_transpose_equals_inverse_for_powers_of_two(self):
        for n in (2, 4, 8, 16, 32, 64):
            t = build_transform(n)
            np.testing.assert_allclose(np.linalg.inv(t.forward), t.forward.T, atol=1e-9)
            np.testing.assert_allclose(t.forward.T @ t.forward, np.eye(n), atol=1e-9)

    def test_row_sparsity_is_divisor_count(self):
        for n in (4, 8, 16, 32, 64, 128):
            t = build_transform(n)
            nonzeros = (t.e_t != 0).sum(axis=1)
            assert (nonzeros == int(math.log2(n)) + 1).all()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_transform(0)


class TestDftSupport:
    def test_examples(self):
        assert dft_support(2, 4) == {2}
        assert dft_support(1, 8) == {0}
        assert dft_support(4, 8) == {2, 6}

    def test_matches_explicit_dft(self):
        for n in (4, 6, 8, 12, 16, 64):
            for q in divisor_set(n).divisors:
                tiled = ramanujan_sum(q).tiled(n).astype(float)
                spectrum = np.fft.fft(tiled)
                support = dft_support(q, n)
                for k in range(n):
                    if k in support:
                        assert abs(spectrum[k] - n) < 1e-9 * n
                    else:
                        assert abs(spectrum[k]) < 1e-9 * n

    def test_partition_of_bins(self):
        for n in (4, 6, 8, 12, 16, 64):
            seen: set[int] = set()
            for q in divisor_set(n).divisors:
                support = dft_support(q, n)
                assert not (seen & support)
                seen |= support
            assert seen == set(range(n))

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            dft_support(3, 8)


class TestSubspaceMaps:
    def test_closed_form_is_dft_of_block_columns(self):
        for n in (1, 4, 6, 12, 16, 96):
            t = build_transform(n)
            spectrum = np.fft.fft(t.forward, axis=0)
            for m, (q, phi, offset) in zip(t.subspace_maps, t.layout.blocks()):
                assert m.offset == offset
                assert m.bins.tolist() == sorted(dft_support(q, n))
                np.testing.assert_allclose(m.a, spectrum[m.bins, offset:offset + phi],
                                           atol=1e-12 * n)
                np.testing.assert_allclose(m.a_inv @ m.a, np.eye(phi), atol=1e-12)

    def test_built_lazily_and_held_by_the_transform(self):
        t = build_transform(8)
        assert "subspace_maps" not in vars(t)
        maps = t.subspace_maps
        assert t.subspace_maps is maps
        assert "subspace_maps" not in vars(build_transform(8))

    @pytest.mark.parametrize("n", [*range(1, 17), 96, 128])
    def test_unitary_exactly_for_powers_of_two(self, n):
        # the equalizer's per-bin MMSE route rests on A_q^H A_q = N I for
        # every block, which holds exactly when N is a power of two
        t = build_transform(n)
        unitary = all(np.abs(m.a.conj().T @ m.a - n * np.eye(m.a.shape[0])).max() <= 1e-12 * n
                      for m in t.subspace_maps)
        assert unitary == is_power_of_two(n) == t.transpose_path
