"""Tests for the exact integer primitives (gcd, totient, divisor layouts)."""

import math

import pytest

from rpsdm.number_theory import (DivisorSet, divisor_count, divisor_set, divisors,
                                 gcd, is_power_of_two, mobius, totient)


def totient_brute(q: int) -> int:
    """Independent oracle: literal coprime count."""
    return sum(1 for k in range(1, q + 1) if math.gcd(k, q) == 1)


def divisors_brute(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


class TestGcd:
    def test_unit_argument(self):
        assert gcd(1, 7) == 1

    def test_forced_value(self):
        assert gcd(4, 6) == 2

    def test_coprime_count_matches_totient(self):
        # brute-force count of coprime residues of 8 equals phi(8)
        count = sum(1 for k in range(1, 9) if gcd(k, 8) == 1)
        assert count == 4 == totient(8)

    @pytest.mark.parametrize("a,b", [(0, 3), (3, 0), (-1, 5), (5, -2)])
    def test_rejects_nonpositive(self, a, b):
        with pytest.raises(ValueError):
            gcd(a, b)


class TestTotient:
    def test_one(self):
        assert totient(1) == 1

    @pytest.mark.parametrize("q,expected", [(8, 4), (12, 4), (1, 1), (720, 192), (4096, 2048)])
    def test_derived_values(self, q, expected):
        assert totient_brute(q) == expected
        assert totient(q) == expected

    def test_matches_brute_force(self):
        for q in range(1, 200):
            assert totient(q) == totient_brute(q)

    def test_multiplicative_exhaustive(self):
        for a in range(1, 65):
            for b in range(1, 65):
                if math.gcd(a, b) == 1:
                    assert totient(a * b) == totient(a) * totient(b)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            totient(0)


class TestMobius:
    def test_known_values(self):
        assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]

    def test_sum_over_divisors_is_unit_indicator(self):
        # sum_{d|n} mu(d) = 1 iff n == 1
        for n in range(1, 300):
            total = sum(mobius(d) for d in divisors_brute(n))
            assert total == (1 if n == 1 else 0)


class TestDivisorSet:
    def test_four(self):
        ds = divisor_set(4)
        assert ds.divisors == (1, 2, 4)
        assert ds.totients == (1, 1, 2)
        assert ds.offsets == (0, 1, 2)

    def test_one(self):
        ds = divisor_set(1)
        assert ds.divisors == (1,)
        assert ds.totients == (1,)
        assert ds.offsets == (0,)

    def test_twelve(self):
        assert divisors_brute(12) == [1, 2, 3, 4, 6, 12]
        ds = divisor_set(12)
        assert ds.divisors == (1, 2, 3, 4, 6, 12)
        assert ds.totients == tuple(totient_brute(q) for q in ds.divisors)
        assert ds.totients == (1, 1, 2, 2, 2, 4)
        assert ds.offsets == (0, 1, 2, 4, 6, 8)
        assert sum(ds.totients) == 12

    def test_layout_invariants(self):
        for n in (1, 2, 6, 17, 36, 128, 360):
            ds = divisor_set(n)
            assert ds.divisors[0] == 1 and ds.divisors[-1] == n
            assert list(ds.divisors) == sorted(ds.divisors)
            assert ds.offsets[0] == 0
            assert ds.offsets[-1] + ds.totients[-1] == n

    def test_totient_sum_identity(self):
        for n in range(1, 1025):
            assert sum(totient(q) for q in divisors(n)) == n

    def test_inconsistent_layout_rejected(self):
        with pytest.raises(ValueError):
            DivisorSet(n=4, divisors=(1, 2, 4), totients=(1, 1, 1), offsets=(0, 1, 2))


class TestDivisorCount:
    @pytest.mark.parametrize("n,expected", [(4, 3), (1, 1), (12, 6), (720, 30), (4096, 13)])
    def test_examples(self, n, expected):
        assert len(divisors_brute(n)) == expected
        assert divisor_count(n) == expected

    def test_matches_divisor_set_length(self):
        for n in range(1, 1025):
            assert divisor_count(n) == len(divisor_set(n).divisors)

    def test_power_of_two_is_log2_plus_one(self):
        for m in range(0, 13):
            assert divisor_count(2 ** m) == m + 1


class TestIsPowerOfTwo:
    def test_values(self):
        assert [n for n in range(1, 20) if is_power_of_two(n)] == [1, 2, 4, 8, 16]
        assert not is_power_of_two(0)
