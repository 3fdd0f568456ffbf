"""Exact integer arithmetic for divisor layouts and complexity formulas.

Everything here stays in machine integers; block lengths in this package
are small (N <= 4096), so plain trial division beats sieve machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def gcd(a: int, b: int) -> int:
    """Greatest common divisor of two positive integers."""
    if a < 1 or b < 1:
        raise ValueError(f"gcd requires positive integers, got ({a}, {b})")
    return math.gcd(a, b)


def _factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as ascending (prime, exponent) pairs."""
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += 1
    if n > 1:
        factors.append((n, 1))
    return factors


def totient(q: int) -> int:
    """Euler totient: count of l in [1, q] with gcd(l, q) = 1.

    Computed from the prime factorization, phi(q) = q * prod(1 - 1/p).
    """
    if q < 1:
        raise ValueError(f"totient requires q >= 1, got {q}")
    result = q
    for p, _ in _factorize(q):
        result -= result // p
    return result


def mobius(n: int) -> int:
    """Mobius function: (-1)^k for squarefree n with k prime factors, else 0."""
    if n < 1:
        raise ValueError(f"mobius requires n >= 1, got {n}")
    factors = _factorize(n)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def divisors(n: int) -> list[int]:
    """All positive divisors of n in ascending order (trial division to sqrt n)."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def divisor_count(n: int) -> int:
    """Number-of-divisors function tau(n) = prod(m_p + 1) over n = prod p^m_p."""
    if n < 1:
        raise ValueError(f"divisor_count requires n >= 1, got {n}")
    return math.prod(e + 1 for _, e in _factorize(n))


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class DivisorSet:
    """Divisor layout of a block length n.

    ``divisors`` are ascending (1 = q_1 < ... < q_m = n), ``totients`` holds
    phi(q_i), and ``offsets`` the cumulative sums o_i = sum_{j<i} phi(q_j).
    Since sum of phi over divisors is n, the offsets partition [0, n) into
    per-divisor column blocks of width phi(q_i).
    """

    n: int
    divisors: tuple[int, ...]
    totients: tuple[int, ...]
    offsets: tuple[int, ...]

    def __post_init__(self) -> None:
        if sum(self.totients) != self.n:
            raise ValueError(f"totients of divisors of {self.n} do not sum to n")

    def __len__(self) -> int:
        return len(self.divisors)

    def blocks(self):
        """Yield (divisor, totient, offset) triples in ascending divisor order."""
        return zip(self.divisors, self.totients, self.offsets)

    def block_slice(self, i: int) -> slice:
        """Index range of the i-th divisor block."""
        return slice(self.offsets[i], self.offsets[i] + self.totients[i])


def divisor_set(n: int) -> DivisorSet:
    """Build the full divisor layout (divisors, totients, cumulative offsets) of n."""
    divs = divisors(n)
    tots = [totient(q) for q in divs]
    offsets = [0] * len(divs)
    for i in range(1, len(divs)):
        offsets[i] = offsets[i - 1] + tots[i - 1]
    return DivisorSet(n=n, divisors=tuple(divs), totients=tuple(tots), offsets=tuple(offsets))
