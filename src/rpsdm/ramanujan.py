"""Ramanujan sums, subspace bases, and the integer periodic transform pair.

The modulation matrix concatenates, for every divisor q of the block length
N, the first phi(q) circular down-shifts of the q-periodic Ramanujan sum
tiled to length N. Ramanujan sums are evaluated exactly in integers through
the Mobius identity

    c_q[n] = sum_{d | gcd(n, q)} d * mu(q / d),

never through the floating-point exponential sum, so the basis matrix is
exact and the orthogonality identities hold without rounding drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .number_theory import (DivisorSet, divisor_set, divisors, gcd, is_power_of_two, mobius,
                            totient)

#: residual ceiling for the demodulation pair, ||e_r @ forward - I||_max
INVERSE_RESIDUAL_TOL = 1e-9


class NumericalError(RuntimeError):
    """A numerical consistency check failed (not a user input problem)."""


@dataclass(frozen=True)
class RamanujanSum:
    """One period of the integer sequence c_q[0..q-1]."""

    q: int
    values: np.ndarray

    def tiled(self, n_total: int) -> np.ndarray:
        """Periodic extension of the period to length n_total (q must divide it)."""
        if n_total % self.q != 0:
            raise ValueError(f"period {self.q} does not divide {n_total}")
        return np.tile(self.values, n_total // self.q)


def ramanujan_sum(q: int) -> RamanujanSum:
    """Exact integer Ramanujan sum of period q via the Mobius identity."""
    if q < 1:
        raise ValueError(f"ramanujan_sum requires q >= 1, got {q}")
    values = np.zeros(q, dtype=np.int64)
    for d in divisors(q):
        values[::d] += d * mobius(q // d)  # d | gcd(n, q) exactly on the rows n = 0 mod d
    return RamanujanSum(q=q, values=values)


def circulant_integer_matrix(q: int) -> np.ndarray:
    """q x q integer matrix whose first column is c_q, subsequent columns circular
    down-shifts. Its column space is the rank-phi(q) Ramanujan subspace."""
    c = ramanujan_sum(q).values
    rows = np.arange(q)
    return c[(rows[:, None] - rows) % q]


def subspace_basis(q: int, n_total: int) -> np.ndarray:
    """N x phi(q) integer basis of one Ramanujan subspace inside length N:
    the first phi(q) shifted columns of the period-q circulant, tiled to
    n_total rows. Column l is c_q[(n - l) mod q], so every column is
    q-periodic down the rows."""
    if n_total % q != 0:
        raise ValueError(f"q={q} must divide n_total={n_total}")
    c = ramanujan_sum(q).values
    rows = np.arange(n_total)
    return c[(rows[:, None] - np.arange(totient(q))) % q]


@dataclass(frozen=True)
class SubspaceMap:
    """DFT map of one divisor block: where its subspace lives in frequency.

    ``bins`` are the sorted DFT bins supp(q); ``a`` is the phi x phi map
    F[bins] @ forward[:, block], in closed form
    sqrt(n/phi) * exp(-2 pi j k l / n) for k in ``bins`` and l < phi, and
    ``a_inv`` is its inverse. The block of a circulant channel with DFT H
    under the normalized pair is a_inv @ diag(H[bins]) @ a.
    """

    offset: int
    bins: np.ndarray
    a: np.ndarray
    a_inv: np.ndarray


@dataclass(frozen=True)
class PeriodicTransform:
    """Full modulation/demodulation pair for block length n.

    ``e_t`` is the exact integer matrix [S_q1 ... S_qm]; ``q_norm`` holds the
    per-column subspace weights 1/sqrt(n*phi(q_i)), repeated phi(q_i) times
    per divisor block; ``forward`` is the normalized modulation matrix (e_t
    with weighted columns); ``e_r`` is its inverse, realized as the plain
    transpose when n is a power of two (the weighted columns are orthonormal
    there) and as a dense inverse otherwise.
    """

    n: int
    layout: DivisorSet
    e_t: np.ndarray
    q_norm: np.ndarray
    forward: np.ndarray = field(repr=False)
    e_r: np.ndarray = field(repr=False)

    @property
    def transpose_path(self) -> bool:
        return is_power_of_two(self.n)

    @cached_property
    def subspace_maps(self) -> tuple[SubspaceMap, ...]:
        """One DFT map per divisor block, built on first use and held by this
        transform (callers that never need them do not pay for them)."""
        maps = []
        for q, phi, offset in self.layout.blocks():
            bins = np.array(sorted(dft_support(q, self.n)), dtype=np.int64)
            phase = np.outer(bins, np.arange(phi)) % self.n
            a = np.sqrt(self.n / phi) * np.exp(-2j * np.pi * phase / self.n)
            maps.append(SubspaceMap(offset=offset, bins=bins, a=a,
                                    a_inv=np.linalg.inv(a)))
        return tuple(maps)


def build_transform(n: int) -> PeriodicTransform:
    """Construct the transform pair for block length n.

    Raises NumericalError if the demodulation residual ||e_r@forward - I||
    exceeds INVERSE_RESIDUAL_TOL (cannot happen for a nonsingular basis; kept
    as a hard internal check on the dense inversion path).
    """
    if n < 1:
        raise ValueError(f"build_transform requires n >= 1, got {n}")
    layout = divisor_set(n)
    e_t = np.empty((n, n), dtype=np.int64)
    q_norm = np.empty(n, dtype=np.float64)
    for q, phi, offset in layout.blocks():
        e_t[:, offset:offset + phi] = subspace_basis(q, n)
        q_norm[offset:offset + phi] = 1.0 / np.sqrt(n * phi)
    forward = e_t * q_norm  # column scaling
    if is_power_of_two(n):
        e_r = forward.T.copy()
    else:
        e_r = np.linalg.inv(forward)
    residual = np.abs(e_r @ forward - np.eye(n)).max()
    if residual >= INVERSE_RESIDUAL_TOL:
        raise NumericalError(
            f"demodulation pair for n={n} failed residual check: {residual:.3e}"
        )
    return PeriodicTransform(n=n, layout=layout, e_t=e_t, q_norm=q_norm,
                             forward=forward, e_r=e_r)


def dft_support(q: int, n_total: int) -> set[int]:
    """Frequency bins carrying the n_total-point DFT of the tiled c_q.

    The support is {k1 * (n_total/q) mod n_total : 1 <= k1 <= q, gcd(k1,q)=1};
    the DFT equals n_total there and vanishes elsewhere. Supports of distinct
    divisors of n_total never overlap.
    """
    if n_total % q != 0:
        raise ValueError(f"q={q} must divide n_total={n_total}")
    step = n_total // q
    return {(k1 * step) % n_total for k1 in range(1, q + 1) if gcd(k1, q) == 1}
