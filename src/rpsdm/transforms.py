"""Block modulation and demodulation for the two schemes, plus flop accounting.

The dense matrix route is the reference implementation; ``fft_unitary`` and
``sparse_irpt`` are the fast paths for power-of-two block lengths and are
validated against it in the test suite.

Flop counters reproduce the published closed forms under one fixed costing:
a complex*complex multiply is 4 real multiplies + 2 real adds, a complex add
is 2 real adds, and an integer(real)*complex multiply is 2 real multiplies.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .number_theory import is_power_of_two
from .ramanujan import PeriodicTransform, build_transform


class Scheme(enum.Enum):
    OFDM = "ofdm"
    RPSDM = "rpsdm"


@dataclass(frozen=True)
class FlopCount:
    """Operation counts for one block transform."""

    complex_mults: int
    complex_adds: int
    real_mults: int
    real_adds: int


def ofdm_synthesis_matrix(n: int) -> np.ndarray:
    """Unitary synthesis matrix with columns e^{+j 2 pi k n / N} / sqrt(N)."""
    k = np.arange(n)
    return np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


@dataclass(frozen=True)
class ModulatorPlan:
    """Precomputed operators for one (scheme, block length) pair.

    ``power_scale`` is sqrt(P/N); the default total power P = N keeps it at 1
    so the noise variance parameterizes SNR directly.
    """

    scheme: Scheme
    n: int
    power: float
    power_scale: float
    forward: np.ndarray
    inverse: np.ndarray
    transform: PeriodicTransform | None


def make_plan(scheme: Scheme, n: int, power: float | None = None,
              transform: PeriodicTransform | None = None) -> ModulatorPlan:
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    power = float(n) if power is None else float(power)
    if power <= 0:
        raise ValueError(f"total power must be positive, got {power}")
    if scheme is Scheme.OFDM:
        forward = ofdm_synthesis_matrix(n)
        inverse = forward.conj().T
        transform = None
    else:
        if transform is None:
            transform = build_transform(n)
        elif transform.n != n:
            raise ValueError(f"transform length {transform.n} != n={n}")
        forward = transform.forward
        inverse = transform.e_r
    return ModulatorPlan(scheme=scheme, n=n, power=power,
                         power_scale=math.sqrt(power / n),
                         forward=forward, inverse=inverse,
                         transform=transform)


def modulate(plan: ModulatorPlan, symbols: np.ndarray) -> np.ndarray:
    """Time-domain block power_scale * forward @ symbols."""
    symbols = np.asarray(symbols)
    if symbols.shape != (plan.n,):
        raise ValueError(f"expected {plan.n} symbols, got shape {symbols.shape}")
    return plan.power_scale * (plan.forward @ symbols)


def demodulate(plan: ModulatorPlan, block: np.ndarray) -> np.ndarray:
    """Inverse of modulate: demodulate(modulate(s)) == s."""
    block = np.asarray(block)
    if block.shape != (plan.n,):
        raise ValueError(f"expected block of length {plan.n}, got shape {block.shape}")
    return (plan.inverse @ block) / plan.power_scale


def synthesize_by_subspaces(transform: PeriodicTransform, symbols: np.ndarray,
                            power_scale: float = 1.0) -> np.ndarray:
    """Alternative synthesis x(n) = sum over divisors of the per-subspace
    expansions; must agree with the single-matrix route."""
    symbols = np.asarray(symbols)
    n = transform.n
    x = np.zeros(n, dtype=np.result_type(symbols.dtype, np.float64))
    rows = np.arange(n)
    for q, phi, offset in transform.layout.blocks():
        c = transform.e_t[:q, offset]  # one period of c_q
        weight = 1.0 / np.sqrt(n * phi)
        for l in range(phi):
            x = x + weight * symbols[offset + l] * c[(rows - l) % q]
    return power_scale * x


def _fft_flops(n: int) -> FlopCount:
    stages = int(math.log2(n))
    cm = (n // 2) * stages
    ca = n * stages
    return FlopCount(complex_mults=cm, complex_adds=ca,
                     real_mults=4 * cm, real_adds=2 * cm + 2 * ca)


def fft_unitary(x: np.ndarray, direction: str = "forward") -> tuple[np.ndarray, FlopCount]:
    """Radix-2 decimation-in-time FFT, unitary in both directions.

    Forward matches the dense DFT row convention e^{-j 2 pi k n / N}/sqrt(N);
    inverse conjugates the twiddles. Counts are the textbook (N/2)log2 N
    complex multiplies and N log2 N complex adds.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[0]
    if not is_power_of_two(n):
        raise ValueError(f"fft_unitary requires a power-of-two length, got {n}")
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    sign = -1.0 if direction == "forward" else 1.0

    # bit-reversal permutation
    out = x.copy()
    j = 0
    for i in range(1, n):
        bit = n >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        if i < j:
            out[i], out[j] = out[j], out[i]

    size = 2
    while size <= n:
        half = size // 2
        twiddle = np.exp(sign * 2j * np.pi * np.arange(half) / size)
        blocks = out.reshape(n // size, size)
        even = blocks[:, :half]
        odd = blocks[:, half:] * twiddle
        total, diff = even + odd, even - odd
        blocks[:, :half] = total
        blocks[:, half:] = diff
        size *= 2
    return out / np.sqrt(n), _fft_flops(n)


def sparse_irpt(transform: PeriodicTransform, symbols: np.ndarray) -> tuple[np.ndarray, FlopCount]:
    """Inverse transform exploiting the tau(N) = log2(N)+1 nonzeros per row
    of the integer basis when N is a power of two.

    Returns the same vector as the dense product forward @ symbols (without
    any power scaling)."""
    n = transform.n
    if not is_power_of_two(n):
        raise ValueError(f"sparse path requires a power-of-two length, got {n}")
    symbols = np.asarray(symbols)
    if symbols.shape != (n,):
        raise ValueError(f"expected {n} symbols, got shape {symbols.shape}")
    cols = np.nonzero(transform.e_t)[1].reshape(n, -1)  # each row's tau nonzero columns
    out = (np.take_along_axis(transform.forward, cols, 1) * symbols[cols]).sum(axis=1)
    return out, fast_flops(Scheme.RPSDM, n)


def direct_flops(scheme: Scheme, n: int) -> FlopCount:
    """Dense matrix-vector costs: 4N^2 / 2N(2N-1) real ops for the complex
    exponential basis, halved multiplies for the integer basis."""
    if scheme is Scheme.OFDM:
        return FlopCount(complex_mults=n * n, complex_adds=n * (n - 1),
                         real_mults=4 * n * n, real_adds=2 * n * (2 * n - 1))
    return FlopCount(complex_mults=n * n, complex_adds=n * (n - 1),
                     real_mults=2 * n * n, real_adds=2 * n * (n - 1))


def fast_flops(scheme: Scheme, n: int) -> FlopCount:
    """Fast-path costs for power-of-two n: radix-2 FFT vs sparse integer rows."""
    if not is_power_of_two(n):
        raise ValueError(f"fast path requires a power-of-two length, got {n}")
    if scheme is Scheme.OFDM:
        return _fft_flops(n)
    tau = int(math.log2(n)) + 1
    cm, ca = n * tau, n * (tau - 1)
    return FlopCount(complex_mults=cm, complex_adds=ca,
                     real_mults=2 * cm, real_adds=2 * ca)
