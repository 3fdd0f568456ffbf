"""Block modulation and demodulation for the two schemes, plus flop accounting.

``modulate`` and ``demodulate`` are the dense matrix route at unit
total-power scaling: OFDM's unitary DFT matrices, and RPSDM's real matrices
meeting complex symbols as one real gemm on the (n, 2) float view of the
vector. A (rows, N) batch is a stack of those products, one per row, so each
row's bytes equal its own 1-D call. A plan builds its dense matrices only
when ``forward`` or ``inverse`` is first read: OFDM's DFT matrix, which the
engines never read, and RPSDM's transform pair, which they read only at
non-power-of-two N.
``sparse_irpt`` and ``synthesize_by_subspaces`` are test oracles that the
dense route must agree with; ``sparse_irpt`` also carries the sparse op
count. At power-of-two N, RPSDM needs no N x N matrix: ``haar_synthesis``
(``forward @ s``) and ``haar_analysis`` (``e_r @ v``) are an O(N) butterfly
and its transpose, run by both engines and the per-bin equalizer on
(rows, N) batches. They work sample-major: a batch is copied to a C-ordered
(N, rows) array, so each butterfly stage adds two contiguous blocks.

Flop counters reproduce the published closed forms under one fixed costing:
a complex*complex multiply is 4 real multiplies + 2 real adds, a complex add
is 2 real adds, and an integer(real)*complex multiply is 2 real multiplies.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cache, cached_property

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
    """Operators for one (scheme, block length) pair.

    The total block power is N, so symbols and samples share one scale and
    the noise variance parameterizes SNR directly. RPSDM's matrices are its
    transform's dense pair; they and OFDM's DFT matrix are built on the
    first read of ``forward`` or ``inverse`` and then kept.
    """

    scheme: Scheme
    n: int
    transform: PeriodicTransform | None

    @cached_property
    def forward(self) -> np.ndarray:
        """Synthesis matrix: symbols to time-domain block."""
        if self.transform is None:
            return ofdm_synthesis_matrix(self.n)
        return self.transform.forward

    @cached_property
    def inverse(self) -> np.ndarray:
        """Analysis matrix: time-domain block to symbols."""
        if self.transform is None:
            return self.forward.conj().T
        return self.transform.e_r


def make_plan(scheme: Scheme, n: int) -> ModulatorPlan:
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    if scheme is Scheme.OFDM:
        return ModulatorPlan(scheme, n, None)
    return ModulatorPlan(scheme, n, build_transform(n))


def _real_matvec(matrix: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Real matrix times complex vector (or each row of a batch of them) as
    one real gemm per row on the (n, 2) float view, instead of a complex
    product that first copies the matrix to complex."""
    v = np.ascontiguousarray(v, dtype=np.complex128)
    product = matrix @ v.view(np.float64).reshape(*v.shape, 2)
    return product.view(np.complex128).reshape(v.shape)


def _apply(plan: ModulatorPlan, matrix: np.ndarray, v: np.ndarray, what: str) -> np.ndarray:
    """matrix @ v for one length-N vector or each row of a (rows, N) batch,
    as a real gemm when a real RPSDM matrix meets complex v. A batch is a
    stack of matrix-vector products, so every row gets the bytes of its own
    1-D call."""
    v = np.asarray(v)
    if v.ndim not in (1, 2) or v.shape[-1] != plan.n:
        raise ValueError(f"expected {what}, got shape {v.shape}")
    if plan.scheme is Scheme.RPSDM and np.iscomplexobj(v):
        return _real_matvec(matrix, v)
    return (matrix @ v[..., None])[..., 0]


def modulate(plan: ModulatorPlan, symbols: np.ndarray) -> np.ndarray:
    """Time-domain block forward @ symbols, or one block per row of symbols."""
    return _apply(plan, plan.forward, symbols, f"{plan.n} symbols")


def demodulate(plan: ModulatorPlan, block: np.ndarray) -> np.ndarray:
    """Inverse of modulate: demodulate(modulate(s)) == s, row by row."""
    return _apply(plan, plan.inverse, block, f"block of length {plan.n}")


def synthesize_by_subspaces(transform: PeriodicTransform, symbols: np.ndarray) -> np.ndarray:
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
    return x


@cache
def _haar_weights(n: int) -> np.ndarray:
    """The column weights of ``forward`` at N = 2^k, one per symbol: 1/sqrt(N)
    for q = 1, and c_2h's value h times q_norm = sqrt(h/N) on [h, 2h).
    Built once per N and shared, so the array is read-only."""
    if not is_power_of_two(n):
        raise ValueError(f"Haar butterfly requires a power-of-two length, got {n}")
    weights = np.empty(n)
    weights[0] = 1.0 / np.sqrt(n)
    h = 1
    while h < n:
        weights[h:2 * h] = h * (1.0 / np.sqrt(n * h))
        h *= 2
    weights.flags.writeable = False
    return weights


def _butterfly(x: np.ndarray, reverse: bool = False) -> np.ndarray:
    """For h = 1, 2, ..., N/2 in turn (the reverse order if ``reverse``),
    replace the first 2h entries of x's first axis, [a, b] with a = x[:h] and
    b = x[h:2h], by [a + b, a - b]; in place, 2h adds per stage. On a
    C-ordered (N, rows) array each stage's a and b are contiguous blocks."""
    spans = [1 << i for i in range(x.shape[0].bit_length() - 1)]
    spare = np.empty_like(x[:x.shape[0] // 2])
    for h in reversed(spans) if reverse else spans:
        head, tail, diff = x[:h], x[h:2 * h], spare[:h]
        np.subtract(head, tail, out=diff)
        head += tail
        tail[...] = diff
    return x


def haar_synthesis(symbols: np.ndarray) -> np.ndarray:
    """``forward @ s`` at power-of-two N for one length-N vector or each row
    of a (rows, N) batch, with no N x N basis: N scalings and 2(N-1) adds.

    At N = 2^k, subspace q = 2h has offset h and width h, and its weighted
    columns add sqrt(h/N) * [s_q, -s_q], tiled, to the block; q = 1 adds
    s[0]/sqrt(N). So the block is the unnormalized Haar synthesis
    x_1 = s[0]/sqrt(N), x_2h = [x_h + t_h, x_h - t_h] with
    t_h = sqrt(h/N) * s[h:2h]. The weights are the entries of ``forward``
    bit for bit, so each product equals the dense route's; only the order
    of the adds differs. The stages run sample-major on a C-ordered
    (N, rows) copy, and a batch's result is that copy's transposed view."""
    symbols = np.asarray(symbols)
    # one weight per sample-major row, against every column
    weights = _haar_weights(symbols.shape[-1]).reshape((-1,) + (1,) * (symbols.ndim - 1))
    return _butterfly(np.multiply(symbols.T, weights, order="C")).T


def haar_analysis(block: np.ndarray) -> np.ndarray:
    """``e_r @ v`` at power-of-two N for one length-N vector or each row of a
    (rows, N) batch: N scalings and 2(N-1) adds. There e_r = forward^T, and
    ``haar_synthesis`` is a diagonal scaling followed by symmetric butterfly
    stages, so this runs the stages in reverse order and scales last. Real
    input gives a real result, in C-ordered rows."""
    block = np.asarray(block)
    weights = _haar_weights(block.shape[-1])
    # a sample-major copy, so the in-place stages leave the caller's block alone
    x = block.T.astype(np.result_type(block.dtype, np.float64), order="C")
    return np.multiply(_butterfly(x, reverse=True).T, weights, order="C")


def _fft_flops(n: int) -> FlopCount:
    """Radix-2 FFT counts: the textbook (N/2)log2 N complex multiplies and
    N log2 N complex adds."""
    stages = int(math.log2(n))
    cm = (n // 2) * stages
    ca = n * stages
    return FlopCount(complex_mults=cm, complex_adds=ca,
                     real_mults=4 * cm, real_adds=2 * cm + 2 * ca)


def sparse_irpt(transform: PeriodicTransform, symbols: np.ndarray) -> tuple[np.ndarray, FlopCount]:
    """Inverse transform exploiting the tau(N) = log2(N)+1 nonzeros per row
    of the integer basis when N is a power of two.

    Returns the same vector as the dense product forward @ symbols."""
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
