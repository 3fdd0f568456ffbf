"""Linear detection (ZF / MMSE) and square-QAM mapping.

The equalizer applies (H^H H + zeta I)^{-1} H^H with zeta = 0 (ZF) or
zeta = sigma^2 (MMSE): per frequency bin for the diagonal scheme, per
divisor block for the subspace scheme. Subspace q lives on the DFT bins
supp(q), so an RPSDM block is A_q^{-1} diag(H_q) A_q with A_q the fixed map
F[supp q] @ forward[:, block q]. ZF (any N) and MMSE with A_q^H A_q = N I
(exactly when N is a power of two) therefore reduce to OFDM's per-bin
weights H* / (|H|^2 + zeta) between the forward map and its inverse:
e_r @ ifft(W * fft(forward @ y)), with no block matrix formed. MMSE at
other N, integer-basis channels and channels given as an explicit matrix
take the per-block solve of the regularized normal equations, which is
also the reference the tests hold the per-bin route to. The route follows from N and the detector
alone. Bit labels use Gray coding per axis; ``qam_map`` and ``qam_demap``
work on symbols normalized to unit average energy, so sigma^2 parameterizes
both the SNR and the MMSE regularizer. ``equalize``, ``qam_map`` and
``qam_demap`` also take a batch with rows first (the BER engine's (rows, N)
arrays, with one zeta per row), giving each row the bytes of its own call.
A ZF batch with an exactly singular row raises one SingularChannelError for
the whole batch; a caller that needs the other rows' estimates reruns the
rows one at a time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import EffectiveChannel
from .transforms import Scheme, _real_matvec


class Detector(enum.Enum):
    ZF = "zf"
    MMSE = "mmse"


class SingularChannelError(RuntimeError):
    """ZF hit an exactly singular bin or block, named by ``where``. A batch
    names what the 1-D call of its first singular row would; the per-block
    solve fails for every row at once, so there it names the first block in
    layout order that is singular in some row."""

    def __init__(self, message: str, where: str):
        super().__init__(message)
        self.where = where


@dataclass(frozen=True)
class DetectorSpec:
    """Detector kind and regularizer: one zeta, or one per row of a batch."""

    kind: Detector
    zeta: float | np.ndarray

    def __post_init__(self) -> None:
        zeta = np.asarray(self.zeta)
        if (zeta < 0).any():
            raise ValueError(f"regularizer must be >= 0, got {self.zeta}")
        if ((zeta == 0.0) != (self.kind is Detector.ZF)).any():
            raise ValueError("zeta must be 0 exactly for ZF and positive for MMSE")

    @classmethod
    def zf(cls) -> "DetectorSpec":
        return cls(kind=Detector.ZF, zeta=0.0)

    @classmethod
    def mmse(cls, sigma2) -> "DetectorSpec":
        """MMSE at noise variance sigma2, or one variance per row of a batch."""
        zeta = float(sigma2) if np.ndim(sigma2) == 0 else np.asarray(sigma2, dtype=np.float64)
        return cls(kind=Detector.MMSE, zeta=zeta)


def _zero_gain_error(scheme: Scheme, zero: np.ndarray) -> SingularChannelError:
    """The error for exact zeros of the per-bin denominators (one block, or a
    batch with rows first). It names, for the first singular row, its first
    zero bin (OFDM) or the first block in layout order holding one (RPSDM)."""
    n = zero.shape[-1]
    zero = zero.reshape(-1, n)
    bins = np.flatnonzero(zero[zero.any(axis=1).argmax()])
    if scheme is Scheme.OFDM:
        k = int(bins[0])
        return SingularChannelError(f"zero channel gain at bin {k}", where=f"bin {k}")
    # bin k lies in block q = N / gcd(k, N)
    q = min(n // math.gcd(int(k), n) for k in bins)
    return SingularChannelError(f"zero channel gain in the block for divisor q={q}",
                                where=f"q={q}")


def equalize(spec: DetectorSpec, eff: EffectiveChannel, y: np.ndarray) -> np.ndarray:
    """Recover symbol estimates from the demodulated block y, or from each
    row of y through the matching channel of a batch (zeta scalar or per
    row). Every row gets the bytes of its own 1-D call."""
    y = np.asarray(y)
    n = eff.n
    if y.shape != eff.shape:
        expected = f"block of length {n}" if len(eff.shape) == 1 else f"shape {eff.shape}"
        raise ValueError(f"expected {expected}, got shape {y.shape}")
    # a per-row zeta broadcasts as a column against the rows of bins
    zeta = spec.zeta if np.ndim(spec.zeta) == 0 else np.asarray(spec.zeta)[:, None]
    gains, t = eff.gains, eff.transform
    if eff.scheme is Scheme.OFDM and gains is None:
        gains = np.diagonal(eff.matrix, axis1=-2, axis2=-1)
    if eff.scheme is Scheme.OFDM or (gains is not None and eff.basis == "normalized" and (
            spec.kind is Detector.ZF or t.transpose_path)):
        denom = np.abs(gains) ** 2 + zeta
        if not denom.all():  # only ZF (zeta = 0) can hit a zero
            raise _zero_gain_error(eff.scheme, denom == 0.0)
        if eff.scheme is Scheme.OFDM:
            return np.conj(gains) * y / denom
        weights = np.conj(gains) / denom
        return _real_matvec(t.e_r, np.fft.ifft(weights * np.fft.fft(_real_matvec(t.forward, y))))
    assert eff.layout is not None
    out = np.empty(y.shape, dtype=np.complex128)
    if np.ndim(zeta):
        zeta = zeta[..., None]  # one regularizer per row's phi x phi gram
    for i, (q, phi, offset) in enumerate(eff.layout.blocks()):
        h = eff.block(i)
        h_adj = np.swapaxes(h.conj(), -1, -2)
        rhs = h_adj @ y[..., offset:offset + phi, None]
        gram = h_adj @ h + zeta * np.eye(phi)
        try:
            out[..., offset:offset + phi] = np.linalg.solve(gram, rhs)[..., 0]
        except np.linalg.LinAlgError as exc:
            raise SingularChannelError(f"singular block for divisor q={q} (size {phi})",
                                       where=f"q={q}") from exc
    return out


@dataclass(frozen=True)
class QamConstellation:
    """Square M-QAM on the odd-integer grid (2n-1-sqrt(M)) per axis.

    ``alpha2`` is the average point power 2(M-1)/3 and ``beta2`` the corner
    power 2(sqrt(M)-1)^2, both on the raw (unnormalized) grid.
    """

    m: int
    points: np.ndarray
    alpha2: float
    beta2: float

    @property
    def side(self) -> int:
        return int(round(math.sqrt(self.m)))

    @property
    def bits_per_symbol(self) -> int:
        return int(round(math.log2(self.m)))

    @property
    def unit_scale(self) -> float:
        """Multiplier taking raw points to unit average energy."""
        return 1.0 / math.sqrt(self.alpha2)

    @property
    def peak_point(self) -> complex:
        """A worst-case corner point (sqrt(M)-1)(1+j)."""
        amp = self.side - 1
        return complex(amp, amp)

    @cached_property
    def label_points(self) -> np.ndarray:
        """Raw point of every k-bit label: the first half of the label picks
        the in-phase Gray index, the second half the quadrature one."""
        half = self.bits_per_symbol // 2
        labels = np.arange(self.m)
        idx_i = _gray_decode(labels >> half)
        idx_q = _gray_decode(labels & (self.side - 1))
        amp = lambda idx: 2 * idx + 1 - self.side
        return amp(idx_i) + 1j * amp(idx_q)

    @cached_property
    def axis_bits(self) -> np.ndarray:
        """Gray bits (MSB first) of every per-axis amplitude index, side x k/2."""
        return _ints_to_bits(_gray_encode(np.arange(self.side)), self.bits_per_symbol // 2)

    @classmethod
    def from_order(cls, m: int) -> "QamConstellation":
        side = math.isqrt(m)
        # square constellations with an even number of bits per axis: 4, 16, 64, ...
        if side * side != m or m < 4 or (m & (m - 1)) != 0 or side & (side - 1):
            raise ValueError(f"modulation order must be a power of 4, got {m}")
        amps = 2 * np.arange(1, side + 1) - 1 - side
        points = (amps[:, None] + 1j * amps[None, :]).ravel()
        alpha2 = 2.0 * (m - 1) / 3.0
        beta2 = 2.0 * (side - 1) ** 2
        return cls(m=m, points=points, alpha2=alpha2, beta2=beta2)


def _gray_encode(idx: np.ndarray) -> np.ndarray:
    return idx ^ (idx >> 1)


def _gray_decode(code: np.ndarray) -> np.ndarray:
    out = code.copy()
    shift = out >> 1
    while np.any(shift):
        out ^= shift
        shift >>= 1
    return out


def _bits_to_ints(bits: np.ndarray) -> np.ndarray:
    """Rows of MSB-first bits to integers."""
    weights = 1 << np.arange(bits.shape[1] - 1, -1, -1)
    return bits @ weights


def _ints_to_bits(values: np.ndarray, width: int) -> np.ndarray:
    shifts = np.arange(width - 1, -1, -1)
    return (values[:, None] >> shifts) & 1


def qam_map(bits: np.ndarray, constellation: QamConstellation) -> np.ndarray:
    """Gray-labelled bits to unit-energy complex symbols (first half of each
    symbol's bits drives the in-phase axis, second half the quadrature axis);
    a (rows, bits) batch maps to (rows, symbols)."""
    raw = np.asarray(bits)
    bits = raw.astype(np.int64, copy=False)
    k = constellation.bits_per_symbol
    if bits.ndim not in (1, 2) or bits.shape[-1] % k != 0:
        raise ValueError(f"bit count must be a multiple of {k}")
    # bits >> 1 is zero exactly for 0 and 1; a non-integer input must also
    # survive the cast, or 0.5 would pass as its truncation 0
    if (bits >> 1).any() or (raw.dtype.kind not in "biu" and not np.array_equal(bits, raw)):
        raise ValueError("bits must be 0/1")
    labels = _bits_to_ints(bits.reshape(-1, k))
    symbols = constellation.label_points[labels.reshape(bits.shape[:-1] + (-1,))]
    return symbols * constellation.unit_scale


def qam_demap(symbols: np.ndarray, constellation: QamConstellation) -> np.ndarray:
    """Nearest-point hard decision from unit-energy symbols back to
    Gray-labelled bits, per row of a batch. Each axis is scaled and decided
    on its own, so a non-finite component cannot disturb the other one."""
    symbols = np.ascontiguousarray(symbols, dtype=np.complex128)
    # bitwise the complex quotient symbols / unit_scale on finite input
    axes = symbols.view(np.float64).reshape(*symbols.shape, 2) * (1.0 / constellation.unit_scale)
    side = constellation.side
    idx = np.clip(np.rint((axes + side - 1) / 2.0), 0, side - 1).astype(np.int64)
    # a NaN estimate casts to an arbitrary integer; the clipping take keeps
    # it in range, where it decides index 0 as the per-axis route did
    bits = constellation.axis_bits.take(idx, axis=0, mode="clip")
    return bits.reshape(symbols.shape[:-1] + (-1,))
