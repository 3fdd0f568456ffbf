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
alone. Bit labels use Gray coding per axis; symbols are normalized to unit
average energy inside the simulation chain so sigma^2 parameterizes both
the SNR and the MMSE regularizer.
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
    """ZF hit an exactly singular bin or block; carries the offending index."""

    def __init__(self, message: str, where: str):
        super().__init__(message)
        self.where = where


@dataclass(frozen=True)
class DetectorSpec:
    kind: Detector
    zeta: float

    def __post_init__(self) -> None:
        if self.zeta < 0:
            raise ValueError(f"regularizer must be >= 0, got {self.zeta}")
        if (self.kind is Detector.ZF) != (self.zeta == 0.0):
            raise ValueError("zeta must be 0 exactly for ZF and positive for MMSE")

    @classmethod
    def zf(cls) -> "DetectorSpec":
        return cls(kind=Detector.ZF, zeta=0.0)

    @classmethod
    def mmse(cls, sigma2: float) -> "DetectorSpec":
        return cls(kind=Detector.MMSE, zeta=float(sigma2))


def equalize(spec: DetectorSpec, eff: EffectiveChannel, y: np.ndarray) -> np.ndarray:
    """Recover symbol estimates from the demodulated block y."""
    y = np.asarray(y)
    n = eff.n
    if y.shape != (n,):
        raise ValueError(f"expected block of length {n}, got shape {y.shape}")
    if eff.scheme is Scheme.OFDM:
        gains = np.diag(eff.matrix) if eff.gains is None else eff.gains
        denom = np.abs(gains) ** 2 + spec.zeta
        if not denom.all():  # only ZF (zeta = 0) can hit a zero
            k = int(np.flatnonzero(denom == 0.0)[0])
            raise SingularChannelError(f"zero channel gain at bin {k}", where=f"bin {k}")
        return np.conj(gains) * y / denom
    assert eff.layout is not None
    t = eff.transform
    if eff.gains is not None and eff.basis == "normalized" and (
            spec.kind is Detector.ZF or t.transpose_path):
        denom = np.abs(eff.gains) ** 2 + spec.zeta
        if not denom.all():
            # bin k lies in block q = N / gcd(k, N); name the first in layout order
            q = min(n // math.gcd(int(k), n) for k in np.flatnonzero(denom == 0.0))
            raise SingularChannelError(f"zero channel gain in the block for divisor q={q}",
                                       where=f"q={q}")
        weights = np.conj(eff.gains) / denom
        return _real_matvec(t.e_r, np.fft.ifft(weights * np.fft.fft(_real_matvec(t.forward, y))))
    out = np.empty(n, dtype=np.complex128)
    for i, (q, phi, offset) in enumerate(eff.layout.blocks()):
        h = eff.block(i)
        rhs = h.conj().T @ y[offset:offset + phi]
        gram = h.conj().T @ h + spec.zeta * np.eye(phi)
        try:
            out[offset:offset + phi] = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularChannelError(
                f"singular block for divisor q={q} (size {phi})", where=f"q={q}"
            ) from exc
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


def qam_map(bits: np.ndarray, constellation: QamConstellation,
            normalize: bool = True) -> np.ndarray:
    """Gray-labelled bits to complex symbols (first half of each symbol's
    bits drives the in-phase axis, second half the quadrature axis)."""
    raw = np.asarray(bits)
    bits = raw.astype(np.int64, copy=False)
    k = constellation.bits_per_symbol
    if bits.ndim != 1 or bits.size % k != 0:
        raise ValueError(f"bit count must be a multiple of {k}")
    # bits >> 1 is zero exactly for 0 and 1; a non-integer input must also
    # survive the cast, or 0.5 would pass as its truncation 0
    if (bits >> 1).any() or (raw.dtype.kind not in "biu" and not np.array_equal(bits, raw)):
        raise ValueError("bits must be 0/1")
    symbols = constellation.label_points[_bits_to_ints(bits.reshape(-1, k))]
    return symbols * constellation.unit_scale if normalize else symbols


def qam_demap(symbols: np.ndarray, constellation: QamConstellation,
              normalize: bool = True) -> np.ndarray:
    """Nearest-point hard decision back to Gray-labelled bits."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    if normalize:
        symbols = symbols / constellation.unit_scale
    side = constellation.side
    axes = np.ascontiguousarray(symbols).view(np.float64).reshape(-1, 2)
    idx = np.clip(np.rint((axes + side - 1) / 2.0), 0, side - 1).astype(np.int64)
    # a NaN estimate casts to an arbitrary integer; the clipping take keeps
    # it in range, where it decides index 0 as the per-axis route did
    return constellation.axis_bits.take(idx, axis=0, mode="clip").ravel()
