"""Linear detection (ZF / MMSE) and square-QAM mapping.

The equalizer applies (H^H H + zeta I)^{-1} H^H with zeta = 0 (ZF) or
zeta = sigma^2 (MMSE): per frequency bin for the diagonal scheme, per
divisor block for the subspace scheme. Subspace q lives on the DFT bins
supp(q), so an RPSDM block is A_q^{-1} diag(H_q) A_q with A_q the fixed map
F[supp q] @ forward[:, block q]. One core, ``equalize_spectrum``, serves
every scheme, detector and N from the unitary spectrum Y of the received
time-domain block r (CP removed), Y = fft(r, norm="ortho"). OFDM's estimate
is W * Y with the per-bin weights W = H* / (|H|^2 + zeta). At power-of-two
N, where A_q^H A_q = N I, RPSDM's is e_r @ ifft(W * Y, norm="ortho") with
``haar_analysis`` as e_r. At other N every RPSDM block works on
sqrt(N) * Y[supp q] = A_q y_q (``_block_equalize``): ZF inverts the fixed
map, A_q^{-1} (sqrt(N) * Y[supp q] / H[supp q]), and MMSE solves the
block's regularized normal equations; neither forms a block of the channel
or reads the dense pair. ``equalize`` takes the demodulated block y instead,
which is OFDM's Y itself; for RPSDM it rebuilds r = forward @ y and takes
its spectrum. Every channel is given by its gains on the normalized basis.
Bit labels use Gray coding per axis; ``qam_map`` and ``qam_demap`` work on
symbols normalized to unit average energy, so sigma^2 parameterizes both
the SNR and the MMSE regularizer. ``equalize``, ``equalize_spectrum``,
``qam_map`` and ``qam_demap`` also take a batch with rows first (the BER
engine's (rows, N) arrays, with one zeta per row), giving each row the
bytes of its own call. A ZF batch with an
exactly singular row raises one SingularChannelError for the whole batch; a
caller that needs the other rows' estimates reruns the rows one at a time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import EffectiveChannel
from .transforms import Scheme, _real_matvec, haar_analysis


class Detector(enum.Enum):
    ZF = "zf"
    MMSE = "mmse"


class SingularChannelError(RuntimeError):
    """The equalizer hit an exactly singular bin or block, named by
    ``where``: a ZF zero gain, where a batch names what the 1-D call of its
    first singular row would, or an MMSE block gram singular in floating
    point."""

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


def _check_normalized(eff: EffectiveChannel) -> None:
    if eff.basis != "normalized":
        raise ValueError(f"equalize needs the normalized basis, got {eff.basis!r}")


def _check_shape(eff: EffectiveChannel, v: np.ndarray) -> None:
    if v.shape != eff.shape:
        expected = f"block of length {eff.n}" if len(eff.shape) == 1 else f"shape {eff.shape}"
        raise ValueError(f"expected {expected}, got shape {v.shape}")


def _row_zeta(spec: DetectorSpec):
    """The regularizer, a per-row zeta as a column against the rows of bins."""
    return spec.zeta if np.ndim(spec.zeta) == 0 else np.asarray(spec.zeta)[:, None]


def equalize_spectrum(spec: DetectorSpec, eff: EffectiveChannel,
                      spectrum: np.ndarray) -> np.ndarray:
    """Symbol estimates from the unitary spectrum fft(r, norm="ortho") of the
    received block r, or of each row of a batch. Every row gets the bytes of
    its own 1-D call."""
    _check_normalized(eff)
    spectrum = np.asarray(spectrum)
    _check_shape(eff, spectrum)
    gains = eff.gains
    zeta = _row_zeta(spec)
    denom = np.abs(gains) ** 2 + zeta
    if not denom.all():  # only ZF (zeta = 0) can hit a zero
        raise _zero_gain_error(eff.scheme, denom == 0.0)
    if eff.scheme is Scheme.OFDM:
        return np.conj(gains) * spectrum / denom
    if eff.transform.transpose_path:
        return haar_analysis(np.fft.ifft(np.conj(gains) / denom * spectrum, norm="ortho"))
    return _block_equalize(spec.kind, eff, np.sqrt(eff.n) * spectrum, zeta)


def _block_equalize(kind: Detector, eff: EffectiveChannel, v: np.ndarray, zeta) -> np.ndarray:
    """RPSDM where A_q^H A_q != N I (non-power-of-two N), from the
    unnormalized spectrum v = fft(r): block q sees v[supp q] = D A_q x_q plus
    noise with D = diag(H[supp q]). Both return x_q = A_q^{-1} z: ZF with
    z = v[supp q] / H[supp q], MMSE with z solving the regularized normal
    equations (D* G^{-1} D + zeta G^{-1}) z = D* G^{-1} v[supp q]."""
    out = np.empty(v.shape, dtype=np.complex128)
    ratio = v / eff.gains if kind is Detector.ZF else None  # ZF's z on every bin
    if np.ndim(zeta):
        zeta = zeta[..., None]  # one regularizer per row's phi x phi system
    for (q, phi, offset), m in zip(eff.layout.blocks(), eff.transform.subspace_maps):
        if ratio is not None:
            z = ratio[..., m.bins, None]
        else:
            h = eff.gains[..., m.bins]
            lhs = np.conj(h)[..., :, None] * m.g_inv * h[..., None, :] + zeta * m.g_inv
            rhs = np.conj(h)[..., None] * (m.g_inv @ v[..., m.bins, None])
            try:  # a system can be singular in floating point at an extreme SNR
                z = np.linalg.solve(lhs, rhs)
            except np.linalg.LinAlgError as exc:
                raise SingularChannelError(f"singular block for divisor q={q} (size {phi})",
                                           where=f"q={q}") from exc
        out[..., offset:offset + phi] = (m.a_inv @ z)[..., 0]
    return out


def equalize(spec: DetectorSpec, eff: EffectiveChannel, y: np.ndarray) -> np.ndarray:
    """Recover symbol estimates from the demodulated block y, or from each
    row of y through the matching channel of a batch (zeta scalar or per
    row): ``equalize_spectrum`` on the spectrum of r = forward @ y, the block
    that demodulates to y (OFDM's y is that spectrum already). Every row gets
    the bytes of its own 1-D call."""
    y = np.asarray(y)
    _check_shape(eff, y)
    if eff.scheme is Scheme.RPSDM:
        y = np.fft.fft(_real_matvec(eff.transform.forward, y), norm="ortho")
    return equalize_spectrum(spec, eff, y)


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
