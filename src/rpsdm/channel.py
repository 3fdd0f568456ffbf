"""Frequency-selective Rayleigh channel, cyclic-prefix framing, and the
transformed effective channels with structural checks.

A circulant channel becomes diagonal under the complex-exponential pair and
stair block diagonal under the integer periodic transform pair: one block
per divisor of N, sized phi(q_i). Subspace q lives exactly on the DFT bins
supp(q), so an effective channel has one representation: the DFT H of the
taps plus, for RPSDM, the transform whose fixed per-subspace maps A_q
(``subspace_maps``) shape each block. ``effective_channel`` computes only H;
the dense matrix is built on demand (``EffectiveChannel.matrix``, ``block``,
``blocks``) for the structure checks and the tests, while the equalizer
works on H directly. The blocks, for the two RPSDM bases:

* ``basis="normalized"`` — production pair (e_r, weighted e_t), the one the
  simulation chain uses and the only one ``equalize`` accepts:
  block A_q^{-1} diag(H[supp q]) A_q;
* ``basis="integer"`` — raw pair (e_t^T, e_t), whose blocks are Toeplitz for
  every N and skew-circulant for N a power of two:
  block diag(1/w) A_q^H diag(H[supp q]) A_q diag(1/w) / N with w the
  block's column weights.

Off-block entries are exactly zero. The dense products e_r @ H_cir @ forward
and e_t^T @ H_cir @ e_t remain the reference: the tests compute them from
``circulant_matrix``, and the ``decompose`` command classifies the first
with ``structure_report``, which takes any matrix.

For power-of-two N the bases differ only by a block-constant scale, so the
zero/nonzero structure is identical. For other N the normalized inverse-path
blocks stay block diagonal but are not Toeplitz in general.

The framing, ``transmit`` and ``effective_channel`` also take a batch with
rows first (one frame, tap row and noise draw per row), giving each row the
bytes of its own call. ``transmit`` draws nothing: the caller draws each
frame's noise with ``awgn`` from that frame's stream and passes it in.
``add_cp``, ``transmit`` and ``remove_cp`` are the library's time-domain
route and the test oracle of the BER engine, which applies the same channel
as the per-bin product of ``effective_channel``'s gains with the unitary
spectrum of the transmitted block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .number_theory import DivisorSet, is_power_of_two
from .ramanujan import PeriodicTransform
from .transforms import Scheme

#: default relative tolerance for structure classification
STRUCTURE_RTOL = 1e-9


@dataclass(frozen=True)
class ChannelRealization:
    """L complex multipath gains for a length-N block (L <= N), or one row of
    L gains per block of a batch."""

    taps: np.ndarray
    n: int

    @property
    def l(self) -> int:
        return self.taps.shape[-1]


def draw_channel(rng, l: int, n: int) -> ChannelRealization:
    """Draw L iid CN(0,1) taps: L real parts, then L imaginary parts, each
    of variance 1/2.

    ``rng`` is a numpy Generator or an integer seed; fixed seed gives
    identical taps on repeated calls.
    """
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= n, got l={l}, n={n}")
    z = np.random.default_rng(rng).standard_normal(2 * l)
    taps = (z[:l] + 1j * z[l:]) / np.sqrt(2.0)
    return ChannelRealization(taps=taps, n=n)


def add_cp(x: np.ndarray, l: int) -> np.ndarray:
    """Prepend the block's last l-1 samples (of each row of a batch); frame
    length becomes N + l - 1."""
    x = np.asarray(x)
    if l > x.shape[-1]:
        raise ValueError(f"path count l={l} exceeds block length {x.shape[-1]}")
    if l < 1:
        raise ValueError(f"path count must be >= 1, got {l}")
    if l == 1:
        return x.copy()
    return np.concatenate([x[..., -(l - 1):], x], axis=-1)


def remove_cp(frame: np.ndarray, l: int) -> np.ndarray:
    """Drop the first l-1 received samples of the frame (of each row)."""
    if l < 1:
        raise ValueError(f"path count must be >= 1, got {l}")
    return np.asarray(frame)[..., l - 1:]


def awgn(rng: np.random.Generator, k: int, sigma2: float) -> np.ndarray:
    """k samples of complex AWGN with total variance sigma2 per sample: k real
    parts, then k imaginary parts, each of variance sigma2 / 2."""
    if sigma2 < 0:
        raise ValueError(f"noise variance must be >= 0, got {sigma2}")
    z = rng.standard_normal(2 * k)
    return (z[:k] + 1j * z[k:]) * np.sqrt(sigma2 / 2.0)


def transmit(x_cp: np.ndarray, ch: ChannelRealization,
             noise: np.ndarray | None = None) -> np.ndarray:
    """Tapped-delay-line output y[n] = sum_l h_l x_cp[n-l] + w[n].

    The linear convolution is truncated to the frame length, and ``noise``
    (an ``awgn`` draw of the frame's shape), if given, is added across the
    whole frame. After CP removal the noise-free output equals the circulant
    product. A batch passes each row of ``x_cp`` through the matching row of
    ``ch.taps`` and adds the matching row of ``noise``.
    """
    x_cp = np.asarray(x_cp)
    k = x_cp.shape[-1]
    if k != ch.n + ch.l - 1:
        raise ValueError(f"frame length {k} != n + l - 1 = {ch.n + ch.l - 1}")
    if noise is not None and np.shape(noise) != x_cp.shape:
        raise ValueError(f"noise shape {np.shape(noise)} != frame shape {x_cp.shape}")
    if x_cp.ndim == 1:
        y = np.convolve(x_cp, ch.taps)[:k]
    else:
        y = np.empty(x_cp.shape, dtype=np.result_type(x_cp, ch.taps))
        for r, (frame, taps) in enumerate(zip(x_cp, ch.taps)):
            y[r] = np.convolve(frame, taps)[:k]
    return y if noise is None else y + noise


def circulant_matrix(ch: ChannelRealization) -> np.ndarray:
    """N x N circulant with first column the zero-padded taps."""
    col = np.zeros(ch.n, dtype=np.complex128)
    col[:ch.l] = ch.taps
    return circulant_from_column(col)


def circulant_from_column(col: np.ndarray) -> np.ndarray:
    """Circulant matrix from an arbitrary first column (each column a
    circular down-shift of the previous)."""
    col = np.asarray(col)
    idx = np.arange(col.shape[0])
    return col[(idx[:, None] - idx[None, :]) % col.shape[0]]


class EffectiveChannel:
    """Channel seen between modulation symbols and demodulated output.

    ``gains`` is the DFT of the zero-padded taps; for the subspace scheme,
    ``transform`` supplies the divisor ``layout`` and the per-subspace maps
    that shape each block in ``basis``. The dense ``matrix`` is assembled on
    first read and then kept, and ``block(i)`` computes only its own
    phi(q_i) x phi(q_i) block.

    A batch of channels carries one row of gains per block; ``matrix`` and
    ``block(i)`` then gain the same leading axis.
    """

    def __init__(self, scheme: Scheme, gains: np.ndarray,
                 transform: PeriodicTransform | None = None, basis: str = "normalized"):
        self.scheme = scheme
        self.gains = gains
        self.transform = transform
        # divisor block layout; None for the diagonal scheme
        self.layout = None if transform is None else transform.layout
        self.basis = basis
        self._matrix = None

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the demodulated input: (N,), or (rows, N) for a batch."""
        return self.gains.shape

    @property
    def n(self) -> int:
        return self.shape[-1]

    @property
    def matrix(self) -> np.ndarray:
        """Dense N x N effective channel; off-block entries exactly zero."""
        if self._matrix is None:
            matrix = np.zeros(self.shape + (self.n,), dtype=np.complex128)
            if self.layout is None:
                diagonal = np.arange(self.n)
                matrix[..., diagonal, diagonal] = self.gains
            else:
                for i in range(len(self.layout)):
                    s = self.layout.block_slice(i)
                    matrix[..., s, s] = self.block(i)
            self._matrix = matrix
        return self._matrix

    def block(self, i: int) -> np.ndarray:
        """i-th diagonal sub-matrix (phi(q_i) x phi(q_i))."""
        if self.layout is None:
            raise ValueError("block views only exist for the subspace scheme")
        m = self.transform.subspace_maps[i]
        shaped = self.gains[..., m.bins, None] * m.a
        if self.basis == "normalized":
            return m.a_inv @ shaped
        inv_w = 1.0 / self.transform.q_norm[self.layout.block_slice(i)]
        return (m.a.conj().T @ shaped) * np.outer(inv_w, inv_w) / self.n

    def blocks(self) -> list[np.ndarray]:
        if self.layout is None:
            raise ValueError("block views only exist for the subspace scheme")
        return [self.block(i) for i in range(len(self.layout))]


def effective_channel(scheme: Scheme, ch: ChannelRealization,
                      transform: PeriodicTransform | None = None,
                      basis: str = "normalized") -> EffectiveChannel:
    """Transform the circulant channel into its per-scheme effective form.

    Only the DFT H of the zero-padded taps is computed here, and the channel
    is H plus the transform; the dense matrix is built when ``.matrix``,
    ``.block()`` or ``.blocks()`` is read.
    OFDM: diagonal matrix diag(H). RPSDM: per divisor block,
    A_q^{-1} diag(H_q) A_q (``basis="normalized"``, equal to
    e_r @ H_cir @ forward) or diag(1/w) A_q^H diag(H_q) A_q diag(1/w) / N
    (``basis="integer"``, equal to e_t.T @ H_cir @ e_t, the worked-fixture
    route), with H_q = H[supp q] and w = q_norm on the block. A batch of
    realizations (rows of taps) gives a batch of channels, one row of H each.
    """
    taps = np.zeros(ch.taps.shape[:-1] + (ch.n,), dtype=np.complex128)
    taps[..., :ch.l] = ch.taps
    gains = np.fft.fft(taps)
    if scheme is Scheme.OFDM:
        return EffectiveChannel(scheme, gains)
    if transform is None or transform.n != ch.n:
        raise ValueError("a transform matching the channel block length is required")
    if basis not in ("normalized", "integer"):
        raise ValueError(f"basis must be 'normalized' or 'integer', got {basis!r}")
    return EffectiveChannel(scheme, gains, transform, basis)


def _scale_of(matrix: np.ndarray, scale: float | None) -> float:
    s = float(np.abs(matrix).max()) if scale is None else float(scale)
    return s if s > 0 else 1.0


def is_stair_block_diagonal(matrix: np.ndarray, layout: DivisorSet,
                            rtol: float = STRUCTURE_RTOL,
                            scale: float | None = None) -> tuple[bool, float]:
    """Check that all mass sits in the divisor-layout diagonal blocks.

    Returns (ok, residual) where residual is the largest off-block magnitude
    relative to the largest entry of the matrix.
    """
    matrix = np.asarray(matrix)
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError("structure checks need a square matrix")
    mask = np.ones(matrix.shape, dtype=bool)
    for i in range(len(layout)):
        s = layout.block_slice(i)
        mask[s, s] = False
    off = np.abs(matrix[mask]).max() if mask.any() else 0.0
    residual = float(off / _scale_of(matrix, scale))
    return residual < rtol, residual


def is_toeplitz(matrix: np.ndarray, rtol: float = STRUCTURE_RTOL,
                scale: float | None = None) -> tuple[bool, float]:
    """Constant-diagonal check: every entry equals the one up-left of it."""
    matrix = np.asarray(matrix)
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError("structure checks need a square matrix")
    if matrix.shape[0] < 2:
        return True, 0.0
    dev = np.abs(matrix[1:, 1:] - matrix[:-1, :-1]).max()
    residual = float(dev / _scale_of(matrix, scale))
    return residual < rtol, residual


def is_skew_circulant(matrix: np.ndarray, rtol: float = STRUCTURE_RTOL,
                      scale: float | None = None) -> tuple[bool, float]:
    """Each row is the previous row rotated right with the wrapped entry
    negated: A[i, j] = a[j-i] for j >= i, -a[n+j-i] otherwise."""
    matrix = np.asarray(matrix)
    n = matrix.shape[0]
    if n != matrix.shape[1]:
        raise ValueError("structure checks need a square matrix")
    idx = np.arange(n)
    shifted = matrix[0][(idx[None, :] - idx[:, None]) % n]
    expected = np.where(idx[None, :] >= idx[:, None], shifted, -shifted)
    residual = float(np.abs(matrix - expected).max()) / _scale_of(matrix, scale)
    return residual < rtol, residual


def structure_report(matrix: np.ndarray, layout: DivisorSet | None = None,
                     rtol: float = STRUCTURE_RTOL) -> dict:
    """Classification summary of ``matrix`` used by the decomposition CLI:
    diagonal without a ``layout``, else stair block diagonal with per-block
    Toeplitz (and, for power-of-two N, skew-circulant) checks."""
    matrix = np.asarray(matrix)
    scale = _scale_of(matrix, None)
    if layout is None:
        off = matrix - np.diag(np.diag(matrix))
        residual = float(np.abs(off).max() / scale)
        return {"structure": "diagonal", "off_diagonal_residual": residual,
                "diagonal_ok": residual < rtol}
    ok, residual = is_stair_block_diagonal(matrix, layout, rtol=rtol)
    power_of_two = is_power_of_two(layout.n)
    blocks = []
    for q, phi, offset in layout.blocks():
        block = matrix[offset:offset + phi, offset:offset + phi]
        toep_ok, toep_res = is_toeplitz(block, rtol=rtol, scale=scale)
        entry = {"q": q, "size": phi, "offset": offset,
                 "toeplitz_ok": toep_ok, "toeplitz_residual": float(toep_res)}
        if power_of_two:
            skew_ok, skew_res = is_skew_circulant(block, rtol=rtol, scale=scale)
            entry["skew_circulant_ok"] = skew_ok
            entry["skew_circulant_residual"] = float(skew_res)
        blocks.append(entry)
    return {"structure": "stair_block_diagonal", "off_block_residual": float(residual),
            "stair_block_ok": ok, "blocks": blocks}
