"""Keyed PCG64 streams, seeded a chunk of rows at a time, and the bounded
integers read from their raw words.

Every Monte Carlo row draws from the stream ``np.random.default_rng(key)``
gives for its key, (master seed, t) for a CCDF block and (master seed,
point, trial, attempt) for a BER row. ``_key_streams`` computes a chunk's
SeedSequence hashes and PCG64 seeds together in numpy instead of seeding a
Generator per row, and loads each row's state into one reused Generator.
``_raw_indices`` turns raw PCG64 words into the indices ``integers(0, m, n)``
would draw for a power-of-two m: the CCDF's symbol indices, and the BER
bits with m = 2.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1

#: SeedSequence's hash constants (numpy NEP 19, after O'Neill's seed_seq)
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715

#: PCG64's 128-bit LCG multiplier (O'Neill, HMC-CS-2014-0905)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _key_words(key) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's entropy words of every row of ``key``: the
    little-endian uint32 words of each entry in order, zero padded to a
    (rows, max(longest row, 4)) array, and each row's word count. An entry is a
    non-negative integer shared by every row, or an int64 array holding one
    value per row."""
    rows = max((len(e) for e in key if isinstance(e, np.ndarray)), default=1)
    slots = []  # (word of each row, which rows have that word)
    for entry in key:
        if isinstance(entry, np.ndarray):
            values = entry.astype(np.int64)
            if (values < 0).any():
                raise ValueError("expected non-negative integer")
            slots += [(values & _MASK32, True), (values >> 32, values >> 32 > 0)]
            continue
        value = operator.index(entry)
        if value < 0:
            raise ValueError("expected non-negative integer")
        while True:
            slots.append((np.full(rows, value & _MASK32), True))
            value >>= 32
            if not value:
                break
    words = np.zeros((rows, max(len(slots), 4)), dtype=np.uint32)
    length = np.zeros(rows, dtype=np.int64)
    for word, present in slots:
        present = np.broadcast_to(present, rows)
        words[present, length[present]] = word[present]
        length += present
    # a row not live at a column is live at no later one, so columns past
    # the longest row (an int64 entry's high word on every row) hash nothing
    return words[:, :max(length.max(), 4)], length


def _pcg64_states(key) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``np.random.default_rng(row key)`` for every row
    of ``key`` (see ``_key_words``): SeedSequence's pool hash and state
    generation run on all rows at once in uint32 arithmetic, then PCG64's
    seeding takes two LCG steps per row."""
    words, length = _key_words(key)
    const = _SS_INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _SS_MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    def mix(x, y):
        result = np.uint32(_SS_MIX_L) * x - np.uint32(_SS_MIX_R) * y
        return result ^ result >> np.uint32(16)

    # a missing word among the first four hashes as a zero, so padding is exact
    pool = [hashmix(words[:, i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, words.shape[1]):
        live = length > src
        for dst in range(4):
            pool[dst] = np.where(live, mix(pool[dst], hashmix(words[:, src])), pool[dst])
    const = _SS_INIT_B
    seeds = np.empty((words.shape[0], 8), dtype=np.uint32)
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * _SS_MULT_B & _MASK32
        value = value * np.uint32(const)
        seeds[:, i] = value ^ value >> np.uint32(16)
    states = []
    for s_hi, s_lo, i_hi, i_lo in seeds.astype("<u4").view("<u8").tolist():
        inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
        states.append((((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc & _MASK128, inc))
    return states


def _key_streams(*key):
    """The stream of ``np.random.default_rng`` for each row of ``key`` (see
    ``_key_words``): ``_key_streams(seed, np.arange(a, b))`` gives those of
    ``[seed, t]`` for t in a..b-1. Yields one Generator, loaded with the
    next row's state before each yield, so take a row's draws before asking
    for the next."""
    rng = np.random.Generator(np.random.PCG64(0))
    # one state dict, refilled per row: the setter copies it into the generator
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for pcg["state"], pcg["inc"] in _pcg64_states(key):
        rng.bit_generator.state = state
        yield rng


def _raw_indices(raw: np.ndarray, n: int, m: int) -> np.ndarray:
    """The indices ``rng.integers(0, m, n)`` draws, one row per row of
    ``raw``, the ``(n + 1) // 2`` words ``rng.bit_generator.random_raw``
    gives on the same stream, for a power-of-two m. For such m, Lemire's
    bounded draw never rejects and keeps the top log2(m) bits of each 32-bit
    word, and PCG64 serves every 64-bit output as two words, low half first."""
    words = raw.astype("<u8", copy=False).view("<u4")  # little-endian: low half first
    return (words[:, :n] >> np.uint32(32 - (m.bit_length() - 1))).astype(np.intp)
