"""Keyed polynomial universal hash producing 64-bit authentication tags.

Carter-Wegman construction: the message is split into 56-bit limbs
m_1..m_d (so every limb is below the modulus), a length limb is appended,
and the tag is the polynomial

    tag = m_1 x^(d+1) + m_2 x^d + ... + m_d x^2 + (len(data) + 1) * x
                                                                  (mod p)

with p = 2^64 - 59, the largest 64-bit prime, and x the 64-bit key reduced
mod p.  Limbs are big-endian 7-byte groups; a short final group is read as
a number of its own.  The +1 keeps even the empty string's tag
key-dependent.  Two distinct messages of combined limb count d collide
under a uniformly random key with probability at most d / p (about 2^-64
scaled by the message length), and a forger holding no information about
the key does no better than guessing it.

Evaluation is exact.  Whole blocks of B limbs, counted from the start,
go through Horner's rule over blocks:  acc <- acc * x^B + sum_i limb_i
x^(B-i+1).  A block's sum is a sum over its 7B bytes of byte * w, with
w = x^(B-i+1) * 256^(6-t) mod p for byte t of limb i.  Each weight is
split into two 32-bit pieces, so one int64 matrix product against a
(7B, 2) table gives two partial sums per block; every term is below
2^8 * 2^32 and a sum of 7B = 1792 of them is below 2^51, far from int64
overflow.  The sums are recombined and reduced mod p in Python integers.
Blocks go through the product a fixed number at a time, so the int64
working copy stays a few hundred KB whatever the message length.  The
rest, at most B - 1 limbs and the short final group, is Horner one limb
at a time; a message with no whole block builds no weight table.

The key is secret and single-use here (a fresh key-C segment per session),
which is what makes the bound information-theoretic rather than
computational.
"""

from __future__ import annotations

import numpy as np

FIELD_PRIME = (1 << 64) - 59  # largest prime below 2^64
LIMB_BYTES = 7
TAG_BITS = 64

_BLOCK_LIMBS = 256    # B: limbs per block, one weight-table row each
_CHUNK_BLOCKS = 16    # blocks per matrix product (~230 KB of int64)
_PIECE_SHIFTS = np.array([0, 32], dtype=np.uint64)


def _weight_table(x: int) -> tuple[np.ndarray, int]:
    """The (7B, 2) int64 table of 32-bit weight pieces for one block, and
    x^B mod p."""
    powers = []  # x^B, ..., x^1: limb i of a block gets x^(B-i+1)
    pw = 1
    for _ in range(_BLOCK_LIMBS):
        pw = pw * x % FIELD_PRIME
        powers.append(pw)
    powers.reverse()
    weights = np.array(
        [p * (1 << 8 * (LIMB_BYTES - 1 - t)) % FIELD_PRIME
         for p in powers for t in range(LIMB_BYTES)], dtype=np.uint64)
    pieces = (weights[:, None] >> _PIECE_SHIFTS) & np.uint64(0xFFFFFFFF)
    return pieces.astype(np.int64), pw


def poly_tag(data: bytes | bytearray, key: int) -> int:
    """Evaluate the keyed polynomial over ``data``, any bytes-like object
    whose ``len()`` is its byte count, read in place; returns a 64-bit
    tag."""
    if not 0 <= key < (1 << 64):
        raise ValueError("key must be a 64-bit integer")
    x = key % FIELD_PRIME
    row = _BLOCK_LIMBS * LIMB_BYTES
    n_blocks = len(data) // row
    acc = 0
    if n_blocks:
        table, x_block = _weight_table(x)
        blocks = np.frombuffer(data, dtype=np.uint8,
                               count=n_blocks * row).reshape(n_blocks, row)
        for start in range(0, n_blocks, _CHUNK_BLOCKS):
            sums = blocks[start:start + _CHUNK_BLOCKS].astype(np.int64) @ table
            for low, high in sums.tolist():
                acc = (acc * x_block + low + (high << 32)) % FIELD_PRIME
    for off in range(n_blocks * row, len(data), LIMB_BYTES):
        limb = int.from_bytes(data[off:off + LIMB_BYTES], "big")
        acc = (acc + limb) * x % FIELD_PRIME
    return (acc + len(data) + 1) * x % FIELD_PRIME


def segment_to_key(segment: np.ndarray) -> int:
    """Fold a key segment (a bit array) into the 64-bit evaluation key.

    Segments of exactly 64 bits map directly; longer ones are XOR-folded
    in 64-bit blocks, shorter ones zero-padded at the tail.
    """
    padded = np.zeros(-(-segment.size // TAG_BITS) * TAG_BITS, np.uint8)
    padded[:segment.size] = segment
    words = np.packbits(padded).view(">u8")
    return int(np.bitwise_xor.reduce(words))
