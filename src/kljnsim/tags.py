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
split into two 32-bit pieces, so one float64 matrix product against a
(7B, 2) table gives two partial sums per block.  Every term is an
integer below 2^8 * 2^32 = 2^40 and a sum of 7B = 1792 of them is below
2^51, so every partial sum is an integer below 2^53 that float64 holds
exactly: the product is exact in any summation order, BLAS and fused
multiply-add included.  The sums are recombined and reduced mod p in
Python integers.  Blocks go through the product a fixed number at a
time, so the float64 working copy stays a few hundred KB whatever the
message length.  The rest, at most B - 1 limbs and the short final
group, is Horner one limb at a time; a message with no whole block
builds no weight table.

The table's B powers of x are Python integers; the six lower-order
weights of each limb follow from them in uint64 arrays, each a multiple
by 256 mod p of the next.  For v < p, v * 256 = hi * 2^64 + lo with
hi = v >> 56 and lo the low 64 bits, and 2^64 = 59 (mod p), so
lo + 59 * hi is congruent.  If that sum wraps past 2^64, the wrapped
value is below 59 * 255 and adding 59 more folds the carry; the result
is then below 2^64 < 2p, and one conditional subtraction of p reduces it.

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
_CHUNK_BLOCKS = 16    # blocks per matrix product (~230 KB of float64)
_PRIME64 = np.uint64(FIELD_PRIME)
_FOLD64 = np.uint64((1 << 64) % FIELD_PRIME)  # 59


def _times_256(v: np.ndarray) -> np.ndarray:
    """256 * v mod p, elementwise, for a uint64 array of residues below
    p."""
    low = v << np.uint64(8)
    s = low + (v >> np.uint64(56)) * _FOLD64
    s += (s < low) * _FOLD64  # the sum wrapped past 2^64
    s -= (s >= _PRIME64) * _PRIME64
    return s


def _weight_table(x: int) -> tuple[np.ndarray, int]:
    """The (7B, 2) float64 table of 32-bit weight pieces for one block,
    and x^B mod p."""
    powers = []  # x^1, ..., x^B: limb i of a block gets x^(B-i+1)
    pw = 1
    for _ in range(_BLOCK_LIMBS):
        pw = pw * x % FIELD_PRIME
        powers.append(pw)
    weights = np.empty((_BLOCK_LIMBS, LIMB_BYTES), np.uint64)
    weights[:, -1] = powers[::-1]  # the limb's last byte: weight x^(B-i+1)
    for t in range(LIMB_BYTES - 2, -1, -1):
        weights[:, t] = _times_256(weights[:, t + 1])
    weights = weights.reshape(-1)
    table = np.empty((weights.size, 2))
    table[:, 0] = weights & np.uint64(0xFFFFFFFF)
    table[:, 1] = weights >> np.uint64(32)
    return table, pw


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
            sums = blocks[start:start + _CHUNK_BLOCKS] @ table
            for low, high in sums.astype(np.uint64).tolist():
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
