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

Evaluation is blocked, and exact.  The full limbs are cut into blocks of
B limbs (a shorter block first, so the rest align), and the polynomial is
Horner's rule over blocks:  acc <- acc * x^B + sum_i limb_i x^(B-i).  A
block's sum is a sum over its 7B bytes of byte * w, with the weight
w = x^(B-i) * 256^(6-t) mod p for byte t of limb i.  Each weight is split
into four 16-bit pieces, so one int64 matrix product gives four partial
sums per block; every term is below 2^8 * 2^16 and a sum of 7B of them is
below 2^35, far from int64 overflow.  The pieces are recombined and folded
mod p in Python integers, with no rounding anywhere.  Blocks go through
the product a fixed number at a time, so the int64 working copy stays a
few hundred KB whatever the message length.  The weight table is built
per call for at most B limbs: a message of fewer full limbs than that
builds weights for its own limbs only.

The key is secret and single-use here (a fresh key-C segment per session),
which is what makes the bound information-theoretic rather than
computational.
"""

from __future__ import annotations

import numpy as np

from .privacy import BitString

FIELD_PRIME = (1 << 64) - 59  # largest prime below 2^64
LIMB_BYTES = 7
TAG_BITS = 64

_BLOCK_LIMBS = 256    # B: limbs per block, one weight-table row each
_CHUNK_BLOCKS = 16    # blocks per matrix product (~230 KB of int64)
_PIECE_SHIFTS = np.array([0, 16, 32, 48], dtype=np.uint64)


def _weight_table(x: int, limbs: int) -> tuple[np.ndarray, int]:
    """The (7 limbs, 4) int64 table of 16-bit weight pieces for a block of
    ``limbs`` limbs, and x^limbs mod p."""
    powers = []  # x^limbs, ..., x^1: the weight of limb i is x^(limbs-i)
    pw = 1
    for _ in range(limbs):
        pw = pw * x % FIELD_PRIME
        powers.append(pw)
    powers.reverse()
    weights = np.array(
        [p * (1 << 8 * (LIMB_BYTES - 1 - t)) % FIELD_PRIME
         for p in powers for t in range(LIMB_BYTES)], dtype=np.uint64)
    pieces = (weights[:, None] >> _PIECE_SHIFTS) & np.uint64(0xFFFF)
    return pieces.astype(np.int64), pw


def _fold(acc: int, sums: np.ndarray, x_step: int) -> int:
    """Horner over blocks: ``acc * x_step + block sum`` per row of
    ``sums``, each row holding one block's four 16-bit piece sums."""
    for c0, c1, c2, c3 in sums.tolist():
        acc = (acc * x_step + c0 + (c1 << 16) + (c2 << 32)
               + (c3 << 48)) % FIELD_PRIME
    return acc


def poly_tag(data: bytes, key: int) -> int:
    """Evaluate the keyed polynomial over ``data``; returns a 64-bit tag."""
    if not 0 <= key < (1 << 64):
        raise ValueError("key must be a 64-bit integer")
    x = key % FIELD_PRIME
    n_full = len(data) // LIMB_BYTES
    body = np.frombuffer(data, dtype=np.uint8, count=n_full * LIMB_BYTES)
    table, x_block = _weight_table(x, min(n_full, _BLOCK_LIMBS))
    row = _BLOCK_LIMBS * LIMB_BYTES
    head = (n_full % _BLOCK_LIMBS) * LIMB_BYTES  # bytes in the short block
    acc = 0
    if head:
        # The short block takes the last rows of the table: its first limb
        # gets x^head_limbs, as if led by zero limbs, which add nothing.
        acc = _fold(0, body[None, :head].astype(np.int64)
                    @ table[len(table) - head:], 0)
    blocks = body[head:].reshape(-1, row)
    for start in range(0, len(blocks), _CHUNK_BLOCKS):
        chunk = blocks[start:start + _CHUNK_BLOCKS].astype(np.int64)
        acc = _fold(acc, chunk @ table, x_block)
    tail = data[n_full * LIMB_BYTES:]
    if tail:
        acc = (acc + int.from_bytes(tail, "big")) * x % FIELD_PRIME
    return (acc + len(data) + 1) * x % FIELD_PRIME


def segment_to_key(segment: BitString) -> int:
    """Fold a key segment into the 64-bit evaluation key.

    Segments of exactly 64 bits map directly; longer ones are XOR-folded
    in 64-bit blocks, shorter ones zero-padded at the tail.
    """
    bits = segment.bits
    padded = np.zeros(-(-bits.size // TAG_BITS) * TAG_BITS, dtype=np.uint8)
    padded[:bits.size] = bits
    words = np.packbits(padded).view(">u8")
    return int(np.bitwise_xor.reduce(words))
