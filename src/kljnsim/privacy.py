"""Bit-string key material and three-stage XOR privacy amplification.

Each stage folds adjacent bit pairs with XOR, halving the length (a trailing
unpaired bit is dropped, never fabricated).  Three stages give an eightfold
reduction; an input bias of epsilon shrinks to O(epsilon^2) per stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROVENANCES = ("raw_kljn", "amplified", "key_c", "key_b")


@dataclass
class BitString:
    """A tagged secret bit-string.

    ``bits`` is a uint8 array of 0/1 values, index 0 first (most significant
    in the hex form).  ``provenance`` records where the material came from;
    amplification only accepts raw exchange output.
    """

    bits: np.ndarray
    provenance: str = "raw_kljn"

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        if self.bits.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if self.bits.size and not np.all(self.bits <= 1):
            raise ValueError("bits must be 0 or 1")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")

    def __len__(self) -> int:
        return self.bits.size

    def to_hex(self) -> str:
        """Hex form, most-significant-bit first, zero-padded at the tail."""
        if self.bits.size == 0:
            return ""
        pad = (-self.bits.size) % 8
        padded = np.concatenate([self.bits, np.zeros(pad, dtype=np.uint8)])
        return bytes(np.packbits(padded)).hex()

    @classmethod
    def from_hex(cls, hexstr: str, n_bits: int,
                 provenance: str = "raw_kljn") -> "BitString":
        raw = np.unpackbits(np.frombuffer(bytes.fromhex(hexstr), np.uint8))
        if n_bits > raw.size:
            raise ValueError(f"hex string too short for {n_bits} bits")
        return cls(bits=raw[:n_bits].copy(), provenance=provenance)


def xor_stage(bs: BitString) -> BitString:
    """One pairwise-XOR fold: out[i] = in[2i] ^ in[2i+1].

    Output length is floor(len/2); a trailing odd bit is dropped.
    Provenance is preserved (staging is mechanism, not a state change).
    """
    n = len(bs)
    if n < 2:
        raise ValueError(f"xor_stage needs at least 2 bits, got {n}")
    m = n // 2
    out = bs.bits[0:2 * m:2] ^ bs.bits[1:2 * m:2]
    return BitString(bits=out, provenance=bs.provenance)


def amplify(bs: BitString) -> BitString:
    """Three successive XOR stages: eightfold length reduction.

    Only raw exchange output may be amplified; the result is tagged
    ``amplified``.
    """
    if len(bs) < 8:
        raise ValueError(f"amplify needs at least 8 bits, got {len(bs)}")
    if bs.provenance != "raw_kljn":
        raise ValueError(
            f"only raw_kljn material can be amplified, got {bs.provenance!r}")
    out = xor_stage(xor_stage(xor_stage(bs)))
    return BitString(bits=out.bits, provenance="amplified")
