"""Key material and three-stage XOR privacy amplification.

Key material is a 1-D uint8 ``np.ndarray`` of 0/1 values, index 0 first
(the first byte's most significant bit in the journal's hex form), with no
wrapper: exchange output, key C, its segments and key B alike.

Each stage folds adjacent bit pairs with XOR, halving the length (a trailing
unpaired bit is dropped, never fabricated).  Three stages give an eightfold
reduction; an input bias of epsilon shrinks to O(epsilon^2) per stage.
"""

from __future__ import annotations

import numpy as np


def xor_stage(bits: np.ndarray) -> np.ndarray:
    """One pairwise-XOR fold: out[i] = in[2i] ^ in[2i+1].

    Output length is floor(len/2); a trailing odd bit is dropped.
    """
    n = bits.size
    if n < 2:
        raise ValueError(f"xor_stage needs at least 2 bits, got {n}")
    m = n // 2
    return bits[0:2 * m:2] ^ bits[1:2 * m:2]


def amplify(bits: np.ndarray) -> np.ndarray:
    """Three successive XOR stages: eightfold length reduction."""
    if bits.size < 8:
        raise ValueError(f"amplify needs at least 8 bits, got {bits.size}")
    return xor_stage(xor_stage(xor_stage(bits)))
