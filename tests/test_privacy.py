import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kljnsim.card import CardIdentity, KeyC, ServerRecord
from kljnsim.privacy import amplify, xor_stage


def bs(seq):
    """Key material: a uint8 array of 0/1 values."""
    return np.array(seq, dtype=np.uint8)


def journal_of(bits) -> dict:
    """The journal record of a card whose key C is ``bits``, one
    segment."""
    key_c = KeyC(bits=bits, segment_len=len(bits), cursor=0, m_max=1)
    return ServerRecord(CardIdentity("4000", "HOLDER", "12/30"),
                        key_c).to_journal()


class TestXorStage:
    def test_truth_table_pair(self):
        assert list(xor_stage(bs([1, 0]))) == [1]

    def test_truth_table_quad(self):
        assert list(xor_stage(bs([1, 1, 0, 0]))) == [0, 0]

    def test_odd_trailing_bit_dropped(self):
        assert list(xor_stage(bs([1, 0, 1]))) == [1]

    def test_against_brute_force(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, 1000, dtype=np.uint8)
        out = xor_stage(bs(bits))
        expected = [int(bits[2 * i]) ^ int(bits[2 * i + 1])
                    for i in range(500)]
        assert list(out) == expected

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            xor_stage(bs([1]))


class TestAmplify:
    def test_eight_zeros(self):
        assert list(amplify(bs([0] * 8))) == [0]

    def test_eight_ones(self):
        # 11111111 -> 0000 -> 00 -> 0
        assert list(amplify(bs([1] * 8))) == [0]

    def test_eightfold_reduction(self):
        rng = np.random.default_rng(2)
        out = amplify(bs(rng.integers(0, 2, 800, dtype=np.uint8)))
        assert len(out) == 100

    def test_is_three_stages_exactly(self):
        rng = np.random.default_rng(3)
        raw = bs(rng.integers(0, 2, 517, dtype=np.uint8))
        manual = xor_stage(xor_stage(xor_stage(raw)))
        assert np.array_equal(amplify(raw), manual)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            amplify(bs([1] * 7))

    @given(n=st.integers(8, 4096))
    @settings(max_examples=60, deadline=None)
    def test_length_contract(self, n):
        raw = bs(np.arange(n, dtype=np.uint8) % 2)
        out = amplify(raw)
        assert len(out) == ((n // 2) // 2) // 2
        if n % 8 == 0:
            assert len(out) == n // 8


class TestBiasSquaring:
    def test_stage_bias_follows_epsilon_squared(self):
        # i.i.d. input with P(1) = 0.5 + eps -> stage output has
        # P(1) = 2 p (1-p) = 0.5 - 2 eps^2
        eps = 0.1
        n = 1_000_000
        rng = np.random.default_rng(4)
        bits = (rng.random(n) < 0.5 + eps).astype(np.uint8)
        out = xor_stage(bits)
        predicted = 0.5 - 2 * eps ** 2
        sigma = np.sqrt(0.25 / len(out))
        assert abs(out.mean() - predicted) < 3 * sigma

    def test_second_stage_keeps_squaring(self):
        eps = 0.1
        n = 1_000_000
        rng = np.random.default_rng(5)
        bits = (rng.random(n) < 0.5 + eps).astype(np.uint8)
        two = xor_stage(xor_stage(bits))
        # input bias to stage 2 is -2 eps^2; output 0.5 - 2 (2 eps^2)^2
        predicted = 0.5 - 2 * (2 * eps ** 2) ** 2
        sigma = np.sqrt(0.25 / len(two))
        assert abs(two.mean() - predicted) < 3 * sigma


class TestBitStringSerialization:
    """Key C's hex form in a ``ServerRecord`` journal line."""

    def test_hex_msb_first(self):
        assert journal_of(bs([1, 0, 1, 0, 0, 0, 0, 1]))["c_hex"] == "a1"

    def test_hex_pads_tail(self):
        assert journal_of(bs([1, 1, 1]))["c_hex"] == "e0"

    def test_hex_round_trip(self):
        rng = np.random.default_rng(6)
        bits = rng.integers(0, 2, 123, dtype=np.uint8)
        back = ServerRecord.from_journal(journal_of(bits))
        assert np.array_equal(back.key_c.bits, bits)
