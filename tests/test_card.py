import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kljnsim import tags
from kljnsim.adversary import InjectionHook, MitmHook
from kljnsim.card import (
    AuthResult,
    CardIdentity,
    CardRefusedError,
    CardState,
    CorruptJournalError,
    DuplicateCardError,
    KeyB,
    KeyExhaustedError,
    Keystore,
    SessionLedger,
    authenticate_session,
    authenticate_tag,
    initialize_card,
    key_length_required,
    refresh_key_c,
    run_session,
    run_transaction,
    segment_length,
)
from kljnsim.exchange import exchange_key
from kljnsim.noise import NoiseConfig, analytic_spectra, compose_loop
from kljnsim.tags import FIELD_PRIME, LIMB_BYTES, poly_tag, segment_to_key

CFG = NoiseConfig()
IDENTITY = CardIdentity("4111111111111111", "TEST HOLDER", "12/29")

BLOCK_BYTES = 256 * LIMB_BYTES  # one block of the blocked tag evaluation
EDGE_KEYS = [0, 1, FIELD_PRIME - 1, FIELD_PRIME, 2 ** 64 - 1]


def horner_tag(data: bytes, key: int) -> int:
    """Reference tag: Horner's rule one 7-byte limb at a time."""
    x = key % FIELD_PRIME
    acc = 0
    for off in range(0, len(data), LIMB_BYTES):
        m = int.from_bytes(data[off:off + LIMB_BYTES], "big")
        acc = (acc + m) * x % FIELD_PRIME
    return (acc + len(data) + 1) * x % FIELD_PRIME


def loop_segment_key(bits: np.ndarray) -> int:
    """Reference segment key: build each 64-bit word bit by bit, XOR."""
    bits = np.concatenate([bits, np.zeros((-bits.size) % 64, np.uint8)])
    key = 0
    for blk in range(0, bits.size, 64):
        word = 0
        for b in bits[blk:blk + 64]:
            word = (word << 1) | int(b)
        key ^= word
    return key


def provision(m_max=3, n_d=102400, rng=1, keystore=None):
    return initialize_card(IDENTITY, m_max, n_d, rng, keystore=keystore)


KEY_B_BITS = 128  # a small key B: a fast exchange

CLEAN_PATH = ["identified", "key_located", "kljn_running", "authenticated",
              "transacting", "refreshing", "closed"]
BROKEN_PATH = ["identified", "key_located", "kljn_running", "broken"]


class PeriodHook:
    """An adversary that hands the periods in ``hostile``, counted from 0,
    to a current injection at 1e-9 x the loop current's RMS, far below the
    monitor tolerance, and leaves the rest on the shared wire."""

    def __init__(self, hostile, seed=0):
        mid = analytic_spectra(CFG.r_low, CFG.r_high, CFG)
        self.inject = InjectionHook(np.random.default_rng(seed).normal(
            0, 1e-9 * math.sqrt(mid[1] * CFG.bandwidth),
            CFG.samples_per_bit))
        self.hostile = hostile
        self.period = 0

    def __call__(self, u_a, u_b, r_a, r_b, cfg):
        k, self.period = self.period, self.period + 1
        if k in self.hostile:
            return self.inject(u_a, u_b, r_a, r_b, cfg)
        view = compose_loop(u_a, u_b, r_a, r_b)
        return view, view


def spy_authentication(card, store, seed, key_bits, adversary):
    """``authenticate_session``'s result, with every period's record as
    the exchange gave it and the (data, segment) of each tag computed,
    card's first."""
    records, tagged = [], []

    def spy_exchange(*args, record_sink, **kwargs):
        def both(rec):
            records.append(rec)
            record_sink(rec)
        return exchange_key(*args, record_sink=both, **kwargs)

    def spy_tag(data, segment):
        tagged.append((data, segment))
        return authenticate_tag(data, segment)

    with mock.patch("kljnsim.card.exchange_key", spy_exchange), \
            mock.patch("kljnsim.card.authenticate_tag", spy_tag):
        result = authenticate_session(card, store, CFG, seed, key_bits,
                                      adversary=adversary)
    return result, records, tagged


def joined_rows(traces):
    """Two-array reference of monitor data: each period's voltage bytes,
    then its current bytes."""
    return b"".join(t[0].tobytes() + t[1].tobytes()
                    for t in traces)


class TestKeyLengthRequired:
    @pytest.mark.parametrize("m,n_d,expected", [
        (1, 2, 1),
        (3, 1024, 30),
        (5, 1024, 50),
    ])
    def test_exact_cases(self, m, n_d, expected):
        assert key_length_required(m, n_d) == expected

    def test_non_power_of_two(self):
        # independent logarithm computation: ceil(4 * log2(1000))
        expected = math.ceil(4 * math.log(1000, 2))
        assert expected == 40
        assert key_length_required(4, 1000) == 40

    @pytest.mark.parametrize("m,n_d", [(0, 2), (1, 1), (-3, 8)])
    def test_out_of_range_rejected(self, m, n_d):
        with pytest.raises(ValueError):
            key_length_required(m, n_d)


class TestSegmentLength:
    def test_floor_is_tag_key_size(self):
        assert segment_length(2) == 64
        assert segment_length(1024) == 64

    def test_huge_data_string_grows_segment(self):
        assert segment_length(2 ** 70) == 70


class TestInitializeCard:
    def test_twin_copies_identical(self):
        card, server = provision()
        assert np.array_equal(card.key_c.bits, server.key_c.bits)
        assert card.key_c.bits is not server.key_c.bits

    def test_sizing_satisfies_minimum(self):
        for m, n_d in [(1, 2), (5, 1024), (4, 1000), (3, 2 ** 20)]:
            card, _ = initialize_card(
                CardIdentity(f"c{m}-{n_d}", "X", "01/30"), m, n_d, rng=2)
            assert len(card.key_c.bits) >= key_length_required(m, n_d)
            assert len(card.key_c.bits) >= m * math.log2(n_d)
            assert len(card.key_c.bits) == m * card.key_c.segment_len

    def test_key_b_slot_empty_at_fabrication(self):
        card, _ = provision()
        assert not hasattr(card, "key_b")

    def test_duplicate_card_number_rejected(self):
        store = Keystore()
        provision(keystore=store)
        with pytest.raises(DuplicateCardError):
            provision(keystore=store)

    def test_determinism(self):
        a, _ = provision(rng=9)
        b, _ = provision(rng=9)
        assert np.array_equal(a.key_c.bits, b.key_c.bits)


class TestAuthenticateTag:
    def test_deterministic(self):
        seg = np.tile([1, 0], 32).astype(np.uint8)
        data = b"voltage and current samples"
        assert authenticate_tag(data, seg) == authenticate_tag(data, seg)

    def test_one_bit_key_change_changes_tag(self):
        bits = np.zeros(64, dtype=np.uint8)
        seg_a = bits.copy()
        bits[63] = 1
        seg_b = bits
        data = b"monitoring data sample"
        assert authenticate_tag(data, seg_a) != authenticate_tag(data, seg_b)

    def test_empty_data_well_defined(self):
        bits = np.zeros(64, dtype=np.uint8)
        bits[0] = 1
        tag = authenticate_tag(b"", bits)
        assert 0 <= tag < FIELD_PRIME

    @pytest.mark.parametrize("data,key,expected", [
        (b"", 0x0123456789abcdef, 0x0123456789abcdef),
        (b"monitoring data sample", 0x0123456789abcdef,
         0x3144c353f1cc04e8),
        (b"monitoring data sample", 0x0123456789abcdee,
         0x78cb2a9f089636d7),
        (b"\x00" * 21, 0xffffffffffffffff, 0x00000000000004fc),
        (bytes(range(256)), 7, 0x1aaeaf2793d4f571),
    ])
    def test_frozen_reference_vectors(self, data, key, expected):
        # expected values computed with an explicit power-sum evaluation
        # (sum of m_j * x^(d-j) mod p), independent of the Horner path
        assert poly_tag(data, key) == expected

    def test_horner_equals_power_sum(self):
        rng = np.random.default_rng(3)
        data = rng.bytes(200)
        key = int(rng.integers(1, 2 ** 63))
        x = key % FIELD_PRIME
        limbs = [int.from_bytes(data[o:o + 7], "big")
                 for o in range(0, len(data), 7)]
        limbs.append(len(data) + 1)
        d = len(limbs)
        expected = sum(m * pow(x, d - j, FIELD_PRIME)
                       for j, m in enumerate(limbs)) % FIELD_PRIME
        assert poly_tag(data, key) == expected


class TestBlockedTag:
    """The blocked evaluation against the one-limb-at-a-time Horner rule,
    across block boundaries (the frozen vectors are all shorter than one
    block)."""

    @given(data=st.one_of(
               st.binary(max_size=5 * BLOCK_BYTES + 6),
               # largest limbs over two or more whole blocks: the largest
               # block sums the float64 product makes
               st.integers(2 * BLOCK_BYTES, 5 * BLOCK_BYTES + 6).map(
                   lambda size: b"\xff" * size)),
           key=st.one_of(st.sampled_from(EDGE_KEYS),
                         st.integers(0, 2 ** 64 - 1)))
    @example(data=b"\xff" * (2 * BLOCK_BYTES), key=FIELD_PRIME - 1)
    @example(data=b"\xff" * (3 * BLOCK_BYTES + 6), key=2 ** 64 - 1)
    @settings(max_examples=150, deadline=None)
    def test_equals_horner(self, data, key):
        assert poly_tag(data, key) == horner_tag(data, key)

    @given(x=st.integers(0, FIELD_PRIME - 1))
    @example(x=0)
    @example(x=1)
    @example(x=FIELD_PRIME - 1)
    @example(x=FIELD_PRIME - 2)
    @example(x=2 ** 63 % FIELD_PRIME)
    @settings(max_examples=100, deadline=None)
    def test_weight_table_equals_big_int_formula(self, x):
        # The uint64 multiply-by-256 chain against Python integers: the
        # weight of byte t of limb i is x^(B-i+1) * 256^(6-t) mod p.
        powers = [pow(x, e, FIELD_PRIME) for e in range(256, 0, -1)]
        weights = [w * (1 << 8 * (LIMB_BYTES - 1 - t)) % FIELD_PRIME
                   for w in powers for t in range(LIMB_BYTES)]
        table, x_block = tags._weight_table(x)
        assert x_block == pow(x, 256, FIELD_PRIME)
        assert table.dtype == np.float64 and table.shape == (BLOCK_BYTES, 2)
        assert [int(low) + (int(high) << 32)
                for low, high in table.tolist()] == weights
        assert (table < 2 ** 32).all()

    @given(values=st.lists(st.integers(0, FIELD_PRIME - 1), min_size=1,
                           max_size=64))
    @example(values=[0, 1, FIELD_PRIME - 2, FIELD_PRIME - 1])
    # 256 v's low 64 bits plus 59 x its high byte: at or above p without
    # wrapping, and wrapping past 2^64
    @example(values=[(4 << 56) | (1 << 56) - 1])
    @example(values=[(254 << 56) | (1 << 56) - 1])
    @settings(max_examples=100, deadline=None)
    def test_times_256_equals_big_int(self, values):
        # Random residues almost never reach the carry fold or the final
        # subtraction; the two examples reach each.
        got = tags._times_256(np.array(values, np.uint64))
        assert got.tolist() == [v * 256 % FIELD_PRIME for v in values]

    def test_block_sums_are_exact_in_float64(self):
        # The largest block sum, every byte 255 against every weight piece
        # at 2^32 - 1, stays an integer float64 holds exactly; a larger
        # block or wider pieces would break the product's exactness.
        assert (LIMB_BYTES * tags._BLOCK_LIMBS * 255 * (2 ** 32 - 1)
                < 2 ** 53)

    @pytest.mark.parametrize("size", [
        BLOCK_BYTES - 1, BLOCK_BYTES, BLOCK_BYTES + 1,
        3 * BLOCK_BYTES + 6, 16 * BLOCK_BYTES, 17 * BLOCK_BYTES + 7])
    @pytest.mark.parametrize("key", EDGE_KEYS)
    def test_all_ones_at_block_edges(self, size, key):
        data = b"\xff" * size  # largest limbs: largest partial sums
        assert poly_tag(data, key) == horner_tag(data, key)

    @pytest.mark.parametrize("size", [
        0, 1, 6, LIMB_BYTES, LIMB_BYTES + 1, 9 * LIMB_BYTES,
        2 * BLOCK_BYTES, 2 * BLOCK_BYTES + 3])
    def test_table_sized_to_the_message(self, size):
        # no full limb, fewer full limbs than a block, and whole blocks
        data = np.random.default_rng(size).bytes(size)
        for key in EDGE_KEYS + [0x0123456789ABCDEF]:
            assert poly_tag(data, key) == horner_tag(data, key)

    @pytest.mark.parametrize("size,tables", [
        (0, 0), (LIMB_BYTES, 0), (BLOCK_BYTES - 1, 0), (BLOCK_BYTES, 1),
        (3 * BLOCK_BYTES + 6, 1)])
    def test_weight_table_only_for_a_whole_block(self, size, tables):
        with mock.patch("kljnsim.tags._weight_table",
                        wraps=tags._weight_table) as table:
            poly_tag(bytes(size), 0x0123456789ABCDEF)
        assert table.call_count == tables

    @pytest.mark.parametrize("blocks", [0, 1, 3])
    @pytest.mark.parametrize("short", [0, 6])
    @pytest.mark.parametrize("fill", ["random", "ones"])
    def test_largest_remainder(self, blocks, short, fill):
        # 255 full limbs and a short group after the whole blocks: the
        # longest stretch the evaluation runs one limb at a time
        size = blocks * BLOCK_BYTES + 255 * LIMB_BYTES + short
        data = (np.random.default_rng(size).bytes(size) if fill == "random"
                else b"\xff" * size)
        for key in EDGE_KEYS:
            assert poly_tag(data, key) == horner_tag(data, key)

    @pytest.mark.parametrize("size", [819200, 819203])
    def test_card_sized_message(self, size):
        # the size of one end's monitoring data in a default session
        rng = np.random.default_rng(size)
        data = rng.bytes(size)
        key = int(rng.integers(0, 2 ** 63)) * 2 + 1
        assert poly_tag(data, key) == horner_tag(data, key)

    def test_peak_memory_bounded(self):
        data = np.random.default_rng(5).bytes(819200)
        tracemalloc.start()
        try:
            poly_tag(data, 2 ** 64 - 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A whole-message int64 or float64 copy alone would be 6.5 MB.
        assert peak <= 2 * 2 ** 20

    @pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 128, 320])
    def test_segment_key_equals_bit_loop(self, length):
        bits = np.random.default_rng(length).integers(0, 2, length,
                                                      dtype=np.uint8)
        key = segment_to_key(bits)
        assert key == loop_segment_key(bits)
        assert 0 <= key < 2 ** 64

    def test_segment_key_of_all_ones(self):
        assert segment_to_key(np.ones(64, np.uint8)) == 2 ** 64 - 1


class TestAuthentication:
    def test_matching_keys_succeed(self):
        store = Keystore()
        card, server = provision(keystore=store)
        result = authenticate_session(card, store, CFG, 100, KEY_B_BITS)
        assert result.ledger.phase == "authenticated"
        assert np.array_equal(result.key_b_card.bits,
                              result.key_b_terminal.bits)
        assert card.key_c.cursor == server.key_c.cursor == 1
        assert result.ledger.phase == "authenticated"

    def test_wrong_key_breaks_session(self):
        store = Keystore()
        card, server = provision(keystore=store)
        fake, _ = initialize_card(CardIdentity("f", "EVE", "01/01"), 3,
                                  102400, rng=99)
        clone = CardState(identity=IDENTITY, key_c=fake.key_c)
        result = authenticate_session(clone, store, CFG, 101, KEY_B_BITS)
        assert result.ledger.phase == "broken"
        assert result.reason == "tag_mismatch"
        assert server.broken_count_mirror == 1
        assert not server.canceled
        # segment burned on both sides involved
        assert server.key_c.cursor == 1
        # legitimate card untouched
        assert card.key_c.cursor == 0

    def test_m_max_breaks_cancel_card(self):
        store = Keystore()
        card, server = provision(m_max=3, keystore=store)
        for attempt in range(3):
            fake, _ = initialize_card(CardIdentity("f", "EVE", "01/01"), 3,
                                      102400, rng=50 + attempt)
            clone = CardState(identity=IDENTITY, key_c=fake.key_c)
            result = authenticate_session(clone, store, CFG,
                                          200 + attempt, KEY_B_BITS)
            assert result.ledger.phase == "broken"
        assert server.canceled
        assert server.broken_count_mirror == 3
        with pytest.raises(CardRefusedError):
            authenticate_session(card, store, CFG, 300, KEY_B_BITS)

    def test_fraud_then_legit_card_still_authenticates(self):
        # M-1 broken sessions burn server segments; the sync rule lets the
        # real card spend its remaining budget and succeed
        store = Keystore()
        card, server = provision(m_max=3, keystore=store)
        for attempt in range(2):
            fake, _ = initialize_card(CardIdentity("f", "EVE", "01/01"), 3,
                                      102400, rng=70 + attempt)
            clone = CardState(identity=IDENTITY, key_c=fake.key_c)
            authenticate_session(clone, store, CFG, 400 + attempt, KEY_B_BITS)
        assert server.key_c.cursor == 2
        result = authenticate_session(card, store, CFG, 500, KEY_B_BITS)
        assert result.ledger.phase == "authenticated"
        assert card.key_c.cursor == server.key_c.cursor == 3

    def test_unknown_identity_refused_without_consumption(self):
        store = Keystore()
        _, server = provision(keystore=store)
        stranger, _ = initialize_card(
            CardIdentity("0000", "NOBODY", "01/01"), 3, 102400, rng=1)
        with pytest.raises(CardRefusedError):
            authenticate_session(stranger, store, CFG, 1, KEY_B_BITS)
        assert server.key_c.cursor == 0

    def test_mitm_during_auth_breaks_and_counts(self):
        store = Keystore()
        card, server = provision(keystore=store)
        result = authenticate_session(card, store, CFG, 600, KEY_B_BITS,
                                      adversary=MitmHook(601))
        assert result.ledger.phase == "broken"
        assert result.reason == "channel_alarm"
        assert server.broken_count_mirror == 1

    @pytest.mark.parametrize("at", ["first", "middle", "last"])
    def test_tamper_below_alarm_threshold_breaks_on_tags(self, at):
        # Shared wire up to period k, a sub-tolerance injection from then
        # on: the monitor stays silent and only the tags catch it.
        seed = 610
        periods = exchange_key(KEY_B_BITS, CFG, seed)[2].periods_run
        k = {"first": 0, "middle": periods // 2, "last": periods - 1}[at]
        store = Keystore()
        card, server = provision(keystore=store)
        result, records, _ = spy_authentication(
            card, store, seed, KEY_B_BITS, PeriodHook(range(k, periods)))
        assert len(records) == periods
        assert not any(rec.monitor.alarm for rec in records)
        assert records[k].bob_trace is not None
        assert result.ledger.phases == BROKEN_PATH
        assert result.reason == "tag_mismatch"
        assert result.key_b_card is None and result.key_b_terminal is None
        assert card.key_c.cursor == server.key_c.cursor == 1
        assert result.ledger.consumed_segment == (0, 0)
        assert server.broken_count_mirror == 1

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           key_bits=st.integers(1, 8),
           hostile=st.sampled_from(["none", "first", "middle", "last"]),
           onward=st.booleans())
    def test_monitor_data_equals_two_arrays(self, seed, key_bits, hostile,
                                            onward):
        # One hostile period, or every period from it on; end B's data is
        # split off at the first and takes its own view from then on.
        periods = exchange_key(key_bits, CFG, seed)[2].periods_run
        first = {"none": periods, "first": 0, "middle": periods // 2,
                 "last": periods - 1}[hostile]
        hostile_periods = range(first, periods if onward
                                else min(first + 1, periods))
        store = Keystore()
        card, _ = provision(rng=seed, keystore=store)
        result, records, tagged = spy_authentication(
            card, store, seed, key_bits, PeriodHook(hostile_periods, seed))
        (card_data, _), (term_data, _) = tagged[0], tagged[-1]
        assert [k for k, rec in enumerate(records)
                if rec.bob_trace is not None] == list(hostile_periods)
        assert card_data == joined_rows(rec.trace for rec in records)
        assert term_data == joined_rows(
            rec.trace if rec.bob_trace is None else rec.bob_trace
            for rec in records)
        # Honest ends share one buffer and one tag; diverged ends tag
        # their own buffers.
        assert len(tagged) == (1 if hostile == "none" else 2)
        assert (card_data is term_data) == (hostile == "none")
        assert result.reason == ("" if hostile == "none"
                                 else "tag_mismatch")

    def test_wrong_key_clone_on_an_honest_wire_tags_twice(self):
        # Shared monitor data, unequal segments: the terminal computes its
        # own tag, and the clone's does not match it.
        store = Keystore()
        card, server = provision(keystore=store)
        fake, _ = initialize_card(CardIdentity("f", "EVE", "01/01"), 3,
                                  102400, rng=99)
        clone = CardState(identity=IDENTITY, key_c=fake.key_c)
        result, records, tagged = spy_authentication(
            clone, store, 101, KEY_B_BITS, None)
        assert all(rec.bob_trace is None for rec in records)
        (card_data, card_segment), (term_data, term_segment) = tagged
        assert card_data is term_data
        assert not np.array_equal(card_segment, term_segment)
        assert result.ledger.phases == BROKEN_PATH
        assert result.reason == "tag_mismatch"
        assert server.broken_count_mirror == 1
        assert card.key_c.cursor == 0 and server.key_c.cursor == 1

    def test_perfect_clone_tags_once_and_authenticates(self):
        # A clone holding the card's own key C is indistinguishable from
        # the card: one tag, which is the terminal's tag over the same
        # data, and the exchange's key B on both ends.
        store = Keystore()
        card, server = provision(keystore=store)
        clone = CardState(identity=IDENTITY, key_c=dataclasses.replace(
            card.key_c, bits=card.key_c.bits.copy()))
        server_segment = server.key_c.segment(0)
        result, _, tagged = spy_authentication(clone, store, 630,
                                               KEY_B_BITS, None)
        (data, segment), = tagged
        assert np.array_equal(segment, server_segment)
        assert authenticate_tag(data, server_segment) == \
            authenticate_tag(data, segment)
        key_a, key_b, _ = exchange_key(KEY_B_BITS, CFG, 630)
        assert result.ledger.phases == CLEAN_PATH[:4]
        assert np.array_equal(result.key_b_card.bits, key_a)
        assert np.array_equal(result.key_b_terminal.bits, key_b)
        assert clone.key_c.cursor == server.key_c.cursor == 1
        assert card.key_c.cursor == 0
        assert server.broken_count_mirror == 0

    def test_peak_memory_is_one_copy_of_the_monitor_data(self):
        cfg = NoiseConfig(samples_per_bit=1000)
        store = Keystore()
        card, _ = provision(keystore=store)
        # Warm-up: first-call caches and imports are not the session's.
        authenticate_session(card, store, cfg, 620, KEY_B_BITS)
        periods = exchange_key(KEY_B_BITS, cfg, 621)[2].periods_run
        one_end = periods * 2 * cfg.samples_per_bit * 8  # float64 samples
        tracemalloc.start()
        try:
            result = authenticate_session(card, store, cfg, 621, KEY_B_BITS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.ledger.phase == "authenticated"
        # Keeping every record and joining a copy per end reads 2.1x.
        assert peak <= 1.4 * one_end


class TestTransaction:
    def _authenticated(self, seed=700):
        store = Keystore()
        card, _ = provision(keystore=store)
        result = authenticate_session(card, store, CFG, seed, KEY_B_BITS)
        assert result.ledger.phase == "authenticated"
        return card, result

    def test_zero_payload_exposes_keystream(self):
        card, result = self._authenticated()
        pad = result.key_b_card.bits[:64].copy()
        tr = run_transaction(card, result, bytes(8))
        cipher_bits = np.unpackbits(np.frombuffer(tr.ciphertext, np.uint8))
        assert np.array_equal(cipher_bits, pad)

    def test_round_trip_random_kilobyte(self):
        # XOR involution oracle on a hand-built key; no exchange needed
        rng = np.random.default_rng(8)
        payload = rng.bytes(1024)
        bits = rng.integers(0, 2, 2 * 8192, dtype=np.uint8)
        card, _ = provision()
        ledger = SessionLedger()
        for phase in ("identified", "key_located", "kljn_running",
                      "authenticated"):
            ledger.advance(phase)
        card_copy, term_copy = (KeyB(bits.copy()) for _ in range(2))
        auth = AuthResult(ledger=ledger, key_b_card=card_copy,
                          key_b_terminal=term_copy)
        tr = run_transaction(card, auth, payload)
        assert tr.decrypted_matches
        assert tr.ciphertext != payload

    @given(payload=st.binary(max_size=64), seed=st.integers(0, 2 ** 32 - 1),
           spare=st.integers(0, 16), flip=st.none() | st.integers(0, 1023))
    @example(payload=b"", seed=0, spare=0, flip=None)
    @example(payload=b"", seed=0, spare=3, flip=1)
    def test_equals_bit_level_formula(self, payload, seed, spare, flip):
        # The transaction as first written, one bit at a time, is the
        # oracle; the terminal's pad may carry one silent bit error.
        rng = np.random.default_rng(seed)
        pad_card = rng.integers(0, 2, 8 * len(payload) + spare,
                                dtype=np.uint8)
        pad_term = pad_card.copy()
        if flip is not None and pad_term.size:
            pad_term[flip % pad_term.size] ^= 1
        payload_bits = np.unpackbits(np.frombuffer(payload, np.uint8))
        n_bits = payload_bits.size
        ciphertext = np.packbits(payload_bits ^ pad_card[:n_bits]).tobytes()
        plain_bits = np.unpackbits(np.frombuffer(ciphertext, np.uint8)) \
            ^ pad_term[:n_bits]
        matches = np.packbits(plain_bits).tobytes() == payload

        card, _ = provision()
        ledger = SessionLedger()
        for phase in ("identified", "key_located", "kljn_running",
                      "authenticated"):
            ledger.advance(phase)
        auth = AuthResult(ledger=ledger, key_b_card=KeyB(pad_card.copy()),
                          key_b_terminal=KeyB(pad_term.copy()))
        tr = run_transaction(card, auth, payload)
        assert tr.ciphertext == ciphertext
        assert tr.decrypted_matches is matches
        assert ledger.phase == "refreshing"
        assert ledger.key_b_bits_used == n_bits
        assert auth.key_b_card.zeroized and auth.key_b_terminal.zeroized

    def test_key_b_zeroized_after_transaction(self):
        card, result = self._authenticated(701)
        run_transaction(card, result, bytes(8))
        assert result.key_b_card.zeroized
        assert result.key_b_terminal.zeroized
        assert np.all(result.key_b_card.bits == 0)

    def test_second_use_is_hard_error(self):
        card, result = self._authenticated(702)
        run_transaction(card, result, bytes(8))
        with pytest.raises((KeyExhaustedError, RuntimeError)):
            run_transaction(card, result, bytes(8))

    def test_oversized_payload_aborts_but_deletes_key(self):
        card, result = self._authenticated(703)
        with pytest.raises(KeyExhaustedError):
            run_transaction(card, result, bytes(1024))
        assert result.key_b_card.zeroized
        assert result.ledger.phase == "closed"


class TestRefresh:
    def test_successful_refresh(self):
        store = Keystore()
        card, server = provision(m_max=2, keystore=store)
        result = authenticate_session(card, store, CFG, 800, KEY_B_BITS)
        run_transaction(card, result, bytes(8))
        old_c = card.key_c
        old_bits = old_c.bits.copy()
        refresh_key_c(card, store, CFG, 801, ledger=result.ledger)
        assert result.ledger.refreshed
        assert np.array_equal(card.key_c.bits, server.key_c.bits)
        assert not np.array_equal(card.key_c.bits, old_bits)
        assert card.key_c.cursor == 0
        assert len(card.key_c.bits) == 2 * card.key_c.segment_len
        assert card.generation == server.generation == 1
        assert np.all(old_c.bits == 0)  # old C zeroized
        assert result.ledger.phase == "closed"

    def test_mitm_during_refresh_aborts_without_counting(self):
        store = Keystore()
        card, server = provision(m_max=2, keystore=store)
        result = authenticate_session(card, store, CFG, 810, KEY_B_BITS)
        run_transaction(card, result, bytes(8))
        old_bits = card.key_c.bits.copy()
        refresh_key_c(card, store, CFG, 811, adversary=MitmHook(812),
                      ledger=result.ledger)
        assert np.array_equal(card.key_c.bits, old_bits)  # old C intact
        assert server.broken_count_mirror == 0
        assert card.generation == 0
        assert result.ledger.phase == "closed"
        assert not result.ledger.refreshed


class TestSessionOrchestration:
    def test_full_session_closes_and_refreshes(self):
        store = Keystore()
        card, server = provision(m_max=2, keystore=store)
        ledger = run_session(card, store, CFG, 900, b"payload!", KEY_B_BITS)
        assert ledger.phase == "closed"
        assert ledger.refreshed
        assert card.generation == 1
        assert np.array_equal(card.key_c.bits, server.key_c.bits)

    def test_phase_path_is_legal(self):
        store = Keystore()
        card, _ = provision(m_max=2, keystore=store)
        ledger = run_session(card, store, CFG, 901, b"payload!", KEY_B_BITS)
        assert ledger.phases == ["identified", "key_located",
                                 "kljn_running", "authenticated",
                                 "transacting", "refreshing", "closed"]

    @pytest.mark.parametrize("ending,path,refreshed", [
        ("clean", CLEAN_PATH, True),
        ("refresh_alarm", CLEAN_PATH, False),
        ("auth_alarm", BROKEN_PATH, False),
        ("wrong_key", BROKEN_PATH, False),
        ("clone_without_segment", BROKEN_PATH, False),
        ("key_b_exhausted", CLEAN_PATH[:5] + ["closed"], False),
    ])
    def test_phase_path_of_every_ending(self, ending, path, refreshed):
        store = Keystore()
        card, server = provision(m_max=2, keystore=store)
        payload = b"payload!"
        hooks = {}
        if ending == "refresh_alarm":
            hooks["refresh_adversary"] = MitmHook(931)
        elif ending == "auth_alarm":
            hooks["auth_adversary"] = MitmHook(932)
        elif ending in ("wrong_key", "clone_without_segment"):
            fake, _ = initialize_card(CardIdentity("f", "EVE", "01/01"), 1,
                                      102400, rng=933)
            card = CardState(identity=IDENTITY, key_c=fake.key_c)
            if ending == "clone_without_segment":
                # an earlier fraud burned segment 0, so the adopted index
                # is 1, past the clone's single segment
                server.key_c.consume_through(0)
        elif ending == "key_b_exhausted":
            payload = bytes(17)  # 136 bits against a 128-bit key B
        ledger = run_session(card, store, CFG, 930, payload, KEY_B_BITS,
                             **hooks)
        assert ledger.phases == path
        assert ledger.refreshed == refreshed
        # only a broken session counts toward cancellation
        assert server.broken_count_mirror == (path[-1] == "broken")

    def test_illegal_transition_rejected(self):
        ledger = SessionLedger()
        with pytest.raises(RuntimeError):
            ledger.advance("authenticated")

    def test_broken_count_canceled_invariant(self):
        store = Keystore()
        _card, server = provision(m_max=1, keystore=store)
        fake, _ = initialize_card(CardIdentity("f", "E", "01/01"), 1,
                                  102400, rng=5)
        clone = CardState(identity=IDENTITY, key_c=fake.key_c)
        result = authenticate_session(clone, store, CFG, 910, KEY_B_BITS)
        assert server.canceled == \
            (server.broken_count_mirror >= server.key_c.m_max)
        assert server.canceled

    def test_cancellation_and_break_count_monotone(self):
        store = Keystore()
        card, server = provision(m_max=3, keystore=store)
        broken_history = [server.broken_count_mirror]
        canceled_history = [server.canceled]
        for step in range(5):
            if step % 2 == 0:  # fraud attempt
                fake, _ = initialize_card(CardIdentity("f", "E", "01/01"),
                                          3, 102400, rng=30 + step)
                actor = CardState(identity=IDENTITY, key_c=fake.key_c)
            else:  # legitimate session attempt
                actor = card
            try:
                authenticate_session(actor, store, CFG, 920 + step,
                                     KEY_B_BITS)
            except CardRefusedError:
                pass
            broken_history.append(server.broken_count_mirror)
            canceled_history.append(server.canceled)
        assert broken_history == sorted(broken_history)
        assert all(b or not a for a, b in zip(canceled_history,
                                              canceled_history[1:]))


class TestCloningResistance:
    def test_random_key_guesses_never_authenticate(self):
        # the authentication gate is the tag comparison; the exchange step
        # does not depend on C, so drive the gate directly 1e5 times
        rng = np.random.default_rng(424242)
        true_segment = rng.integers(0, 2, 64, dtype=np.uint8)
        data = rng.bytes(64)  # stand-in monitor data
        true_tag = authenticate_tag(data, true_segment)
        successes = 0
        for _ in range(100_000):
            guess = rng.integers(0, 2, 64, dtype=np.uint8)
            if authenticate_tag(data, guess) == true_tag:
                successes += 1
        assert successes == 0


class TestKeystoreJournal:
    def test_round_trip_latest_wins(self, tmp_path):
        path = tmp_path / "cards.jsonl"
        store = Keystore(path)
        card, server = provision(m_max=2, keystore=store)
        run_session(card, store, CFG, 950, b"pay", KEY_B_BITS)
        # journal now holds provisioning + post-auth + post-refresh lines
        assert len(path.read_text().splitlines()) == 3
        loaded = Keystore.load(path)
        rec = loaded.records.get(IDENTITY.card_number)
        assert rec is not None
        assert np.array_equal(rec.key_c.bits, server.key_c.bits)
        assert rec.generation == 1
        assert rec.key_c.cursor == 0

    def test_missing_file_loads_empty(self, tmp_path):
        store = Keystore.load(tmp_path / "absent.jsonl")
        assert store.records == {}

    @staticmethod
    def journal_state(store):
        return {num: rec.to_journal() for num, rec in store.records.items()}

    @pytest.mark.parametrize("k", [1, 3])
    def test_append_cut_at_every_byte(self, tmp_path, k):
        """A crash may stop an append after any of its bytes.  Each cut
        loads as the state before or after that append, and the next
        append then reloads cleanly or is refused."""
        path = tmp_path / "cards.jsonl"
        store = Keystore(path)
        provision(m_max=2, n_d=2048, rng=0, keystore=store)
        for j in range(1, k):
            initialize_card(CardIdentity(str(j), "HOLDER", "12/30"), 2, 2048,
                            j, keystore=store)
        before = self.journal_state(store)
        journal = path.read_bytes()
        record = store.records.get(IDENTITY.card_number)
        record.key_c.consume_through(0)  # the cursor a replay must not undo
        record.generation += 1
        store.journal(record)
        after = self.journal_state(store)
        append = path.read_bytes()[len(journal):]
        _, extra = initialize_card(CardIdentity("999", "NEXT", "01/31"), 2,
                                   2048, 99)
        for cut in range(len(append) + 1):
            path.write_bytes(journal + append[:cut])
            loaded = Keystore.load(path)
            torn = 0 < cut < len(append) - 1  # a record cut short
            assert loaded.torn_tail is torn
            state = self.journal_state(loaded)
            assert state == (before if cut < len(append) - 1 else after)
            if torn:
                with pytest.raises(CorruptJournalError):
                    loaded.journal(extra)
                assert path.read_bytes() == journal + append[:cut]
                continue
            loaded.journal(extra)
            reloaded = Keystore.load(path)
            assert not reloaded.torn_tail
            assert self.journal_state(reloaded) == {
                **state, "999": extra.to_journal()}
            assert path.read_bytes().endswith(b"\n")
