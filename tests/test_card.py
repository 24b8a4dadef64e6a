import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kljnsim.adversary import MitmHook
from kljnsim.card import (
    CardIdentity,
    CardRefusedError,
    CardState,
    DuplicateCardError,
    KeyB,
    KeyExhaustedError,
    Keystore,
    SessionLedger,
    Terminal,
    authenticate_session,
    authenticate_tag,
    initialize_card,
    key_length_required,
    refresh_key_c,
    run_session,
    run_transaction,
    segment_length,
)
from kljnsim.noise import NoiseConfig
from kljnsim.privacy import BitString
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


def small_terminal():
    return Terminal(key_b_bits=128)


CLEAN_PATH = ["identified", "key_located", "kljn_running", "authenticated",
              "transacting", "refreshing", "closed"]
BROKEN_PATH = ["identified", "key_located", "kljn_running", "broken"]


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
        assert card.key_c.bits.to_hex() == server.key_c.bits.to_hex()
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
        assert a.key_c.bits.to_hex() == b.key_c.bits.to_hex()


class TestAuthenticateTag:
    def test_deterministic(self):
        seg = BitString.from01("10" * 32, "key_c")
        data = b"voltage and current samples"
        assert authenticate_tag(data, seg) == authenticate_tag(data, seg)

    def test_one_bit_key_change_changes_tag(self):
        bits = np.zeros(64, dtype=np.uint8)
        seg_a = BitString(bits.copy(), "key_c")
        bits[63] = 1
        seg_b = BitString(bits, "key_c")
        data = b"monitoring data sample"
        assert authenticate_tag(data, seg_a) != authenticate_tag(data, seg_b)

    def test_empty_data_well_defined(self):
        seg = BitString.from01("1" + "0" * 63, "key_c")
        tag = authenticate_tag(b"", seg)
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

    @given(data=st.binary(max_size=5 * BLOCK_BYTES + 6),
           key=st.one_of(st.sampled_from(EDGE_KEYS),
                         st.integers(0, 2 ** 64 - 1)))
    @settings(max_examples=150, deadline=None)
    def test_equals_horner(self, data, key):
        assert poly_tag(data, key) == horner_tag(data, key)

    @pytest.mark.parametrize("size", [
        BLOCK_BYTES - 1, BLOCK_BYTES, BLOCK_BYTES + 1,
        3 * BLOCK_BYTES + 6, 16 * BLOCK_BYTES, 17 * BLOCK_BYTES + 7])
    @pytest.mark.parametrize("key", EDGE_KEYS)
    def test_all_ones_at_block_edges(self, size, key):
        data = b"\xff" * size  # largest limbs: largest partial sums
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
        key = segment_to_key(BitString(bits, "key_c"))
        assert key == loop_segment_key(bits)
        assert 0 <= key < 2 ** 64

    def test_segment_key_of_all_ones(self):
        assert segment_to_key(BitString(np.ones(64, np.uint8), "key_c")) \
            == 2 ** 64 - 1


class TestAuthentication:
    def test_matching_keys_succeed(self):
        store = Keystore()
        card, server = provision(keystore=store)
        terminal = small_terminal()
        result = authenticate_session(card, terminal, store, CFG, 100)
        assert result.ledger.phase == "authenticated"
        assert result.key_b_card.bits.to01() == \
            terminal.key_b.bits.to01()
        assert card.key_c.cursor == server.key_c.cursor == 1
        assert result.ledger.phase == "authenticated"

    def test_wrong_key_breaks_session(self):
        store = Keystore()
        card, server = provision(keystore=store)
        fake, _ = initialize_card(CardIdentity("f", "EVE", "01/01"), 3,
                                  102400, rng=99)
        clone = CardState(identity=IDENTITY, key_c=fake.key_c)
        result = authenticate_session(clone, small_terminal(), store, CFG,
                                      101)
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
            result = authenticate_session(clone, small_terminal(), store,
                                          CFG, 200 + attempt)
            assert result.ledger.phase == "broken"
        assert server.canceled
        assert server.broken_count_mirror == 3
        with pytest.raises(CardRefusedError):
            authenticate_session(card, small_terminal(), store, CFG, 300)

    def test_fraud_then_legit_card_still_authenticates(self):
        # M-1 broken sessions burn server segments; the sync rule lets the
        # real card spend its remaining budget and succeed
        store = Keystore()
        card, server = provision(m_max=3, keystore=store)
        for attempt in range(2):
            fake, _ = initialize_card(CardIdentity("f", "EVE", "01/01"), 3,
                                      102400, rng=70 + attempt)
            clone = CardState(identity=IDENTITY, key_c=fake.key_c)
            authenticate_session(clone, small_terminal(), store, CFG,
                                 400 + attempt)
        assert server.key_c.cursor == 2
        result = authenticate_session(card, small_terminal(), store, CFG,
                                      500)
        assert result.ledger.phase == "authenticated"
        assert card.key_c.cursor == server.key_c.cursor == 3

    def test_unknown_identity_refused_without_consumption(self):
        store = Keystore()
        _, server = provision(keystore=store)
        stranger, _ = initialize_card(
            CardIdentity("0000", "NOBODY", "01/01"), 3, 102400, rng=1)
        with pytest.raises(CardRefusedError):
            authenticate_session(stranger, small_terminal(), store, CFG, 1)
        assert server.key_c.cursor == 0

    def test_mitm_during_auth_breaks_and_counts(self):
        store = Keystore()
        card, server = provision(keystore=store)
        result = authenticate_session(card, small_terminal(), store, CFG,
                                      600, adversary=MitmHook(CFG, 601))
        assert result.ledger.phase == "broken"
        assert result.reason == "channel_alarm"
        assert server.broken_count_mirror == 1


class TestTransaction:
    def _authenticated(self, seed=700):
        store = Keystore()
        card, _ = provision(keystore=store)
        terminal = small_terminal()
        result = authenticate_session(card, terminal, store, CFG, seed)
        assert result.ledger.phase == "authenticated"
        return card, terminal, result

    def test_zero_payload_exposes_keystream(self):
        card, terminal, result = self._authenticated()
        pad = result.key_b_card.bits.bits[:64].copy()
        tr = run_transaction(card, terminal, result.key_b_card, bytes(8),
                             result.ledger)
        cipher_bits = np.unpackbits(np.frombuffer(tr.ciphertext, np.uint8))
        assert np.array_equal(cipher_bits, pad)

    def test_round_trip_random_kilobyte(self):
        # XOR involution oracle on a hand-built key; no exchange needed
        rng = np.random.default_rng(8)
        payload = rng.bytes(1024)
        bits = rng.integers(0, 2, 2 * 8192, dtype=np.uint8)
        card, _ = provision()
        terminal = Terminal(key_b_bits=2 * 8192)
        key_card = KeyB(bits=BitString(bits.copy(), "key_b"))
        terminal.key_b = KeyB(bits=BitString(bits.copy(), "key_b"))
        ledger = SessionLedger()
        for phase in ("identified", "key_located", "kljn_running",
                      "authenticated"):
            ledger.advance(phase)
        tr = run_transaction(card, terminal, key_card, payload, ledger)
        assert tr.decrypted_matches
        assert tr.ciphertext != payload

    def test_key_b_zeroized_after_transaction(self):
        card, terminal, result = self._authenticated(701)
        run_transaction(card, terminal, result.key_b_card, bytes(8),
                        result.ledger)
        assert result.key_b_card.zeroized
        assert terminal.key_b.zeroized
        assert np.all(result.key_b_card.bits.bits == 0)

    def test_second_use_is_hard_error(self):
        card, terminal, result = self._authenticated(702)
        run_transaction(card, terminal, result.key_b_card, bytes(8),
                        result.ledger)
        with pytest.raises((KeyExhaustedError, RuntimeError)):
            run_transaction(card, terminal, result.key_b_card, bytes(8),
                            result.ledger)

    def test_oversized_payload_aborts_but_deletes_key(self):
        card, terminal, result = self._authenticated(703)
        with pytest.raises(KeyExhaustedError):
            run_transaction(card, terminal, result.key_b_card,
                            bytes(1024), result.ledger)
        assert result.key_b_card.zeroized
        assert result.ledger.phase == "closed"


class TestRefresh:
    def test_successful_refresh(self):
        store = Keystore()
        card, server = provision(m_max=2, keystore=store)
        terminal = small_terminal()
        result = authenticate_session(card, terminal, store, CFG, 800)
        run_transaction(card, terminal, result.key_b_card, bytes(8),
                        result.ledger)
        old_c = card.key_c
        old_hex = old_c.bits.to_hex()
        ok = refresh_key_c(card, store, CFG, 801,
                           ledger=result.ledger)
        assert ok
        assert card.key_c.bits.to_hex() == server.key_c.bits.to_hex()
        assert card.key_c.bits.to_hex() != old_hex
        assert card.key_c.cursor == 0
        assert len(card.key_c.bits) == 2 * card.key_c.segment_len
        assert card.generation == server.generation == 1
        assert np.all(old_c.bits.bits == 0)  # old C zeroized
        assert result.ledger.phase == "closed"

    def test_mitm_during_refresh_aborts_without_counting(self):
        store = Keystore()
        card, server = provision(m_max=2, keystore=store)
        terminal = small_terminal()
        result = authenticate_session(card, terminal, store, CFG, 810)
        run_transaction(card, terminal, result.key_b_card, bytes(8),
                        result.ledger)
        old_hex = card.key_c.bits.to_hex()
        ok = refresh_key_c(card, store, CFG, 811,
                           adversary=MitmHook(CFG, 812),
                           ledger=result.ledger)
        assert not ok
        assert card.key_c.bits.to_hex() == old_hex  # old C intact
        assert server.broken_count_mirror == 0
        assert card.generation == 0
        assert result.ledger.phase == "closed"
        assert not result.ledger.refreshed


class TestSessionOrchestration:
    def test_full_session_closes_and_refreshes(self):
        store = Keystore()
        card, server = provision(m_max=2, keystore=store)
        ledger = run_session(card, small_terminal(), store, CFG, 900,
                             b"payload!")
        assert ledger.phase == "closed"
        assert ledger.refreshed
        assert card.generation == 1
        assert card.key_c.bits.to_hex() == server.key_c.bits.to_hex()

    def test_phase_path_is_legal(self):
        store = Keystore()
        card, _ = provision(m_max=2, keystore=store)
        ledger = run_session(card, small_terminal(), store, CFG, 901,
                             b"payload!")
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
            hooks["refresh_adversary"] = MitmHook(CFG, 931)
        elif ending == "auth_alarm":
            hooks["auth_adversary"] = MitmHook(CFG, 932)
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
        ledger = run_session(card, small_terminal(), store, CFG, 930,
                             payload, **hooks)
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
        result = authenticate_session(clone, small_terminal(), store, CFG,
                                      910)
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
                authenticate_session(actor, small_terminal(), store, CFG,
                                     920 + step)
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
        true_segment = BitString(rng.integers(0, 2, 64, dtype=np.uint8),
                                 "key_c")
        data = rng.bytes(64)  # stand-in monitor data
        true_tag = authenticate_tag(data, true_segment)
        successes = 0
        for _ in range(100_000):
            guess = BitString(rng.integers(0, 2, 64, dtype=np.uint8),
                              "key_c")
            if authenticate_tag(data, guess) == true_tag:
                successes += 1
        assert successes == 0


class TestKeystoreJournal:
    def test_round_trip_latest_wins(self, tmp_path):
        path = tmp_path / "cards.jsonl"
        store = Keystore(path)
        card, server = provision(m_max=2, keystore=store)
        run_session(card, small_terminal(), store, CFG, 950, b"pay")
        # journal now holds provisioning + post-auth + post-refresh lines
        assert len(path.read_text().splitlines()) == 3
        loaded = Keystore.load(path)
        rec = loaded.lookup(IDENTITY.card_number)
        assert rec is not None
        assert rec.key_c.bits.to_hex() == server.key_c.bits.to_hex()
        assert rec.generation == 1
        assert rec.key_c.cursor == 0

    def test_missing_file_loads_empty(self, tmp_path):
        store = Keystore.load(tmp_path / "absent.jsonl")
        assert store.records == {}
