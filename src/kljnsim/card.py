"""Card/terminal/server session protocol over the KLJN channel.

A card carries a persistent authentication key C (segment-consumed, one
segment per session attempt) whose twin lives on the server, addressed by
the public identity.  A session runs:

    identity lookup -> server key retrieval -> KLJN exchange producing the
    one-time encryption key B -> both sides tag their monitor data with the
    next unconsumed C segment and cross-verify -> OTP transaction ->
    KLJN refresh of C (eightfold raw material, XOR-amplified).

A tag mismatch breaks the session and counts toward cancellation; after
``m_max`` broken sessions the card is dead.  A channel alarm during refresh
aborts without counting, leaving the old C in place.

Segment indices are synchronized to max(card cursor, server cursor) at
lookup time, so wrong-key fraud attempts (which burn server-side segments
with the real card absent) cannot permanently desynchronize the legitimate
card; C carries exactly enough segments for M-1 broken sessions plus one
more attempt.

State machine (one session):

    idle -> identified -> key_located -> kljn_running -> authenticated
         -> transacting -> refreshing -> closed

with ``broken`` reachable from kljn_running (channel alarm or tag
mismatch) and an abort edge transacting -> closed (key B exhausted, no
refresh).  ``SessionLedger.phases`` keeps the path a session took.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .exchange import (
    AdversaryHook,
    BitExchangeRecord,
    ChannelCompromisedError,
    exchange_key,
    spawn_seeds,
)
from .noise import NoiseConfig
from .privacy import amplify
from .records import RECORDS, validate_record
from .tags import poly_tag, segment_to_key

MIN_SEGMENT_BITS = 64  # tag key size; floor for the per-session segment

_ALLOWED_TRANSITIONS = {
    "idle": {"identified"},
    "identified": {"key_located"},
    "key_located": {"kljn_running"},
    "kljn_running": {"authenticated", "broken"},
    "authenticated": {"transacting"},
    "transacting": {"refreshing", "closed"},
    "refreshing": {"closed"},
    "closed": set(),
    "broken": set(),
}


class CardRefusedError(RuntimeError):
    """Canceled card or unknown identity; no session is started."""


class KeyExhaustedError(RuntimeError):
    """Key material over-consumed (one-time property would be violated)."""


class DuplicateCardError(ValueError):
    """Card number already provisioned in this keystore."""


class CorruptJournalError(OSError):
    """A keystore journal line, other than a torn final one, is not a
    complete card record."""


@dataclass(frozen=True)
class CardIdentity:
    card_number: str
    holder_name: str
    expiry: str  # "MM/YY"

    def __post_init__(self):
        if not self.card_number:
            raise ValueError("card_number must be nonempty")


def key_length_required(m: int, n_d: int) -> int:
    """Minimum C length: ceil(m * log2(n_d)) bits."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if n_d < 2:
        raise ValueError(f"n_d must be >= 2, got {n_d}")
    return math.ceil(m * math.log2(n_d))


def segment_length(n_d: int) -> int:
    """Per-session segment size: the log2(n_d) information floor, raised
    to the 64-bit tag-key minimum so a random-key forgery stays at
    ~2^-64."""
    if n_d < 2:
        raise ValueError(f"n_d must be >= 2, got {n_d}")
    return max(MIN_SEGMENT_BITS, math.ceil(math.log2(n_d)))


@dataclass
class KeyC:
    """Segmented authentication key; one segment consumed per session."""

    bits: np.ndarray  # key material, see ``privacy``
    segment_len: int
    cursor: int
    m_max: int

    def __post_init__(self):
        if len(self.bits) < self.m_max * self.segment_len:
            raise ValueError(
                f"key C holds {len(self.bits)} bits, needs at least "
                f"{self.m_max} x {self.segment_len}")
        if not 0 <= self.cursor <= self.m_max:
            raise ValueError(f"cursor {self.cursor} out of range")

    def segment(self, index: int) -> np.ndarray:
        if not 0 <= index < self.m_max:
            raise KeyExhaustedError(
                f"segment index {index} outside 0..{self.m_max - 1}")
        return self.bits[index * self.segment_len:
                         (index + 1) * self.segment_len].copy()

    def consume_through(self, index: int) -> None:
        """Advance the cursor past ``index``; never moves backward."""
        if index < self.cursor:
            raise KeyExhaustedError(
                f"segment {index} already consumed (cursor {self.cursor})")
        self.cursor = index + 1

    def zeroize(self) -> None:
        self.bits[:] = 0
        self.cursor = self.m_max


@dataclass
class KeyB:
    """One-session OTP key.  Every bit is emitted at most once."""

    bits: np.ndarray  # key material, see ``privacy``
    consumed_offset: int = 0
    zeroized: bool = False

    def take(self, n_bits: int) -> np.ndarray:
        if self.zeroized:
            raise KeyExhaustedError("key B already deleted")
        if self.consumed_offset + n_bits > len(self.bits):
            raise KeyExhaustedError(
                f"key B exhausted: need {n_bits} bits at offset "
                f"{self.consumed_offset}, have {len(self.bits)}")
        out = self.bits[self.consumed_offset:
                        self.consumed_offset + n_bits].copy()
        self.consumed_offset += n_bits
        return out

    def zeroize(self) -> None:
        self.bits[:] = 0
        self.zeroized = True


@dataclass
class SessionLedger:
    """One session's trail: the phases it entered, in order, after the
    initial ``idle``, and the audit fields the lifetime report reads."""

    phases: list[str] = dc_field(default_factory=list)
    consumed_segment: Optional[tuple[int, int]] = None  # (generation, index)
    key_b_bits_used: int = 0
    refreshed: bool = False

    @property
    def phase(self) -> str:
        return self.phases[-1] if self.phases else "idle"

    def advance(self, new_phase: str) -> None:
        if new_phase not in _ALLOWED_TRANSITIONS[self.phase]:
            raise RuntimeError(
                f"illegal phase transition {self.phase} -> {new_phase}")
        self.phases.append(new_phase)


@dataclass
class CardState:
    """State held in the card's tamper-proof memory."""

    identity: CardIdentity
    key_c: KeyC
    canceled: bool = False
    generation: int = 0


@dataclass
class ServerRecord:
    """Server-side twin of a card's secrets and counters."""

    identity: CardIdentity
    key_c: KeyC
    broken_count_mirror: int = 0
    canceled: bool = False
    generation: int = 0

    def to_journal(self) -> dict:
        """The record as one ``kljn.card_record`` journal object."""
        return RECORDS["card_record"].record((
            self.identity.card_number, self.identity.holder_name,
            self.identity.expiry,
            np.packbits(self.key_c.bits).tobytes().hex(),
            len(self.key_c.bits), self.key_c.segment_len, self.key_c.cursor,
            self.key_c.m_max, self.broken_count_mirror, self.canceled,
            self.generation))

    @classmethod
    def from_journal(cls, obj) -> "ServerRecord":
        """Inverse of ``to_journal``; raises ValueError: a SchemaError for
        anything but an exact ``card_record`` (see ``records``), else for
        a ``c_hex`` other than the one ``to_journal`` writes for ``c_len``
        bits, or for key C counts out of range."""
        validate_record(obj, ("card_record",))
        (number, holder, expiry, c_hex, c_len, segment_len, cursor, m_max,
         broken_count, canceled, generation) = \
            RECORDS["card_record"].values(obj)
        if len(c_hex) != 2 * ((c_len + 7) // 8):  # before c_len sizes an array
            raise ValueError(f"c_hex is not {c_len} bits long")
        bits = np.unpackbits(np.frombuffer(bytes.fromhex(c_hex), np.uint8),
                             count=c_len)
        if np.packbits(bits).tobytes().hex() != c_hex:  # e.g. padding set
            raise ValueError(
                f"c_hex is not {c_len} bits as to_journal writes them")
        return cls(
            identity=CardIdentity(number, holder, expiry),
            key_c=KeyC(bits=bits, segment_len=segment_len, cursor=cursor,
                       m_max=m_max),
            broken_count_mirror=broken_count,
            canceled=canceled,
            generation=generation,
        )


class Keystore:
    """Per-card server records backed by an append-only journal.

    Journal lines are JSON objects with a fixed field order; on load the
    latest line per card number wins.  ``path=None`` keeps the store
    memory-only.  ``torn_tail`` is set when load skipped a final line that
    an interrupted append left unterminated and unreadable; such a store
    refuses to append.  A final line that parses is a complete record even
    without its newline, which the next append writes first.
    """

    def __init__(self, path: Optional[str | Path] = None):
        self.path = Path(path) if path is not None else None
        self.records: dict[str, ServerRecord] = {}
        self.torn_tail = False
        self._unterminated = False  # the last record lacks its newline

    def register(self, record: ServerRecord) -> None:
        num = record.identity.card_number
        if num in self.records:
            raise DuplicateCardError(f"card {num!r} already provisioned")
        self.records[num] = record
        self.journal(record)

    def journal(self, record: ServerRecord) -> None:
        """Append the record's current state to the journal file."""
        if self.path is None:
            return
        if self.torn_tail:
            raise CorruptJournalError(
                f"{self.path}: last line is torn; refusing to append")
        line = json.dumps(record.to_journal()) + "\n"
        with open(self.path, "a", encoding="utf-8", newline="\n") as fh:
            fh.write("\n" + line if self._unterminated else line)
        self._unterminated = False

    @classmethod
    def load(cls, path: str | Path) -> "Keystore":
        """Replay a journal; a missing file gives an empty store.

        Raises
        ------
        CorruptJournalError
            On an unreadable line that is not the torn final one.
        """
        store = cls(path)
        p = store.path
        if p.exists():
            with open(p, "rb") as fh:
                for lineno, line in enumerate(fh, 1):
                    if not line.strip():
                        continue
                    try:  # a line nested too deep to parse: RecursionError
                        record = ServerRecord.from_journal(json.loads(line))
                    except (ValueError, RecursionError) as err:
                        if not line.endswith(b"\n"):
                            store.torn_tail = True
                            continue
                        raise CorruptJournalError(
                            f"{p}:{lineno}: not a card record ({err})"
                        ) from err
                    store.records[record.identity.card_number] = record
                    store._unterminated = not line.endswith(b"\n")
        return store


def initialize_card(identity: CardIdentity, m_max: int, n_d: int, rng,
                    keystore: Optional[Keystore] = None,
                    ) -> tuple[CardState, ServerRecord]:
    """Provision a card: generate C, store twin copies, leave key B empty.

    C is drawn from the supplied generator (the true-RNG stand-in) with
    m_max segments of segment_length(n_d) bits each, at least
    key_length_required(m_max, n_d) bits in total.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    seg = segment_length(n_d)
    n_c = m_max * seg
    assert n_c >= key_length_required(m_max, n_d)
    rng = np.random.default_rng(rng)
    raw = rng.integers(0, 2, n_c, dtype=np.uint8)
    card = CardState(
        identity=identity,
        key_c=KeyC(bits=raw, segment_len=seg, cursor=0, m_max=m_max),
    )
    server = ServerRecord(identity=identity, key_c=replace(
        card.key_c, bits=card.key_c.bits.copy()))
    if keystore is not None:
        keystore.register(server)
    return card, server


def authenticate_tag(data: bytes | bytearray, key_segment: np.ndarray) -> int:
    """64-bit keyed tag of the monitoring data, any bytes-like object
    (read in place, not copied).

    The segment keys a polynomial universal hash (see ``tags``);
    identical (data, segment) always give identical tags.
    """
    return poly_tag(data, segment_to_key(key_segment))


@dataclass
class AuthResult:
    """How authentication ended: ``ledger.phase`` is ``authenticated``
    (with the card's and the terminal's copies of key B) or ``broken``
    (with the reason, ``channel_alarm`` or ``tag_mismatch``)."""

    ledger: SessionLedger
    key_b_card: Optional[KeyB] = None
    key_b_terminal: Optional[KeyB] = None
    reason: str = ""


def authenticate_session(card: CardState, server: Keystore,
                         cfg: NoiseConfig, seed, key_b_bits: int,
                         adversary: Optional[AdversaryHook] = None,
                         ) -> AuthResult:
    """Steps (i)-(iv): lookup, key retrieval, KLJN exchange, tag verify.

    In step (iv) the card tags its monitor data with its C segment and the
    terminal tags its own with the server's; the session authenticates
    when the tags agree.  An honest session computes one tag: its ends
    share one buffer of monitor data and equal segments, so the terminal's
    tag is the card's.  Diverged monitor data or unequal segments compute
    both.

    Success leaves the session authenticated with twin copies of a fresh
    key B of ``key_b_bits`` bits; a tag mismatch (wrong C, or monitor data
    tampered below the alarm threshold) or an in-exchange channel alarm
    breaks the session and counts toward cancellation.  The adopted C
    segment is burned on both sides in every outcome that reaches the
    exchange.
    """
    ledger = SessionLedger()

    # (i) identity presentation
    ledger.advance("identified")
    record = server.records.get(card.identity.card_number)
    if record is None:
        raise CardRefusedError(
            f"unknown card {card.identity.card_number!r}")
    if record.canceled:
        raise CardRefusedError(
            f"card {card.identity.card_number!r} is canceled")

    # (ii) server key retrieval; adopt the later of the two cursors so a
    # fraud-burned server segment cannot desync the real card.
    ledger.advance("key_located")
    segment_index = max(card.key_c.cursor, record.key_c.cursor)
    if segment_index >= record.key_c.m_max:
        raise CardRefusedError("key C exhausted; card unusable")

    def burn_segment():
        card.key_c.consume_through(segment_index)
        record.key_c.consume_through(segment_index)
        ledger.consumed_segment = (record.generation, segment_index)

    def mark_broken(reason: str) -> AuthResult:
        burn_segment()
        record.broken_count_mirror += 1
        if record.broken_count_mirror >= record.key_c.m_max:
            record.canceled = True
            card.canceled = True
        ledger.advance("broken")
        server.journal(record)
        return AuthResult(ledger=ledger, reason=reason)

    # (iii) KLJN exchange for key B.  No record outlives its period: its
    # views are appended to the ends' monitor data as it is counted.  At
    # the first period whose views differ, end B's data is split off as a
    # copy of end A's bytes so far.
    ledger.advance("kljn_running")
    card_data = term_data = bytearray()

    def collect(rec: BitExchangeRecord) -> None:
        nonlocal term_data
        if rec.bob_trace is not None and term_data is card_data:
            term_data = bytearray(card_data)
        card_data.extend(rec.trace)
        if term_data is not card_data:
            term_data.extend(rec.trace if rec.bob_trace is None
                             else rec.bob_trace)

    try:
        card_key, term_key, _ = exchange_key(
            key_b_bits, cfg, seed, adversary=adversary, record_sink=collect)
    except ChannelCompromisedError:
        return mark_broken("channel_alarm")

    # (iv) both ends tag their own monitor data, in place, with their own
    # copy of the segment, then cross-verify.  A card that cannot produce a
    # segment for the adopted index (e.g. a clone with a smaller key)
    # simply fails to authenticate.
    try:
        card_segment = card.key_c.segment(segment_index)
    except KeyExhaustedError:
        return mark_broken("tag_mismatch")
    server_segment = record.key_c.segment(segment_index)
    card_tag = authenticate_tag(card_data, card_segment)
    # a tag is a pure function of (data, segment)
    if term_data is card_data and np.array_equal(card_segment,
                                                 server_segment):
        term_tag = card_tag
    else:
        term_tag = authenticate_tag(term_data, server_segment)
    if card_tag != term_tag:
        return mark_broken("tag_mismatch")

    burn_segment()
    ledger.advance("authenticated")
    server.journal(record)
    return AuthResult(
        ledger=ledger,
        key_b_card=KeyB(bits=card_key), key_b_terminal=KeyB(bits=term_key))


@dataclass
class TransactionResult:
    ciphertext: bytes
    decrypted_matches: bool


def run_transaction(card: CardState, auth: AuthResult,
                    payload: bytes) -> TransactionResult:
    """OTP-encrypt the payload card->terminal and verify the round trip.

    Consumes exactly len(payload)*8 bits from both of ``auth``'s key-B
    copies; both are zeroized afterwards regardless of outcome.  Raises
    RuntimeError unless ``auth.ledger`` is authenticated.
    """
    if card.canceled:
        raise CardRefusedError("canceled card cannot transact")
    ledger = auth.ledger
    ledger.advance("transacting")
    plain = np.frombuffer(payload, dtype=np.uint8)
    n_bits = 8 * plain.size
    try:
        cipher = plain ^ np.packbits(auth.key_b_card.take(n_bits))
        decrypted = cipher ^ np.packbits(auth.key_b_terminal.take(n_bits))
        ledger.key_b_bits_used = n_bits
        ledger.advance("refreshing")
        return TransactionResult(cipher.tobytes(),
                                 decrypted.tobytes() == payload)
    except KeyExhaustedError:
        ledger.advance("closed")
        raise
    finally:
        auth.key_b_card.zeroize()
        auth.key_b_terminal.zeroize()


def refresh_key_c(card: CardState, server: Keystore, cfg: NoiseConfig, seed,
                  ledger: SessionLedger,
                  adversary: Optional[AdversaryHook] = None) -> None:
    """Replace C with fresh amplified KLJN material on both sides.

    Exchanges 8x the C length in raw secure bits, applies the three-stage
    XOR amplification, installs the result card-side and (over the secure
    terminal-server link) server-side, and resets the cursor.  A channel
    alarm aborts without key replacement and without counting as broken.
    ``ledger.refreshed`` tells which happened.
    """
    if ledger.phase != "refreshing":
        raise RuntimeError(
            f"refresh requires refreshing phase, got {ledger.phase}")
    record = server.records.get(card.identity.card_number)
    n_c = card.key_c.m_max * card.key_c.segment_len
    try:
        card_raw, term_raw, _ = exchange_key(8 * n_c, cfg, seed,
                                             adversary=adversary)
    except ChannelCompromisedError:
        ledger.advance("closed")
        return
    card_new = amplify(card_raw)
    term_new = amplify(term_raw)
    assert len(card_new) == n_c

    for holder, new in ((card, card_new), (record, term_new)):
        old = holder.key_c
        old.zeroize()
        holder.key_c = KeyC(bits=new, segment_len=old.segment_len, cursor=0,
                            m_max=old.m_max)
        holder.generation += 1
    server.journal(record)
    ledger.refreshed = True
    ledger.advance("closed")


def run_session(card: CardState, server: Keystore, cfg: NoiseConfig, seed,
                payload: bytes, key_b_bits: int,
                auth_adversary: Optional[AdversaryHook] = None,
                refresh_adversary: Optional[AdversaryHook] = None,
                ) -> SessionLedger:
    """One complete session: authenticate, transact, refresh."""
    auth_seed, refresh_seed = spawn_seeds(seed, 2)
    result = authenticate_session(card, server, cfg, auth_seed, key_b_bits,
                                  adversary=auth_adversary)
    ledger = result.ledger
    if ledger.phase != "authenticated":
        return ledger
    try:
        run_transaction(card, result, payload)
    except KeyExhaustedError:
        return ledger
    refresh_key_c(card, server, cfg, refresh_seed, ledger,
                  adversary=refresh_adversary)
    return ledger
