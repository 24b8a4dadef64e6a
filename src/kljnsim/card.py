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
from dataclasses import dataclass, field as dc_field
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
from .privacy import BitString, amplify
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

    bits: BitString
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

    def segment(self, index: int) -> BitString:
        if not 0 <= index < self.m_max:
            raise KeyExhaustedError(
                f"segment index {index} outside 0..{self.m_max - 1}")
        s = self.bits.bits[index * self.segment_len:
                           (index + 1) * self.segment_len]
        return BitString(bits=s.copy(), provenance="key_c")

    def consume_through(self, index: int) -> None:
        """Advance the cursor past ``index``; never moves backward."""
        if index < self.cursor:
            raise KeyExhaustedError(
                f"segment {index} already consumed (cursor {self.cursor})")
        self.cursor = index + 1

    def zeroize(self) -> None:
        self.bits.bits[:] = 0
        self.cursor = self.m_max

    def copy(self) -> "KeyC":
        return KeyC(bits=BitString(self.bits.bits.copy(), "key_c"),
                    segment_len=self.segment_len, cursor=self.cursor,
                    m_max=self.m_max)


@dataclass
class KeyB:
    """One-session OTP key.  Every bit is emitted at most once."""

    bits: BitString
    consumed_offset: int = 0
    zeroized: bool = False

    def take(self, n_bits: int) -> np.ndarray:
        if self.zeroized:
            raise KeyExhaustedError("key B already deleted")
        if self.consumed_offset + n_bits > len(self.bits):
            raise KeyExhaustedError(
                f"key B exhausted: need {n_bits} bits at offset "
                f"{self.consumed_offset}, have {len(self.bits)}")
        out = self.bits.bits[self.consumed_offset:
                             self.consumed_offset + n_bits].copy()
        self.consumed_offset += n_bits
        return out

    def zeroize(self) -> None:
        self.bits.bits[:] = 0
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

    # Journal record layout, in its fixed field order, with each field's
    # type; a count maps to its least value instead, and is a plain int,
    # never a bool.
    FIELDS = {"card_number": str, "holder_name": str, "expiry": str,
              "c_hex": str, "c_len": 0, "segment_len": 1, "cursor": 0,
              "m_max": 1, "broken_count": 0, "canceled": bool,
              "generation": 0}

    def to_journal(self) -> dict:
        """The record as one ``kljn.card_record`` journal object."""
        values = (self.identity.card_number, self.identity.holder_name,
                  self.identity.expiry, self.key_c.bits.to_hex(),
                  len(self.key_c.bits), self.key_c.segment_len,
                  self.key_c.cursor, self.key_c.m_max,
                  self.broken_count_mirror, self.canceled, self.generation)
        return {"schema": "kljn.card_record", "version": 1,
                **dict(zip(self.FIELDS, values))}

    @classmethod
    def from_journal(cls, obj: dict) -> "ServerRecord":
        """Inverse of ``to_journal``; raises TypeError or ValueError for
        a field of the wrong type or below its least value."""
        values = [obj[k] for k in cls.FIELDS]
        for (key, kind), value in zip(cls.FIELDS.items(), values):
            if isinstance(kind, int):  # a count
                if type(value) is not int or value < kind:
                    raise ValueError(
                        f"{key} must be an int >= {kind}, got {value!r}")
            elif type(value) is not kind:
                raise TypeError(
                    f"{key} must be a {kind.__name__}, got {value!r}")
        (number, holder, expiry, c_hex, c_len, segment_len, cursor, m_max,
         broken_count, canceled, generation) = values
        return cls(
            identity=CardIdentity(number, holder, expiry),
            key_c=KeyC(bits=BitString.from_hex(c_hex, c_len, "key_c"),
                       segment_len=segment_len, cursor=cursor, m_max=m_max),
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
    refuses to append.
    """

    def __init__(self, path: Optional[str | Path] = None):
        self.path = Path(path) if path is not None else None
        self.records: dict[str, ServerRecord] = {}
        self.torn_tail = False

    def lookup(self, card_number: str) -> Optional[ServerRecord]:
        return self.records.get(card_number)

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
        with open(self.path, "a", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(record.to_journal()) + "\n")

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
                    try:
                        record = ServerRecord.from_journal(json.loads(line))
                    except (ValueError, KeyError, TypeError,
                            RecursionError) as err:  # too deep to parse
                        if not line.endswith(b"\n"):
                            store.torn_tail = True
                            continue
                        raise CorruptJournalError(
                            f"{p}:{lineno}: not a card record ({err})"
                        ) from err
                    store.records[record.identity.card_number] = record
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
        key_c=KeyC(bits=BitString(raw, "key_c"), segment_len=seg,
                   cursor=0, m_max=m_max),
    )
    server = ServerRecord(identity=identity, key_c=card.key_c.copy())
    if keystore is not None:
        keystore.register(server)
    return card, server


def authenticate_tag(data: bytes, key_segment: BitString) -> int:
    """64-bit keyed tag of the monitoring data.

    The segment keys a polynomial universal hash (see ``tags``);
    identical (data, segment) always give identical tags.
    """
    return poly_tag(data, segment_to_key(key_segment))


@dataclass
class Terminal:
    """Terminal-side session context (transient; server link assumed secure)."""

    key_b_bits: int = 256
    key_b: Optional[KeyB] = None


@dataclass
class AuthResult:
    """How authentication ended: ``ledger.phase`` is ``authenticated``
    (with the card's copy of key B) or ``broken`` (with the reason,
    ``channel_alarm`` or ``tag_mismatch``)."""

    ledger: SessionLedger
    key_b_card: Optional[KeyB] = None
    reason: str = ""


def _monitor_bytes(records: list[BitExchangeRecord], end: str) -> bytes:
    """Serialize one end's per-period instantaneous data for tagging.

    The join reads each contiguous row array's buffer directly, the same
    bytes as its ``tobytes()`` without that copy."""
    chunks = []
    for rec in records:
        view = rec.trace if end == "a" or rec.bob_trace is None \
            else rec.bob_trace
        chunks += (view.voltage, view.current)
    return b"".join(chunks)


def authenticate_session(card: CardState, terminal: Terminal,
                         server: Keystore, cfg: NoiseConfig, seed,
                         adversary: Optional[AdversaryHook] = None,
                         ) -> AuthResult:
    """Steps (i)-(iv): lookup, key retrieval, KLJN exchange, tag verify.

    Success leaves the session authenticated with twin copies of a fresh
    key B; a tag mismatch (wrong C, or monitor data tampered below the
    alarm threshold) or an in-exchange channel alarm breaks the session
    and counts toward cancellation.  The adopted C segment is burned on
    both sides in every outcome that reaches the exchange.
    """
    ledger = SessionLedger()

    # (i) identity presentation
    ledger.advance("identified")
    record = server.lookup(card.identity.card_number)
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

    # (iii) KLJN exchange for key B
    ledger.advance("kljn_running")
    exchange_records: list[BitExchangeRecord] = []
    try:
        card_key, term_key, _ = exchange_key(
            terminal.key_b_bits, cfg, seed, adversary=adversary,
            record_sink=exchange_records.append)
    except ChannelCompromisedError:
        return mark_broken("channel_alarm")

    # (iv) both ends tag their own view of the instantaneous data with
    # their own copy of the segment, then cross-verify.  A card that cannot
    # produce a segment for the adopted index (e.g. a clone with a smaller
    # key) simply fails to authenticate.
    try:
        card_segment = card.key_c.segment(segment_index)
    except KeyExhaustedError:
        return mark_broken("tag_mismatch")
    server_segment = record.key_c.segment(segment_index)
    card_tag = authenticate_tag(_monitor_bytes(exchange_records, "a"),
                                card_segment)
    term_tag = authenticate_tag(_monitor_bytes(exchange_records, "b"),
                                server_segment)
    if card_tag != term_tag:
        return mark_broken("tag_mismatch")

    burn_segment()
    ledger.advance("authenticated")
    server.journal(record)
    terminal.key_b = KeyB(bits=BitString(term_key.bits, "key_b"))
    return AuthResult(ledger=ledger,
                      key_b_card=KeyB(bits=BitString(card_key.bits, "key_b")))


@dataclass
class TransactionResult:
    ciphertext: bytes
    decrypted_matches: bool


def run_transaction(card: CardState, terminal: Terminal, key_b: KeyB,
                    payload: bytes, ledger: SessionLedger,
                    ) -> TransactionResult:
    """OTP-encrypt the payload card->terminal and verify the round trip.

    Consumes exactly len(payload)*8 bits from both key-B copies; both are
    zeroized afterwards regardless of outcome.
    """
    if card.canceled:
        raise CardRefusedError("canceled card cannot transact")
    if ledger.phase != "authenticated":
        raise RuntimeError(
            f"transaction requires authenticated phase, got {ledger.phase}")
    ledger.advance("transacting")
    payload_bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    n_bits = payload_bits.size
    try:
        pad_card = key_b.take(n_bits)
        cipher_bits = payload_bits ^ pad_card
        ciphertext = np.packbits(cipher_bits).tobytes()
        pad_term = terminal.key_b.take(n_bits)
        plain_bits = np.unpackbits(
            np.frombuffer(ciphertext, dtype=np.uint8))[:n_bits] ^ pad_term
        decrypted = np.packbits(plain_bits).tobytes()
        matches = decrypted == payload
        ledger.key_b_bits_used = n_bits
        ledger.advance("refreshing")
        return TransactionResult(ciphertext=ciphertext,
                                 decrypted_matches=matches)
    except KeyExhaustedError:
        ledger.advance("closed")
        raise
    finally:
        key_b.zeroize()
        if terminal.key_b is not None:
            terminal.key_b.zeroize()


def refresh_key_c(card: CardState, server: Keystore, cfg: NoiseConfig, seed,
                  ledger: SessionLedger,
                  adversary: Optional[AdversaryHook] = None) -> bool:
    """Replace C with fresh amplified KLJN material on both sides.

    Exchanges 8x the C length in raw secure bits, applies the three-stage
    XOR amplification, installs the result card-side and (over the secure
    terminal-server link) server-side, and resets the cursor.  A channel
    alarm aborts without key replacement and without counting as broken.
    Returns True on success, False on abort.
    """
    if ledger.phase != "refreshing":
        raise RuntimeError(
            f"refresh requires refreshing phase, got {ledger.phase}")
    record = server.lookup(card.identity.card_number)
    n_c = card.key_c.m_max * card.key_c.segment_len
    try:
        card_raw, term_raw, _ = exchange_key(8 * n_c, cfg, seed,
                                             adversary=adversary)
    except ChannelCompromisedError:
        ledger.advance("closed")
        return False
    card_new = amplify(card_raw)
    term_new = amplify(term_raw)
    assert len(card_new) == n_c

    for holder, new in ((card, card_new), (record, term_new)):
        old = holder.key_c
        old.zeroize()
        holder.key_c = KeyC(bits=BitString(new.bits, "key_c"),
                            segment_len=old.segment_len, cursor=0,
                            m_max=old.m_max)
        holder.generation += 1
    server.journal(record)
    ledger.refreshed = True
    ledger.advance("closed")
    return True


def run_session(card: CardState, terminal: Terminal, server: Keystore,
                cfg: NoiseConfig, seed, payload: bytes,
                auth_adversary: Optional[AdversaryHook] = None,
                refresh_adversary: Optional[AdversaryHook] = None,
                ) -> SessionLedger:
    """One complete session: authenticate, transact, refresh."""
    auth_seed, refresh_seed = spawn_seeds(seed, 2)
    result = authenticate_session(card, terminal, server, cfg, auth_seed,
                                  adversary=auth_adversary)
    ledger = result.ledger
    if ledger.phase != "authenticated":
        return ledger
    try:
        run_transaction(card, terminal, result.key_b_card, payload, ledger)
    except KeyExhaustedError:
        return ledger
    refresh_key_c(card, server, cfg, refresh_seed, ledger,
                  adversary=refresh_adversary)
    return ledger
