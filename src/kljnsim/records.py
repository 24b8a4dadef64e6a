"""Output records: the one table of their layouts, and the exact check.

Each CLI output line and each keystore journal line is one JSON object
that starts with ``schema`` and ``version``.  ``RECORDS`` is the one place
a record's fields are declared: one entry per layout, which
``cli.Emitter.emit`` and the journal write by name, giving its schema,
version and every field in emit order with its type.  A type is ``str``,
``bool``, ``float`` (finite) or ``list``; a count is given as its least
value and is a plain int, never a bool; a string is that one value; a
tuple lists alternatives, None for null.  Layouts of one schema differ in
their field names, and a ``kind`` or ``status`` field pins each to its
values.  ``validate_record`` checks a record exactly and raises nothing
but ``SchemaError``.
"""

from __future__ import annotations

import math


class Layout:
    def __init__(self, schema: str, version: int, fields: dict):
        self.schema, self.version = schema, version
        self.fields = fields  # name -> type, least count, or alternatives
        self._keys = ("schema", "version", *fields)

    def record(self, values: tuple) -> dict:
        """The record of these field values, given in table order."""
        return dict(zip(self._keys, (self.schema, self.version, *values),
                        strict=True))

    def values(self, record: dict) -> tuple:
        """The record's field values, in table order."""
        return tuple(record[key] for key in self.fields)


_CARD = {"card_number": str, "holder_name": str, "expiry": str,
         "c_hex": str, "c_len": 0, "segment_len": 1, "cursor": 0,
         "m_max": 1, "broken_count": 0, "canceled": bool, "generation": 0}
_ATTACK_TRIAL = {"trial": 0, "detected": bool}
_ATTACK_SUMMARY = {"trials": 1, "detection_rate": float}

RECORDS = {
    "exchange_trial": Layout("kljn.exchange_trial", 1, {
        "trial": 0, "periods": 0, "retained": 0, "discard_fraction": float,
        "agreement": bool, "alarms": 0, "anomalies": 0}),
    "exchange_summary": Layout("kljn.exchange_summary", 1, {
        "trials": 1, "mean_discard_fraction": float, "all_agree": bool,
        "total_alarms": 0, "total_periods": 0}),
    "passive_trial": Layout("kljn.attack_trial", 1, {
        "kind": "passive", **_ATTACK_TRIAL, "loop_class": (str, None),
        "assignment_correct": bool, "pair_low": (float, None),
        "pair_high": (float, None)}),
    "active_trial": Layout("kljn.attack_trial", 1, {
        "kind": ("mitm", "injection"), **_ATTACK_TRIAL,
        "detection_sample_index": (0, None), "bits_learned": 0,
        "bits_retained_by_parties": 0}),
    "passive_summary": Layout("kljn.attack_summary", 1, {
        "kind": "passive", **_ATTACK_SUMMARY, "assignment_accuracy": float,
        "pooled_pair_low": (float, None), "pooled_pair_high": (float, None)}),
    "mitm_summary": Layout("kljn.attack_summary", 1, {
        "kind": "mitm", **_ATTACK_SUMMARY,
        "median_detection_index": (0, None)}),
    "injection_summary": Layout("kljn.attack_summary", 1, {
        "kind": "injection", **_ATTACK_SUMMARY,
        "amplitude_rms_ratio": float}),
    "refused_session": Layout("kljn.session", 1, {
        "session": 0, "status": "refused", "fault": (str, None),
        "reason": str, "broken_count": 0, "canceled": bool,
        "generation": 0}),
    "session": Layout("kljn.session", 1, {
        "session": 0, "status": ("closed", "broken"), "fault": (str, None),
        "broken_count": 0, "canceled": bool, "generation": 0,
        "segment": (list, None), "refreshed": bool, "key_b_bits_used": 0}),
    "lifetime_summary": Layout("kljn.lifetime_summary", 1, {
        "sessions": 0, "closed": 0, "broken": 0, "refused": 0,
        "canceled": bool, "generations": 0, "segment_reuse": bool,
        "key_b_reuse": bool, "key_b_sessions": 0}),
    "rate_report": Layout("kljn.rate_report", 1, {
        "secure_bit_rate": float, "reference_rate": float,
        "bit_period_seconds": float, "target_bits": 1, "periods": 0,
        "simulated_seconds": float, "seconds_for_1024_secure_bits": float,
        "amplified_bit_rate": float}),
    "card_record": Layout("kljn.card_record", 1, _CARD),
    # what keystore-inspect reports: a card without its key material
    "keystore_card": Layout("kljn.keystore_card", 1, {
        key: kind for key, kind in _CARD.items() if key != "c_hex"}),
    "keystore_summary": Layout("kljn.keystore_summary", 1, {"cards": 0}),
}


class SchemaError(ValueError):
    pass


def _fits(kind, value) -> bool:
    if isinstance(kind, tuple):
        return any(_fits(alternative, value) for alternative in kind)
    if kind is None:
        return value is None
    if isinstance(kind, str):  # the one value
        return value == kind
    if isinstance(kind, int):  # a count, kind its least value
        return type(value) is int and value >= kind
    # lax json.loads reads NaN and Infinity as floats
    return type(value) is kind and (kind is not float or math.isfinite(value))


def _describe(kind) -> str:
    if isinstance(kind, tuple):
        return " or ".join(map(_describe, kind))
    if kind is None:
        return "null"
    if isinstance(kind, str):
        return repr(kind)
    if kind is float:
        return "a finite float"
    return f"an int >= {kind}" if isinstance(kind, int) else kind.__name__


def _shown(value) -> str:
    """A value for a message: a container's type, else its repr."""
    return type(value).__name__ if isinstance(value, (list, dict)) \
        else repr(value)


def validate_record(obj, names=RECORDS) -> str:
    """The name of the entry among ``names`` (by default all of them) that
    ``obj``, one parsed record, is exactly a record of; for any other
    value, raises SchemaError and nothing else."""
    if not isinstance(obj, dict):
        raise SchemaError(f"a record is an object, not {_shown(obj)}")
    schema, version = obj.get("schema"), obj.get("version")
    layouts = [name for name in names if type(version) is int
               and (RECORDS[name].schema, RECORDS[name].version)
               == (schema, version)]
    if not layouts:
        raise SchemaError(f"no record layout has schema {_shown(schema)}, "
                          f"version {_shown(version)}")
    keys = obj.keys() - {"schema", "version"}
    name = min(layouts, key=lambda n: len(keys ^ RECORDS[n].fields.keys()))
    fields = RECORDS[name].fields
    if keys != fields.keys():
        missing, extra = fields.keys() - keys, keys - fields.keys()
        raise SchemaError(f"{name} record: missing fields {sorted(missing)},"
                          f" extra fields {sorted(extra, key=str)}")
    for key, kind in fields.items():
        if not _fits(kind, obj[key]):
            raise SchemaError(f"{name} record: {key} must be "
                              f"{_describe(kind)}, got {_shown(obj[key])}")
    return name
