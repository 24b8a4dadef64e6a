"""Self-describing output records and their schema check.

Every line the CLI emits is one JSON object carrying ``schema`` and
``version`` fields; ``validate_record`` confirms a parsed object names a
known schema and carries that schema's required fields.
"""

from __future__ import annotations

from .card import ServerRecord

SCHEMAS: dict[str, set[str]] = {
    "kljn.exchange_trial": {
        "trial", "periods", "retained", "discard_fraction", "agreement",
        "alarms", "anomalies",
    },
    "kljn.exchange_summary": {
        "trials", "mean_discard_fraction", "all_agree", "total_alarms",
        "total_periods",
    },
    "kljn.attack_trial": {
        "kind", "trial", "detected",
    },
    "kljn.attack_summary": {
        "kind", "trials", "detection_rate",
    },
    "kljn.session": {
        "session", "status", "broken_count", "canceled", "generation",
    },
    "kljn.lifetime_summary": {
        "sessions", "closed", "broken", "refused", "canceled",
        "segment_reuse", "key_b_reuse",
    },
    "kljn.rate_report": {
        "secure_bit_rate", "reference_rate", "bit_period_seconds",
        "target_bits",
    },
    "kljn.card_record": set(ServerRecord.FIELDS),
    "kljn.keystore_card": set(ServerRecord.FIELDS) - {"c_hex"},
    "kljn.keystore_summary": {
        "cards",
    },
}


class SchemaError(ValueError):
    pass


def validate_record(obj) -> str:
    """Check one parsed record; returns the schema name."""
    if not isinstance(obj, dict):
        raise SchemaError(f"record must be an object, got {type(obj)}")
    name = obj.get("schema")
    if name not in SCHEMAS:
        raise SchemaError(f"unknown schema {name!r}")
    if not isinstance(obj.get("version"), int):
        raise SchemaError("record must carry an integer version")
    missing = SCHEMAS[name] - obj.keys()
    if missing:
        raise SchemaError(f"{name} record missing fields {sorted(missing)}")
    return name
