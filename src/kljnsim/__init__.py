"""Simulator and protocol library for Johnson-noise secure key exchange.

Layers, bottom up:

* ``noise``: thermal-noise synthesis, the two-resistor loop, spectrum
  estimation and resistance inference.
* ``exchange``: the per-bit exchange state machine, level classification,
  the two-end monitor defense, and whole-key exchanges.
* ``adversary``: passive Eve plus man-in-the-middle and current-injection
  attacks with detection bookkeeping.
* ``privacy``: bit-array key material and XOR privacy amplification.
* ``tags``/``card``: the keyed universal hash and the card/terminal/server
  session protocol (provisioning, authentication, OTP transaction, key
  refresh, keystore journal).
* ``cli``/``records``: the command-line harness and its record schemas.
"""

from .adversary import (
    AttackOutcome,
    EveEstimate,
    InjectionHook,
    MitmHook,
    inject_current,
    mitm_attack,
    passive_eavesdrop,
)
from .card import (
    AuthResult,
    CardIdentity,
    CardRefusedError,
    CardState,
    CorruptJournalError,
    DuplicateCardError,
    KeyB,
    KeyC,
    KeyExhaustedError,
    Keystore,
    ServerRecord,
    SessionLedger,
    TransactionResult,
    authenticate_session,
    authenticate_tag,
    initialize_card,
    key_length_required,
    refresh_key_c,
    run_session,
    run_transaction,
    segment_length,
)
from .exchange import (
    BitExchangeRecord,
    ChannelCompromisedError,
    ExchangeNotConvergedError,
    ExchangeStats,
    LoopClass,
    MonitorReport,
    class_levels,
    classify_level,
    exchange_key,
    first_divergence_index,
    monitor_compare,
    run_bit_period,
)
from .noise import (
    BOLTZMANN_K,
    InconsistentSpectraError,
    NoiseConfig,
    analytic_spectra,
    compose_loop,
    generate_noise,
    infer_partner_resistance,
    infer_resistor_pair,
    johnson_psd,
    measure_spectra,
    parallel_resistance,
)
from .privacy import amplify, xor_stage

__version__ = "0.1.0"
