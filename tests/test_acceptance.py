"""Acceptance suite: one test per criterion, at the stated tolerances.

Run ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Statistical criteria run on fixed seeds so the suite is
deterministic.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from kljnsim.adversary import mitm_attack, inject_current, passive_eavesdrop
from kljnsim.card import (
    CardIdentity,
    CardRefusedError,
    CardState,
    Keystore,
    Terminal,
    authenticate_session,
    initialize_card,
    key_length_required,
    refresh_key_c,
    run_transaction,
)
from kljnsim.exchange import exchange_key, run_bit_period
from kljnsim.noise import (
    BOLTZMANN_K,
    NoiseConfig,
    analytic_spectra,
    compose_loop,
    generate_noise,
    infer_partner_resistance,
    infer_resistor_pair,
    johnson_psd,
    measure_spectra,
)
from kljnsim.noise import InconsistentSpectraError, SpectraEstimate
from kljnsim.privacy import BitString, amplify, xor_stage

CFG = NoiseConfig()


def report(num: int, ok: bool, text: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} :: {text}", flush=True)
    assert ok, f"criterion {num}: {text}"


def run_cli(argv, cwd=None):
    env = dict(os.environ)
    env.pop("KLJN_SEED", None)
    return subprocess.run([sys.executable, "-m", "kljnsim.cli", *argv],
                          capture_output=True, env=env, cwd=cwd)


def test_criterion_01_discard_rate():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    n = 10_000
    retained = 0
    for _ in range(n):
        a, b = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        retained += run_bit_period(a, b, CFG, rng).retained
    elapsed = time.perf_counter() - t0
    frac = retained / n
    report(1, abs(frac - 0.5) <= 0.015 and elapsed < 30.0,
           f"retained fraction {frac:.4f} in 0.500+/-0.015, "
           f"{elapsed:.1f}s < 30s over {n} periods")


def test_criterion_02_key_agreement():
    t0 = time.perf_counter()
    disagreements = 0
    alarms = 0
    for trial in range(100):
        alice, bob, stats = exchange_key(256, CFG, (202, trial))
        disagreements += int(np.sum(alice.bits != bob.bits))
        alarms += stats.alarms
    elapsed = time.perf_counter() - t0
    report(2, disagreements == 0 and alarms == 0 and elapsed < 60.0,
           f"100x256-bit exchanges: {disagreements} disagreement bits, "
           f"{alarms} false alarms, {elapsed:.1f}s < 60s")


def test_criterion_03_spectral_degeneracy():
    rng = np.random.default_rng(303)
    su = {"lh": [], "hl": []}
    for _ in range(2000):
        for key, bits in (("lh", (0, 1)), ("hl", (1, 0))):
            rec = run_bit_period(*bits, CFG, rng)
            su[key].append(rec.spectra_alice.s_u)
    lh, hl = np.array(su["lh"]), np.array(su["hl"])
    diff = abs(lh.mean() - hl.mean())
    se = math.hypot(lh.std(ddof=1) / math.sqrt(lh.size),
                    hl.std(ddof=1) / math.sqrt(hl.size))
    t_res = scipy_stats.ttest_ind(lh, hl, equal_var=False)
    report(3, diff < 3 * se and t_res.pvalue > 0.01,
           f"LH/HL mean s_u differ by {diff / se:.2f} SE (< 3), "
           f"t-test p={t_res.pvalue:.3f} > 0.01")


def test_criterion_04_partner_resistance_oracle():
    rng = np.random.default_rng(404)
    cfg = NoiseConfig(samples_per_bit=2000)
    exact_ok = 0
    sim_ok = 0
    for _ in range(100):
        lo = 10 ** rng.uniform(2, 6)
        hi = 10 ** rng.uniform(2, 6)
        r_a, r_b = min(lo, hi), max(lo, hi)
        s = analytic_spectra(r_a, r_b, cfg)
        exact_ok += (
            abs(infer_partner_resistance(s.s_i, r_a, cfg) - r_b) / r_b
            < 1e-9
            and abs(infer_partner_resistance(s.s_i, r_b, cfg) - r_a) / r_a
            < 1e-9)
        u_a = generate_noise(johnson_psd(r_a, cfg), cfg, rng)
        u_b = generate_noise(johnson_psd(r_b, cfg), cfg, rng)
        meas = measure_spectra(compose_loop(u_a, u_b, r_a, r_b), cfg)
        est = infer_partner_resistance(meas.s_i, r_a, cfg)
        sim_ok += abs(est - r_b) / r_b < 0.10
    report(4, exact_ok == 100 and sim_ok >= 95,
           f"exact inversion 1e-9 on {exact_ok}/100 pairs; simulated "
           f"(2000 samples) within 10% on {sim_ok}/100 (>= 95)")


def test_criterion_05_pair_inference_oracle():
    rng = np.random.default_rng(505)
    ok = 0
    for _ in range(100):
        r_a = 10 ** rng.uniform(2, 6)
        r_b = 10 ** rng.uniform(2, 6)
        low, high = infer_resistor_pair(analytic_spectra(r_a, r_b, CFG),
                                        CFG)
        ok += (abs(low - min(r_a, r_b)) / min(r_a, r_b) < 1e-9
               and abs(high - max(r_a, r_b)) / max(r_a, r_b) < 1e-9)
    four_kt = 4 * BOLTZMANN_K * CFG.t_eff
    rejected = False
    try:
        infer_resistor_pair(SpectraEstimate(four_kt, four_kt), CFG)
    except InconsistentSpectraError:
        rejected = True
    report(5, ok == 100 and rejected,
           f"exact pair recovery 1e-9 on {ok}/100 pairs; "
           f"negative discriminant rejected: {rejected}")


def test_criterion_06_passive_eve_nullity():
    rng = np.random.default_rng(606)
    n, correct = 0, 0
    su_sum, si_sum = 0.0, 0.0
    while n < 2000:
        a = int(rng.integers(0, 2))
        rec = run_bit_period(a, 1 - a, CFG, rng)
        if not rec.retained:
            continue
        est = passive_eavesdrop(rec.trace, CFG, rng)
        n += 1
        correct += est.bit_assignment_guess == (a, 1 - a)
        su_sum += rec.spectra_alice.s_u
        si_sum += rec.spectra_alice.s_i
    accuracy = correct / n
    pooled = SpectraEstimate(su_sum / n, si_sum / n)
    low, high = infer_resistor_pair(pooled, CFG)
    pair_ok = (abs(low - CFG.r_low) / CFG.r_low < 0.10
               and abs(high - CFG.r_high) / CFG.r_high < 0.10)
    report(6, abs(accuracy - 0.5) <= 0.034 and pair_ok,
           f"Eve assignment accuracy {accuracy:.3f} in 0.5+/-0.034 over "
           f"{n} retained bits; pooled pair ({low:.0f}, {high:.0f}) "
           f"within 10% of (1000, 10000)")


def test_criterion_07_mitm_detection():
    detected = 0
    indices = []
    for trial in range(1000):
        out = mitm_attack(CFG, (707, trial))
        detected += out.detected
        if out.detection_sample_index is not None:
            indices.append(out.detection_sample_index)
    median_idx = float(np.median(indices))
    report(7, detected >= 999 and median_idx <= 10,
           f"MITM detected in {detected}/1000 periods (>= 999), median "
           f"detection index {median_idx:.0f} <= 10 samples")


def test_criterion_08_current_injection():
    mid = analytic_spectra(CFG.r_low, CFG.r_high, CFG)
    loop_rms = math.sqrt(mid.s_i * CFG.bandwidth)
    rng = np.random.default_rng(808)
    detected = 0
    for trial in range(1000):
        inj = rng.normal(0, 10 * loop_rms, CFG.samples_per_bit)
        detected += inject_current(CFG, inj, (808, trial)).detected
    false_alarms = 0
    zero = np.zeros(CFG.samples_per_bit)
    for trial in range(1000):
        false_alarms += inject_current(CFG, zero, (809, trial)).detected
    report(8, detected >= 999 and false_alarms == 0,
           f"10x-RMS injection detected {detected}/1000 (>= 999); "
           f"zero-injection false alarms {false_alarms}/1000 (< 0.1%)")


def test_criterion_09_privacy_amplification():
    lengths_ok = all(
        len(amplify(BitString(np.zeros(n, dtype=np.uint8)))) == n // 8
        for n in (8, 16, 64, 800, 1024, 99_992))
    eps = 0.1
    n = 1_000_000
    rng = np.random.default_rng(909)
    bits = (rng.random(n) < 0.5 + eps).astype(np.uint8)
    out = xor_stage(BitString(bits))
    predicted = 0.5 - 2 * eps ** 2
    sigma = math.sqrt(0.25 / len(out))
    deviation = abs(float(out.bits.mean()) - predicted)
    report(9, lengths_ok and deviation < 3 * sigma,
           f"eightfold length contract exact; stage-1 bias off the "
           f"2*eps^2 prediction by {deviation / sigma:.2f} sigma (< 3)")


def test_criterion_10_key_sizing():
    values = {(1, 2): 1, (3, 1024): 30, (4, 1000): 40, (5, 1024): 50}
    values_ok = all(key_length_required(m, n_d) == expected
                    for (m, n_d), expected in values.items())
    sizing_ok = True
    for i, (m, n_d) in enumerate(values):
        card, _ = initialize_card(
            CardIdentity(f"sz-{i}", "H", "01/30"), m, n_d, rng=i)
        sizing_ok &= len(card.key_c.bits) >= m * math.log2(n_d)
    report(10, values_ok and sizing_ok,
           f"key_length_required values {list(values.values())} exact; "
           f"every provisioned card meets len(C) >= M*log2(N_d)")


def _fraud_attempt(identity, store, cfg, seed, m_max=3):
    fake, _ = initialize_card(CardIdentity("fk", "EVE", "01/01"), m_max,
                              102400, rng=seed)
    clone = CardState(identity=identity, key_c=fake.key_c)
    return authenticate_session(clone, Terminal(key_b_bits=128), store,
                                cfg, seed)


def test_criterion_11_card_policy(tmp_path):
    # (a) M wrong-key attempts cancel the card
    identity = CardIdentity("4000-acc-11a", "HOLDER", "12/31")
    store = Keystore()
    card, server = initialize_card(identity, 3, 102400, rng=1,
                                   keystore=store)
    for attempt in range(3):
        res = _fraud_attempt(identity, store, CFG, 1100 + attempt)
        assert res.ledger.phase == "broken"
    canceled_ok = server.canceled
    refused_ok = False
    try:
        authenticate_session(card, Terminal(key_b_bits=128), store, CFG, 1)
    except CardRefusedError:
        refused_ok = True

    # (b) M-1 attempts then a correct session succeeds and refreshes C
    identity_b = CardIdentity("4000-acc-11b", "HOLDER", "12/31")
    store_b = Keystore()
    card_b, server_b = initialize_card(identity_b, 3, 102400, rng=2,
                                       keystore=store_b)
    for attempt in range(2):
        _fraud_attempt(identity_b, store_b, CFG, 1110 + attempt)
    terminal = Terminal(key_b_bits=128)
    res = authenticate_session(card_b, terminal, store_b, CFG, 1120)
    recovered_ok = res.ledger.phase == "authenticated"
    run_transaction(card_b, terminal, res.key_b_card, bytes(8), res.ledger)
    refreshed_ok = refresh_key_c(card_b, store_b, CFG, 1121,
                                 ledger=res.ledger)
    synced_ok = card_b.key_c.bits.to_hex() == server_b.key_c.bits.to_hex()

    # (c) 100-session lifetime: no segment reuse, no key-B reuse
    identity_c = CardIdentity("4000-acc-11c", "HOLDER", "12/31")
    store_c = Keystore(tmp_path / "acceptance_ks.jsonl")
    card_c, _ = initialize_card(identity_c, 2, 102400, rng=3,
                                keystore=store_c)
    payload = bytes(range(8))
    segments = []
    pads = []
    for session in range(100):
        term = Terminal(key_b_bits=128)
        res = authenticate_session(card_c, term, store_c, CFG,
                                   (1130, session))
        assert res.ledger.phase == "authenticated"
        segments.append(res.ledger.consumed_segment)
        tr = run_transaction(card_c, term, res.key_b_card, payload,
                             res.ledger)
        pad = bytes(a ^ b for a, b in zip(tr.ciphertext, payload))
        pads.append(pad)
        assert refresh_key_c(card_c, store_c, CFG, (1131, session),
                             ledger=res.ledger)
    audit_ok = (len(set(segments)) == 100 and len(set(pads)) == 100
                and card_c.generation == 100)

    report(11, canceled_ok and refused_ok and recovered_ok and refreshed_ok
           and synced_ok and audit_ok,
           f"M breaks cancel + refuse: {canceled_ok and refused_ok}; "
           f"M-1 breaks then success+refresh: "
           f"{recovered_ok and refreshed_ok and synced_ok}; 100-session "
           f"audit (no segment/key-B reuse): {audit_ok}")


def test_criterion_12_rate_claim():
    _, _, stats = exchange_key(1024, CFG, 1212)
    sim_seconds = stats.periods_run * CFG.samples_per_bit / CFG.sample_rate
    rate = stats.retained / sim_seconds
    in_band = 250.0 <= rate <= 4000.0
    fast_enough = sim_seconds <= 4.0
    report(12, in_band and fast_enough,
           f"secure-bit rate {rate:.0f} b/s within factor 4 of 1000; "
           f"1024 secure bits in {sim_seconds:.2f} simulated s <= 4 s")


def test_criterion_13_cli_determinism(tmp_path):
    commands = [
        ["exchange", "--trials", "3", "--target_bits", "64", "--seed", "7"],
        ["attack", "mitm", "--trials", "25", "--seed", "7"],
        ["rate", "--target_bits", "128", "--seed", "7"],
    ]
    identical = True
    for argv in commands:
        identical &= run_cli(argv).stdout == run_cli(argv).stdout
    lifetime = ["card-lifetime", "--n_sessions", "2", "--m_max", "2",
                "--payload_bytes", "8", "--seed", "7", "--keystore"]
    a = run_cli([*lifetime, str(tmp_path / "a.jsonl")])
    b = run_cli([*lifetime, str(tmp_path / "b.jsonl")])
    identical &= a.stdout == b.stdout
    identical &= (tmp_path / "a.jsonl").read_bytes() == \
        (tmp_path / "b.jsonl").read_bytes()
    report(13, identical,
           "exchange, attack, rate and card-lifetime reruns with fixed "
           "seeds are byte-identical")
