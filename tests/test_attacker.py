import math

import numpy as np
import pytest

from noisepad.attacker import (
    AttackReport,
    basis_attack_report,
    chain_compromise,
    eve_bit_guess_rate,
    eve_ml_basis_guess,
    known_plaintext_attack,
    known_plaintext_attack_noisy,
    load_transcripts,
    simulate_double_emission,
)
from noisepad.encode import Constellation, quantize, transmit_symbol
from noisepad.phys import CoherentStateParams, eavesdropper_error, q_gaussian
from noisepad.protocol import (
    ChainKey,
    PaRecord,
    SessionParams,
    send_block,
    simulate_session,
)

import oracles

C = Constellation(2.0 ** -6, 24)
P = CoherentStateParams(1e4)


def test_ml_guess_noiseless_symbols():
    at_offset = quantize(C.delta_phi, 24)
    at_zero = quantize(0.0, 24)
    assert eve_ml_basis_guess([at_offset], [at_offset], C)[0] == 1
    assert eve_ml_basis_guess([at_zero], [at_zero], C)[0] == 0


def test_ml_guess_uses_both_emissions():
    # folding the message emission through its set must recover the basis
    # signal whatever the surrounding bits are
    from noisepad.attacker import _set_deviation

    n = 60_000
    msg_levels, reuse_levels, true_basis = simulate_double_emission(P, C, n, 2)
    err_two = float(np.mean(
        eve_ml_basis_guess(msg_levels, reuse_levels, C) != true_basis))
    _, reuse_dev = _set_deviation(reuse_levels, C)
    err_one = float(np.mean(
        (reuse_dev > C.delta_phi / 2.0).astype(np.uint8) != true_basis))
    two_look = oracles.gaussian_tail(
        C.delta_phi * math.sqrt(P.avg_photon_number) / 2.0)
    one_look = oracles.gaussian_tail(
        C.delta_phi * math.sqrt(P.avg_photon_number) / (2.0 * math.sqrt(2.0)))
    assert abs(err_two - two_look) < oracles.binom_3sigma(two_look, n)
    assert abs(err_one - one_look) < oracles.binom_3sigma(one_look, n)
    assert err_two < err_one


def test_ml_guess_error_band_at_reference_point():
    n = 100_000
    msg_levels, reuse_levels, true_basis = simulate_double_emission(P, C, n, 3)
    err = float(np.mean(
        eve_ml_basis_guess(msg_levels, reuse_levels, C) != true_basis))
    floor = eavesdropper_error(P, C.delta_phi, repetitions=2)
    classical = q_gaussian(C.delta_phi * math.sqrt(P.avg_photon_number) / 2.0)
    assert floor == pytest.approx(0.08018535523830366, rel=1e-9)
    assert classical == pytest.approx(0.21732773567808565, rel=1e-9)
    assert err >= floor - oracles.binom_3sigma(floor, n)
    assert err <= classical + oracles.binom_3sigma(classical, n)


def make_block(rng, c, params, n, sigma):
    bits = rng.integers(0, 2, n, dtype=np.uint8)
    basis = rng.integers(0, 2, n, dtype=np.uint8)
    levels = transmit_symbol(bits, basis, c, rng.normal(0.0, sigma, n))
    return levels, bits, basis


def test_bit_guess_rate_blind():
    rng = np.random.default_rng(4)
    levels, bits, _ = make_block(rng, C, None, 10_000, P.sigma_phi)
    rate = eve_bit_guess_rate(levels, C, bits, seed=99)
    assert abs(rate - 0.5) < 0.015


def test_bit_guess_rate_with_oracle_equals_legitimate():
    rng = np.random.default_rng(5)
    levels, bits, basis = make_block(rng, C, None, 10_000, P.sigma_phi)
    assert eve_bit_guess_rate(levels, C, bits, basis_oracle=basis) == 0.0


def test_bit_guess_rate_validation():
    with pytest.raises(ValueError):
        eve_bit_guess_rate(np.array([], dtype=np.uint64), C,
                           np.array([], dtype=np.uint8))
    with pytest.raises(ValueError):
        eve_bit_guess_rate(np.array([0], dtype=np.uint64), C,
                           np.array([0, 1], dtype=np.uint8))


def test_known_plaintext_attack_exact():
    rng = np.random.default_rng(6)
    key = rng.integers(0, 2, 4096, dtype=np.uint8)
    # X = 0...0 returns the ciphertext itself
    assert np.array_equal(known_plaintext_attack(key, np.zeros(4096, np.uint8)), key)
    plain = rng.integers(0, 2, 4096, dtype=np.uint8)
    cipher = np.bitwise_xor(plain, key)
    assert np.array_equal(known_plaintext_attack(cipher, plain), key)
    with pytest.raises(ValueError):
        known_plaintext_attack(cipher, plain[:100])


def test_known_plaintext_attack_on_session_key():
    params = SessionParams(1e4, 2.0 ** -30, 40, 512)
    k0 = np.random.default_rng(7).integers(0, 2, 512, dtype=np.uint8)
    res_a, _ = simulate_session(params, k0, 8, 9, cycles=1)
    k1 = res_a.chain.keys[1].bits
    plain = np.random.default_rng(10).integers(0, 2, len(k1), dtype=np.uint8)
    recovered = known_plaintext_attack(np.bitwise_xor(plain, k1), plain)
    assert np.array_equal(recovered, k1)


def test_known_plaintext_attack_noisy_channel():
    # noise-masked encryption of a known plaintext still gives up the key:
    # the set is macroscopic and equals bit XOR basis
    rng = np.random.default_rng(11)
    n = 20_000
    params = SessionParams(1e4, 2.0 ** -10, 16, n)
    plain = rng.integers(0, 2, n, dtype=np.uint8)
    key = ChainKey(0, rng.integers(0, 2, n, dtype=np.uint8))
    from noisepad.phys import PhaseNoiseModel
    levels = send_block(plain, key, params,
                        PhaseNoiseModel(params.coherent.sigma_phi, 12))
    recovered = known_plaintext_attack_noisy(levels, plain, params.constellation)
    assert np.array_equal(recovered, key.bits)


def raw_chain(rng, c, params, k0, n_blocks, sigma):
    """Unamplified key chain: each key is the basis for the next block."""
    from noisepad.phys import PhaseNoiseModel
    noise = PhaseNoiseModel(sigma, 21)
    keys = [k0]
    transcripts = []
    for i in range(n_blocks):
        fresh = rng.integers(0, 2, len(k0), dtype=np.uint8)
        transcripts.append(send_block(fresh, ChainKey(i, keys[-1]), params, noise))
        keys.append(fresh)
    return keys, transcripts


def test_chain_compromise_raw_chain():
    rng = np.random.default_rng(13)
    params = SessionParams(1e4, 2.0 ** -10, 16, 2048)
    k0 = rng.integers(0, 2, 2048, dtype=np.uint8)
    keys, transcripts = raw_chain(rng, params.constellation, params, k0, 5,
                                  params.coherent.sigma_phi)
    # K1 revealed: Y2..Y5 give K2..K5 exactly
    rec = chain_compromise(transcripts, 1, keys[1], params.constellation)
    assert [i for i, _ in rec.recovered] == [2, 3, 4, 5]
    for idx, bits in rec.recovered:
        assert np.array_equal(bits, keys[idx])
    assert rec.gaps and "Y6" in rec.gaps[0]
    # -1 must not wrap around to the last block on the tape
    with pytest.raises(ValueError, match="known key index must be >= 0"):
        chain_compromise(transcripts, -1, keys[1], params.constellation)


def test_chain_compromise_wrong_index_gets_noise():
    rng = np.random.default_rng(14)
    params = SessionParams(1e4, 2.0 ** -10, 16, 2048)
    k0 = rng.integers(0, 2, 2048, dtype=np.uint8)
    keys, transcripts = raw_chain(rng, params.constellation, params, k0, 4,
                                  params.coherent.sigma_phi)
    # claiming K2's value is K1 decodes Y2 with the wrong basis
    rec = chain_compromise(transcripts, 1, keys[2], params.constellation)
    agree = float(np.mean(rec.recovered[0][1] == keys[2]))
    assert abs(agree - 0.5) < oracles.binom_3sigma(0.5, 2048)


def test_chain_compromise_missing_transcript_reports_gap():
    rng = np.random.default_rng(15)
    params = SessionParams(1e4, 2.0 ** -10, 16, 1024)
    k0 = rng.integers(0, 2, 1024, dtype=np.uint8)
    keys, transcripts = raw_chain(rng, params.constellation, params, k0, 5,
                                  params.coherent.sigma_phi)
    transcripts[3] = None
    rec = chain_compromise(transcripts, 1, keys[1], params.constellation)
    assert [i for i, _ in rec.recovered] == [2, 3]
    assert any("Y4" in g for g in rec.gaps)


def test_chain_compromise_amplified_session(tmp_path):
    params = SessionParams(1e4, 2.0 ** -30, 40, 1024)
    k0 = np.random.default_rng(16).integers(0, 2, 1024, dtype=np.uint8)
    path = tmp_path / "wire.bin"
    res_a, _ = simulate_session(params, k0, 17, 18, cycles=3, transcript_path=path)
    known = res_a.chain.keys[1].bits
    c = params.constellation
    transcripts = load_transcripts(path, 40)
    rec = chain_compromise(transcripts, 1, known, c, res_a.pa_records)
    assert [i for i, _ in rec.recovered] == [2, 3, 4, 5, 6]
    for idx, bits in rec.recovered:
        assert np.array_equal(bits, res_a.chain.keys[idx].bits)
    # a record asking for more bits than the block holds ends recovery
    records = [PaRecord(r.key_index, r.cycle_index, r.direction, r.pa_seed,
                        2048 if r.key_index == 3 else r.output_bits)
               for r in res_a.pa_records]
    rec = chain_compromise(transcripts, 1, known, c, records)
    assert [i for i, _ in rec.recovered] == [2]
    assert any("K3" in g and "2048" in g for g in rec.gaps)


def test_basis_attack_report_fields():
    report = basis_attack_report(P, C, 5000, seed=1)
    assert report.symbols_observed == 10_000
    assert report.helstrom_floor == pytest.approx(0.08018535523830366, rel=1e-9)
    assert report.basis_guess_error_rate >= report.helstrom_floor - \
        oracles.binom_3sigma(report.helstrom_floor, 5000)
    doc = report.to_json()
    assert "basis_guess_error_rate" in doc


def test_attack_report_json_round_trip():
    import json
    report = AttackReport(symbols_observed=4,
                          recovered_keys=[(1, np.array([1, 0, 1], np.uint8))])
    doc = json.loads(report.to_json())
    assert doc["recovered_keys"] == [{"index": 1, "bits": "101"}]
