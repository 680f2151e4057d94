import math
import struct

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
    read_tape,
    simulate_double_emission,
)
from noisepad.encode import Constellation, quantize, transmit_symbol
from noisepad.errors import ProtocolError
from noisepad.phys import CoherentStateParams, eavesdropper_error, q_gaussian
from noisepad.protocol import (
    ChainKey,
    SessionParams,
    send_block,
    simulate_session,
)
from noisepad.transport import (
    Channel,
    MessageType,
    PeerChannel,
    frame_encode,
    iter_frames,
    pack_keyblock,
    unpack_keyblock,
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


def session_tape(path, n=1024, cycles=3, safety_bits=32):
    """Role A's result and the tape of a fixed-seed session of n-bit keys."""
    params = SessionParams(1e4, 2.0 ** -30, 40, n, safety_bits=safety_bits)
    k0 = np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8)
    res_a, res_b = simulate_session(params, k0, 17, 18, cycles=cycles,
                                    transcript_path=path)
    assert res_a.chain.bits_equal(res_b.chain)
    return res_a, path


def rewrite_tape(path, keep):
    """Keep only the frames for which keep(index, msg_type) holds."""
    frames = list(iter_frames(path.read_bytes()))
    path.write_bytes(b"".join(frame_encode(t, p) for i, (t, p) in enumerate(frames)
                              if keep(i, t)))


def slip_keyblock(monkeypatch, role: str, cycle: int, symbols=(0,)) -> None:
    """Add a pi phase slip to `symbols` of `role`'s KEYBLOCK of `cycle`.

    Role A sends through the PeerChannel, role B through its plain peer end.
    """
    send = Channel.send

    def slipped(self, msg_type, payload=b""):
        if msg_type == MessageType.KEYBLOCK and \
                isinstance(self, PeerChannel) == (role == "A") and \
                struct.unpack_from(">I", payload)[0] == cycle:
            levels = unpack_keyblock(payload, 40)[1]
            for i in symbols:
                levels[i] = (int(levels[i]) + (1 << 39)) % (1 << 40)
            payload = pack_keyblock(cycle, levels, 40)
        send(self, msg_type, payload)

    monkeypatch.setattr(Channel, "send", slipped)


@pytest.mark.parametrize("n, cycles, safety_bits", [
    (160, 10, 40), (1024, 3, 32), (4096, 2, 32)])
def test_chain_compromise_rebuilds_every_key_from_the_tape_alone(
        tmp_path, n, cycles, safety_bits):
    # n = 160 runs out in cycle 2, after its A->B key
    res_a, path = session_tape(tmp_path / "wire.bin", n, cycles, safety_bits)
    keys = res_a.chain.keys
    tape = read_tape(path)
    assert tape.params == SessionParams(1e4, 2.0 ** -30, 40, n,
                                        safety_bits=safety_bits)
    rec = chain_compromise(tape, 0, keys[0].bits)
    assert [i for i, _ in rec.recovered] == list(range(1, len(keys)))
    for idx, bits in rec.recovered:
        assert np.array_equal(bits, keys[idx].bits)
    assert rec.gaps == [f"no block Y{len(keys)} on the tape; chain recovery "
                        f"stops at K{len(keys) - 1}"]
    # -1 must not wrap around to the last block on the tape
    with pytest.raises(ValueError, match="known key index must be >= 0"):
        chain_compromise(tape, -1, keys[0].bits)


@pytest.mark.parametrize("guess", ["random", "one bit off"])
def test_chain_compromise_wrong_guess_ends_at_y2_with_a_gap(tmp_path, guess):
    # Y2 decodes to other bits; the receiver would then send a locate
    # request or an ERROR, and the tape holds neither
    res_a, path = session_tape(tmp_path / "wire.bin")
    wrong = res_a.chain.keys[1].bits.copy()
    if guess == "random":
        wrong = np.random.default_rng(14).integers(0, 2, len(wrong), dtype=np.uint8)
    else:
        wrong[100] ^= 1
    rec = chain_compromise(read_tape(path), 1, wrong)
    assert rec.recovered == []
    assert rec.gaps == [{
        "random": "Y2: sent ERROR 'keys still differ after reconciliation', "
                  "but the tape ends",
        "one bit off": "Y2: sent PARITY_REQ, but the tape ends"}[guess]]


def test_chain_compromise_missing_block_reports_gap(tmp_path):
    # drop Y4's KEYBLOCK and PA_SEED (frames 2 + 2 * 3 and the next)
    res_a, path = session_tape(tmp_path / "wire.bin")
    keys = res_a.chain.keys
    rewrite_tape(path, lambda i, _: i not in (8, 9))
    rec = chain_compromise(read_tape(path), 1, keys[1].bits)
    assert [i for i, _ in rec.recovered] == [2, 3]
    assert rec.gaps == [f"Y4: sent ERROR 'expected {len(keys[3].bits)} symbols, "
                        f"got {len(keys[4].bits)}', but the tape holds PA_SEED"]


def test_chain_compromise_keyblock_without_its_pa_seed_reports_gap(tmp_path):
    res_a, path = session_tape(tmp_path / "wire.bin")
    rewrite_tape(path, lambda i, _: i != 7)          # Y3's PA_SEED
    rec = chain_compromise(read_tape(path), 1, res_a.chain.keys[1].bits)
    assert [i for i, _ in rec.recovered] == [2]
    assert rec.gaps == ["Y3: the tape ends before the next received frame"]


@pytest.mark.parametrize("role, j", [("A", 3), ("B", 4)], ids=["A->B", "B->A"])
def test_chain_compromise_replays_the_syndrome_charge(monkeypatch, tmp_path,
                                                      role, j):
    # a pi slip in Y_j costs a locate request and a 12-bit syndrome; Eve
    # replays both, so every key she rebuilds equals the parties'
    slip_keyblock(monkeypatch, role, 2)
    res_a, path = session_tape(tmp_path / "wire.bin", 4096, 3)
    keys = res_a.chain.keys
    assert res_a.ledger.disclosed_parity_bits == \
        6 + len(keys[j - 1].bits).bit_length()
    types = {t for t, _ in iter_frames(path.read_bytes())}
    assert types == set(MessageType) - {MessageType.ERROR}
    tape = read_tape(path)
    located = [MessageType.PA_SEED, MessageType.PARITY_REQ, MessageType.PARITY_RESP]
    assert [[t for t, _ in b.frames] for b in tape.blocks[:-1]] == [
        located if i == j else [MessageType.PA_SEED] for i in range(1, 6)]
    rec = chain_compromise(tape, 1, keys[1].bits)
    assert [i for i, _ in rec.recovered] == list(range(2, len(keys)))
    for idx, bits in rec.recovered:
        assert np.array_equal(bits, keys[idx].bits)


def test_chain_compromise_block_that_leaves_no_key_reports_gap(monkeypatch,
                                                                tmp_path):
    # a 9-bit syndrome exhausts A's cycle-2 block (both parties stop there)
    slip_keyblock(monkeypatch, "A", 2)
    res_a, path = session_tape(tmp_path / "wire.bin", 909, 10, safety_bits=300)
    keys = res_a.chain.keys
    assert "would leave" in res_a.early_stop and len(keys) == 3
    rec = chain_compromise(read_tape(path), 0, keys[0].bits)
    assert [i for i, _ in rec.recovered] == [1, 2]
    assert all(np.array_equal(bits, keys[i].bits) for i, bits in rec.recovered)
    assert rec.gaps == [f"Y3: {res_a.early_stop}"]


def test_chain_compromise_tape_ending_on_the_receivers_error_reports_gap(
        monkeypatch, tmp_path):
    # two slips in Y3 keep its parity: the digest differs and B sends ERROR
    res_a, _ = session_tape(tmp_path / "clean.bin", 4096, 3)
    slip_keyblock(monkeypatch, "A", 2, symbols=(0, 1))
    with pytest.raises(ProtocolError, match="keys still differ"):
        session_tape(tmp_path / "wire.bin", 4096, 3)
    tape = read_tape(tmp_path / "wire.bin")
    assert tape.blocks[2].frames[-1] == (
        MessageType.ERROR, b"keys still differ after reconciliation")
    rec = chain_compromise(tape, 0, res_a.chain.keys[0].bits)
    assert [i for i, _ in rec.recovered] == [1, 2]
    assert all(np.array_equal(bits, res_a.chain.keys[i].bits)
               for i, bits in rec.recovered)
    assert rec.gaps == ["Y3: keys still differ after reconciliation"]


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
