"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Expected values for closed-form quantities come from the 50-digit Decimal
oracle in oracles.py, evaluated independently of the library code.
"""

import json
import math
import os
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import numpy as np

from noisepad import analysis, attacker, transport
from noisepad.encode import Constellation
from noisepad.phys import CoherentStateParams, PhaseNoiseModel
from noisepad.protocol import (
    ChainKey,
    LeakLedger,
    SessionParams,
    recover_block,
    send_block,
    simulate_session,
)

import oracles

SRC = str(Path(__file__).resolve().parent.parent / "src")


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_formula_fidelity():
    start = time.monotonic()
    p4 = CoherentStateParams(1e4)
    p2 = CoherentStateParams(100)
    from noisepad.phys import eavesdropper_error
    pe = eavesdropper_error(p4, 2.0 ** -6, repetitions=2)
    dh = analysis.entropy_leak(p4, 2.0 ** -6)
    length = analysis.min_leak_length(p2, 2.0 ** -10)
    elapsed = time.monotonic() - start

    pe_oracle = float(oracles.d_eavesdropper_error(10_000, Decimal(2) ** -6))
    dh_oracle = float(oracles.d_entropy_leak(10_000, Decimal(2) ** -6))
    len_oracle = float(oracles.d_min_leak_length(100, Decimal(2) ** -10))

    ok = (abs(pe - pe_oracle) < 1e-6 and abs(dh - dh_oracle) < 1e-6 and
          abs(length - len_oracle) < 0.5 and elapsed < 0.1)
    report(1, ok, f"Pe={pe:.7f} (oracle {pe_oracle:.7f}), "
                  f"dH={dh:.6f} (oracle {dh_oracle:.6f}), "
                  f"L={length:.1f} (oracle {len_oracle:.1f}), {elapsed*1e3:.1f} ms")
    assert abs(pe - pe_oracle) < 1e-6
    assert abs(dh - dh_oracle) < 1e-6
    assert abs(length - len_oracle) < 0.5
    assert elapsed < 0.1


def test_criterion_2_limiting_case():
    worst = max(abs(analysis.entropy_leak(CoherentStateParams(n), 0.0) - 0.5)
                for n in (10.0, 1e3, 1e6))
    ok = worst < 1e-12
    report(2, ok, f"max |dH(dphi=0) - 1/2| = {worst:.3g} over n in {{10, 1e3, 1e6}}")
    assert ok


def test_criterion_3_helstrom_floor_property():
    start = time.monotonic()
    n_bits = 100_000
    ns = [1e2, 1e3, 1e4, 1e5, 1e6]
    exps = [-12, -10, -8, -6, -4]
    failures = []
    for i, n in enumerate(ns):
        params = CoherentStateParams(n)
        for j, exp in enumerate(exps):
            c = Constellation(2.0 ** exp, 24)
            msg, reuse, truth = attacker.simulate_double_emission(
                params, c, n_bits, seed=1000 + 10 * i + j)
            guesses = attacker.eve_ml_basis_guess(msg, reuse, c)
            err = float(np.mean(guesses != truth))
            from noisepad.phys import eavesdropper_error
            floor = eavesdropper_error(params, 2.0 ** exp, repetitions=2)
            lo = floor - oracles.binom_3sigma(floor, n_bits)
            hi = 0.5 + oracles.binom_3sigma(0.5, n_bits)
            if not (err >= lo and err <= hi):
                failures.append((n, exp, err, floor))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    report(3, ok, f"25 grid points x {n_bits} bits, {len(failures)} violations, "
                  f"{elapsed:.1f} s")
    assert not failures, failures
    assert elapsed < 60.0


def test_criterion_4_bit_blindness():
    rng = np.random.default_rng(44)
    n = 10_000
    params = CoherentStateParams(1e4)
    c = Constellation(2.0 ** -10, 16)
    assert analysis.validate_params(params, c.delta_phi).ok
    bits = rng.integers(0, 2, n, dtype=np.uint8)
    basis = rng.integers(0, 2, n, dtype=np.uint8)
    from noisepad.encode import transmit_symbol
    levels = transmit_symbol(bits, basis, c,
                             rng.normal(0.0, params.sigma_phi, n))
    rate = attacker.eve_bit_guess_rate(levels, c, bits, seed=45)
    ok = abs(rate - 0.5) <= 0.015
    report(4, ok, f"blind bit-guess error {rate:.4f} in 0.5 +- 0.015")
    assert ok


def test_criterion_5_legitimate_round_trip_and_cycles():
    start = time.monotonic()
    # single 1e4-bit block at (1e4, 2^-10): zero errors expected
    params10 = SessionParams(1e4, 2.0 ** -10, 16, 10_000)
    rng = np.random.default_rng(55)
    fresh = rng.integers(0, 2, 10_000, dtype=np.uint8)
    basis = rng.integers(0, 2, 10_000, dtype=np.uint8)
    levels = send_block(fresh, ChainKey(0, basis), params10,
                        PhaseNoiseModel(params10.coherent.sigma_phi, 56))
    errors = int(np.sum(recover_block(levels, basis, params10.constellation)
                        != fresh))

    # 100 full cycles (reconciliation + amplification) in the secure regime
    params30 = SessionParams(1e4, 2.0 ** -30, 40, 10_000)
    k0 = rng.integers(0, 2, 10_000, dtype=np.uint8)
    a, b = simulate_session(params30, k0, 57, 58, cycles=100)
    identical = a.chain.bits_equal(b.chain)
    elapsed = time.monotonic() - start
    ok = errors == 0 and identical and len(a.chain.keys) == 201 and elapsed < 10.0
    report(5, ok, f"block errors={errors}, 100 cycles identical={identical}, "
                  f"{elapsed:.1f} s")
    assert errors == 0
    assert identical and len(a.chain.keys) == 201
    assert elapsed < 10.0


def test_criterion_6_known_plaintext_and_chain(tmp_path):
    params = SessionParams(1e4, 2.0 ** -30, 40, 1024)
    k0 = np.random.default_rng(66).integers(0, 2, 1024, dtype=np.uint8)
    tape = tmp_path / "wire.bin"
    res_a, res_b = simulate_session(params, k0, 67, 68, cycles=3,
                                    transcript_path=tape)
    assert res_a.chain.bits_equal(res_b.chain)
    k1 = res_a.chain.keys[1].bits
    plain = np.random.default_rng(69).integers(0, 2, len(k1), dtype=np.uint8)
    cipher = np.bitwise_xor(plain, k1)
    kpa = attacker.known_plaintext_attack(cipher, plain)
    kpa_exact = bool(np.array_equal(kpa, k1))

    rec = attacker.chain_compromise(attacker.read_tape(tape), 1, kpa)
    wanted = [2, 3, 4, 5]
    chain_exact = (
        [i for i, _ in rec.recovered][:4] == wanted and
        all(np.array_equal(bits, res_a.chain.keys[i].bits)
            for i, bits in rec.recovered if i in wanted))
    ok = kpa_exact and chain_exact
    report(6, ok, f"K1 via Y xor X exact={kpa_exact}, "
                  f"K2..K5 from the tape exact={chain_exact}")
    assert kpa_exact
    assert chain_exact


def test_criterion_7_boost_claim():
    params = SessionParams(1e4, 2.0 ** -30, 40, 256)
    per_symbol = params.per_symbol_leak
    k0 = np.random.default_rng(77).integers(0, 2, 256, dtype=np.uint8)
    noise_a = PhaseNoiseModel(params.coherent.sigma_phi, 78)
    fresh_rng = np.random.default_rng(79)
    ledger = LeakLedger()
    tip = k0
    delivered = 0
    symbols = 0
    blocks = 0
    while symbols < 256_000:
        fresh = fresh_rng.integers(0, 2, 256, dtype=np.uint8)
        levels = send_block(fresh, ChainKey(blocks, tip), params, noise_a)
        recovered = recover_block(levels, tip, params.constellation)
        assert np.array_equal(recovered, fresh)     # chain must stay exact
        ledger.add_symbols(len(fresh), per_symbol)
        delivered += len(fresh)
        symbols += len(fresh)
        tip = recovered
        blocks += 1
    factor = delivered / len(k0)
    boost_estimate = analysis.boost_factor(params.coherent,
                                           params.constellation, 256, 0)

    # figure surfaces: monotone in <n>, limiting column exactly 1/2 (inf for L)
    ns = [1e2, 1e3, 1e4, 1e5, 1e6]
    exps = [-30, -24, -18, -12, -6, float("-inf")]
    dh_rows = analysis.parse_surface(analysis.emit_surface(ns, exps, "delta_h"))
    length_rows = analysis.parse_surface(
        analysis.emit_surface(ns, exps, "leak_length"))
    by_exp = {}
    for n, exp, v in dh_rows:
        by_exp.setdefault(exp, []).append(v)
    monotone = all(all(a <= b for a, b in zip(vs, vs[1:]))
                   for exp, vs in by_exp.items() if exp != float("-inf"))
    limiting = (all(v == 0.5 for _, e, v in dh_rows if e == float("-inf")) and
                all(v == math.inf for _, e, v in length_rows
                    if e == float("-inf")))
    spot = next(v for n, e, v in dh_rows if n == 1e4 and e == -6)
    spot_ok = abs(spot - float(oracles.d_entropy_leak(10_000, Decimal(2) ** -6))) < 1e-6

    ok = (ledger.total < 0.01 and factor >= 1e3 and boost_estimate >= 1e3 and
          monotone and limiting and spot_ok)
    report(7, ok, f"ledger={ledger.total:.5f} bits over {symbols} symbols, "
                  f"delivered/K0={factor:.0f}, boost_factor={boost_estimate:.0f}, "
                  f"surfaces monotone={monotone}")
    assert ledger.total < 0.01
    assert factor >= 1e3
    assert boost_estimate >= 1e3
    assert monotone and limiting and spot_ok


def _run_pair(tmp_path: Path, stem: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    ts_server = tmp_path / f"{stem}_server.bin"
    ts_client = tmp_path / f"{stem}_client.bin"
    server = subprocess.Popen(
        [sys.executable, "-m", "noisepad", "serve", "--listen", "127.0.0.1:0",
         "--once", "--seed", "100", "--k0-seed", "9", "--k0-bits", "1024",
         "--transcript-out", str(ts_server)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    port = json.loads(server.stdout.readline())["listening"]["port"]
    client = subprocess.run(
        [sys.executable, "-m", "noisepad", "connect",
         "--addr", f"127.0.0.1:{port}", "--seed", "200", "--k0-seed", "9",
         "--k0-bits", "1024", "--cycles", "3",
         "--transcript-out", str(ts_client)],
        capture_output=True, text=True, timeout=120, env=env)
    out, _ = server.communicate(timeout=120)
    assert client.returncode == 0 and server.returncode == 0
    return (json.loads(client.stdout), json.loads(out),
            ts_client.read_bytes(), ts_server.read_bytes())


def test_criterion_8_wire_determinism(tmp_path):
    client1, server1, wire_c1, wire_s1 = _run_pair(tmp_path, "run1")
    client2, server2, wire_c2, wire_s2 = _run_pair(tmp_path, "run2")
    tags_match = (client1["confirm_tag"] == server1["confirm_tag"] != "" and
                  client2["confirm_tag"] == server2["confirm_tag"])
    deterministic = (wire_c1 == wire_c2 == wire_s1 == wire_s2 and
                     len(wire_c1) > 0)

    rng = np.random.default_rng(88)
    types = list(transport.MessageType)
    frames_ok = True
    for _ in range(1000):
        msg_type = types[int(rng.integers(0, len(types)))]
        payload = rng.integers(0, 256, int(rng.integers(0, 300)),
                               dtype=np.uint8).tobytes()
        if transport.frame_decode(
                transport.frame_encode(msg_type, payload)) != (msg_type, payload):
            frames_ok = False
    ok = tags_match and deterministic and frames_ok
    report(8, ok, f"CONFIRM tags match={tags_match}, byte-identical "
                  f"transcripts={deterministic}, 1000 frame round-trips "
                  f"ok={frames_ok}")
    assert tags_match
    assert deterministic
    assert frames_ok
