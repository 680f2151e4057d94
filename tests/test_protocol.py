import hashlib
import math
import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisepad import analysis
from noisepad.encode import quantize
from noisepad.errors import (
    KeyExhaustedError,
    OneTimeViolationError,
    ProtocolError,
    ReconciliationError,
)
from noisepad.phys import PhaseNoiseModel
from noisepad.protocol import (
    _BULK_REQ,
    _PROBE_REQ,
    _SUB_BULK,
    _SUB_PROBE,
    _SUB_VERIFY,
    A_TO_B,
    B_TO_A,
    BlockTranscript,
    ChainKey,
    KeyChain,
    LeakLedger,
    PartyState,
    SessionParams,
    _modified_toeplitz,
    authenticate_tag,
    pa_output_length,
    privacy_amplify,
    recover_block,
    reconcile_receiver,
    reconcile_receiver_core,
    reconcile_sender_core,
    run_cycle,
    run_session,
    send_block,
    session_core,
    simulate_session,
    tag_bytes,
)
from noisepad.transport import (
    RECV,
    Channel,
    MessageType,
    PeerChannel,
    SocketChannel,
    drive,
    handshake,
    pack_keyblock,
)

import oracles

PARAMS = SessionParams(1e4, 2.0 ** -30, resolution_bits=40, block_length=1024)


def bits(rng, n):
    return rng.integers(0, 2, n, dtype=np.uint8)


def noise_model(params, seed=0):
    return PhaseNoiseModel(params.coherent.sigma_phi, seed)


def logging_probes(core, probes: list):
    """The core, logging the (pass, lo, half) of every parity probe it receives."""
    frame = None
    while True:
        try:
            step = core.send(frame)
        except StopIteration as done:
            return done.value
        frame = yield step
        if step is RECV and frame[1][:1] == bytes([_SUB_PROBE]):
            probes.append(_PROBE_REQ.unpack(frame[1])[1:])


def run_both(receiver_bits, sender_bits):
    """Drive both reconciliation roles on this thread; the sender is a peer core.

    Returns (receiver's bits or None, receiver ledger, sender ledger, errors
    by side, probes the sender answered).
    """
    led_r, led_s = LeakLedger(), LeakLedger()
    probes = []
    channel = PeerChannel(
        logging_probes(reconcile_sender_core(sender_bits, led_s), probes))
    out = None
    errs = {}
    try:
        out = reconcile_receiver(receiver_bits, channel, led_r)
    except Exception as exc:  # noqa: BLE001
        errs["r"] = exc
    if channel.error is not None:
        errs["s"] = channel.error
    return out, led_r, led_s, errs, probes


# ---------------------------------------------------------------------------
# SessionParams
# ---------------------------------------------------------------------------

def test_session_params_validation():
    with pytest.raises(ValueError):
        SessionParams(2.0, 2.0 ** -30, 40, 1024)       # pi/2 >> sigma fails
    with pytest.raises(ValueError):
        SessionParams(1e4, 2.0 ** -3, 40, 1024)        # sigma >> dphi fails
    with pytest.raises(ValueError):
        SessionParams(1e4, 2.0 ** -30, 16, 1024)       # grid cannot resolve
    with pytest.raises(ValueError):
        SessionParams(1e4, 2.0 ** -30, 40, 7)          # block shorter than 8
    p = SessionParams(1e4, 2.0 ** -30, 40, 1024)
    assert p.reconciliation_block == 1024               # always the whole key
    assert p.per_symbol_leak == analysis.entropy_leak(p.coherent, p.delta_phi) - 0.5


def test_session_params_from_hello_round_trip():
    for p in (PARAMS,
              SessionParams(1e4, 2.0 ** -10, 16, 8, safety_bits=0),
              SessionParams(1e6, 2.0 ** -20, 32, 1 << 18, safety_bits=64)):
        assert SessionParams.from_hello(p.hello(p.block_length)) == p


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------

def test_send_block_single_symbol():
    params = SessionParams(1e4, 2.0 ** -10, 16, 1024)
    key = ChainKey(0, np.array([0], dtype=np.uint8))

    class Silent:
        def sample(self, n):
            return np.zeros(n)

    t = send_block([0], key, params, Silent())
    assert t.symbols.tolist() == [quantize(0.0, 16)]
    assert key.used_as_basis


def test_send_block_set_algebra():
    rng = np.random.default_rng(1)
    n = 10_000
    fresh, basis = bits(rng, n), bits(rng, n)
    key = ChainKey(0, basis)
    p = SessionParams(1e4, 2.0 ** -10, 16, n)
    t = send_block(fresh, key, p, noise_model(p, 1), cycle_index=3)
    from noisepad.encode import classify_set
    sets = np.asarray(classify_set(t.symbols, p.constellation))
    assert np.array_equal(sets, np.bitwise_xor(fresh, basis))
    assert t.cycle_index == 3 and t.direction == A_TO_B


def test_send_block_contract_errors():
    rng = np.random.default_rng(2)
    key = ChainKey(0, bits(rng, 1024))
    with pytest.raises(ProtocolError):
        send_block(bits(rng, 100), key, PARAMS, noise_model(PARAMS))
    send_block(bits(rng, 1024), key, PARAMS, noise_model(PARAMS))
    with pytest.raises(OneTimeViolationError):
        send_block(bits(rng, 1024), key, PARAMS, noise_model(PARAMS))


def test_recover_block_round_trip():
    rng = np.random.default_rng(3)
    n = 10_000
    p = SessionParams(1e4, 2.0 ** -10, 16, n)
    fresh, basis = bits(rng, n), bits(rng, n)
    t = send_block(fresh, ChainKey(0, basis), p, noise_model(p, 9))
    assert np.array_equal(recover_block(t, basis, p.constellation), fresh)
    with pytest.raises(ProtocolError):
        recover_block(t, basis[:10], p.constellation)


def test_recover_block_wrong_key_statistics():
    rng = np.random.default_rng(4)
    n = 10_000
    p = SessionParams(1e4, 2.0 ** -10, 16, n)
    fresh, basis = bits(rng, n), bits(rng, n)
    t = send_block(fresh, ChainKey(0, basis), p, noise_model(p, 10))
    # complemented key: decode flips every bit
    assert np.array_equal(recover_block(t, 1 - basis, p.constellation), 1 - fresh)
    # unrelated key: agreement indistinguishable from a coin flip
    other = bits(np.random.default_rng(5), n)
    agree = float(np.mean(recover_block(t, other, p.constellation) == fresh))
    assert abs(agree - 0.5) < oracles.binom_3sigma(0.5, n)


# ---------------------------------------------------------------------------
# KeyChain / LeakLedger
# ---------------------------------------------------------------------------

def test_keychain_discipline():
    chain = KeyChain(np.ones(16, dtype=np.uint8))
    k0 = chain.tip
    assert k0.status == "basis-available"
    chain.use_as_basis(k0)
    assert k0.status == "consumed"
    with pytest.raises(OneTimeViolationError):
        chain.use_as_basis(k0)
    k1 = chain.append(np.zeros(12, dtype=np.uint8))
    assert chain.tip is k1 and k1.index == 1
    assert chain.total_delivered() == 12


def test_ledger_accounting():
    led = LeakLedger()
    led.add_symbols(1000, 2e-8)
    led.add_parities(3)
    assert led.total == pytest.approx(3.0 + 2e-5)
    other = LeakLedger(1e-6, 2)
    led.merge(other)
    assert led.disclosed_parity_bits == 5
    assert led.statistical_leak == pytest.approx(2e-5 + 1e-6)


# ---------------------------------------------------------------------------
# Reconciliation
# ---------------------------------------------------------------------------

def test_reconcile_identical_inputs_parity_count():
    rng = np.random.default_rng(21)
    data = bits(rng, 1024)
    out, led_r, led_s, errs, probes = run_both(data.copy(), data)
    assert not errs
    assert np.array_equal(out, data)
    # one whole-key parity per pass, no probe
    assert probes == []
    assert led_r.disclosed_parity_bits == led_s.disclosed_parity_bits == 2


def test_reconcile_single_error_bisection_cost():
    rng = np.random.default_rng(22)
    reference = bits(rng, 1024)
    corrupted = reference.copy()
    corrupted[500] ^= 1
    out, led_r, led_s, errs, probes = run_both(corrupted, reference)
    assert not errs
    assert np.array_equal(out, reference)
    # pass 0 bisects the whole key in log2(1024) = 10 probes; pass 1 matches
    assert [pass_id for pass_id, _, _ in probes] == [0] * 10
    assert led_r.disclosed_parity_bits == led_s.disclosed_parity_bits == 2 + 10


def test_reconcile_scattered_errors():
    # three errors: pass 0 corrects one, the other two hide from both
    # parities, and the digest check ends the dialogue on both sides
    rng = np.random.default_rng(23)
    reference = bits(rng, 2048)
    corrupted = reference.copy()
    for i in (17, 300, 1999):
        corrupted[i] ^= 1
    out, _, _, errs, _ = run_both(corrupted, reference)
    assert out is None
    assert isinstance(errs.get("r"), ReconciliationError)
    assert isinstance(errs.get("s"), ReconciliationError)


def test_reconcile_residual_mismatch_detected():
    # two errors stay parity-invisible in both passes; the digest check
    # must catch them
    rng = np.random.default_rng(24)
    reference = bits(rng, 64)
    corrupted = reference.copy()
    corrupted[3] ^= 1
    corrupted[40] ^= 1
    out, _, _, errs, probes = run_both(corrupted, reference)
    assert out is None and probes == []
    assert isinstance(errs.get("r"), ReconciliationError)
    assert isinstance(errs.get("s"), ReconciliationError)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_whole_key_reconciliation_property(data):
    n = data.draw(st.integers(8, 4096), label="n")
    errors = data.draw(st.sets(st.sampled_from([0, n - 1]) | st.integers(0, n - 1),
                               max_size=3), label="errors")
    reference = bits(np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                                     label="key seed")), n)
    corrupted = reference.copy()
    corrupted[sorted(errors)] ^= 1
    out, led_r, led_s, errs, probes = run_both(corrupted, reference)
    if len(errors) <= 1:
        assert not errs
        assert np.array_equal(out, reference)
        assert led_r.disclosed_parity_bits == led_s.disclosed_parity_bits == \
            2 + len(probes)
        assert len(probes) <= math.ceil(math.log2(n))
    else:
        # unequal keys are never returned
        assert out is None
        assert isinstance(errs.get("r"), ReconciliationError)
        assert isinstance(errs.get("s"), ReconciliationError)


def test_probe_of_pass_1_is_answered_in_key_order():
    rng = np.random.default_rng(26)
    key = bits(rng, 1024)
    probes = [(0, 512), (100, 7), (1000, 24), (3, 1)]

    def prober():
        answers = []
        for lo, half in probes:
            yield MessageType.PARITY_REQ, _PROBE_REQ.pack(_SUB_PROBE, 1, lo, half)
            _, resp = yield RECV
            answers.append(resp[0])
        digest = hashlib.sha256(np.packbits(key).tobytes()).digest()
        yield MessageType.PARITY_REQ, bytes([_SUB_VERIFY]) + digest
        yield RECV
        return answers

    channel = PeerChannel(prober())
    drive(reconcile_sender_core(key, LeakLedger()), channel)
    assert channel.result == [int(key[lo:lo + half].sum()) & 1
                              for lo, half in probes]


# ---------------------------------------------------------------------------
# Privacy amplification
# ---------------------------------------------------------------------------

def test_privacy_amplify_lengths():
    rng = np.random.default_rng(31)
    data = bits(rng, 1024)
    # no charge, no safety: identity
    assert pa_output_length(1024, LeakLedger(), 0) == 1024
    assert np.array_equal(privacy_amplify(data, 1024, 5), data)
    led = LeakLedger(statistical_leak=0.2, disclosed_parity_bits=10)
    m = pa_output_length(1024, led, 32)
    assert m == 1024 - 11 - 32
    assert len(privacy_amplify(data, m, 5)) == m
    with pytest.raises(KeyExhaustedError):
        pa_output_length(40, led, 32)
    for bad in (0, 1025):
        with pytest.raises(ValueError):
            privacy_amplify(data, bad, 5)


def _dense_check(n, k, seed, data_seed):
    data = bits(np.random.default_rng(data_seed), n)
    m = n - k
    out = privacy_amplify(data, m, seed)
    seed_bits = np.random.default_rng(seed).integers(0, 2, n - 1,
                                                     dtype=np.uint8)
    assert np.array_equal(out, oracles.dense_modified_toeplitz(seed_bits, data, m))


def test_privacy_amplify_matches_dense_toeplitz():
    _dense_check(200, 30, 77, 32)


def test_privacy_amplify_many_shifts_matches_dense():
    _dense_check(4000, 100, 13, 33)


def test_modified_toeplitz_is_universal2():
    # n = 8, m = 5: over all 2^7 seeds, each nonzero difference collides
    # for exactly 2^(7-5) seeds unless it lies in the identity part alone,
    # where it never does.  Collision probability 2^-m, no weaker.
    n, m = 8, 5
    seeds = [np.array([(s >> i) & 1 for i in range(n - 1)], dtype=np.uint8)
             for s in range(2 ** (n - 1))]
    for d in range(1, 2 ** n):
        delta = np.array([(d >> i) & 1 for i in range(n)], dtype=np.uint8)
        zeros = sum(not _modified_toeplitz(s, delta, m).any() for s in seeds)
        assert zeros == (0 if not delta[m:].any() else 2 ** (n - 1 - m))


def test_privacy_amplify_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(34)
    data = bits(rng, 512)
    a = privacy_amplify(data, 500, 99)
    b = privacy_amplify(data, 500, 99)
    c = privacy_amplify(data, 500, 100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_privacy_amplify_monobit():
    rng = np.random.default_rng(35)
    collected = []
    for seed in range(13):
        data = bits(rng, 8192)
        collected.append(privacy_amplify(data, 8190, seed))
    out = np.concatenate(collected)
    assert len(out) >= 100_000
    ones = float(np.mean(out))
    assert abs(ones - 0.5) < oracles.binom_3sigma(0.5, len(out))


# ---------------------------------------------------------------------------
# Authentication
# ---------------------------------------------------------------------------

def test_authenticate_tag_agreement_and_consumption():
    rng = np.random.default_rng(41)
    material = bits(rng, 300)
    k_a = ChainKey(1, material.copy())
    k_b = ChainKey(1, material.copy())
    tag_a = authenticate_tag(k_a, b"session summary")
    tag_b = authenticate_tag(k_b, b"session summary")
    assert tag_a == tag_b and len(tag_a) == 32
    assert k_a.tag_bits_used == 256
    with pytest.raises(KeyExhaustedError):
        authenticate_tag(k_a, b"more")           # only 44 bits left


def test_authenticate_tag_avalanche():
    rng = np.random.default_rng(42)
    key = bits(rng, 256)
    base = bytearray(rng.integers(0, 256, 64, dtype=np.uint8).tobytes())
    reference = tag_bytes(key, bytes(base))
    for _ in range(1000):
        flipped = bytearray(base)
        pos = int(rng.integers(0, len(base) * 8))
        flipped[pos // 8] ^= 1 << (pos % 8)
        assert tag_bytes(key, bytes(flipped)) != reference


# ---------------------------------------------------------------------------
# Cycles
# ---------------------------------------------------------------------------

def fresh_pair(params=PARAMS, k0_bits=1024, seed_a=1, seed_b=2, k0_seed=7):
    k0 = np.random.default_rng(k0_seed).integers(0, 2, k0_bits, dtype=np.uint8)
    return (PartyState.create("A", params, k0, seed_a),
            PartyState.create("B", params, k0, seed_b))


def test_run_cycle_agreement():
    a, b = fresh_pair()
    k1, k2 = run_cycle(a, b)
    assert a.chain.bits_equal(b.chain)
    assert len(a.chain.keys) == 3
    # shrink = ceil(2 parities + statistical) + safety
    assert len(k1) == 1024 - 3 - 32
    assert len(k2) == len(k1) - 35


def test_run_cycle_ledger_matches_analysis():
    a, b = fresh_pair()
    cycles = 5
    symbols = 0
    n = 1024
    for _ in range(cycles):
        run_cycle(a, b)
        symbols += 2 * n
        n -= 2 * 35
    per = PARAMS.per_symbol_leak
    # sum of per-block contributions; identical accumulation order on B
    assert a.ledger.statistical_leak == b.ledger.statistical_leak
    total_symbols = sum(len(k.bits) for k in a.chain.keys[:-1])
    assert a.ledger.statistical_leak == pytest.approx(total_symbols * per, rel=1e-12)
    assert a.ledger.disclosed_parity_bits == 4 * cycles


def test_run_cycle_shrinkage_invariant():
    params = SessionParams(1e4, 2.0 ** -30, 40, 2048)
    a, b = fresh_pair(params, k0_bits=2048)
    for _ in range(4):
        run_cycle(a, b)
    sizes = [len(k.bits) for k in a.chain.keys]
    assert all(s1 - s2 == 35 for s1, s2 in zip(sizes, sizes[1:]))
    assert all(len(k.bits) <= len(prev.bits)
               for prev, k in zip(a.chain.keys, a.chain.keys[1:]))


def test_run_cycle_exhaustion():
    params = SessionParams(1e4, 2.0 ** -30, 40, 128, safety_bits=60)
    a, b = fresh_pair(params, k0_bits=128)
    run_cycle(a, b)                 # 128 -> 65 -> 2
    with pytest.raises(KeyExhaustedError):
        run_cycle(a, b)             # 2 - 63 <= 0 exhausts mid-cycle
    with pytest.raises(KeyExhaustedError):
        run_cycle(a, b)             # chain tip already consumed


def test_run_cycle_param_mismatch():
    a, _ = fresh_pair()
    other = SessionParams(1e4, 2.0 ** -28, 40, 1024)
    _, b = fresh_pair(other)
    with pytest.raises(ValueError):
        run_cycle(a, b)


def test_hundred_cycles_desk_scale():
    params = SessionParams(1e4, 2.0 ** -30, 40, 8192)
    a, b = fresh_pair(params, k0_bits=8192)
    for _ in range(100):
        run_cycle(a, b)
    assert a.chain.bits_equal(b.chain)
    assert len(a.chain.keys) == 201
    assert len(a.chain.tip.bits) == 8192 - 200 * 35


# ---------------------------------------------------------------------------
# Full session in process
# ---------------------------------------------------------------------------

def test_simulate_session_round_trip(tmp_path):
    params = SessionParams(1e4, 2.0 ** -30, 40, 1024)
    k0 = np.random.default_rng(70).integers(0, 2, 1024, dtype=np.uint8)
    path = tmp_path / "transcript.bin"
    res_a, res_b = simulate_session(params, k0, 5, 6, cycles=4,
                                    transcript_path=path,
                                    keep_transcripts=True)
    assert res_a.chain.bits_equal(res_b.chain)
    assert res_a.confirm_tag == res_b.confirm_tag and res_a.confirm_tag
    assert res_a.cycles_completed == 4
    assert [tuple(d) for d in res_a.delivered] == [tuple(d) for d in res_b.delivered]
    assert len(res_a.transcripts) == 8
    assert [t.direction for t in res_a.transcripts] == [A_TO_B, B_TO_A] * 4
    assert path.stat().st_size > 0
    # per-record public data lines up with chain indices 1..8
    assert [r.key_index for r in res_a.pa_records] == list(range(1, 9))


def test_simulate_session_early_stop_on_exhaustion():
    params = SessionParams(1e4, 2.0 ** -30, 40, 160, safety_bits=70)
    k0 = np.random.default_rng(71).integers(0, 2, 160, dtype=np.uint8)
    res_a, res_b = simulate_session(params, k0, 1, 2, cycles=10)
    assert res_a.early_stop is not None
    assert res_b.early_stop is not None
    assert res_a.cycles_completed < 10
    assert res_a.chain.bits_equal(res_b.chain)
    assert res_a.confirm_tag == res_b.confirm_tag


def test_simulate_session_progress_records():
    params = SessionParams(1e4, 2.0 ** -30, 40, 512)
    k0 = np.random.default_rng(72).integers(0, 2, 512, dtype=np.uint8)
    records = []
    simulate_session(params, k0, 3, 4, cycles=3, progress=records.append)
    assert [r["cycle"] for r in records] == [1, 2, 3]
    assert all(r["ledger_total"] >= 0 for r in records)
    assert records[-1]["disclosed_parity_bits"] == 12


def test_simulate_session_starts_no_thread():
    params = SessionParams(1e4, 2.0 ** -30, 40, 256)
    k0 = np.random.default_rng(73).integers(0, 2, 256, dtype=np.uint8)
    before = threading.active_count()
    seen = []
    simulate_session(params, k0, 3, 4, cycles=2,
                     progress=lambda rec: seen.append(threading.active_count()))
    assert seen == [before, before]


def _record_frames(monkeypatch) -> list:
    """Log (channel, way, msg_type, payload) for every frame any channel moves."""
    log = []
    send, recv = Channel.send, Channel.recv

    def logged_send(self, msg_type, payload=b""):
        log.append((self, "sent", int(msg_type), payload))
        send(self, msg_type, payload)

    def logged_recv(self, timeout=None):
        msg_type, payload = recv(self, timeout)
        log.append((self, "received", int(msg_type), payload))
        return msg_type, payload

    monkeypatch.setattr(Channel, "send", logged_send)
    monkeypatch.setattr(Channel, "recv", logged_recv)
    return log


def _role_a_frames(log: list) -> list:
    role_a = next(ch for ch, way, msg_type, _ in log
                  if way == "sent" and msg_type == MessageType.HELLO)
    return [entry[1:] for entry in log if entry[0] is role_a]


def test_role_a_frames_equal_in_process_and_over_a_socketpair(monkeypatch):
    log = _record_frames(monkeypatch)
    params = SessionParams(1e4, 2.0 ** -30, 40, 512)
    k0 = np.random.default_rng(74).integers(0, 2, 512, dtype=np.uint8)
    res_a, _ = simulate_session(params, k0, 11, 12, cycles=3)
    in_process = _role_a_frames(log)
    log.clear()

    sock_a, sock_b = socket.socketpair()
    ch_a, ch_b = SocketChannel(sock_a), SocketChannel(sock_b)

    def role_b():
        handshake(ch_b, "B", expected_block_length=len(k0))
        run_session(ch_b, PartyState.create("B", params, k0, 12))

    peer = threading.Thread(target=role_b, daemon=True)
    peer.start()
    try:
        handshake(ch_a, "A", params.hello(len(k0)))
        over_socket = run_session(ch_a, PartyState.create("A", params, k0, 11),
                                  cycles=3)
    finally:
        peer.join(timeout=30)
        ch_a.close()
        ch_b.close()
    assert not peer.is_alive()
    assert over_socket.chain.bits_equal(res_a.chain)
    frames = _role_a_frames(log)
    assert len(frames) == 2 + 3 * 16 + 2
    assert frames == in_process


SMALL = SessionParams(1e4, 2.0 ** -30, 40, 64)
K0_SMALL = np.random.default_rng(75).integers(0, 2, 64, dtype=np.uint8)
REQ, RESP = MessageType.PARITY_REQ, MessageType.PARITY_RESP
KEYBLOCK = pack_keyblock(1, np.zeros(64, dtype=np.uint64), 40)


def _sender():
    return reconcile_sender_core(K0_SMALL, LeakLedger())


def _receiver():
    return reconcile_receiver_core(K0_SMALL, LeakLedger())


def _responder():
    return session_core(PartyState.create("B", SMALL, K0_SMALL, 1))


HOSTILE_FRAMES = {
    "empty parity request": (_sender, [(REQ, b"")]),
    "probe of pass 9": (_sender, [(REQ, _PROBE_REQ.pack(_SUB_PROBE, 9, 0, 1))]),
    "probe past the key": (_sender, [(REQ, _PROBE_REQ.pack(_SUB_PROBE, 0, 60, 8))]),
    "short probe": (_sender, [(REQ, bytes([_SUB_PROBE, 0]))]),
    "2-byte bulk request": (_sender, [(REQ, bytes([_SUB_BULK, 0]))]),
    "bulk request of pass 9": (_sender, [(REQ, _BULK_REQ.pack(_SUB_BULK, 9, 1) + b"\x00")]),
    "bulk request without parities": (_sender, [(REQ, _BULK_REQ.pack(_SUB_BULK, 0, 1))]),
    "bulk request of 2 blocks": (_sender, [(REQ, _BULK_REQ.pack(_SUB_BULK, 0, 2) + b"\x00")]),
    "empty bulk reply": (_receiver, [(RESP, b"")]),
    "empty probe reply": (_receiver, [(RESP, b"\x80"), (RESP, b"")]),
    "probe reply of 2": (_receiver, [(RESP, b"\x80"), (RESP, b"\x02")]),
    "KEYBLOCK shorter than its cycle index": (_responder, [(MessageType.KEYBLOCK, b"\x00\x00")]),
    "ragged KEYBLOCK levels": (_responder, [(MessageType.KEYBLOCK, KEYBLOCK[:-1])]),
    "short PA_SEED": (_responder, [(MessageType.KEYBLOCK, KEYBLOCK),
                                   (MessageType.PA_SEED, b"\x00" * 5)]),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_FRAMES))
def test_hostile_peer_frames_raise_protocol_error(case):
    make_core, frames = HOSTILE_FRAMES[case]
    # a peer core that sends its frames, then stops
    channel = PeerChannel(frame for frame in frames)
    with pytest.raises(ProtocolError):
        drive(make_core(), channel)
