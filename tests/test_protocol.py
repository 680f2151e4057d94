import socket
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisepad import analysis, protocol, transport
from noisepad.attacker import chain_compromise, read_tape
from noisepad.encode import quantize, transmit_symbol
from noisepad.errors import (
    KeyExhaustedError,
    OneTimeViolationError,
    ProtocolError,
    ReconciliationError,
)
from noisepad.phys import PhaseNoiseModel
from noisepad.protocol import (
    _PA_SEED,
    _SUB_PROBE,
    _check,
    _receiver_core,
    _sender_core,
    A_TO_B,
    B_TO_A,
    ChainKey,
    KeyChain,
    LeakLedger,
    PartyState,
    TAG_BITS,
    SessionParams,
    _modified_toeplitz,
    amplify_block,
    authenticate_tag,
    pa_seed_bytes,
    privacy_amplify,
    recover_block,
    reconcile_receiver,
    reconcile_sender,
    run_session,
    send_block,
    session_core,
    simulate_session,
    tag_bytes,
    turn,
)
from noisepad.transport import (
    RECV,
    Channel,
    MessageType,
    PeerChannel,
    SocketChannel,
    drive,
    handshake,
    iter_frames,
    keyblock_payload,
    pack_keyblock,
    recv_keyblock,
    unpack_keyblock,
)

import oracles

PARAMS = SessionParams(1e4, 2.0 ** -30, resolution_bits=40, block_length=1024)


def bits(rng, n):
    return rng.integers(0, 2, n, dtype=np.uint8)


def noise_model(params, seed=0):
    return PhaseNoiseModel(params.coherent.sigma_phi, seed)


def logging_probes(core, probes: list):
    """The core, logging the payload of every locate request it receives."""
    frame = None
    while True:
        try:
            step = core.send(frame)
        except StopIteration as done:
            return done.value
        frame = yield step
        if step is RECV and frame[1][:1] == bytes([_SUB_PROBE]):
            probes.append(frame[1])


def run_both(receiver_bits, sender_bits):
    """Drive both reconciliation roles on this thread; the sender is a peer core.

    The receiver gets the sender's check as PA_SEED would carry it.  Returns
    (receiver's bits or None, the block's charge on the receiver's side and
    on the sender's, errors by side, locate requests the sender received).
    A side's charge is block_charge of whether it saw a located error.
    """
    probes = []
    channel = PeerChannel(logging_probes(_sender_core(sender_bits), probes))
    out = led_r = led_s = None
    errs = {}
    try:
        out, located = reconcile_receiver(receiver_bits, channel,
                                          _check(sender_bits))
        led_r = PARAMS.block_charge(len(out), located)
        channel.send(MessageType.CONFIRM)   # the frame that ends the sender's half
    except Exception as exc:  # noqa: BLE001
        errs["r"] = exc
    if channel.error is not None:
        errs["s"] = channel.error
    elif channel.result is not None:
        located, _ = channel.result
        led_s = PARAMS.block_charge(len(sender_bits), located)
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
    with pytest.raises(ValueError, match="safety_bits"):
        SessionParams(1e4, 2.0 ** -30, 40, 1024, 1 << 16)   # HELLO carries 16 bits
    p = SessionParams(1e4, 2.0 ** -30, 40, 1024)
    assert p.reconciliation_block == 1024               # always the whole key
    assert p.per_symbol_leak == analysis.entropy_leak(p.coherent, p.delta_phi) - 0.5


def test_session_params_from_hello_round_trip():
    for p in (PARAMS,
              SessionParams(1e4, 2.0 ** -10, 16, 8, safety_bits=0),
              SessionParams(1e6, 2.0 ** -20, 32, 1 << 18, safety_bits=64),
              SessionParams(1e4, 2.0 ** -30, 40, 1024, safety_bits=0xFFFF)):
        assert SessionParams.from_hello(p.hello()) == p


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------

def test_send_block_single_symbol():
    params = SessionParams(1e4, 2.0 ** -10, 16, 1024)
    key = ChainKey(0, np.array([0], dtype=np.uint8))
    payload = send_block([0], key, params, np.zeros(1), keyblock_payload(0, 1, 16))
    assert unpack_keyblock(payload, 16)[1].tolist() == [quantize(0.0, 16)]
    assert key.used_as_basis


def test_send_block_set_algebra():
    rng = np.random.default_rng(1)
    n = 10_000
    fresh, basis = bits(rng, n), bits(rng, n)
    key = ChainKey(0, basis)
    p = SessionParams(1e4, 2.0 ** -10, 16, n)
    payload = send_block(fresh, key, p, noise_model(p, 1).sample(n),
                         keyblock_payload(0, n, 16))
    from noisepad.encode import classify_set
    sets = np.asarray(classify_set(unpack_keyblock(payload, 16)[1], p.constellation))
    assert np.array_equal(sets, np.bitwise_xor(fresh, basis))


def test_send_block_contract_errors():
    rng = np.random.default_rng(2)
    key, noise = ChainKey(0, bits(rng, 1024)), np.zeros(1024)
    with pytest.raises(ProtocolError):
        send_block(bits(rng, 100), key, PARAMS, noise, keyblock_payload(1, 100, 40))
    send_block(bits(rng, 1024), key, PARAMS, noise, keyblock_payload(1, 1024, 40))
    with pytest.raises(OneTimeViolationError):
        send_block(bits(rng, 1024), key, PARAMS, noise, keyblock_payload(1, 1024, 40))


def test_recover_block_round_trip():
    rng = np.random.default_rng(3)
    n = 10_000
    p = SessionParams(1e4, 2.0 ** -10, 16, n)
    fresh, basis = bits(rng, n), bits(rng, n)
    levels = memoryview(send_block(fresh, ChainKey(0, basis), p, noise_model(p, 9).sample(n),
                                   keyblock_payload(0, n, 16)))[4:]
    assert np.array_equal(recover_block(levels, basis, p.constellation), fresh)
    with pytest.raises(ProtocolError):
        recover_block(levels, basis[:10], p.constellation)


def test_send_block_in_chunks_equals_one_pass():
    # Two full chunks and a ragged tail: the chunked payload packs the
    # one-pass kernel's levels on the same noise, and decodes back.
    n = 2 * protocol.CHUNK + 17
    rng = np.random.default_rng(6)
    fresh, basis = bits(rng, n), bits(rng, n)
    noise = noise_model(PARAMS, 11).sample(n)
    payload = send_block(fresh, ChainKey(0, basis), PARAMS, noise,
                         keyblock_payload(3, n, 40))
    want = transmit_symbol(fresh, basis, PARAMS.constellation, noise)
    assert payload == pack_keyblock(3, want, 40)
    got = recover_block(memoryview(payload)[4:], basis, PARAMS.constellation)
    assert got.dtype == np.uint8 and np.array_equal(got, fresh)


def _traced_peak(fn):
    """fn() and the bytes it held at its peak beyond what was live before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_block_kernels_allocate_no_block_sized_temporaries():
    # numpy reports its buffers to tracemalloc, so these are exact byte
    # counts.  A 2^18-symbol block at R = 40 is 1.25 MiB of payload, and its
    # bits 0.25 MiB; its noise is drawn beforehand, as the session draws it
    # ahead.  The sender's chunk temporaries peak at 1 MiB and the
    # receiver's, bits included, at 0.35 MiB: it reads the packed bytes and
    # widens no chunk to uint64 levels, which read 0.63 MiB.  A block of
    # uint64 levels on each side, as send_block and recv_keyblock once
    # returned, read 3.25 and 2.63 MiB.
    mib = 1 << 20
    n = 1 << 18
    p = SessionParams(1e4, 2.0 ** -30, resolution_bits=40, block_length=n)
    rng = np.random.default_rng(7)
    fresh, basis = bits(rng, n), bits(rng, n)
    noise = noise_model(p, 12).sample(n)

    payload, peak = _traced_peak(lambda: send_block(
        fresh, ChainKey(0, basis), p, noise, keyblock_payload(1, n, 40)))
    assert peak <= 3 * mib
    got, peak = _traced_peak(lambda: recover_block(
        drive(recv_keyblock(40, n, payload), None)[1], basis, p.constellation))
    assert peak <= mib // 2
    assert np.array_equal(got, fresh)


def test_whole_block_keyblock_pack_and_unpack_allocate_only_their_result():
    # The benchmark's SlipChannel unpacks and repacks whole 2^18-symbol
    # blocks; a field copied or widened to uint64 on the way adds a
    # 0.25-2 MiB temporary.  The slack allows for numpy's cast buffers.
    n, slack = 1 << 18, 1 << 17
    p = SessionParams(1e4, 2.0 ** -30, resolution_bits=40, block_length=n)
    payload = send_block(bits(np.random.default_rng(8), n), ChainKey(0, bits(
        np.random.default_rng(9), n)), p, noise_model(p, 13).sample(n),
        keyblock_payload(1, n, 40))
    (cycle, levels), peak = _traced_peak(lambda: unpack_keyblock(payload, 40))
    assert peak <= levels.nbytes + slack
    repacked, peak = _traced_peak(lambda: pack_keyblock(1, levels, 40))
    assert peak <= len(repacked) + slack
    assert cycle == 1 and repacked == payload


def test_recover_block_wrong_key_statistics():
    rng = np.random.default_rng(4)
    n = 10_000
    p = SessionParams(1e4, 2.0 ** -10, 16, n)
    fresh, basis = bits(rng, n), bits(rng, n)
    levels = memoryview(send_block(fresh, ChainKey(0, basis), p, noise_model(p, 10).sample(n),
                                   keyblock_payload(0, n, 16)))[4:]
    # complemented key: decode flips every bit
    assert np.array_equal(recover_block(levels, 1 - basis, p.constellation),
                          1 - fresh)
    # unrelated key: agreement indistinguishable from a coin flip
    other = bits(np.random.default_rng(5), n)
    agree = float(np.mean(recover_block(levels, other, p.constellation) == fresh))
    assert abs(agree - 0.5) < oracles.binom_3sigma(0.5, n)


# ---------------------------------------------------------------------------
# KeyChain / LeakLedger
# ---------------------------------------------------------------------------

def test_keychain_discipline():
    chain = KeyChain(np.ones(16, dtype=np.uint8))
    k0 = chain.tip
    assert not k0.used_as_basis
    k0.consume()
    assert k0.used_as_basis
    with pytest.raises(OneTimeViolationError):
        k0.consume()
    k1 = chain.append(np.zeros(12, dtype=np.uint8))
    assert chain.tip is k1 and k1.index == 1
    assert chain.total_delivered() == 12


def test_ledger_accounting():
    led = LeakLedger()
    led.merge(LeakLedger(1000 * 2e-8))
    led.add_parities(3)
    assert led.total == pytest.approx(3.0 + 2e-5)
    other = LeakLedger(1e-6, 2)
    led.merge(other)
    assert led.disclosed_parity_bits == 5
    assert led.statistical_leak == pytest.approx(2e-5 + 1e-6)


# ---------------------------------------------------------------------------
# Reconciliation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, (1 << 18) + 1])
def test_parity_is_the_bit_sum_mod_2(n):
    rng = np.random.default_rng(n)
    for data in (bits(rng, n), np.ones(n, np.uint8), np.zeros(n, np.uint8)):
        got = protocol._parity(data)
        assert type(got) is int and got == int(data.sum()) & 1


def test_reconcile_identical_inputs_parity_count():
    rng = np.random.default_rng(21)
    data = bits(rng, 1024)
    out, led_r, led_s, errs, probes = run_both(data.copy(), data)
    assert not errs
    assert np.array_equal(out, data)
    # one whole-key parity, no locate request
    assert probes == []
    assert led_r.disclosed_parity_bits == led_s.disclosed_parity_bits == 1


def test_reconcile_single_error_syndrome_cost():
    rng = np.random.default_rng(22)
    reference = bits(rng, 1024)
    corrupted = reference.copy()
    corrupted[500] ^= 1
    out, led_r, led_s, errs, probes = run_both(corrupted, reference)
    assert not errs
    assert np.array_equal(out, reference)
    # one locate request, answered by an 11-bit syndrome (1024 .bit_length())
    assert probes == [bytes([_SUB_PROBE])]
    assert led_r.disclosed_parity_bits == led_s.disclosed_parity_bits == 1 + 11


def test_reconcile_scattered_errors():
    # three errors: the syndrome names a wrong bit, and the digest check
    # ends the dialogue on both sides: the sender hears of it by ERROR
    rng = np.random.default_rng(23)
    reference = bits(rng, 2048)
    corrupted = reference.copy()
    for i in (17, 300, 1999):
        corrupted[i] ^= 1
    out, _, _, errs, probes = run_both(corrupted, reference)
    assert out is None and len(probes) == 1
    assert isinstance(errs.get("r"), ReconciliationError)
    assert "keys still differ" in str(errs.get("s"))


def test_reconcile_residual_mismatch_detected():
    # two errors leave the whole-key parity equal; the digest check must
    # catch them
    rng = np.random.default_rng(24)
    reference = bits(rng, 64)
    corrupted = reference.copy()
    corrupted[3] ^= 1
    corrupted[40] ^= 1
    out, _, _, errs, probes = run_both(corrupted, reference)
    assert out is None and probes == []
    assert isinstance(errs.get("r"), ReconciliationError)
    assert "keys still differ" in str(errs.get("s"))


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
        assert len(probes) == len(errors)
        assert led_r.disclosed_parity_bits == led_s.disclosed_parity_bits == \
            1 + len(errors) * n.bit_length()
    else:
        # unequal keys are never returned
        assert out is None
        assert isinstance(errs.get("r"), ReconciliationError)
        assert "keys still differ" in str(errs.get("s"))


# ---------------------------------------------------------------------------
# Privacy amplification
# ---------------------------------------------------------------------------

def seed_for(n, s):
    """The PA seed bytes of an n-bit input, drawn from default_rng(s)."""
    return np.random.default_rng(s).bytes(pa_seed_bytes(n))


def seed_bits(seed: bytes, n: int) -> np.ndarray:
    """The n-1 seed bits: bit t is bit t of the little-endian seed int."""
    return np.unpackbits(np.frombuffer(seed, np.uint8), bitorder="little")[:n - 1]


def test_privacy_amplify_lengths():
    rng = np.random.default_rng(31)
    data = bits(rng, 1024)
    # out_len n: identity
    assert np.array_equal(privacy_amplify(data, 1024, seed_for(1024, 5)), data)
    # the one length rule: ceil(parity + statistical leak [+ 11-bit syndrome])
    # and the safety margin
    assert PARAMS.key_length(1024, located=True) == 1024 - 13 - 32
    m = PARAMS.key_length(1024)
    assert m == 1024 - 2 - 32
    assert np.array_equal(amplify_block(PARAMS, data, seed_for(1024, 5), False),
                          privacy_amplify(data, m, seed_for(1024, 5)))
    assert len(privacy_amplify(data, m, seed_for(1024, 5))) == m
    spent = SessionParams(1e4, 2.0 ** -30, 40, 64, safety_bits=62)
    with pytest.raises(KeyExhaustedError, match="would leave 0 bits"):
        amplify_block(spent, data[:64], seed_for(64, 5), False)
    for bad in (0, 1025):
        with pytest.raises(ValueError):
            privacy_amplify(data, bad, seed_for(1024, 5))
    assert pa_seed_bytes(1024) == 128 and pa_seed_bytes(1025) == 128
    for bad_seed in (bytes(127), bytes(129)):
        with pytest.raises(ValueError, match="needs 128 seed bytes"):
            privacy_amplify(data, m, bad_seed)


def _dense_check(n, k, s, data_seed):
    data = bits(np.random.default_rng(data_seed), n)
    m = n - k
    seed = seed_for(n, s)
    out = privacy_amplify(data, m, seed)
    assert np.array_equal(out, oracles.dense_modified_toeplitz(
        seed_bits(seed, n), data, m))


def test_privacy_amplify_matches_dense_toeplitz():
    _dense_check(200, 30, 77, 32)


def test_privacy_amplify_many_shifts_matches_dense():
    _dense_check(4000, 100, 13, 33)


@pytest.mark.parametrize("base", [8, 2 ** 18 + 9])
def test_pa_seed_bits_equal_default_rng_draw(base):
    # With only the last of n = c + 1 bits set and out_len = c, the hash is
    # T's one column: all c seed bits.  They must be exactly the low c bits,
    # least significant first, of the seed bytes default_rng(s).bytes
    # draws, for every c mod 8.
    for c in range(base, base + 8):
        unit = np.zeros(c + 1, dtype=np.uint8)
        unit[-1] = 1
        for s in (0, 5, 2 ** 63 - 1):
            seed = seed_for(c + 1, s)
            want = seed_bits(seed, c + 1)
            assert len(want) == c
            assert np.array_equal(privacy_amplify(unit, c, seed), want), (c, s)


@pytest.mark.parametrize("seed", [0, 5, 2 ** 63 - 1])
def test_fresh_bits_equal_the_bounded_uint8_draw(seed):
    # numpy's bounded uint8 draw of range 2 keeps the top bit of each byte of
    # a uint32 draw, little end first, and discards the bytes left over; a
    # numpy that draws them otherwise fails here, not only in a golden.
    ours, ref = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
    for n in (1, 2, 3, 4, 5, 1023, 1024, 262110, 1 << 18):
        for _ in range(3):
            got = protocol._fresh_bits(ours, n)
            want = ref.integers(0, 2, n, dtype=np.uint8)
            assert got.dtype == np.uint8 and np.array_equal(got, want), n
        assert ours.integers(0, 2 ** 62) == ref.integers(0, 2 ** 62)


@pytest.mark.parametrize("k", [34, 1000])
def test_privacy_amplify_matches_slice_loop_at_large_n(k):
    n = 2 ** 18 + 17
    data = bits(np.random.default_rng(36), n)
    seed = seed_for(n, 123)
    want = oracles.slice_modified_toeplitz(seed_bits(seed, n), data, n - k)
    assert np.array_equal(privacy_amplify(data, n - k, seed), want)


def test_bit_inputs_are_checked_at_the_public_entry_points():
    bad = np.array([0, 1, 2] + [0] * 13, dtype=np.uint8)
    good = np.zeros(16, dtype=np.uint8)
    key = ChainKey(0, good.copy())
    calls = {
        "KeyChain": lambda: KeyChain(bad),
        "send_block": lambda: send_block(bad, key, PARAMS, np.zeros(16),
                                         keyblock_payload(1, 16, 40)),
        "privacy_amplify": lambda: privacy_amplify(bad, 8, bytes(2)),
        "reconcile_receiver": lambda: reconcile_receiver(bad, None, _check(good)),
        "reconcile_sender": lambda: reconcile_sender(bad, None),
        "tag_bytes": lambda: tag_bytes(bad, b"m"),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match="only 0s and 1s"):
            call()
    assert not key.used_as_basis   # send_block checked before consuming


def test_modified_toeplitz_is_universal2():
    # n = 8, m = 5: over all 2^7 seeds s (seed bit i is bit i of s), each
    # nonzero difference collides for exactly 2^(7-5) seeds unless it lies
    # in the identity part alone, where it never does.  Collision
    # probability 2^-m, no weaker.
    n, m = 8, 5
    for d in range(1, 2 ** n):
        delta = np.array([(d >> i) & 1 for i in range(n)], dtype=np.uint8)
        zeros = sum(not _modified_toeplitz(s, delta, m).any()
                    for s in range(2 ** (n - 1)))
        assert zeros == (0 if not delta[m:].any() else 2 ** (n - 1 - m))


def test_privacy_amplify_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(34)
    data = bits(rng, 512)
    a = privacy_amplify(data, 500, seed_for(512, 99))
    b = privacy_amplify(data, 500, seed_for(512, 99))
    c = privacy_amplify(data, 500, seed_for(512, 100))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_privacy_amplify_monobit():
    rng = np.random.default_rng(35)
    collected = []
    for seed in range(13):
        data = bits(rng, 8192)
        collected.append(privacy_amplify(data, 8190, seed_for(8192, seed)))
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


def run_pair(a, b, cycles):
    """Run a session between two party states on this thread, no handshake.

    Role B's core sits behind a PeerChannel; returns (result_a, result_b).
    """
    channel = PeerChannel(session_core(b))
    result_a = drive(session_core(a, cycles), channel)
    if channel.error is not None:
        raise channel.error
    return result_a, channel.result


def test_session_core_agreement():
    a, b = fresh_pair()
    run_pair(a, b, cycles=1)
    k1, k2 = (k.bits for k in a.chain.keys[1:])
    assert a.chain.bits_equal(b.chain)
    assert len(a.chain.keys) == 3
    # shrink = ceil(1 parity + statistical) + safety
    assert len(k1) == 1024 - 2 - 32
    assert len(k2) == len(k1) - 34


def test_session_core_ledger_matches_analysis():
    a, b = fresh_pair()
    cycles = 5
    run_pair(a, b, cycles)
    per = PARAMS.per_symbol_leak
    # sum of per-block contributions; identical accumulation order on B
    assert a.ledger.statistical_leak == b.ledger.statistical_leak
    total_symbols = sum(len(k.bits) for k in a.chain.keys[:-1])
    assert a.ledger.statistical_leak == pytest.approx(total_symbols * per, rel=1e-12)
    assert a.ledger.disclosed_parity_bits == 2 * cycles


def test_session_core_shrinkage_invariant():
    params = SessionParams(1e4, 2.0 ** -30, 40, 2048)
    a, b = fresh_pair(params, k0_bits=2048)
    run_pair(a, b, cycles=4)
    sizes = [len(k.bits) for k in a.chain.keys]
    assert len(sizes) == 9
    assert all(s1 - s2 == 34 for s1, s2 in zip(sizes, sizes[1:]))
    assert all(len(k.bits) <= len(prev.bits)
               for prev, k in zip(a.chain.keys, a.chain.keys[1:]))


def test_session_core_exhaustion():
    params = SessionParams(1e4, 2.0 ** -30, 40, 128, safety_bits=60)
    a, b = fresh_pair(params, k0_bits=128)
    results = run_pair(a, b, cycles=3)
    assert [len(k.bits) for k in a.chain.keys] == [128, 66, 4]
    for res in results:     # 4 - 2 - 60 <= 0: cycle 2 exhausts the chain
        assert res.cycles_completed == 1
        assert "would leave" in res.early_stop
    # the block that would exhaust the chain is never sent, so the tip
    # was never used as basis material
    assert not a.chain.tip.used_as_basis and not b.chain.tip.used_as_basis
    assert all(k.used_as_basis for k in a.chain.keys[:-1])


@pytest.mark.parametrize("n", [64, 1024, 4096])
@pytest.mark.parametrize("safety", [0, 32])
@pytest.mark.parametrize("n_avg, exp, r", [(1e4, -10, 16), (1e2, -8, 16), (1e6, -14, 24)])
def test_sessions_run_to_exhaustion_deliver_the_chain_key_length_predicts(
        n_avg, exp, r, safety, n):
    params = SessionParams(n_avg, 2.0 ** exp, r, n, safety)
    predicted = [n]
    while params.key_length(predicted[-1]) > 0:
        predicted.append(params.key_length(predicted[-1]))
    k0 = np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8)
    for state in simulate_session(params, k0, 1, 2, cycles=10 ** 9):
        assert [len(k.bits) for k in state.chain.keys] == predicted
        assert "would leave" in state.early_stop


def test_session_core_param_mismatch():
    # without a handshake to reject it, a session between parties that
    # disagree on the operating point fails
    a, _ = fresh_pair()
    other = SessionParams(1e4, 2.0 ** -28, 40, 1024)
    _, b = fresh_pair(other)
    with pytest.raises(ProtocolError):
        run_pair(a, b, cycles=1)


def test_hundred_cycles_desk_scale():
    params = SessionParams(1e4, 2.0 ** -30, 40, 8192)
    a, b = fresh_pair(params, k0_bits=8192)
    run_pair(a, b, cycles=100)
    assert a.chain.bits_equal(b.chain)
    assert len(a.chain.keys) == 201
    assert len(a.chain.tip.bits) == 8192 - 200 * 34


# ---------------------------------------------------------------------------
# Full session in process
# ---------------------------------------------------------------------------

def test_simulate_session_round_trip(tmp_path):
    params = SessionParams(1e4, 2.0 ** -30, 40, 1024)
    k0 = np.random.default_rng(70).integers(0, 2, 1024, dtype=np.uint8)
    path = tmp_path / "transcript.bin"
    res_a, res_b = simulate_session(params, k0, 5, 6, cycles=4,
                                    transcript_path=path)
    assert res_a.chain.bits_equal(res_b.chain)
    assert res_a.confirm_tag == res_b.confirm_tag and res_a.confirm_tag
    assert res_a.cycles_completed == 4
    assert [tuple(d) for d in res_a.delivered] == [tuple(d) for d in res_b.delivered]
    # the tape holds every frame: an error-free cycle is 4 frames
    frames = list(iter_frames(path.read_bytes()))
    assert [t for t, _ in frames] == (
        [MessageType.HELLO, MessageType.HELLO_ACK]
        + [MessageType.KEYBLOCK, MessageType.PA_SEED] * 8
        + [MessageType.CONFIRM] * 2)
    blocks = [unpack_keyblock(p, 40) for t, p in frames if t == MessageType.KEYBLOCK]
    assert [cycle for cycle, _ in blocks] == [1, 1, 2, 2, 3, 3, 4, 4]
    # block Y_j is masked under K_{j-1}, so it has that key's length
    assert [len(levels) for _, levels in blocks] == [
        len(k.bits) for k in res_a.chain.keys[:-1]]


def test_an_untapped_session_builds_no_frame_bytes(monkeypatch):
    # In process a frame stays a (msg_type, payload) pair: with no tap,
    # nothing encodes a frame or parses a header.
    def refuse(*args):
        raise AssertionError("a frame was encoded or parsed in process")

    monkeypatch.setattr(transport, "frame_encode", refuse)
    monkeypatch.setattr(transport, "_parse_header", refuse)
    k0 = np.random.default_rng(71).integers(0, 2, 1024, dtype=np.uint8)
    res_a, res_b = simulate_session(PARAMS, k0, 5, 6, cycles=3)
    assert res_a.cycles_completed == 3
    assert res_a.chain.bits_equal(res_b.chain)


def test_simulate_session_needs_k0_of_the_block_length():
    # role A would propose 1024 from params, role B would expect 512 from K0
    k0 = np.random.default_rng(75).integers(0, 2, 512, dtype=np.uint8)
    with pytest.raises(ValueError, match="K0 has 512 bits, not 1024"):
        simulate_session(PARAMS, k0, 1, 2, cycles=1)


def test_simulate_session_early_stop_on_exhaustion():
    params = SessionParams(1e4, 2.0 ** -30, 40, 160, safety_bits=70)
    k0 = np.random.default_rng(71).integers(0, 2, 160, dtype=np.uint8)
    res_a, res_b = simulate_session(params, k0, 1, 2, cycles=10)
    assert res_a.early_stop is not None
    assert res_b.early_stop is not None
    assert res_a.cycles_completed < 10
    assert res_a.chain.bits_equal(res_b.chain)
    assert res_a.confirm_tag == res_b.confirm_tag


def test_session_run_to_exhaustion_ends_with_an_untagged_confirm():
    # at the default safety margin the last key is shorter than a tag, so
    # the final CONFIRM carries no tag: only --cycles stops end tagged
    k0 = np.random.default_rng(3).integers(0, 2, 1024, dtype=np.uint8)
    res_a, res_b = simulate_session(PARAMS, k0, 3, 4, cycles=1000)
    for res in (res_a, res_b):
        assert res.early_stop is not None and res.cycles_completed < 1000
        assert len(res.chain.tip.bits) < TAG_BITS
        assert res.confirm_tag == b""
    assert res_a.chain.bits_equal(res_b.chain)


def test_tape_keeps_a_half_cycle_cut_by_exhaustion(tmp_path):
    # cycle 2's A->B key is delivered, then its B->A direction runs out
    params = SessionParams(1e4, 2.0 ** -30, 40, 160, safety_bits=40)
    k0 = np.random.default_rng(71).integers(0, 2, 160, dtype=np.uint8)
    path = tmp_path / "wire.bin"
    for res in simulate_session(params, k0, 1, 2, cycles=10, transcript_path=path):
        assert res.cycles_completed == 1 and res.early_stop is not None
        assert len(res.chain.keys) == 4
    seeds = [_PA_SEED.unpack_from(p) for t, p in iter_frames(path.read_bytes())
             if t == MessageType.PA_SEED]
    assert seeds == [(1, A_TO_B), (1, B_TO_A), (2, A_TO_B)]


def _count_noise(monkeypatch) -> dict:
    """Samples drawn per PhaseNoiseModel, by id."""
    drawn = {}
    sample = PhaseNoiseModel.sample

    def counted(self, count, out=None):
        drawn[id(self)] = drawn.get(id(self), 0) + count
        return sample(self, count, out)

    monkeypatch.setattr(PhaseNoiseModel, "sample", counted)
    return drawn


@pytest.mark.parametrize("n, cycles", [(1024, 3), (1024, 1000), (160, 10)],
                         ids=["cycles", "exhaustion", "exhaustion-mid-cycle"])
def test_noise_is_drawn_ahead_only_for_blocks_a_party_sends(monkeypatch, n, cycles):
    # Role A stops after its last cycle and draws nothing beyond its blocks;
    # role B cannot know it was the last, and draws one block that goes
    # unsent.  A chain run to exhaustion leaves neither party a block unsent.
    drawn = _count_noise(monkeypatch)
    params = SessionParams(1e4, 2.0 ** -30, 40, n, safety_bits=40)
    k0 = np.random.default_rng(74).integers(0, 2, n, dtype=np.uint8)
    parties = simulate_session(params, k0, 5, 6, cycles=cycles)
    a, b = parties
    assert a.chain.bits_equal(b.chain) and (a.early_stop is None) == (cycles == 3)
    keys = a.chain.keys
    for state in parties:
        sent = sum(len(keys[j - 1].bits) for j in range(1, len(keys)) if state.sends(j))
        unsent = drawn[id(state.noise)] - sent
        if state.role == "B" and a.early_stop is None:
            assert unsent == params.key_length(len(keys[-1].bits)) > 0
        else:
            assert unsent == 0
        assert state.noise_ahead == unsent


def test_simulate_session_progress_records():
    params = SessionParams(1e4, 2.0 ** -30, 40, 512)
    k0 = np.random.default_rng(72).integers(0, 2, 512, dtype=np.uint8)
    records = []
    simulate_session(params, k0, 3, 4, cycles=3, progress=records.append)
    assert [r["cycle"] for r in records] == [1, 2, 3]
    assert all(r["ledger_total"] >= 0 for r in records)
    assert records[-1]["disclosed_parity_bits"] == 6


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
        handshake(ch_a, "A", params.hello())
        over_socket = run_session(ch_a, PartyState.create("A", params, k0, 11),
                                  cycles=3)
    finally:
        peer.join(timeout=30)
        ch_a.close()
        ch_b.close()
    assert not peer.is_alive()
    assert over_socket.chain.bits_equal(res_a.chain)
    frames = _role_a_frames(log)
    assert len(frames) == 2 + 3 * 4 + 2
    assert frames == in_process


REQ, RESP = MessageType.PARITY_REQ, MessageType.PARITY_RESP
KB, SEED, CONFIRM = MessageType.KEYBLOCK, MessageType.PA_SEED, MessageType.CONFIRM


def _peer_frames(log: list) -> list:
    """(way, msg_type, payload length) of role A's end of a PeerChannel."""
    return [(way, msg_type, len(payload)) for ch, way, msg_type, payload in log
            if isinstance(ch, PeerChannel)]


def _pair_differing_in(*positions):
    a, _ = fresh_pair()
    k0_b = a.chain.tip.bits.copy()
    k0_b[list(positions)] ^= 1
    return a, PartyState.create("B", PARAMS, k0_b, 2)


def test_direction_frame_sequence(monkeypatch):
    # B's K0 differs from A's in one bit, so B decodes the A->B block with
    # exactly one error and the corrected key makes B->A error-free
    a, b = _pair_differing_in(700)
    log = _record_frames(monkeypatch)
    run_pair(a, b, cycles=1)
    k1, k2 = (k.bits for k in a.chain.keys[1:])
    assert np.array_equal(k1, b.chain.keys[1].bits)
    assert np.array_equal(k2, b.chain.keys[2].bits)
    assert len(k1) == 1024 - 13 - 32        # ceil(1 + 11 + statistical) + safety
    one_error = [("sent", KB, 5124), ("sent", SEED, 38 + 128),
                 ("received", REQ, 1), ("sent", RESP, 4)]       # locate
    no_error = [("received", KB, 4 + 5 * len(k1)),
                ("received", SEED, 38 + pa_seed_bytes(len(k1)))]
    confirm = [("sent", CONFIRM, 32), ("received", CONFIRM, 32)]
    assert _peer_frames(log) == one_error + no_error + confirm
    assert [p for ch, _, t, p in log
            if t == REQ and isinstance(ch, PeerChannel)] == [bytes([_SUB_PROBE])]


def test_two_errors_end_the_direction_with_an_error_frame(monkeypatch):
    # equal parities, different digests: B answers PA_SEED with ERROR
    a, b = _pair_differing_in(3, 700)
    log = _record_frames(monkeypatch)
    with pytest.raises(ProtocolError, match="keys still differ"):
        run_pair(a, b, cycles=1)
    assert _peer_frames(log) == [("sent", KB, 5124), ("sent", SEED, 166),
                                 ("received", MessageType.ERROR, 38)]
    assert len(a.chain.keys) == len(b.chain.keys) == 1


def _slip_role_a_keyblock(monkeypatch, cycle: int) -> None:
    """Add a pi phase slip to symbol 0 of role A's KEYBLOCK of `cycle`."""
    def send(self, msg_type, payload=b""):
        if msg_type == KB and struct.unpack_from(">I", payload)[0] == cycle:
            levels = unpack_keyblock(payload, 40)[1]
            levels[0] = (int(levels[0]) + (1 << 39)) % (1 << 40)
            payload = pack_keyblock(cycle, levels, 40)
        Channel.send(self, msg_type, payload)

    monkeypatch.setattr(PeerChannel, "send", send, raising=False)


@pytest.mark.parametrize("k0_bits, safety, slip, first, cycles", [
    (1200, 400, 0, "A", 1),     # A's cycle-2 block would leave nothing
    (1500, 400, 0, "B", 1),     # B's cycle-2 block would leave nothing
    (909, 300, 2, "B", 1),      # a 9-bit syndrome exhausts A's cycle-2 block
], ids=["A stops", "B stops", "syndrome stops"])
def test_both_parties_stop_alike(monkeypatch, k0_bits, safety, slip, first,
                                 cycles):
    params = SessionParams(1e4, 2.0 ** -30, 40, k0_bits, safety_bits=safety)
    a, b = fresh_pair(params, k0_bits=k0_bits)
    log = _record_frames(monkeypatch)
    _slip_role_a_keyblock(monkeypatch, slip)
    res_a, res_b = run_pair(a, b, cycles=10)
    assert res_a.early_stop == res_b.early_stop
    assert "would leave" in res_a.early_stop
    assert res_a.confirm_tag == res_b.confirm_tag and len(res_a.confirm_tag) == 32
    assert res_a.cycles_completed == res_b.cycles_completed == cycles
    assert a.chain.bits_equal(b.chain)
    frames = _peer_frames(log)
    assert sum(t == REQ for _, t, _ in frames) == bool(slip)
    # the party on its sending turn sends CONFIRM first; no block is sent
    # that would leave nothing even without a syndrome
    ways = [way for way, t, _ in frames if t == CONFIRM]
    assert ways == (["sent", "received"] if first == "A" else ["received", "sent"])
    assert sum(t == KB for _, t, _ in frames) == len(a.chain.keys) - 1 + bool(slip)


def test_turn_and_block_charge_match_a_slipped_tape(monkeypatch, tmp_path):
    # each PA_SEED names turn(j) of its block Y_j, and each party's ledger
    # is the sum of its blocks' charges, with only the slipped Y_1 located;
    # both parties and Eve give K1 the length key_length(n, located=True)
    params = SessionParams(1e4, 2.0 ** -30, 40, 4096)
    k0 = np.random.default_rng(76).integers(0, 2, 4096, dtype=np.uint8)
    _slip_role_a_keyblock(monkeypatch, 1)
    path = tmp_path / "wire.bin"
    parties = simulate_session(params, k0, 1, 2, cycles=2, transcript_path=path)
    blocks = read_tape(path).blocks
    assert [_PA_SEED.unpack_from(block.frames[0][1]) for block in blocks] == [
        turn(j) for j in range(1, 5)] == [(1, A_TO_B), (1, B_TO_A), (2, A_TO_B),
                                          (2, B_TO_A)]
    located = [any(t == REQ for t, _ in block.frames) for block in blocks]
    assert located == [True, False, False, False]
    charges = [params.block_charge(block.symbols, loc)
               for block, loc in zip(blocks, located)]
    for state in parties:
        assert state.ledger.statistical_leak == sum(c.statistical_leak for c in charges)
        assert state.ledger.disclosed_parity_bits == 4 + 13 == sum(
            c.disclosed_parity_bits for c in charges)
    k1_bits = params.key_length(4096, located=True)
    recovered = chain_compromise(read_tape(path), 0, k0).recovered
    assert len(recovered[0][1]) == k1_bits == 4096 - 15 - 32   # ceil(1 + 13 + leak)
    for state in parties:
        assert len(state.chain.keys[1].bits) == k1_bits
        assert [j for j, _ in recovered] == list(range(1, len(state.chain.keys)))
        assert all(np.array_equal(bits, state.chain.keys[j].bits) for j, bits in recovered)


SMALL = SessionParams(1e4, 2.0 ** -30, 40, 64)
K0_SMALL = np.random.default_rng(75).integers(0, 2, 64, dtype=np.uint8)
KEYBLOCK = pack_keyblock(1, np.zeros(64, dtype=np.uint64), 40)
CHECK_SMALL = _check(K0_SMALL)
MISMATCHED = bytes([CHECK_SMALL[0] ^ 1]) + CHECK_SMALL[1:]


def pa_seed_frame(cycle=1, seed_len=8):
    return _PA_SEED.pack(cycle, A_TO_B) + CHECK_SMALL + bytes(seed_len)


def _sender():
    return _sender_core(K0_SMALL)


def _receiver(check):
    return lambda: _receiver_core(K0_SMALL.copy(), check)


def _responder():
    return session_core(PartyState.create("B", SMALL, K0_SMALL, 1))


HOSTILE_FRAMES = {
    "empty parity request": (_sender, [(REQ, b"")]),
    "parity request of subtype 0": (_sender, [(REQ, bytes([0]))]),
    "2-byte parity request of subtype 0": (_sender, [(REQ, bytes([0, 2]))]),
    "locate request with trailing bytes": (_sender, [
        (REQ, bytes([_SUB_PROBE, 0]))]),
    "second locate request": (_sender, [
        (REQ, bytes([_SUB_PROBE])), (REQ, bytes([_SUB_PROBE]))]),
    "PA_SEED with an empty check": (_receiver(b""), []),
    "PA_SEED check with a parity of 2": (_receiver(b"\x02" + CHECK_SMALL[1:]), []),
    "empty syndrome reply": (_receiver(MISMATCHED), [(RESP, b"")]),
    "1-byte syndrome reply": (_receiver(MISMATCHED), [(RESP, b"\x02")]),
    "3-byte syndrome reply": (_receiver(MISMATCHED), [(RESP, b"\x00" * 3)]),
    "KEYBLOCK shorter than its cycle index": (_responder, [(KB, b"\x00\x00")]),
    "ragged KEYBLOCK levels": (_responder, [(KB, KEYBLOCK[:-1])]),
    "KEYBLOCK of another cycle": (_responder, [
        (KB, pack_keyblock(2, np.zeros(64, dtype=np.uint64), 40))]),
    "short PA_SEED": (_responder, [(KB, KEYBLOCK), (SEED, b"\x00" * 5)]),
    "PA_SEED with a wrong seed length": (_responder, [
        (KB, KEYBLOCK), (SEED, pa_seed_frame(seed_len=9))]),
    "PA_SEED of another cycle": (_responder, [(KB, KEYBLOCK), (SEED, pa_seed_frame(2))]),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_FRAMES))
def test_hostile_peer_frames_raise_protocol_error(case):
    make_core, frames = HOSTILE_FRAMES[case]
    # a peer core that sends its frames, then stops
    channel = PeerChannel(frame for frame in frames)
    with pytest.raises(ProtocolError):
        drive(make_core(), channel)
