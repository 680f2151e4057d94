"""Fuzz the party cores with hostile peers: only a NoisepadError may escape.

Random frame sequences go to role A's and role B's session_core, and random
HELLOs to the responder's handshake_core, through a PeerChannel whose peer
sends its frames and stops; one case sends the same bytes over a socketpair.
Tampered sessions run an honest peer core and edit some of its frames, so
that hostile input also arrives mid-session.  A core may also finish, if the
frames happen to make a session.
"""

import socket

import numpy as np
from hypothesis import given, settings, strategies as st

from noisepad.errors import NoisepadError
from noisepad.protocol import _PA_SEED, _SUB_PROBE, PartyState, SessionParams, session_core
from noisepad.transport import (
    RECV,
    HelloParams,
    MessageType,
    PeerChannel,
    SocketChannel,
    drive,
    frame_encode,
    handshake_core,
    pack_hello,
    pack_keyblock,
)

# safety_bits=0 lets a 64-bit chain run for many cycles (keys of 62, 60, ...
# bits), so hostile frames meet both directions.
PARAMS = SessionParams(1e4, 2.0 ** -30, 40, 64, safety_bits=0)
K0 = np.random.default_rng(75).integers(0, 2, 64, dtype=np.uint8)
FUZZ = settings(derandomize=True, max_examples=300, deadline=None)


def _keyblock(cycle, symbols, seed):
    levels = np.random.default_rng(seed).integers(0, 2 ** 40, symbols, dtype=np.uint64)
    return pack_keyblock(cycle, levels, 40)


KEYBLOCKS = st.builds(_keyblock, st.integers(0, 3), st.integers(57, 65),
                      st.integers(0, 2 ** 32))
PA_SEEDS = st.builds(lambda head, parity, digest, seed: head + bytes([parity]) + digest + seed,
                     st.builds(_PA_SEED.pack, st.integers(0, 3), st.integers(0, 2)),
                     st.integers(0, 2), st.binary(min_size=32, max_size=32),
                     st.binary(min_size=7, max_size=9))
TYPES = st.sampled_from([*MessageType, 0x00, 0x55])
FRAME = st.one_of(
    st.tuples(TYPES, st.binary(max_size=64)),
    st.tuples(st.just(MessageType.KEYBLOCK), KEYBLOCKS),
    st.tuples(st.just(MessageType.PA_SEED), PA_SEEDS),
    st.tuples(st.just(MessageType.PARITY_REQ), st.just(bytes([_SUB_PROBE]))),
    st.tuples(st.just(MessageType.PARITY_RESP), st.binary(min_size=4, max_size=4)),
    st.tuples(st.just(MessageType.CONFIRM), st.just(b"")),
)
FRAMES = st.lists(FRAME, min_size=1, max_size=7)
EDIT = st.one_of(
    st.tuples(st.just("replace"), st.lists(FRAME, max_size=2)),
    st.tuples(st.just("flip"), st.integers(0, 400), st.integers(1, 255)),
    st.tuples(st.just("cut"), st.integers(1, 8)),
    st.tuples(st.just("pad"), st.binary(min_size=1, max_size=4)),
    st.tuples(st.just("retype"), TYPES),
)
EDITS = st.lists(st.tuples(st.integers(0, 7), EDIT),   # (sent frame index, edit)
                 min_size=1, max_size=2).map(dict)


def _hostile_peer(frames):
    return PeerChannel(frame for frame in frames)


def _edited(frame, edit) -> list:
    """The frames that an edit puts in place of one frame."""
    msg_type, payload = frame
    kind, arg, *mask = edit
    if kind == "replace":
        return arg
    if kind == "flip" and payload:
        pos = arg % len(payload)
        payload = payload[:pos] + bytes([payload[pos] ^ mask[0]]) + payload[pos + 1:]
    elif kind == "cut":
        payload = payload[:-arg]
    elif kind == "pad":
        payload += arg
    elif kind == "retype":
        msg_type = arg
    return [(msg_type, payload)]


def _tampered(core, edits):
    """An honest peer core whose i-th sent frame is edited by edits[i]."""
    sent = 0
    try:
        step = next(core)
        while True:
            if step is RECV:
                step = core.send((yield RECV))
                continue
            yield from _edited(step, edits[sent]) if sent in edits else [step]
            sent += 1
            step = next(core)
    except StopIteration:
        return


def _run(core, channel):
    try:
        drive(core, channel)
    except NoisepadError:
        pass
    finally:
        channel.close()


@FUZZ
@given(frames=FRAMES, cycles=st.integers(1, 3))
def test_initiator_meets_hostile_frames(frames, cycles):
    _run(session_core(PartyState.create("A", PARAMS, K0, 1), cycles),
         _hostile_peer(frames))


@FUZZ
@given(frames=FRAMES)
def test_responder_meets_hostile_frames(frames):
    _run(session_core(PartyState.create("B", PARAMS, K0, 2)), _hostile_peer(frames))


@FUZZ
@given(role=st.sampled_from("AB"), edits=EDITS, cycles=st.integers(1, 3))
def test_party_meets_a_tampered_peer(role, edits, cycles):
    a = session_core(PartyState.create("A", PARAMS, K0, 1), cycles)
    b = session_core(PartyState.create("B", PARAMS, K0, 2))
    tested, peer = (a, b) if role == "A" else (b, a)
    channel = PeerChannel(_tampered(peer, edits))
    _run(tested, channel)
    # the honest peer meets the tested party's answers: it may fail only so too
    assert channel.error is None or isinstance(channel.error, NoisepadError)


HELLOS = st.one_of(
    st.binary(min_size=16, max_size=16),
    st.builds(HelloParams, st.floats(), st.integers(-128, 127), st.integers(0, 255),
              st.one_of(st.just(64), st.integers(0, 2 ** 32 - 1)),
              st.integers(0, 0xFFFF)).map(pack_hello))


@FUZZ
@given(hello=HELLOS, expected=st.sampled_from([None, 64]))
def test_responder_handshake_meets_hostile_hellos(hello, expected):
    _run(handshake_core("B", expected_block_length=expected),
         _hostile_peer([(MessageType.HELLO, hello)]))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(frames=FRAMES, tail=st.binary(max_size=12))
def test_responder_meets_hostile_bytes_on_a_socket(frames, tail):
    ours, theirs = socket.socketpair()
    try:
        theirs.sendall(b"".join(frame_encode(*f) for f in frames) + tail)
        theirs.shutdown(socket.SHUT_WR)     # then the connection closes
        _run(session_core(PartyState.create("B", PARAMS, K0, 2)), SocketChannel(ours))
    finally:
        ours.close()
        theirs.close()
