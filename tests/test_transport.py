import socket
import threading
import time

import numpy as np
import pytest

from noisepad.errors import (
    BadMagicError,
    BadVersionError,
    ChannelError,
    FrameError,
    HandshakeError,
    OversizeFrameError,
    ProtocolError,
    TruncatedFrameError,
)
from noisepad.transport import (
    RECV,
    HelloParams,
    MessageType,
    PeerChannel,
    SocketChannel,
    TranscriptTap,
    drive,
    expect,
    frame_decode,
    frame_encode,
    handshake,
    iter_frames,
    pack_hello,
    pack_keyblock,
    read_transcript_levels,
    record_transcript,
    recv_keyblock,
    send_keyblock,
    unpack_hello,
    unpack_keyblock,
)


def test_frame_fixed_layouts():
    hello = frame_encode(MessageType.HELLO, b"")
    assert hello.hex() == "4e4f545001" + "01" + "00000000"
    kb = frame_encode(MessageType.KEYBLOCK, bytes.fromhex("abcdef"))
    assert kb.hex() == "4e4f545001" + "03" + "00000003" + "abcdef"


def test_frame_round_trip_random():
    rng = np.random.default_rng(0)
    types = list(MessageType)
    for _ in range(1000):
        msg_type = types[int(rng.integers(0, len(types)))]
        payload = rng.integers(0, 256, int(rng.integers(0, 600)),
                               dtype=np.uint8).tobytes()
        assert frame_decode(frame_encode(msg_type, payload)) == (msg_type, payload)


def test_frame_rejections_are_distinct():
    good = frame_encode(MessageType.HELLO, b"x" * 10)
    with pytest.raises(BadMagicError):
        frame_decode(b"X" + good[1:])
    with pytest.raises(BadVersionError):
        frame_decode(good[:4] + b"\x02" + good[5:])
    with pytest.raises(TruncatedFrameError):
        frame_decode(good[:-5])
    with pytest.raises(TruncatedFrameError):
        frame_decode(good[:6])
    with pytest.raises(FrameError):
        frame_decode(good + b"trailing")
    with pytest.raises(OversizeFrameError):
        frame_encode(MessageType.HELLO, b"\x00" * ((1 << 24) + 1))
    oversize_header = good[:6] + (1 << 25).to_bytes(4, "big")
    with pytest.raises(OversizeFrameError):
        frame_decode(oversize_header)


def test_iter_frames():
    buf = (frame_encode(MessageType.HELLO, b"a") +
           frame_encode(MessageType.CONFIRM, b"bb"))
    assert list(iter_frames(buf)) == [(MessageType.HELLO, b"a"),
                                      (MessageType.CONFIRM, b"bb")]
    with pytest.raises(TruncatedFrameError):
        list(iter_frames(buf[:-1]))


def test_hello_payload_round_trip():
    p = HelloParams(1e4, -30, 40, 1024, 32)
    assert unpack_hello(pack_hello(p)) == p
    assert len(pack_hello(p)) == 16
    with pytest.raises(ProtocolError):
        unpack_hello(b"\x00" * 5)


def test_keyblock_payload_layout():
    levels = np.array([1, 2, 3, 4], dtype=np.uint64)
    payload = pack_keyblock(9, levels, 16)
    assert len(payload) == 4 + 4 * 2
    cycle, back = unpack_keyblock(payload, 16)
    assert cycle == 9
    assert np.array_equal(back, levels)


def socketpair_call(fn_a, fn_b):
    """Run fn_a here and fn_b on a thread, each on one end of a socketpair."""
    sock_a, sock_b = socket.socketpair()
    ch_a, ch_b = SocketChannel(sock_a), SocketChannel(sock_b)
    out = {}

    def run(side, fn, ch):
        try:
            out[side] = fn(ch)
        except Exception as exc:  # noqa: BLE001
            out[side + "_err"] = exc

    t = threading.Thread(target=run, args=("b", fn_b, ch_b), daemon=True)
    t.start()
    try:
        run("a", fn_a, ch_a)
    finally:
        t.join(timeout=30)
        ch_a.close()
        ch_b.close()
    assert not t.is_alive()
    return out


def test_handshake_accepts_valid_proposal():
    proposal = HelloParams(1e4, -30, 40, 1024, 32)
    out = socketpair_call(
        lambda ch: handshake(ch, "A", proposal),
        lambda ch: handshake(ch, "B", expected_block_length=1024))
    assert out["a"] == proposal
    assert out["b"] == proposal


def test_handshake_rejects_bad_operating_point():
    proposal = HelloParams(1e4, -3, 16, 1024, 32)
    out = socketpair_call(
        lambda ch: handshake(ch, "A", proposal),
        lambda ch: handshake(ch, "B"))
    assert isinstance(out["a_err"], HandshakeError)
    assert isinstance(out["b_err"], HandshakeError)
    assert "sigma_phi" in str(out["a_err"])


def test_handshake_rejects_block_length_mismatch():
    proposal = HelloParams(1e4, -30, 40, 1024, 32)
    out = socketpair_call(
        lambda ch: handshake(ch, "A", proposal),
        lambda ch: handshake(ch, "B", expected_block_length=512))
    assert isinstance(out["a_err"], HandshakeError)


def test_keyblock_over_loopback_with_tap(tmp_path):
    path = tmp_path / "tap.bin"
    levels = np.arange(6, dtype=np.uint64)

    def side_a(ch):
        tap = record_transcript(ch, path)
        try:
            send_keyblock(ch, 1, levels, 16)
            ch.send(MessageType.PA_SEED, b"\x00" * 21)   # non-keyblock: not taped
            return drive(recv_keyblock(16), ch)
        finally:
            tap.close()

    def side_b(ch):
        got = drive(recv_keyblock(16, expected_count=6), ch)
        ch.recv()
        send_keyblock(ch, 1, levels[::-1], 16)
        return got

    out = socketpair_call(side_a, side_b)
    assert np.array_equal(out["b"][1], levels)
    assert np.array_equal(out["a"][1], levels[::-1])
    entries = read_transcript_levels(path, 16)
    assert len(entries) == 2
    assert np.array_equal(entries[0][1], levels)
    assert np.array_equal(entries[1][1], levels[::-1])


def test_recv_keyblock_count_mismatch():
    def side_a(ch):
        send_keyblock(ch, 1, np.arange(4, dtype=np.uint64), 16)
        return None

    def side_b(ch):
        return drive(recv_keyblock(16, expected_count=9), ch)

    out = socketpair_call(side_a, side_b)
    assert isinstance(out["b_err"], ProtocolError)


def test_tap_failure_does_not_break_sessions(tmp_path):
    tap = TranscriptTap(tmp_path / "no" / "such" / "dir" / "f.bin")
    assert tap.error is not None
    tap.observe(b"data", MessageType.KEYBLOCK)  # swallowed
    tap.close()


def test_empty_transcript_file(tmp_path):
    path = tmp_path / "empty.bin"
    tap = TranscriptTap(path)
    tap.close()
    assert path.stat().st_size == 0
    assert read_transcript_levels(path, 16) == []


def test_peer_channel_recv_while_peer_waits_raises_at_once():
    def peer():
        received = yield RECV
        yield MessageType.CONFIRM, received[1]

    ch = PeerChannel(peer())
    start = time.monotonic()
    with pytest.raises(ChannelError, match="waiting"):
        ch.recv(timeout=30.0)
    assert time.monotonic() - start < 1.0
    ch.send(MessageType.CONFIRM, b"tag")
    assert ch.recv() == (MessageType.CONFIRM, b"tag")
    assert ch.error is None
    with pytest.raises(ChannelError, match="stopped"):
        ch.recv()


def socket_pair():
    a, b = socket.socketpair()
    return SocketChannel(a), SocketChannel(b)


def test_socket_channel_round_trip():
    ch_a, ch_b = socket_pair()
    ch_a.send(MessageType.CONFIRM, b"tag")
    assert ch_b.recv() == (MessageType.CONFIRM, b"tag")
    ch_b.send(MessageType.ERROR, b"nope")
    assert ch_a.recv() == (MessageType.ERROR, b"nope")
    ch_a.close()
    ch_b.close()


def test_socket_channel_rejects_bad_version():
    ch_a, ch_b = socket_pair()
    frame = bytearray(frame_encode(MessageType.HELLO, b""))
    frame[4] = 0x02
    ch_a._sock.sendall(bytes(frame))
    with pytest.raises(BadVersionError):
        ch_b.recv()
    ch_a.close()
    ch_b.close()


def test_socket_channel_closed_midframe():
    ch_a, ch_b = socket_pair()
    frame = frame_encode(MessageType.HELLO, b"abcdef")
    ch_a._sock.sendall(frame[:7])
    ch_a.close()
    with pytest.raises((TruncatedFrameError, ChannelError)):
        ch_b.recv()
    ch_b.close()


def test_socket_channel_reassembles_large_frame_from_small_pieces():
    ch_a, ch_b = socket_pair()
    payload = np.random.default_rng(7).integers(
        0, 256, 3 << 20, dtype=np.uint8).tobytes()
    frame = frame_encode(MessageType.KEYBLOCK, payload)

    def trickle():
        for i in range(0, len(frame), 4093):
            ch_a._sock.sendall(frame[i:i + 4093])

    sender = threading.Thread(target=trickle, daemon=True)
    sender.start()
    try:
        assert ch_b.recv(timeout=10.0) == (MessageType.KEYBLOCK, payload)
    finally:
        sender.join(timeout=10.0)
        ch_a.close()
        ch_b.close()
    assert not sender.is_alive()


def test_socket_channel_truncation_reports_byte_count():
    ch_a, ch_b = socket_pair()
    frame = frame_encode(MessageType.HELLO, b"abcdef")
    ch_a._sock.sendall(frame[:-2])
    ch_a.close()
    with pytest.raises(TruncatedFrameError, match=r"mid-payload \(4/6 bytes\)"):
        ch_b.recv()
    ch_b.close()


def test_expect_error_frame_raises():
    def side_a(ch):
        ch.send(MessageType.ERROR, b"boom")
        return None

    def side_b(ch):
        return drive(expect(MessageType.KEYBLOCK), ch)

    out = socketpair_call(side_a, side_b)
    assert isinstance(out["b_err"], ProtocolError)
    assert "boom" in str(out["b_err"])


def test_expect_unexpected_type_answers_with_error():
    def side_a(ch):
        ch.send(MessageType.CONFIRM, b"")
        return ch.recv()

    def side_b(ch):
        return drive(expect(MessageType.KEYBLOCK), ch)

    out = socketpair_call(side_a, side_b)
    assert isinstance(out["b_err"], ProtocolError)
    assert out["a"][0] == MessageType.ERROR
