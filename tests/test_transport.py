import os
import socket
import threading
import time
import tracemalloc

import numpy as np
import pytest

from noisepad import transport
from noisepad.encode import unpack_levels
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
from noisepad.protocol import PartyState, SessionParams, run_session
from noisepad.transport import (
    HEADER_LEN,
    MAX_PAYLOAD,
    RECV,
    HelloParams,
    MessageType,
    PeerChannel,
    SocketChannel,
    TapeChannel,
    TranscriptTap,
    drive,
    expect,
    frame_decode,
    frame_encode,
    handshake,
    iter_frames,
    pack_hello,
    pack_keyblock,
    record_transcript,
    recv_keyblock,
    send_keyblock,
    unpack_hello,
    unpack_keyblock,
)


def test_frame_fixed_layouts():
    hello = frame_encode(MessageType.HELLO, b"")
    assert hello.hex() == "4e4f545002" + "01" + "00000000"
    kb = frame_encode(MessageType.KEYBLOCK, bytes.fromhex("abcdef"))
    assert kb.hex() == "4e4f545002" + "03" + "00000003" + "abcdef"


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
        frame_decode(good[:4] + b"\x01" + good[5:])
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
    # the responder returns the parameters it validated
    assert out["b"] == SessionParams(1e4, 2.0 ** -30, 40, 1024, 32)


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


def test_tap_records_every_frame_sent_and_received_in_wire_order(tmp_path):
    path = tmp_path / "tap.bin"
    levels = np.arange(6, dtype=np.uint64)
    seed = b"\x00" * 21

    def side_a(ch):
        tap = record_transcript(ch, path)
        try:
            send_keyblock(ch, 1, levels, 16)
            ch.send(MessageType.PA_SEED, seed)
            got = unpack_keyblock(ch.recv()[1], 16)
            ch.recv()
            return got
        finally:
            tap.close()

    def side_b(ch):
        got = drive(recv_keyblock(16, 6, ch.recv()[1]), ch)
        ch.recv()
        send_keyblock(ch, 1, levels[::-1], 16)
        ch.send(MessageType.ERROR, b"stop")
        return got

    out = socketpair_call(side_a, side_b)
    assert np.array_equal(unpack_levels(out["b"][1], 16), levels)
    assert np.array_equal(out["a"][1], levels[::-1])
    frames = list(iter_frames(path.read_bytes()))
    assert [t for t, _ in frames] == [MessageType.KEYBLOCK, MessageType.PA_SEED,
                                      MessageType.KEYBLOCK, MessageType.ERROR]
    assert np.array_equal(unpack_keyblock(frames[0][1], 16)[1], levels)
    assert frames[1][1] == seed
    assert np.array_equal(unpack_keyblock(frames[2][1], 16)[1], levels[::-1])
    assert frames[3][1] == b"stop"


def test_recv_keyblock_count_mismatch():
    # the core answers with ERROR, then raises
    payload = pack_keyblock(1, np.arange(4, dtype=np.uint64), 16)
    error = (MessageType.ERROR, b"expected 9 symbols, got 4")
    with pytest.raises(ProtocolError, match="carries 4 symbols, expected 9"):
        drive(recv_keyblock(16, 9, payload), TapeChannel([error]))


@pytest.mark.parametrize("payload", [
    bytes(pack_keyblock(1, np.arange(4, dtype=np.uint64), 16)) + b"\x00",   # ragged
    b"\x00\x01",                                                  # short of a cycle
], ids=["4-symbols-and-a-byte", "2-bytes"])
def test_recv_keyblock_answers_a_ragged_or_short_payload_with_error(payload):
    error = (MessageType.ERROR, f"expected 4 symbols, got {len(payload)} bytes".encode())
    with pytest.raises(ProtocolError, match=f"carries {len(payload)} bytes, expected 4"):
        drive(recv_keyblock(16, 4, payload), TapeChannel([error]))



def test_tape_channel_replays_received_frames_and_checks_sent_ones():
    def core():
        first = yield from expect(MessageType.PA_SEED)
        yield MessageType.PARITY_REQ, b"\x01"
        return first, (yield from expect(MessageType.PARITY_RESP))

    seed, req = (MessageType.PA_SEED, b"s"), (MessageType.PARITY_REQ, b"\x01")
    resp = (MessageType.PARITY_RESP, b"r")
    assert drive(core(), TapeChannel([seed, req, resp])) == (seed, resp)
    cases = {
        "sent PARITY_REQ, but the tape ends": [seed],
        "sent PARITY_REQ, but the tape holds PARITY_RESP": [seed, resp],
        "sent PARITY_REQ, but the tape holds ERROR 'no'": [
            seed, (MessageType.ERROR, b"no")],
        "sent PARITY_REQ, but the tape holds frame type 0x42": [seed, (0x42, b"")],
        "the tape ends before the next received frame": [seed, req],
        "sent ERROR 'unexpected frame type 0x05', but the tape ends": [resp],
    }
    for reason, frames in cases.items():
        with pytest.raises(ChannelError) as exc:
            drive(core(), TapeChannel(frames))
        assert str(exc.value) == reason


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_tap_failure_does_not_break_sessions(tmp_path):
    # a file that cannot be opened fails before any frame is sent
    with pytest.raises(OSError):
        TranscriptTap(tmp_path / "no" / "such" / "dir" / "f.bin")
    tap = TranscriptTap("/dev/full")             # every flush fails
    tap.observe(MessageType.HELLO, b"data")     # swallowed
    assert tap.error is not None
    with pytest.raises(OSError, match="/dev/full is incomplete"):
        tap.finish()


def test_empty_transcript_file(tmp_path):
    path = tmp_path / "empty.bin"
    tap = TranscriptTap(path)
    tap.close()
    assert path.stat().st_size == 0
    assert list(iter_frames(path.read_bytes())) == []


def test_tap_writes_a_keyblock_without_joining_it_to_its_header(tmp_path):
    # a 2^18-symbol KEYBLOCK at R = 40 is 1.25 MiB; a joined frame would
    # copy all of it for every tapped block
    path = tmp_path / "tap.bin"
    payload = bytearray(np.random.default_rng(9).bytes(4 + 5 * (1 << 18)))
    tap = TranscriptTap(path)
    tracemalloc.start()
    try:
        tap.observe(MessageType.KEYBLOCK, payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        tap.finish()
    assert peak < 64 << 10
    assert path.read_bytes() == frame_encode(MessageType.KEYBLOCK, payload)


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


def test_every_channel_refuses_an_oversize_payload_before_anything_moves(tmp_path):
    big = bytes(MAX_PAYLOAD + 1)
    stepped = []

    def peer():
        while True:
            stepped.append((yield RECV))

    ch = PeerChannel(peer())
    tap = record_transcript(ch, tmp_path / "tap.bin")
    with pytest.raises(OversizeFrameError):
        ch.send(MessageType.KEYBLOCK, big)
    assert stepped == [] and ch.error is None       # the peer was not stepped
    ch.send(MessageType.CONFIRM, b"tag")
    assert stepped == [(MessageType.CONFIRM, b"tag")]
    tap.finish()
    assert list(iter_frames((tmp_path / "tap.bin").read_bytes())) == stepped

    tape = TapeChannel([(MessageType.CONFIRM, b"tag")])
    with pytest.raises(OversizeFrameError):
        tape.send(MessageType.KEYBLOCK, big)
    assert tape.recv() == (MessageType.CONFIRM, b"tag")    # the tape did not advance

    ch_a, ch_b = socket_pair()
    try:
        with pytest.raises(OversizeFrameError):
            ch_a.send(MessageType.KEYBLOCK, big)
        ch_a.send(MessageType.CONFIRM, b"tag")
        assert ch_b.recv(timeout=5.0) == (MessageType.CONFIRM, b"tag")   # its first byte
    finally:
        ch_a.close()
        ch_b.close()

    def loud_peer():
        yield MessageType.KEYBLOCK, big

    ch = PeerChannel(loud_peer())
    assert isinstance(ch.error, OversizeFrameError)
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
    frame[4] = 0x01
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


def test_socket_send_writes_a_frame_larger_than_the_send_buffer_unjoined(monkeypatch):
    # sendmsg writes part of a frame this large; sendall sends the rest.
    # Without a tap, no joined copy of header and payload is built.
    def joined(*_):
        raise AssertionError("frame_encode called on an untapped socket send")
    monkeypatch.setattr(transport, "frame_encode", joined)
    writes = []

    class CountingSocket(socket.socket):
        def sendmsg(self, buffers, *args):
            writes.append(super().sendmsg(buffers, *args))
            return writes[-1]

    a, b = socket.socketpair()
    sender = CountingSocket(fileno=a.detach())
    sender.settimeout(10.0)     # as after a recv: a write takes what the buffer holds
    ch_a, ch_b = SocketChannel(sender), SocketChannel(b)
    payload = np.random.default_rng(8).integers(0, 256, 4 << 20, dtype=np.uint8).tobytes()
    thread = threading.Thread(target=ch_a.send, args=(MessageType.KEYBLOCK, payload),
                              daemon=True)
    thread.start()
    try:
        assert ch_b.recv(timeout=10.0) == (MessageType.KEYBLOCK, payload)
    finally:
        thread.join(timeout=10.0)
        ch_a.close()
        ch_b.close()
    assert not thread.is_alive()
    assert len(writes) == 1 and HEADER_LEN < writes[0] < HEADER_LEN + len(payload)


def test_socket_channel_sets_its_timeout_only_when_it_changes():
    # settimeout is a syscall; a session receives every frame at one timeout
    calls = []

    class CountingSocket(socket.socket):
        def settimeout(self, value):
            calls.append(value)
            super().settimeout(value)

    a, b = socket.socketpair()
    ch_a, ch_b = SocketChannel(a), SocketChannel(CountingSocket(fileno=b.detach()))
    try:
        for i in range(3):
            ch_a.send(MessageType.HELLO, bytes([i]))
            assert ch_b.recv() == (MessageType.HELLO, bytes([i]))
        ch_a.send(MessageType.CONFIRM, b"tag")
        assert ch_b.recv(timeout=5.0) == (MessageType.CONFIRM, b"tag")
        with pytest.raises(ChannelError, match="timed out reading header"):
            ch_b.recv(timeout=0.05)
        with pytest.raises(ChannelError, match="timed out reading header"):
            ch_b.recv(timeout=0.05)
    finally:
        ch_a.close()
        ch_b.close()
    assert calls == [transport.DEFAULT_TIMEOUT, 5.0, 0.05]


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


class _LoggedSocket:
    """A socket that logs each write's bytes and each read's byte count."""

    def __init__(self, sock, log: list):
        self._sock, self._log = sock, log

    def sendall(self, data):
        self._log.append(("write", bytes(data)))
        self._sock.sendall(data)

    def sendmsg(self, buffers):
        sent = self._sock.sendmsg(buffers)
        self._log.append(("write", b"".join(map(bytes, buffers))[:sent]))
        return sent

    def recv_into(self, buf):
        got = self._sock.recv_into(buf)
        self._log.append(("read", got))
        return got

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _record_sends(channel, log: list) -> None:
    """Log each (msg_type, payload) that reaches channel.send."""
    send = channel.send

    def logged(msg_type, payload=b""):
        log.append((msg_type, payload))
        send(msg_type, payload)
    channel.send = logged


def test_socket_session_writes_each_frame_alone():
    params = SessionParams(1e4, 2.0 ** -30, 40, 1024)
    k0_a = np.random.default_rng(3).integers(0, 2, 1024, dtype=np.uint8)
    k0_b = k0_a.copy()
    k0_b[0] ^= 1    # a wrong basis bit: with these seeds, block 1 needs locating
    logs = {"a": [], "b": []}
    sent = {"a": [], "b": []}
    sock_a, sock_b = socket.socketpair()
    ch_a = SocketChannel(_LoggedSocket(sock_a, logs["a"]))
    ch_b = SocketChannel(_LoggedSocket(sock_b, logs["b"]))
    _record_sends(ch_a, sent["a"])
    _record_sends(ch_b, sent["b"])

    def role_b():
        handshake(ch_b, "B", expected_block_length=1024)
        run_session(ch_b, PartyState.create("B", params, k0_b, 2))

    peer = threading.Thread(target=role_b, daemon=True)
    peer.start()
    try:
        handshake(ch_a, "A", params.hello())
        result = run_session(ch_a, PartyState.create("A", params, k0_a, 1),
                             cycles=1 << 20)
    finally:
        peer.join(timeout=30)
        ch_a.close()
        ch_b.close()
    assert not peer.is_alive()
    assert result.early_stop is not None and result.cycles_completed > 1
    types = []
    for side, log in logs.items():
        # one whole frame per write, or frame_decode raises; in core order
        written = [frame_decode(data) for op, data in log if op == "write"]
        assert written == sent[side]
        ops = [op for op, _ in log]
        assert ("write", "write") in zip(ops, ops[1:])   # KEYBLOCK, PA_SEED
        types += [t for t, _ in written]
    keyblocks = types.count(MessageType.KEYBLOCK)
    assert keyblocks >= 2 * result.cycles_completed
    assert MessageType.PARITY_REQ in types


def _error_then_raise():
    yield MessageType.ERROR, b"bad block"
    raise ProtocolError("bad block")


def _confirm_then_return():
    yield MessageType.CONFIRM, b"tag"
    return "done"


def test_drive_sends_frames_as_they_are_yielded():
    ch_a, ch_b = socket_pair()
    try:
        assert drive(_confirm_then_return(), ch_a) == "done"
        assert ch_b.recv(timeout=5.0) == (MessageType.CONFIRM, b"tag")
        ch_a.send(MessageType.HELLO, b"1")      # a bare send after drive
        assert ch_b.recv(timeout=5.0) == (MessageType.HELLO, b"1")
        with pytest.raises(ProtocolError, match="bad block"):
            drive(_error_then_raise(), ch_a)
        assert ch_b.recv(timeout=5.0) == (MessageType.ERROR, b"bad block")
        ch_a.send(MessageType.HELLO, b"2")
        assert ch_b.recv(timeout=5.0) == (MessageType.HELLO, b"2")
    finally:
        ch_a.close()
        ch_b.close()


def test_error_frame_to_a_closed_peer_raises_channel_error():
    ch_a, ch_b = socket_pair()
    ch_b.close()                        # every write to ch_a now fails
    try:
        with pytest.raises(ChannelError, match="send failed"):
            drive(_error_then_raise(), ch_a)
    finally:
        ch_a.close()


def test_tcp_socket_channels_turn_nagle_off():
    server = socket.create_server(("127.0.0.1", 0))
    try:
        client = socket.create_connection(server.getsockname(), timeout=5.0)
        conn, _ = server.accept()
    finally:
        server.close()
    ends = SocketChannel(client), SocketChannel(conn)
    try:
        for sock in (client, conn):
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        ends[0].send(MessageType.HELLO, b"x")
        assert ends[1].recv(timeout=5.0) == (MessageType.HELLO, b"x")
    finally:
        for end in ends:
            end.close()
