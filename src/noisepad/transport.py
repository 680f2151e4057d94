"""Framed wire protocol and channel abstractions.

Frame layout (all integers big-endian):

    magic   4 bytes  "NOTP"
    version 1 byte   0x02
    type    1 byte   MessageType
    length  4 bytes  payload byte count, at most 16 MiB
    payload

Packed symbol levels inside KEYBLOCK payloads are little-endian, ceil(R/8)
bytes per symbol, moved as power-of-two integer fields (see encode);
everything else on the wire is big-endian.  The channel is deliberately
open: no encryption beyond the protocol itself.

Each frame exchange is written once, as a generator *core* that does no
I/O: it yields `(msg_type, payload)` to send a frame, or `RECV` to get the
next received `(msg_type, payload)` back, and returns its result.
A core meets one of three drivers: `drive(core, channel)` runs it over a
blocking channel (a socket); `PeerChannel(peer_core)` steps the peer's
core in process instead; and `drive(core, TapeChannel(frames))` replays a
recorded wire to it, checking every frame it sends against the record.
Inside the process a frame is that `(msg_type, payload)` pair; it becomes
bytes only on a socket and on a TranscriptTap, which keeps the
eavesdropper's tape on one end: every frame, in wire order.

On TCP, Nagle is off: each frame leaves in its own write as a core
yields it, and none waits for the peer's delayed ACK.
"""

from __future__ import annotations

import socket
import struct
from collections import deque
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .encode import bytes_per_symbol, pack_levels, unpack_levels
from .errors import (
    BadMagicError,
    BadVersionError,
    ChannelError,
    FrameError,
    HandshakeError,
    OversizeFrameError,
    ProtocolError,
    TruncatedFrameError,
)

MAGIC = b"NOTP"
VERSION = 0x02
HEADER_LEN = 10
MAX_PAYLOAD = 1 << 24
DEFAULT_TIMEOUT = 30.0

_HEADER = struct.Struct(">4sBBI")
_HELLO = struct.Struct(">dbBIH")

RECV = object()
"""Yielded by a core to receive a frame; the driver sends back (msg_type, payload)."""


class MessageType(IntEnum):
    HELLO = 0x01
    HELLO_ACK = 0x02
    KEYBLOCK = 0x03
    PARITY_REQ = 0x04
    PARITY_RESP = 0x05
    PA_SEED = 0x06
    CONFIRM = 0x07
    ERROR = 0x7F


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------

def _check_size(payload: bytes) -> None:
    if len(payload) > MAX_PAYLOAD:
        raise OversizeFrameError(
            f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}")


def _header(msg_type: int, payload: bytes) -> bytes:
    return _HEADER.pack(MAGIC, VERSION, int(msg_type), len(payload))


def frame_encode(msg_type: int, payload: bytes) -> bytes:
    _check_size(payload)
    return _header(msg_type, payload) + payload


def frame_decode(buf: bytes) -> tuple[int, bytes]:
    """Decode exactly one frame; the buffer must contain nothing else."""
    msg_type, payload, end = _decode_at(buf, 0)
    if end != len(buf):
        raise FrameError(f"{len(buf) - end} trailing bytes after frame")
    return msg_type, payload


def _parse_header(buf: bytes, offset: int = 0) -> tuple[int, int]:
    """(msg_type, payload length) of the header at offset, checked."""
    magic, version, msg_type, length = _HEADER.unpack_from(buf, offset)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise BadVersionError(f"unsupported version {version:#04x}")
    if length > MAX_PAYLOAD:
        raise OversizeFrameError(f"declared payload of {length} bytes")
    return msg_type, length


def _decode_at(buf: bytes, offset: int) -> tuple[int, bytes, int]:
    """(msg_type, payload, end offset) of the frame at offset."""
    if len(buf) - offset < HEADER_LEN:
        raise TruncatedFrameError(
            f"need {HEADER_LEN} header bytes, have {len(buf) - offset}")
    msg_type, length = _parse_header(buf, offset)
    end = offset + HEADER_LEN + length
    if len(buf) < end:
        raise TruncatedFrameError(
            f"declared {length} payload bytes, have {len(buf) - offset - HEADER_LEN}")
    return msg_type, buf[offset + HEADER_LEN:end], end


def iter_frames(buf: bytes):
    """Yield (msg_type, payload) for each frame in a concatenated buffer."""
    offset = 0
    while offset < len(buf):
        msg_type, payload, offset = _decode_at(buf, offset)
        yield msg_type, payload


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------

class TranscriptTap:
    """Records every frame, sent or received, in wire order, to a file.

    This is the eavesdropper's perfect record of the session.  A file that
    cannot be opened raises OSError at once; a later storage failure is
    captured on .error and never disturbs the session.
    """

    def __init__(self, path):
        self.path = path
        self.error = None
        self._fh = open(path, "wb")

    def observe(self, msg_type: int, payload: bytes) -> None:
        if self._fh is None:
            return
        try:    # header, then payload: a KEYBLOCK is never joined into a copy
            self._fh.write(_header(msg_type, payload))
            self._fh.write(payload)
            self._fh.flush()
        except OSError as exc:
            self.error = exc

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError as exc:
                self.error = exc
            self._fh = None

    def finish(self) -> None:
        """Close the file; raise OSError if the transcript lost a frame."""
        self.close()
        if self.error is not None:
            raise OSError(f"transcript {self.path} is incomplete: {self.error}")


class Channel:
    """A (msg_type, payload) channel with at most one tap, which close() also closes."""

    def __init__(self):
        self.tap: TranscriptTap | None = None

    def send(self, msg_type: int, payload: bytes = b"") -> None:
        _check_size(payload)
        if self.tap is not None:
            self.tap.observe(msg_type, payload)
        self._send(msg_type, payload)

    def recv(self, timeout: float | None = None) -> tuple[int, bytes]:
        # `timeout` keeps perfbench's SlipChannel.recv signature (ROADMAP item 2)
        frame = self._recv(DEFAULT_TIMEOUT if timeout is None else timeout)
        if self.tap is not None:
            self.tap.observe(*frame)
        return frame

    def _send(self, msg_type: int, payload: bytes) -> None:
        raise NotImplementedError

    def _recv(self, timeout: float) -> tuple[int, bytes]:
        raise NotImplementedError

    def close(self) -> None:
        if self.tap is not None:
            self.tap.close()


class PeerChannel(Channel):
    """In-process channel whose far end is a core, stepped on the caller's thread.

    Each frame sent here runs the peer core until it waits for its next
    frame; the frames it yields pass through the Channel.send of its own
    end and queue up for recv.  Its result lands on .result, an exception
    it raised on .error, and frames sent to a stopped peer are dropped.
    """

    def __init__(self, peer_core):
        super().__init__()
        self._inbox: deque = deque()
        self.peer_end = Channel()   # carries the peer's frames into the inbox
        self.peer_end._send = lambda *frame: self._inbox.append(frame)
        self.result = None
        self.error: Exception | None = None
        self._core = peer_core
        self._step(None)

    def _step(self, received) -> None:
        try:
            step = self._core.send(received)
            while step is not RECV:
                self.peer_end.send(*step)
                step = next(self._core)
        except StopIteration as done:
            self._core, self.result = None, done.value
        except Exception as exc:  # noqa: BLE001 - the caller re-raises .error
            self._core, self.error = None, exc

    def _send(self, msg_type: int, payload: bytes) -> None:
        if self._core is not None:
            self._step((msg_type, payload))

    def _recv(self, timeout: float) -> tuple[int, bytes]:
        if not self._inbox:   # no wait: nothing else can queue a frame
            state = "has stopped" if self._core is None else "is waiting too"
            raise ChannelError(f"no frame queued: the peer {state}") from self.error
        return self._inbox.popleft()


class SocketChannel(Channel):
    def __init__(self, sock: socket.socket):
        super().__init__()
        self._sock = sock
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _send(self, msg_type: int, payload: bytes) -> None:
        header = _header(msg_type, payload)
        try:    # one sendmsg of both, no joined copy; sendall writes what it left
            sent = self._sock.sendmsg([header, payload])
            if sent < HEADER_LEN:
                self._sock.sendall(header[sent:])
            if sent < HEADER_LEN + len(payload):
                self._sock.sendall(memoryview(payload)[max(sent - HEADER_LEN, 0):])
        except OSError as exc:
            raise ChannelError(f"send failed: {exc}") from exc

    def _read_exact(self, count: int, what: str) -> bytearray:
        buf = bytearray(count)
        view = memoryview(buf)
        got = 0
        while got < count:
            try:
                part = self._sock.recv_into(view[got:])
            except socket.timeout:
                raise ChannelError(f"timed out reading {what}") from None
            except OSError as exc:
                raise ChannelError(f"recv failed: {exc}") from exc
            if not part:
                if got:
                    raise TruncatedFrameError(
                        f"connection closed mid-{what} "
                        f"({got}/{count} bytes)")
                raise ChannelError("connection closed")
            got += part
        return buf

    def _recv(self, timeout: float) -> tuple[int, bytes]:
        if self._sock.gettimeout() != timeout:     # settimeout is a syscall
            self._sock.settimeout(timeout)
        msg_type, length = _parse_header(self._read_exact(HEADER_LEN, "header"))
        return msg_type, self._read_exact(length, "payload") if length else b""

    def close(self) -> None:
        super().close()
        try:
            self._sock.close()
        except OSError:
            pass


class TapeChannel(Channel):
    """Replays recorded frames to a core, as the far end of a tape.

    Each frame the core receives is the tape's next frame; each frame it
    sends must equal the tape's next frame.  A frame the tape does not
    hold there, or a tape that has run out, raises ChannelError.
    """

    def __init__(self, frames):
        super().__init__()
        self._frames = iter(frames)

    def _send(self, msg_type: int, payload: bytes) -> None:
        taped = next(self._frames, None)
        if taped is None or (msg_type, payload) != taped:
            held = "ends" if taped is None else f"holds {_describe(*taped)}"
            raise ChannelError(
                f"sent {_describe(msg_type, payload)}, but the tape {held}")

    def _recv(self, timeout: float) -> tuple[int, bytes]:
        taped = next(self._frames, None)
        if taped is None:
            raise ChannelError("the tape ends before the next received frame")
        return taped


def _describe(msg_type: int, payload: bytes) -> str:
    """A frame's type, and an ERROR frame's text."""
    if msg_type == MessageType.ERROR:
        return f"ERROR {payload.decode('utf-8', 'replace')!r}"
    try:
        return MessageType(msg_type).name
    except ValueError:
        return f"frame type {msg_type:#04x}"


def record_transcript(channel: Channel, path) -> TranscriptTap:
    """Install a tap on one endpoint of a wire; returns the tap."""
    tap = TranscriptTap(path)
    channel.tap = tap
    return tap


def drive(core, channel: Channel):
    """Run a core to its end over a blocking channel; returns its result."""
    try:
        step = next(core)
        while True:
            if step is RECV:
                step = core.send(channel.recv())
            else:
                channel.send(*step)
                step = next(core)
    except StopIteration as done:
        return done.value


def expect(*want: int):
    """Core: receive a frame, requiring one of the given types.

    A peer ERROR frame raises ProtocolError with the peer's message; any
    other unexpected type is answered with an ERROR frame and raised.
    """
    msg_type, payload = yield RECV
    if msg_type == MessageType.ERROR:
        raise ProtocolError(
            f"peer reported error: {payload.decode('utf-8', 'replace')}")
    if msg_type not in want:
        yield MessageType.ERROR, f"unexpected frame type {msg_type:#04x}".encode()
        raise ProtocolError(f"unexpected frame type {msg_type:#04x}")
    return msg_type, payload


# ---------------------------------------------------------------------------
# Handshake
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HelloParams:
    """Session proposal carried by the HELLO frame."""

    avg_photon_number: float
    delta_phi_exp: int
    resolution_bits: int
    block_length: int
    safety_bits: int


def pack_hello(p: HelloParams) -> bytes:
    return _HELLO.pack(p.avg_photon_number, p.delta_phi_exp,
                       p.resolution_bits, p.block_length, p.safety_bits)


def unpack_hello(payload: bytes) -> HelloParams:
    if len(payload) != _HELLO.size:
        raise ProtocolError(f"HELLO payload must be {_HELLO.size} bytes")
    return HelloParams(*_HELLO.unpack(payload))


def handshake(channel: Channel, role: str, proposal: HelloParams | None = None,
              expected_block_length: int | None = None):
    """Negotiate session parameters over a channel; see handshake_core."""
    return drive(handshake_core(role, proposal, expected_block_length), channel)


def handshake_core(role: str, proposal: HelloParams | None = None,
                   expected_block_length: int | None = None):
    """Core: the initiator proposes, the responder validates.

    Returns A's proposal, or B's protocol.SessionParams of it, validated once
    here.  Raises HandshakeError when the responder rejects the proposal.
    """
    if role == "A":
        if proposal is None:
            raise ValueError("initiator needs a proposal")
        yield MessageType.HELLO, pack_hello(proposal)
        msg_type, payload = yield RECV
        if msg_type == MessageType.ERROR:
            raise HandshakeError(
                f"peer rejected session: {payload.decode('utf-8', 'replace')}")
        if msg_type != MessageType.HELLO_ACK:
            raise ProtocolError(f"expected HELLO_ACK, got {msg_type:#04x}")
        return proposal
    if role == "B":
        from .protocol import SessionParams     # protocol imports this module
        _, payload = yield from expect(MessageType.HELLO)
        offered = unpack_hello(payload)
        try:
            params = SessionParams.from_hello(offered)
            if expected_block_length not in (None, offered.block_length):
                raise ValueError(f"block_length {offered.block_length} does not match "
                                 f"this side's key length {expected_block_length}")
        except ValueError as exc:
            yield MessageType.ERROR, str(exc).encode()
            raise HandshakeError(f"rejected peer session: {exc}") from None
        yield MessageType.HELLO_ACK, b""
        return params
    raise ValueError(f"role must be 'A' or 'B', got {role!r}")


# ---------------------------------------------------------------------------
# Key blocks
# ---------------------------------------------------------------------------

def keyblock_payload(cycle_index: int, count: int, resolution_bits: int) -> bytearray:
    """A KEYBLOCK payload of count levels, zero, for the sender to pack."""
    payload = bytearray(4 + count * bytes_per_symbol(resolution_bits))
    struct.pack_into(">I", payload, 0, cycle_index)
    return payload


def pack_keyblock(cycle_index: int, levels, resolution_bits: int) -> bytearray:
    """A KEYBLOCK payload of levels from outside the session; ValueError if one is >= 2^R."""
    levels = np.asarray(levels, dtype="<u8")
    if levels.size and int(levels.max()) >> resolution_bits:
        raise ValueError("level out of range for resolution_bits")
    payload = keyblock_payload(cycle_index, len(levels), resolution_bits)
    pack_levels(levels, resolution_bits, out=memoryview(payload)[4:])
    return payload


def keyblock_symbols(payload: bytes, resolution_bits: int) -> int:
    """A KEYBLOCK payload's level count; ProtocolError if it is short or ragged."""
    if len(payload) < 4:
        raise ProtocolError("KEYBLOCK payload shorter than its cycle index")
    count, ragged = divmod(len(payload) - 4, bytes_per_symbol(resolution_bits))
    if ragged:
        raise ProtocolError(f"KEYBLOCK levels: packed data length {len(payload) - 4} "
                            f"is not a multiple of {bytes_per_symbol(resolution_bits)}")
    return count


def unpack_keyblock(payload: bytes, resolution_bits: int):  # perfbench's SlipChannel (item 2)
    keyblock_symbols(payload, resolution_bits)
    return (struct.unpack_from(">I", payload)[0],
            unpack_levels(memoryview(payload)[4:], resolution_bits))


def send_keyblock(channel: Channel, cycle_index: int, levels,  # perfbench/tests (item 7)
                  resolution_bits: int) -> None:
    channel.send(MessageType.KEYBLOCK,
                 pack_keyblock(cycle_index, levels, resolution_bits))


def recv_keyblock(resolution_bits: int, expected_count: int, payload: bytes):
    """Core: a received KEYBLOCK payload's cycle index and level bytes (a view).

    A payload not of expected_count whole symbols is answered with ERROR and raised.
    """
    count, ragged = divmod(len(payload) - 4, bytes_per_symbol(resolution_bits))
    if count != expected_count or ragged:
        whole = count >= 0 and not ragged
        got = str(count) if whole else f"{len(payload)} bytes"
        yield MessageType.ERROR, f"expected {expected_count} symbols, got {got}".encode()
        raise ProtocolError(f"keyblock carries {got + ' symbols' if whole else got}, "
                            f"expected {expected_count}")
    return struct.unpack_from(">I", payload)[0], memoryview(payload)[4:]
