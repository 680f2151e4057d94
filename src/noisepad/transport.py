"""Framed wire protocol and channel abstractions.

Frame layout (all integers big-endian):

    magic   4 bytes  "NOTP"
    version 1 byte   0x01
    type    1 byte   MessageType
    length  4 bytes  payload byte count, at most 16 MiB
    payload

Packed symbol levels inside KEYBLOCK payloads are little-endian
(ceil(R/8) bytes per symbol, see encode.pack_levels); everything else on
the wire is big-endian.  The channel is deliberately open: no encryption
beyond the protocol itself.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import analysis
from .encode import Constellation, pack_levels, unpack_levels
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
from .phys import CoherentStateParams

MAGIC = b"NOTP"
VERSION = 0x01
HEADER_LEN = 10
MAX_PAYLOAD = 1 << 24
DEFAULT_TIMEOUT = 30.0

_HEADER = struct.Struct(">4sBBI")
_HELLO = struct.Struct(">dbBIH")


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

def frame_encode(msg_type: int, payload: bytes) -> bytes:
    if len(payload) > MAX_PAYLOAD:
        raise OversizeFrameError(
            f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}")
    return _HEADER.pack(MAGIC, VERSION, int(msg_type), len(payload)) + payload


def frame_decode(buf: bytes) -> tuple[int, bytes]:
    """Decode exactly one frame; the buffer must contain nothing else."""
    msg_type, payload, raw = _decode_at(buf, 0)
    if len(raw) != len(buf):
        raise FrameError(f"{len(buf) - len(raw)} trailing bytes after frame")
    return msg_type, payload


def _decode_at(buf: bytes, offset: int) -> tuple[int, bytes, bytes]:
    if len(buf) - offset < HEADER_LEN:
        raise TruncatedFrameError(
            f"need {HEADER_LEN} header bytes, have {len(buf) - offset}")
    magic, version, msg_type, length = _HEADER.unpack_from(buf, offset)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise BadVersionError(f"unsupported version {version:#04x}")
    if length > MAX_PAYLOAD:
        raise OversizeFrameError(f"declared payload of {length} bytes")
    end = offset + HEADER_LEN + length
    if len(buf) < end:
        raise TruncatedFrameError(
            f"declared {length} payload bytes, have {len(buf) - offset - HEADER_LEN}")
    return msg_type, buf[offset + HEADER_LEN:end], buf[offset:end]


def iter_frames(buf: bytes):
    """Yield (msg_type, payload) for each frame in a concatenated buffer."""
    offset = 0
    while offset < len(buf):
        msg_type, payload, raw = _decode_at(buf, offset)
        yield msg_type, payload
        offset += len(raw)


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------

class TranscriptTap:
    """Records raw KEYBLOCK frames, in wire order, to a file.

    This is the eavesdropper's perfect record of every noisy key block.
    Storage failures are captured on .error and never disturb the session.
    """

    def __init__(self, path):
        self.path = path
        self.error = None
        self._lock = threading.Lock()
        try:
            self._fh = open(path, "wb")
        except OSError as exc:
            self._fh = None
            self.error = exc

    def observe(self, frame_bytes: bytes, msg_type: int) -> None:
        if msg_type != MessageType.KEYBLOCK or self._fh is None:
            return
        with self._lock:
            try:
                self._fh.write(frame_bytes)
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


class Channel:
    """Framed message channel; attach at most one tap per wire."""

    def __init__(self):
        self.tap: TranscriptTap | None = None

    def send(self, msg_type: int, payload: bytes = b"") -> None:
        frame = frame_encode(msg_type, payload)
        self._observe(frame, msg_type)
        self._send_frame(frame)

    def recv(self, timeout: float | None = None) -> tuple[int, bytes]:
        msg_type, payload, raw = self._recv_frame(
            DEFAULT_TIMEOUT if timeout is None else timeout)
        self._observe(raw, msg_type)
        return msg_type, payload

    def _observe(self, frame_bytes: bytes, msg_type: int) -> None:
        if self.tap is not None:
            self.tap.observe(frame_bytes, msg_type)

    def _send_frame(self, frame: bytes) -> None:
        raise NotImplementedError

    def _recv_frame(self, timeout: float):
        raise NotImplementedError

    def close(self) -> None:
        pass


class LoopbackChannel(Channel):
    """In-process channel endpoint; create both ends with pair()."""

    def __init__(self, inbox: queue.SimpleQueue, outbox: queue.SimpleQueue):
        super().__init__()
        self._inbox = inbox
        self._outbox = outbox

    @classmethod
    def pair(cls) -> tuple["LoopbackChannel", "LoopbackChannel"]:
        a_to_b: queue.SimpleQueue = queue.SimpleQueue()
        b_to_a: queue.SimpleQueue = queue.SimpleQueue()
        return cls(b_to_a, a_to_b), cls(a_to_b, b_to_a)

    def _send_frame(self, frame: bytes) -> None:
        self._outbox.put(frame)

    def _recv_frame(self, timeout: float):
        try:
            frame = self._inbox.get(timeout=timeout)
        except queue.Empty:
            raise ChannelError("loopback receive timed out") from None
        msg_type, payload, raw = _decode_at(frame, 0)
        return msg_type, payload, raw


class SocketChannel(Channel):
    def __init__(self, sock: socket.socket):
        super().__init__()
        self._sock = sock

    def _send_frame(self, frame: bytes) -> None:
        try:
            self._sock.sendall(frame)
        except OSError as exc:
            raise ChannelError(f"send failed: {exc}") from exc

    def _read_exact(self, count: int, what: str) -> bytes:
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
        return bytes(buf)

    def _recv_frame(self, timeout: float):
        self._sock.settimeout(timeout)
        header = self._read_exact(HEADER_LEN, "header")
        magic, version, msg_type, length = _HEADER.unpack(header)
        if magic != MAGIC:
            raise BadMagicError(f"bad magic {magic!r}")
        if version != VERSION:
            raise BadVersionError(f"unsupported version {version:#04x}")
        if length > MAX_PAYLOAD:
            raise OversizeFrameError(f"declared payload of {length} bytes")
        payload = self._read_exact(length, "payload") if length else b""
        return msg_type, payload, header + payload

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def record_transcript(channel: Channel, path) -> TranscriptTap:
    """Install a KEYBLOCK tap on one endpoint of a wire; returns the tap."""
    tap = TranscriptTap(path)
    channel.tap = tap
    return tap


def expect(channel: Channel, *want: int) -> tuple[int, bytes]:
    """Receive a frame, requiring one of the given types.

    A peer ERROR frame raises ProtocolError with the peer's message; any
    other unexpected type is answered with an ERROR frame and raised.
    """
    msg_type, payload = channel.recv()
    if msg_type == MessageType.ERROR:
        raise ProtocolError(
            f"peer reported error: {payload.decode('utf-8', 'replace')}")
    if msg_type not in want:
        channel.send(MessageType.ERROR,
                     f"unexpected frame type {msg_type:#04x}".encode())
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

    @property
    def delta_phi(self) -> float:
        return 2.0 ** self.delta_phi_exp


def pack_hello(p: HelloParams) -> bytes:
    return _HELLO.pack(p.avg_photon_number, p.delta_phi_exp,
                       p.resolution_bits, p.block_length, p.safety_bits)


def unpack_hello(payload: bytes) -> HelloParams:
    if len(payload) != _HELLO.size:
        raise ProtocolError(f"HELLO payload must be {_HELLO.size} bytes")
    return HelloParams(*_HELLO.unpack(payload))


def _check_proposal(p: HelloParams, expected_block_length: int | None,
                    ratio: float) -> str | None:
    """Reason string if the proposal is unacceptable, else None."""
    try:
        params = CoherentStateParams(p.avg_photon_number)
        Constellation(p.delta_phi, p.resolution_bits)
    except ValueError as exc:
        return str(exc)
    report = analysis.validate_params(params, p.delta_phi, ratio)
    if not report.ok:
        return report.describe()
    if p.block_length < 8:
        return f"block_length {p.block_length} is too short"
    if expected_block_length is not None and p.block_length != expected_block_length:
        return (f"block_length {p.block_length} does not match this side's "
                f"key length {expected_block_length}")
    return None


def handshake(channel: Channel, role: str, proposal: HelloParams | None = None,
              expected_block_length: int | None = None,
              ratio: float = 8.0) -> HelloParams:
    """Negotiate session parameters; initiator proposes, responder validates.

    Raises HandshakeError when the responder (or this side, as responder)
    rejects the proposal.
    """
    if role == "A":
        if proposal is None:
            raise ValueError("initiator needs a proposal")
        channel.send(MessageType.HELLO, pack_hello(proposal))
        msg_type, payload = channel.recv()
        if msg_type == MessageType.ERROR:
            raise HandshakeError(
                f"peer rejected session: {payload.decode('utf-8', 'replace')}")
        if msg_type != MessageType.HELLO_ACK:
            raise ProtocolError(f"expected HELLO_ACK, got {msg_type:#04x}")
        return proposal
    if role == "B":
        _, payload = expect(channel, MessageType.HELLO)
        offered = unpack_hello(payload)
        reason = _check_proposal(offered, expected_block_length, ratio)
        if reason is not None:
            channel.send(MessageType.ERROR, reason.encode())
            raise HandshakeError(f"rejected peer session: {reason}")
        channel.send(MessageType.HELLO_ACK)
        return offered
    raise ValueError(f"role must be 'A' or 'B', got {role!r}")


# ---------------------------------------------------------------------------
# Key blocks
# ---------------------------------------------------------------------------

def pack_keyblock(cycle_index: int, levels, resolution_bits: int) -> bytes:
    return struct.pack(">I", cycle_index) + pack_levels(levels, resolution_bits)


def unpack_keyblock(payload: bytes, resolution_bits: int):
    if len(payload) < 4:
        raise ProtocolError("KEYBLOCK payload shorter than its cycle index")
    cycle_index = struct.unpack_from(">I", payload)[0]
    return cycle_index, unpack_levels(payload[4:], resolution_bits)


def send_keyblock(channel: Channel, cycle_index: int, levels,
                  resolution_bits: int) -> None:
    channel.send(MessageType.KEYBLOCK,
                 pack_keyblock(cycle_index, levels, resolution_bits))


def recv_keyblock(channel: Channel, resolution_bits: int,
                  expected_count: int | None = None,
                  payload: bytes | None = None):
    """Receive (or parse an already-received) KEYBLOCK payload."""
    if payload is None:
        _, payload = expect(channel, MessageType.KEYBLOCK)
    cycle_index, levels = unpack_keyblock(payload, resolution_bits)
    if expected_count is not None and len(levels) != expected_count:
        channel.send(MessageType.ERROR,
                     f"expected {expected_count} symbols, got {len(levels)}".encode())
        raise ProtocolError(
            f"keyblock carries {len(levels)} symbols, expected {expected_count}")
    return cycle_index, levels


def read_transcript_levels(path, resolution_bits: int):
    """Parse a transcript file into (cycle_index, levels) in wire order."""
    with open(path, "rb") as fh:
        data = fh.read()
    out = []
    for msg_type, payload in iter_frames(data):
        if msg_type != MessageType.KEYBLOCK:
            raise FrameError(
                f"transcript contains non-KEYBLOCK frame {msg_type:#04x}")
        out.append(unpack_keyblock(payload, resolution_bits))
    return out
