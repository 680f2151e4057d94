"""Closed-loop session workloads and the correctness gates every session must pass.

Sessions run one at a time, role A on the calling thread and role B on one
other thread.  The loopback workload drives `protocol.simulate_session`;
the TCP workloads drive the same stack as `noisepad serve` / `noisepad
connect`: `transport.handshake`, `protocol.PartyState.create` and
`protocol.run_session` over one fresh 127.0.0.1 `transport.SocketChannel`
per session.  Every input is derived from the workload seed and the
session index.
"""

from __future__ import annotations

import hashlib
import socket
import struct
import threading
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from noisepad import protocol, transport
from noisepad.transport import MessageType

# The fixed operating point: the CLI defaults.
N_AVG = 1e4
DELTA_PHI_EXP = -30
RESOLUTION_BITS = 40
SAFETY_BITS = 32

RUN_TO_EXHAUSTION = 1 << 20   # cycle budget no chain can reach
PEER_JOIN_TIMEOUT = 60.0
_PROBE = bytes([protocol._SUB_PROBE])


class GateError(Exception):
    """A benchmark correctness gate failed."""


@dataclass(frozen=True)
class Workload:
    name: str
    k0_bits: int
    wire: str                 # "loopback" or "tcp"
    cycles: int | None        # None: run until the chain is exhausted
    slips: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("loopback-1k", 1024, "loopback", None),
    Workload("tcp-1k-slips", 1024, "tcp", None, slips=True),
    Workload("tcp-256k", 1 << 18, "tcp", 4),
)}


def session_params(k0_bits: int) -> protocol.SessionParams:
    return protocol.SessionParams(
        avg_photon_number=N_AVG,
        delta_phi=2.0 ** DELTA_PHI_EXP,
        resolution_bits=RESOLUTION_BITS,
        block_length=k0_bits,
        safety_bits=SAFETY_BITS,
    )


def check_operating_point(params: protocol.SessionParams, k0_bits: int) -> None:
    got = (params.avg_photon_number, params.delta_phi, params.resolution_bits,
           params.block_length, params.safety_bits, params.reconciliation_block)
    want = (N_AVG, 2.0 ** DELTA_PHI_EXP, RESOLUTION_BITS, k0_bits, SAFETY_BITS,
            k0_bits)
    if got != want:
        raise GateError(f"operating point {got} is not the fixed point {want}")


class SlipChannel(transport.SocketChannel):
    """Socket channel that adds one pi phase slip to every KEYBLOCK it sends.

    The slipped symbol is drawn from a seeded generator.  For every KEYBLOCK
    it receives, the channel counts the bisection probes this side sends
    while reconciling that block.
    """

    def __init__(self, sock: socket.socket, seed: int):
        super().__init__(sock)
        self._rng = np.random.default_rng(seed)
        self.slipped: list = []           # (cycle, symbol index) per block sent
        self.probes_per_block: list = []  # per block received

    def send(self, msg_type: int, payload: bytes = b"") -> None:
        if msg_type == MessageType.KEYBLOCK:
            payload = self._slip(payload)
        elif (msg_type == MessageType.PARITY_REQ and payload[:1] == _PROBE
              and self.probes_per_block):
            self.probes_per_block[-1] += 1
        super().send(msg_type, payload)

    def recv(self, timeout: float | None = None):
        msg_type, payload = super().recv(timeout)
        if msg_type == MessageType.KEYBLOCK:
            self.probes_per_block.append(0)
        return msg_type, payload

    def _slip(self, payload: bytes) -> bytes:
        cycle, levels = transport.unpack_keyblock(payload, RESOLUTION_BITS)
        i = int(self._rng.integers(len(levels)))
        levels[i] = (int(levels[i]) + (1 << (RESOLUTION_BITS - 1))) % (1 << RESOLUTION_BITS)
        self.slipped.append((cycle, i))
        return transport.pack_keyblock(cycle, levels, RESOLUTION_BITS)


@dataclass
class SessionInputs:
    index: int
    k0: np.ndarray
    seed_a: int
    seed_b: int
    slip_seed: int
    peer_k0: np.ndarray | None = None   # role B's K0, when it differs (TCP only)


@dataclass
class Outcome:
    """What one session delivered, how long it took, and what went wrong."""

    index: int
    wall_s: float = 0.0
    delivered_bits: int = 0
    cycle_ms: list = field(default_factory=list)
    error: str | None = None              # a role raised or the chains differ
    violations: list = field(default_factory=list)   # gate failures
    fingerprint: dict | None = None

    @property
    def cycles(self) -> int:
        return len(self.cycle_ms)


def fingerprint(result_a, keyblock_stream: bytes) -> dict:
    keys = hashlib.sha256()
    for key in result_a.chain.keys[1:]:
        keys.update(struct.pack(">I", len(key.bits)))
        keys.update(np.packbits(key.bits).tobytes())
    return {"keys_sha256": keys.hexdigest(),
            "keyblocks_sha256": hashlib.sha256(keyblock_stream).hexdigest()}


def ledger_floor_violations(records: list, k0_bits: int) -> list:
    """Each cycle must shrink the two keys by 2 * safety + the ledger growth."""
    out = []
    prev_len, prev_total = k0_bits, 0.0
    for rec in records:
        k2 = rec["delivered_bits"][1]
        shrink = prev_len - k2
        floor = 2 * SAFETY_BITS + rec["ledger_total"] - prev_total
        if shrink < floor - 1e-9:
            out.append(f"cycle {rec['cycle']}: keys shrank {shrink} bits, "
                       f"ledger floor is {floor:.3f}")
        prev_len, prev_total = k2, rec["ledger_total"]
    return out


class Bench:
    """Set-up state of one workload: parameters, listener, session runner."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.params = session_params(workload.k0_bits)
        check_operating_point(self.params, workload.k0_bits)
        self.listener = None
        if workload.wire == "tcp":
            self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self.listener.bind(("127.0.0.1", 0))
            self.listener.listen()
        self._stamps: list = []
        self._records: list = []
        # Stamp the moment role A enters run_session: the first cycle of a
        # session is timed from there (loopback calls it internally).
        self._run_session = protocol.run_session

        def stamped(channel, state, *args, **kwargs):
            if state.role == "A":
                self._stamps.append(perf_counter())
            return self._run_session(channel, state, *args, **kwargs)

        protocol.run_session = stamped

    def close(self) -> None:
        protocol.run_session = self._run_session
        if self.listener is not None:
            self.listener.close()

    def inputs(self, index: int) -> SessionInputs:
        rng = np.random.default_rng([self.seed, index])
        k0 = rng.integers(0, 2, self.workload.k0_bits, dtype=np.uint8)
        seed_a, seed_b, slip_seed = (int(x) for x in rng.integers(0, 2 ** 62, 3))
        return SessionInputs(index, k0, seed_a, seed_b, slip_seed)

    def _on_cycle(self, record: dict) -> None:
        self._stamps.append(perf_counter())
        self._records.append(record)

    def run(self, inp: SessionInputs, keyblock_path=None) -> Outcome:
        """Run one session, then check it; never raises for a failed session.

        With `keyblock_path`, role A's channel records every KEYBLOCK frame
        there and the outcome carries the session's fingerprint.
        """
        out = Outcome(inp.index)
        self._stamps, self._records = [], []
        wire = self._loopback if self.workload.wire == "loopback" else self._tcp
        t0 = perf_counter()
        try:
            result_a, result_b, slip_channels = wire(inp, keyblock_path)
        except Exception as exc:  # noqa: BLE001 - a failed session is counted, not fatal
            out.wall_s = perf_counter() - t0
            out.error = f"{type(exc).__name__}: {exc}"
            return out
        out.wall_s = perf_counter() - t0
        if not result_a.chain.bits_equal(result_b.chain):
            out.error = "role A's and role B's key chains differ"
            return out
        stamps = self._stamps
        out.cycle_ms = [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])]
        out.delivered_bits = result_a.chain.total_delivered()
        out.violations = self._gates(result_a, slip_channels)
        if keyblock_path is not None:
            with open(keyblock_path, "rb") as fh:
                out.fingerprint = fingerprint(result_a, fh.read())
        return out

    def _gates(self, result_a, slip_channels) -> list:
        w = self.workload
        bad = ledger_floor_violations(self._records, w.k0_bits)
        if len(self._records) != result_a.cycles_completed:
            bad.append("progress records do not match the completed cycles")
        if w.cycles is None and result_a.early_stop is None:
            bad.append("session ended before the chain was exhausted")
        if w.cycles is not None and result_a.cycles_completed != w.cycles:
            bad.append(f"completed {result_a.cycles_completed} of {w.cycles} cycles")
        if w.slips:
            a, b = slip_channels
            for sender, receiver in ((a, b), (b, a)):
                probes = receiver.probes_per_block
                if len(probes) != len(sender.slipped) or min(probes, default=0) < 1:
                    bad.append(f"slipped KEYBLOCKs without a bisection probe: "
                               f"{len(sender.slipped)} sent, probes {probes}")
        return bad

    # -- drivers -----------------------------------------------------------

    def _loopback(self, inp: SessionInputs, keyblock_path):
        result_a, result_b = protocol.simulate_session(
            self.params, inp.k0, inp.seed_a, inp.seed_b,
            cycles=self.workload.cycles or RUN_TO_EXHAUSTION,
            transcript_path=keyblock_path, progress=self._on_cycle)
        return result_a, result_b, None

    def _channel(self, sock: socket.socket, slip_seed: int):
        if self.workload.slips:
            return SlipChannel(sock, slip_seed)
        return transport.SocketChannel(sock)

    def _tcp(self, inp: SessionInputs, keyblock_path):
        n = self.workload.k0_bits
        sock_a = socket.create_connection(self.listener.getsockname(),
                                          timeout=transport.DEFAULT_TIMEOUT)
        try:
            sock_b, _ = self.listener.accept()
        except OSError:
            sock_a.close()
            raise
        ch_a = self._channel(sock_a, inp.slip_seed)
        ch_b = self._channel(sock_b, inp.slip_seed + 1)
        peer = _Peer(lambda: self._role_b(ch_b, inp))
        peer.start()
        tap = None
        try:
            if keyblock_path is not None:
                tap = transport.record_transcript(ch_a, keyblock_path)
            params = session_params(n)      # as `noisepad connect` builds it
            proposal = transport.HelloParams(N_AVG, DELTA_PHI_EXP, RESOLUTION_BITS,
                                             n, SAFETY_BITS)
            transport.handshake(ch_a, "A", proposal)
            state = protocol.PartyState.create("A", params, inp.k0, inp.seed_a)
            result_a = protocol.run_session(
                ch_a, state, cycles=self.workload.cycles or RUN_TO_EXHAUSTION,
                progress=self._on_cycle)
        finally:
            # Closing A's end wakes a role B that is still waiting on it.
            ch_a.close()
            if tap is not None:
                tap.close()
            peer.join(PEER_JOIN_TIMEOUT)
            if peer.is_alive():
                try:
                    sock_b.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                peer.join(PEER_JOIN_TIMEOUT)
        if peer.is_alive():
            raise GateError("role B did not finish")
        if peer.error is not None:
            raise peer.error
        slips = (ch_a, ch_b) if self.workload.slips else None
        return result_a, peer.result, slips

    def _role_b(self, channel, inp: SessionInputs):
        """Role B as `noisepad serve` runs it: parameters come from HELLO."""
        n = self.workload.k0_bits
        try:
            hello = transport.handshake(channel, "B", expected_block_length=n)
            params = protocol.SessionParams(
                avg_photon_number=hello.avg_photon_number,
                delta_phi=hello.delta_phi,
                resolution_bits=hello.resolution_bits,
                block_length=hello.block_length,
                safety_bits=hello.safety_bits,
            )
            check_operating_point(params, n)
            k0 = inp.k0 if inp.peer_k0 is None else inp.peer_k0
            state = protocol.PartyState.create("B", params, k0, inp.seed_b)
            return protocol.run_session(channel, state)
        finally:
            channel.close()


class _Peer(threading.Thread):
    """Role B's thread; keeps the result or the exception for the caller."""

    def __init__(self, fn):
        super().__init__(daemon=True)
        self._fn = fn
        self.result = None
        self.error = None

    def run(self):
        try:
            self.result = self._fn()
        except Exception as exc:  # noqa: BLE001 - re-raised on role A's thread
            self.error = exc
