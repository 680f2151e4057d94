"""Alice/Bob key-distribution state machines.

One distribution cycle sends fresh random bits from A to B, noise-masked
under the current shared key (used exactly once as basis material), then
fresh bits from B back to A under the key that was just delivered.  Each
direction is parity-reconciled, charged to a leak ledger, and compressed
with a seeded modified Toeplitz hash [I | T] (dual universal, n-1 public
seed bits) before joining the key chain.

Every chained key is a little shorter than its predecessor (the discarded
bits pay for disclosed parities, the statistical basis leak, and a safety
margin), so a chain eventually exhausts and a fresh shared seed must
restart the process.  All party randomness is drawn from seeded generators
standing in for physical entropy sources.

Each party's half of the dialogue is a sans-I/O core (see transport): it
yields frames to send or RECV, and one core serves both roles.  run_session
drives it over a channel; simulate_session and run_cycle step role B's core
behind a transport.PeerChannel, so both parties share one thread.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import analysis, transport
from .encode import Constellation, decode_with_basis, transmit_symbol
from .errors import (
    KeyExhaustedError,
    ConfirmMismatchError,
    OneTimeViolationError,
    ProtocolError,
    ReconciliationError,
)
from .phys import CoherentStateParams, PhaseNoiseModel
from .transport import Channel, MessageType, expect

A_TO_B = 0
B_TO_A = 1

TAG_BITS = 256
_PARITY_PASSES = 2

_PA_SEED = struct.Struct(">IBQQ")
_BULK_REQ = struct.Struct(">BBI")
_PROBE_REQ = struct.Struct(">BBII")
_SUB_BULK, _SUB_PROBE, _SUB_VERIFY = 0, 1, 2


def _as_bits(bits) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.uint8).reshape(-1)
    if arr.size and arr.max() > 1:
        raise ValueError("bit sequences must contain only 0s and 1s")
    return arr


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SessionParams:
    """Operating point and block configuration for one session.

    Construction fails unless the operating condition holds at ratio 8 and
    the quantization grid resolves the basis offset.
    """

    avg_photon_number: float
    delta_phi: float
    resolution_bits: int = 16
    block_length: int = 1024
    safety_bits: int = 32
    reconciliation_block: int | None = None

    def __post_init__(self):
        if self.reconciliation_block is None:
            object.__setattr__(self, "reconciliation_block", self.block_length)
        if not self.block_length >= self.reconciliation_block >= 8:
            raise ValueError(
                f"need block_length >= reconciliation_block >= 8, got "
                f"{self.block_length} / {self.reconciliation_block}")
        if self.safety_bits < 0:
            raise ValueError("safety_bits must be >= 0")
        Constellation(self.delta_phi, self.resolution_bits)  # grid invariant
        report = analysis.validate_params(self.coherent, self.delta_phi)
        if not report.ok:
            raise ValueError(f"operating condition violated: {report.describe()}")

    @property
    def coherent(self) -> CoherentStateParams:
        return CoherentStateParams(self.avg_photon_number)

    @property
    def constellation(self) -> Constellation:
        return Constellation(self.delta_phi, self.resolution_bits)

    @property
    def per_symbol_leak(self) -> float:
        return analysis.entropy_leak(self.coherent, self.delta_phi) - 0.5

    def hello(self, block_length: int) -> transport.HelloParams:
        """The HELLO proposal for this operating point; needs delta_phi = 2**k."""
        exp = round(math.log2(self.delta_phi))
        if 2.0 ** exp != self.delta_phi:
            raise ProtocolError("wire sessions carry delta_phi as a power-of-two "
                                "exponent; use delta_phi = 2**k")
        return transport.HelloParams(self.avg_photon_number, exp,
                                     self.resolution_bits, block_length,
                                     self.safety_bits)


@dataclass
class ChainKey:
    """One key of the chain, with its one-time usage state."""

    index: int
    bits: np.ndarray
    used_as_basis: bool = False
    tag_bits_used: int = 0

    @property
    def status(self) -> str:
        return "consumed" if self.used_as_basis else "basis-available"


class KeyChain:
    """Ordered keys K0, K1, K2, ... shared by one party."""

    def __init__(self, k0_bits):
        self.keys = [ChainKey(0, _as_bits(k0_bits))]

    @property
    def tip(self) -> ChainKey:
        return self.keys[-1]

    def append(self, bits) -> ChainKey:
        key = ChainKey(len(self.keys), _as_bits(bits))
        self.keys.append(key)
        return key

    def use_as_basis(self, key: ChainKey) -> np.ndarray:
        if key.used_as_basis:
            raise OneTimeViolationError(
                f"key K{key.index} was already used as basis material")
        key.used_as_basis = True
        return key.bits

    def total_delivered(self) -> int:
        return sum(len(k.bits) for k in self.keys[1:])

    def bits_equal(self, other: "KeyChain") -> bool:
        return (len(self.keys) == len(other.keys) and
                all(np.array_equal(a.bits, b.bits)
                    for a, b in zip(self.keys, other.keys)))


@dataclass
class LeakLedger:
    """Running conservative estimate of what the channel gave away."""

    statistical_leak: float = 0.0
    disclosed_parity_bits: int = 0

    @property
    def total(self) -> float:
        return self.statistical_leak + self.disclosed_parity_bits

    def add_symbols(self, count: int, per_symbol: float) -> None:
        self.statistical_leak += count * per_symbol

    def add_parities(self, count: int) -> None:
        self.disclosed_parity_bits += count

    def merge(self, other: "LeakLedger") -> None:
        self.statistical_leak += other.statistical_leak
        self.disclosed_parity_bits += other.disclosed_parity_bits


@dataclass
class BlockTranscript:
    """Everything the open channel shows for one key block."""

    direction: int
    symbols: np.ndarray
    cycle_index: int


# ---------------------------------------------------------------------------
# Block transfer
# ---------------------------------------------------------------------------

def send_block(fresh_bits, basis_key: ChainKey, params: SessionParams,
               noise_model: PhaseNoiseModel, cycle_index: int = 0,
               direction: int = A_TO_B) -> BlockTranscript:
    """Noise-mask fresh bits under a one-time basis key.

    Marks the basis key consumed; offering a consumed key raises
    OneTimeViolationError.
    """
    fresh = _as_bits(fresh_bits)
    if len(fresh) != len(basis_key.bits):
        raise ProtocolError(
            f"fresh bits ({len(fresh)}) and basis key ({len(basis_key.bits)}) "
            f"lengths differ")
    if basis_key.used_as_basis:
        raise OneTimeViolationError(
            f"key K{basis_key.index} was already used as basis material")
    basis_key.used_as_basis = True
    noise = noise_model.sample(len(fresh))
    symbols = transmit_symbol(fresh, basis_key.bits, params.constellation, noise)
    return BlockTranscript(direction, symbols, cycle_index)


def recover_block(t: BlockTranscript, basis_bits,
                  constellation: Constellation) -> np.ndarray:
    """Decode a received block with the shared basis key."""
    basis = _as_bits(basis_bits)
    if len(basis) != len(t.symbols):
        raise ProtocolError(
            f"basis key ({len(basis)}) and block ({len(t.symbols)}) lengths differ")
    return np.asarray(
        decode_with_basis(t.symbols, basis, constellation), dtype=np.uint8)


# ---------------------------------------------------------------------------
# Reconciliation: two parity passes with binary-search correction
# ---------------------------------------------------------------------------

def _parity(bits: np.ndarray, idx: np.ndarray) -> int:
    return int(bits[idx].sum()) & 1


def _pass_order(n: int, perm_seed: int, pass_id: int) -> np.ndarray:
    """Public bit order of a parity pass: identity, then a seed-keyed permutation."""
    if pass_id == 0:
        return np.arange(n)
    return np.random.default_rng(perm_seed).permutation(n)


def _pass_orders(n: int, perm_seed: int):
    """order(pass_id), each pass's order drawn the first time it is asked for."""
    return functools.cache(functools.partial(_pass_order, n, perm_seed))


def _block_parities(bits: np.ndarray, order, pass_id: int, rb: int) -> np.ndarray:
    if rb == len(bits):
        # one block: its parity is the same in every order, so draw none
        return np.array([bits.sum() & 1], dtype=np.uint8)
    perm = order(pass_id)
    pad = (-len(perm)) % rb
    padded = np.concatenate([bits[perm], np.zeros(pad, dtype=np.uint8)])
    return padded.reshape(-1, rb).sum(axis=1).astype(np.uint8) & 1


def _digest(bits: np.ndarray) -> bytes:
    return hashlib.sha256(np.packbits(bits).tobytes()).digest()


def _unpack(fmt: struct.Struct, payload: bytes, what: str) -> tuple:
    if len(payload) != fmt.size:
        raise ProtocolError(
            f"{what} needs {fmt.size} bytes, peer sent {len(payload)}")
    return fmt.unpack(payload)


def _unpack_mask(payload: bytes, count: int, what: str) -> np.ndarray:
    if len(payload) != (count + 7) // 8:
        raise ProtocolError(
            f"{what} needs {(count + 7) // 8} bytes for {count} parities, "
            f"peer sent {len(payload)}")
    return np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=count)


def reconcile_receiver(bits, channel: Channel, params: SessionParams,
                       ledger: LeakLedger, perm_seed: int) -> np.ndarray:
    """Run reconcile_receiver_core over a channel."""
    return transport.drive(
        reconcile_receiver_core(bits, params, ledger, perm_seed), channel)


def reconcile_receiver_core(bits, params: SessionParams, ledger: LeakLedger,
                            perm_seed: int):
    """Core: correct this side's candidate bits toward the sender's reference.

    One sequential parity pass, one pass over a seed-keyed public
    permutation, single-bit binary-search correction inside mismatched
    blocks, then a digest check.  Every parity that crosses the wire
    increments the ledger.  Returns the corrected bits.

    A pass whose one block is the whole key sends the parity of all bits;
    its order is drawn only if a probe names it.
    """
    bits = _as_bits(bits).copy()
    n = len(bits)
    rb = min(params.reconciliation_block, n)
    order = _pass_orders(n, perm_seed)
    for pass_id in range(_PARITY_PASSES):
        mine = _block_parities(bits, order, pass_id, rb)
        nblocks = len(mine)
        yield (MessageType.PARITY_REQ,
               _BULK_REQ.pack(_SUB_BULK, pass_id, nblocks) +
               np.packbits(mine).tobytes())
        ledger.add_parities(nblocks)
        _, payload = yield from expect(MessageType.PARITY_RESP)
        mismatch = _unpack_mask(payload, nblocks, "bulk parity reply")
        for bi in np.flatnonzero(mismatch):
            lo = int(bi) * rb
            hi = min(lo + rb, n)
            while hi - lo > 1:
                half = (hi - lo) // 2
                yield (MessageType.PARITY_REQ,
                       _PROBE_REQ.pack(_SUB_PROBE, pass_id, lo, half))
                ledger.add_parities(1)
                _, resp = yield from expect(MessageType.PARITY_RESP)
                if resp not in (b"\x00", b"\x01"):
                    raise ProtocolError("probe reply is not one parity byte")
                if _parity(bits, order(pass_id)[lo:lo + half]) != resp[0]:
                    hi = lo + half
                else:
                    lo = lo + half
            bits[order(pass_id)[lo]] ^= 1
    yield MessageType.PARITY_REQ, bytes([_SUB_VERIFY]) + _digest(bits)
    _, resp = yield from expect(MessageType.PARITY_RESP)
    if resp != b"\x01":
        raise ReconciliationError("keys still differ after both passes")
    return bits


def reconcile_sender(bits, channel: Channel, params: SessionParams,
                     ledger: LeakLedger, perm_seed: int) -> None:
    """Run reconcile_sender_core over a channel."""
    transport.drive(reconcile_sender_core(bits, params, ledger, perm_seed),
                    channel)


def reconcile_sender_core(bits, params: SessionParams, ledger: LeakLedger,
                          perm_seed: int):
    """Core: answer the receiver's parity queries against the reference bits.

    Returns the reference bits once the receiver's digest matches them.
    """
    bits = _as_bits(bits)
    n = len(bits)
    rb = min(params.reconciliation_block, n)
    order = _pass_orders(n, perm_seed)
    while True:
        _, payload = yield from expect(MessageType.PARITY_REQ)
        sub = payload[0] if payload else None
        if sub == _SUB_BULK:
            _, pass_id, nblocks = _unpack(
                _BULK_REQ, payload[:_BULK_REQ.size], "bulk parity request")
            if pass_id >= _PARITY_PASSES:
                raise ProtocolError(f"unknown parity pass {pass_id}")
            mine = _block_parities(bits, order, pass_id, rb)
            if len(mine) != nblocks:
                raise ProtocolError("parity block count mismatch")
            theirs = _unpack_mask(payload[_BULK_REQ.size:], nblocks,
                                  "bulk parity request")
            ledger.add_parities(nblocks)
            mask = (mine != theirs).astype(np.uint8)
            yield MessageType.PARITY_RESP, np.packbits(mask).tobytes()
        elif sub == _SUB_PROBE:
            _, pass_id, lo, half = _unpack(_PROBE_REQ, payload, "parity probe")
            if pass_id >= _PARITY_PASSES or half < 1 or lo + half > n:
                raise ProtocolError(
                    f"parity probe ({pass_id}, {lo}, {half}) is out of range")
            ledger.add_parities(1)
            par = _parity(bits, order(pass_id)[lo:lo + half])
            yield MessageType.PARITY_RESP, bytes([par])
        elif sub == _SUB_VERIFY:
            ok = payload[1:] == _digest(bits)
            yield MessageType.PARITY_RESP, b"\x01" if ok else b"\x00"
            if not ok:
                raise ReconciliationError("keys still differ after both passes")
            return bits
        else:
            raise ProtocolError(f"unknown reconciliation subtype {sub}")


# ---------------------------------------------------------------------------
# Privacy amplification
# ---------------------------------------------------------------------------

def pa_output_length(n: int, ledger: LeakLedger, safety_bits: int) -> int:
    """Bits left after charging the ledger and a safety margin to n bits.

    Raises KeyExhaustedError when nothing would be left.
    """
    m = n - math.ceil(ledger.total) - safety_bits
    if m <= 0:
        raise KeyExhaustedError(
            f"privacy amplification would leave {m} bits; a fresh shared "
            f"seed is required")
    return m


def _modified_toeplitz(seed_bits: np.ndarray, vec: np.ndarray, m: int) -> np.ndarray:
    """h(x) = x[:m] XOR T x[m:] over GF(2), with T[i, j] = seed[k-1+i-j], k = n-m.

    Column j of T is the seed slice starting at k-1-j, so the product is one
    m-bit XOR per set bit of x[m:].
    """
    k = len(vec) - m
    out = vec[:m].copy()
    for j in np.flatnonzero(vec[m:]):
        out ^= seed_bits[k - 1 - j:k - 1 - j + m]
    return out


def privacy_amplify(bits, out_len: int, public_seed: int) -> np.ndarray:
    """Compress bits to out_len bits with a modified Toeplitz hash [I | T].

    The n-1 seed bits are drawn from the public seed.  The family is
    dual universal (Hayashi & Tsurumaru, IEEE Trans. IT 2016) and universal_2
    at the output length, so the leftover-hash bound holds as for a full
    Toeplitz matrix; at out_len == n it is the identity.
    """
    bits = _as_bits(bits)
    n = len(bits)
    if not 0 < out_len <= n:
        raise ValueError(f"out_len must lie in [1, {n}], got {out_len}")
    seed_bits = np.random.default_rng(public_seed).integers(
        0, 2, n - 1, dtype=np.uint8)
    return _modified_toeplitz(seed_bits, bits, out_len)


# ---------------------------------------------------------------------------
# Authentication
# ---------------------------------------------------------------------------

def tag_bytes(key_bits, message: bytes) -> bytes:
    """256-bit tag: SHA-256 over key || message || key."""
    kb = np.packbits(_as_bits(key_bits)).tobytes()
    return hashlib.sha256(kb + message + kb).digest()


def authenticate_tag(key: ChainKey, message: bytes,
                     length_bits: int = TAG_BITS) -> bytes:
    """Tag a message with fresh bits of a chain key, consuming them."""
    available = len(key.bits) - key.tag_bits_used
    if available < length_bits:
        raise KeyExhaustedError(
            f"key K{key.index} has {available} unconsumed bits, "
            f"tag needs {length_bits}")
    start = key.tag_bits_used
    key.tag_bits_used += length_bits
    return tag_bytes(key.bits[start:start + length_bits], message)


# ---------------------------------------------------------------------------
# Party state and session driver
# ---------------------------------------------------------------------------

@dataclass
class PartyState:
    role: str
    params: SessionParams
    chain: KeyChain
    ledger: LeakLedger
    noise: PhaseNoiseModel
    fresh_rng: np.random.Generator
    pub_rng: np.random.Generator

    @classmethod
    def create(cls, role: str, params: SessionParams, k0_bits, seed: int) -> "PartyState":
        if role not in ("A", "B"):
            raise ValueError(f"role must be 'A' or 'B', got {role!r}")
        noise_seed = int(np.random.default_rng([seed, 3]).integers(0, 2 ** 63))
        return cls(
            role=role,
            params=params,
            chain=KeyChain(k0_bits),
            ledger=LeakLedger(),
            noise=PhaseNoiseModel(params.coherent.sigma_phi, noise_seed),
            fresh_rng=np.random.default_rng([seed, 1]),
            pub_rng=np.random.default_rng([seed, 2]),
        )


@dataclass
class PaRecord:
    """Public facts about one amplification, as visible on the wire."""

    key_index: int
    cycle_index: int
    direction: int
    perm_seed: int
    pa_seed: int
    output_bits: int

    @classmethod
    def from_dict(cls, d: dict) -> "PaRecord":
        return cls(d["key_index"], d["cycle_index"], d["direction"],
                   d["perm_seed"], d["pa_seed"], d["output_bits"])


@dataclass
class SessionResult:
    role: str
    cycles_completed: int
    delivered: list
    ledger: LeakLedger
    chain: KeyChain
    confirm_tag: bytes
    pa_records: list
    early_stop: str | None = None
    transcripts: list | None = None

    def boost_factor_so_far(self) -> float:
        k0 = len(self.chain.keys[0].bits)
        return self.chain.total_delivered() / k0


def _direction(state: PartyState, cycle_index: int, direction: int,
               keyblock: bytes | None = None):
    """Core of one direction of a cycle, for the party at either end.

    The direction's sender masks fresh bits under its chain tip and answers
    the parity dialogue; the receiver decodes the block (`keyblock`, if
    already received) with its tip and drives the dialogue.  Both charge
    the ledger, amplify and append the new key.  Returns (transcript, key,
    PaRecord).
    """
    params = state.params
    tip = state.chain.tip
    if tip.used_as_basis:
        raise KeyExhaustedError(
            "key chain exhausted: every key has served as basis material")
    if (state.role == "A") == (direction == A_TO_B):
        bits = state.fresh_rng.integers(0, 2, len(tip.bits), dtype=np.uint8)
        t = send_block(bits, tip, params, state.noise, cycle_index, direction)
        yield (MessageType.KEYBLOCK, transport.pack_keyblock(
            cycle_index, t.symbols, params.resolution_bits))
        perm_seed = int(state.pub_rng.integers(0, 2 ** 63))
        pa_seed = int(state.pub_rng.integers(0, 2 ** 63))
        yield (MessageType.PA_SEED,
               _PA_SEED.pack(cycle_index, direction, perm_seed, pa_seed))
        reconcile = reconcile_sender_core
    else:
        got_cycle, levels = yield from transport.recv_keyblock(
            params.resolution_bits, len(tip.bits), keyblock)
        if got_cycle != cycle_index:
            raise ProtocolError(
                f"expected cycle {cycle_index}, peer sent {got_cycle}")
        t = BlockTranscript(direction, levels, got_cycle)
        bits = recover_block(t, state.chain.use_as_basis(tip),
                             params.constellation)
        _, payload = yield from expect(MessageType.PA_SEED)
        seed_cycle, seed_dir, perm_seed, pa_seed = _unpack(
            _PA_SEED, payload, "PA_SEED")
        if seed_cycle != cycle_index or seed_dir != direction:
            raise ProtocolError("PA_SEED frame does not match the current block")
        reconcile = reconcile_receiver_core
    delta = LeakLedger()
    delta.add_symbols(len(bits), params.per_symbol_leak)
    bits = yield from reconcile(bits, params, delta, perm_seed)
    state.ledger.merge(delta)
    new_bits = privacy_amplify(
        bits, pa_output_length(len(bits), delta, params.safety_bits), pa_seed)
    key = state.chain.append(new_bits)
    return t, key, PaRecord(key.index, cycle_index, direction, perm_seed,
                            pa_seed, len(new_bits))


def _confirm_message(state: PartyState, cycles_completed: int) -> bytes:
    tip = state.chain.tip
    return (b"NOTP confirm" +
            struct.pack(">IQQdI", cycles_completed,
                        state.chain.total_delivered(),
                        state.ledger.disclosed_parity_bits,
                        state.ledger.statistical_leak,
                        len(tip.bits)))


def _confirm_tag(state: PartyState, cycles_completed: int) -> bytes:
    tip = state.chain.tip
    if len(tip.bits) - tip.tag_bits_used < TAG_BITS:
        return b""
    return authenticate_tag(tip, _confirm_message(state, cycles_completed))


def run_session(channel: Channel, state: PartyState, cycles: int | None = None,
                progress=None, keep_transcripts: bool = False) -> SessionResult:
    """Run session_core over a channel."""
    return transport.drive(
        session_core(state, cycles, progress, keep_transcripts), channel)


def session_core(state: PartyState, cycles: int | None = None, progress=None,
                 keep_transcripts: bool = False):
    """Core: all distribution cycles plus the confirmation exchange.

    The initiator (role A) drives `cycles` cycles; the responder follows
    the peer's frames.  Key exhaustion stops cycling early on both sides
    and is reported, not raised.  Returns a SessionResult.
    """
    initiator = state.role == "A"
    if initiator and cycles is None:
        raise ValueError("initiator needs an explicit cycle count")
    delivered = []
    pa_records = []
    transcripts = [] if keep_transcripts else None
    early_stop = peer_tag = None
    cycle_index = cycles_completed = 0

    def note(t, key, record):
        if transcripts is not None:
            transcripts.append(t)
        pa_records.append(record)
        return key

    while True:
        keyblock = None
        if initiator:
            if early_stop is not None or cycle_index >= cycles:
                break
            cycle_index += 1
        else:
            msg_type, keyblock = yield from expect(
                MessageType.KEYBLOCK, MessageType.CONFIRM)
            if msg_type == MessageType.CONFIRM:
                peer_tag = keyblock
                break
            if len(keyblock) < 4:
                raise ProtocolError("KEYBLOCK payload shorter than its cycle index")
            cycle_index = struct.unpack_from(">I", keyblock)[0]
        try:
            k1 = note(*(yield from _direction(state, cycle_index, A_TO_B, keyblock)))
            k2 = note(*(yield from _direction(state, cycle_index, B_TO_A)))
        except KeyExhaustedError as exc:
            early_stop = str(exc)
            continue
        cycles_completed = cycle_index
        delivered.append((len(k1.bits), len(k2.bits)))
        if progress is not None:
            progress(_progress_record(state, cycle_index, k1, k2))

    tag = _confirm_tag(state, cycles_completed)
    yield MessageType.CONFIRM, tag
    if initiator:
        _, peer_tag = yield from expect(MessageType.CONFIRM)
    if peer_tag != tag:
        raise ConfirmMismatchError(
            "peers computed different session confirmation tags")
    return SessionResult(
        role=state.role,
        cycles_completed=cycles_completed,
        delivered=delivered,
        ledger=state.ledger,
        chain=state.chain,
        confirm_tag=tag,
        pa_records=pa_records,
        early_stop=early_stop,
        transcripts=transcripts,
    )


def _progress_record(state: PartyState, cycle_index: int, k1: ChainKey,
                     k2: ChainKey) -> dict:
    return {
        "cycle": cycle_index,
        "delivered_bits": [len(k1.bits), len(k2.bits)],
        "statistical_leak": state.ledger.statistical_leak,
        "disclosed_parity_bits": state.ledger.disclosed_parity_bits,
        "ledger_total": state.ledger.total,
    }


def run_cycle(state_a: PartyState, state_b: PartyState):
    """Run one in-process distribution cycle between two party states.

    Returns the two freshly delivered key bit arrays (A->B, B->A).
    """
    if state_a.params != state_b.params:
        raise ValueError("parties disagree on session parameters")
    cycle_index = (len(state_a.chain.keys) + 1) // 2

    def cycle(state):
        _, k1, _ = yield from _direction(state, cycle_index, A_TO_B)
        _, k2, _ = yield from _direction(state, cycle_index, B_TO_A)
        return k1.bits, k2.bits

    channel = transport.PeerChannel(cycle(state_b))
    keys = transport.drive(cycle(state_a), channel)
    if channel.error is not None:
        raise channel.error
    return keys


def simulate_session(params: SessionParams, k0_bits, seed_a: int, seed_b: int,
                     cycles: int, transcript_path=None, progress=None,
                     keep_transcripts: bool = False):
    """Drive a full two-party session in process, on the calling thread.

    Returns (result_a, result_b).  The handshake, key blocks, parity
    dialogue and confirmation cross a PeerChannel as framed bytes exactly
    as they would a socket; a transcript tap may record the eavesdropper's
    view.
    """
    k0 = _as_bits(k0_bits)
    proposal = params.hello(len(k0))

    def role_b():
        yield from transport.handshake_core("B", expected_block_length=len(k0))
        state_b = PartyState.create("B", params, k0, seed_b)
        return (yield from session_core(state_b, keep_transcripts=keep_transcripts))

    channel = transport.PeerChannel(role_b())
    tap = None
    if transcript_path is not None:
        tap = transport.record_transcript(channel, transcript_path)
    try:
        transport.handshake(channel, "A", proposal)
        state_a = PartyState.create("A", params, k0, seed_a)
        result_a = run_session(channel, state_a, cycles=cycles,
                               progress=progress,
                               keep_transcripts=keep_transcripts)
    finally:
        if tap is not None:
            tap.close()
    if channel.error is not None:
        raise channel.error
    return result_a, channel.result
