"""Alice/Bob key-distribution state machines.

One distribution cycle sends fresh random bits from A to B, noise-masked
under the current shared key (used exactly once as basis material), then
fresh bits from B back to A under the key that was just delivered.  Each
direction is parity-reconciled, charged to a leak ledger, and compressed
with a seeded modified Toeplitz hash [I | T] (dual universal) before joining
the key chain.  Its n-1 public seed bits, default_rng(seed).integers(0, 2),
are the top bits of the bytes of PCG64(seed).random_raw (Lemire's method
with range 2); packed into one Python int, they make T x[m:] one shift and
XOR per set bit.

The whole key is the one parity block: the handshake admits a legitimate
bit-error rate of at most 2Q(8) ~ 1e-15.  On a parity mismatch the sender's
Hamming syndrome (XOR of the 1-based indices of its set bits) locates the one
error in one round trip (Winnow: Buttler et al., PRA 67, 052303, 2003); a
digest check turns two or more errors into ReconciliationError.  PA_SEED
carries the cycle, the direction and the PA seed.

Every chained key is a little shorter than its predecessor (the discarded
bits pay for disclosed parities, the statistical basis leak, and a safety
margin), so a chain eventually exhausts and a fresh shared seed must
restart the process.  All party randomness is drawn from seeded generators
standing in for physical entropy sources.

Each party's half of the dialogue is a sans-I/O core (see transport): it
yields frames to send or RECV, and one core serves both roles.  run_session
drives it over a channel; simulate_session and run_cycle step role B's core
behind a transport.PeerChannel, so both parties share one thread.  A block
leaves only its key and PaRecord: Eve attacks the recorded KEYBLOCK tape.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from functools import cached_property

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

_PA_SEED = struct.Struct(">IBQ")
_BULK_REQ = struct.Struct(">BB")   # (subtype, parity of the whole key)
_SYNDROME = struct.Struct(">I")
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
    """Operating point and block length for one session.

    Construction fails unless the operating condition holds at ratio 8 and
    the quantization grid resolves the basis offset.
    """

    avg_photon_number: float
    delta_phi: float
    resolution_bits: int = 16
    block_length: int = 1024
    safety_bits: int = 32

    def __post_init__(self):
        if self.block_length < 8:
            raise ValueError(
                f"block_length must be >= 8, got {self.block_length}")
        if self.safety_bits < 0:
            raise ValueError("safety_bits must be >= 0")
        self.constellation  # grid invariant
        report = analysis.validate_params(self.coherent, self.delta_phi)
        if not report.ok:
            raise ValueError(f"operating condition violated: {report.describe()}")

    @classmethod
    def from_hello(cls, hello: transport.HelloParams) -> "SessionParams":
        """The responder's parameters: the operating point a HELLO proposed."""
        return cls(hello.avg_photon_number, hello.delta_phi,
                   hello.resolution_bits, hello.block_length, hello.safety_bits)

    @property
    def reconciliation_block(self) -> int:
        """The one parity block of reconciliation: the whole key."""
        return self.block_length

    @cached_property
    def coherent(self) -> CoherentStateParams:
        return CoherentStateParams(self.avg_photon_number)

    @cached_property
    def constellation(self) -> Constellation:
        return Constellation(self.delta_phi, self.resolution_bits)

    @cached_property
    def per_symbol_leak(self) -> float:
        return analysis.entropy_leak(self.coherent, self.delta_phi) - 0.5

    def hello(self) -> transport.HelloParams:
        """The HELLO proposal for this operating point; needs delta_phi = 2**k."""
        exp = round(math.log2(self.delta_phi))
        if 2.0 ** exp != self.delta_phi:
            raise ProtocolError("wire sessions carry delta_phi as a power-of-two "
                                "exponent; use delta_phi = 2**k")
        return transport.HelloParams(self.avg_photon_number, exp,
                                     self.resolution_bits, self.block_length,
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

    def consume(self) -> np.ndarray:
        """Use this key as basis material, once; returns its bits."""
        if self.used_as_basis:
            raise OneTimeViolationError(
                f"key K{self.index} was already used as basis material")
        self.used_as_basis = True
        return self.bits


class KeyChain:
    """Ordered keys K0, K1, K2, ... of one party; append() takes PA output unchecked."""

    def __init__(self, k0_bits):
        self.keys = [ChainKey(0, _as_bits(k0_bits))]

    @property
    def tip(self) -> ChainKey:
        return self.keys[-1]

    def append(self, bits: np.ndarray) -> ChainKey:
        key = ChainKey(len(self.keys), bits)
        self.keys.append(key)
        return key

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


# ---------------------------------------------------------------------------
# Block transfer
# ---------------------------------------------------------------------------

def send_block(fresh_bits, basis_key: ChainKey, params: SessionParams,
               noise_model: PhaseNoiseModel) -> np.ndarray:
    """Noise-mask fresh bits under a one-time basis key; returns the levels.

    Marks the basis key consumed; offering a consumed key raises
    OneTimeViolationError.
    """
    fresh = _as_bits(fresh_bits)
    if len(fresh) != len(basis_key.bits):
        raise ProtocolError(
            f"fresh bits ({len(fresh)}) and basis key ({len(basis_key.bits)}) "
            f"lengths differ")
    basis = basis_key.consume()
    noise = noise_model.sample(len(fresh))
    return transmit_symbol(fresh, basis, params.constellation, noise)


def recover_block(levels: np.ndarray, basis_bits,
                  constellation: Constellation) -> np.ndarray:
    """Decode a received block's levels with the shared basis key."""
    basis = _as_bits(basis_bits)
    if len(basis) != len(levels):
        raise ProtocolError(
            f"basis key ({len(basis)}) and block ({len(levels)}) lengths differ")
    return decode_with_basis(levels, basis, constellation)


# ---------------------------------------------------------------------------
# Reconciliation: one whole-key parity, a Hamming syndrome on mismatch
# ---------------------------------------------------------------------------

def _parity(bits: np.ndarray) -> int:
    return int(bits.sum()) & 1


def _syndrome(bits: np.ndarray) -> int:
    """XOR of the 1-based indices of the set bits."""
    return int(np.bitwise_xor.reduce(np.flatnonzero(bits) + 1))


def _digest(bits: np.ndarray) -> bytes:
    return hashlib.sha256(np.packbits(bits).tobytes()).digest()


def _unpack(fmt: struct.Struct, payload: bytes, what: str) -> tuple:
    if len(payload) != fmt.size:
        raise ProtocolError(
            f"{what} needs {fmt.size} bytes, peer sent {len(payload)}")
    return fmt.unpack(payload)


def reconcile_receiver(bits, channel: Channel, ledger: LeakLedger) -> np.ndarray:
    """Run reconcile_receiver_core over a channel."""
    return transport.drive(reconcile_receiver_core(bits, ledger), channel)


def reconcile_receiver_core(bits, ledger: LeakLedger):
    """Core: correct this side's candidate bits toward the sender's reference.

    On a whole-key parity mismatch, the XOR of the sender's syndrome and
    its own names the bit to flip, if it lies in the key.  A digest check
    follows.  Both sides charge 1 bit per parity and n.bit_length() bits
    per syndrome.  Returns the corrected bits, a copy.
    """
    return _receiver_core(_as_bits(bits).copy(), ledger)


def _receiver_core(bits: np.ndarray, ledger: LeakLedger):   # corrects in place
    n = len(bits)
    yield MessageType.PARITY_REQ, _BULK_REQ.pack(_SUB_BULK, _parity(bits))
    ledger.add_parities(1)
    _, resp = yield from expect(MessageType.PARITY_RESP)
    if resp not in (b"\x00", b"\x01"):
        raise ProtocolError("bulk parity reply is not one 0 or 1 byte")
    if resp == b"\x01":
        yield MessageType.PARITY_REQ, bytes([_SUB_PROBE])
        ledger.add_parities(n.bit_length())
        _, payload = yield from expect(MessageType.PARITY_RESP)
        pos = _unpack(_SYNDROME, payload, "syndrome reply")[0] ^ _syndrome(bits)
        if 0 < pos <= n:
            bits[pos - 1] ^= 1
    yield MessageType.PARITY_REQ, bytes([_SUB_VERIFY]) + _digest(bits)
    _, resp = yield from expect(MessageType.PARITY_RESP)
    if resp != b"\x01":
        raise ReconciliationError("keys still differ after reconciliation")
    return bits


def reconcile_sender(bits, channel: Channel, ledger: LeakLedger) -> None:
    """Run reconcile_sender_core over a channel."""
    transport.drive(reconcile_sender_core(bits, ledger), channel)


def reconcile_sender_core(bits, ledger: LeakLedger):
    """Core: answer the receiver's parity, locate and verify requests.

    A locate request is answered only after a parity mismatch.  Returns
    the reference bits once the receiver's digest matches them.
    """
    return _sender_core(_as_bits(bits), ledger)


def _sender_core(bits: np.ndarray, ledger: LeakLedger):
    _, payload = yield from expect(MessageType.PARITY_REQ)
    sub, theirs = _unpack(_BULK_REQ, payload, "bulk parity request")
    if sub != _SUB_BULK or theirs > 1:
        raise ProtocolError(f"bad bulk parity request {payload.hex()}")
    mismatch = _parity(bits) ^ theirs
    ledger.add_parities(1)
    yield MessageType.PARITY_RESP, bytes([mismatch])
    _, payload = yield from expect(MessageType.PARITY_REQ)
    if mismatch and payload == bytes([_SUB_PROBE]):
        ledger.add_parities(len(bits).bit_length())
        yield MessageType.PARITY_RESP, _SYNDROME.pack(_syndrome(bits))
        _, payload = yield from expect(MessageType.PARITY_REQ)
    if payload[:1] != bytes([_SUB_VERIFY]):
        raise ProtocolError(f"unexpected reconciliation request {payload[:8].hex()}")
    ok = payload[1:] == _digest(bits)
    yield MessageType.PARITY_RESP, b"\x01" if ok else b"\x00"
    if not ok:
        raise ReconciliationError("keys still differ after reconciliation")
    return bits


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


def _modified_toeplitz(seed: int, vec: np.ndarray, m: int) -> np.ndarray:
    """h(x) = x[:m] XOR T x[m:] over GF(2), with T[i, j] = seed[k-1+i-j], k = n-m.

    `seed` packs the n-1 seed bits, bit t = seed[t]; column j of T is the
    low m bits of seed >> (k-1-j), so the product is one shift and XOR of
    Python ints per set bit of x[m:].
    """
    k = len(vec) - m
    acc = int.from_bytes(np.packbits(vec, bitorder="little").tobytes(), "little")
    for j in np.flatnonzero(vec[m:]).tolist():
        acc ^= seed >> (k - 1 - j)
    out = (acc & ((1 << m) - 1)).to_bytes(-(-m // 8), "little")
    return np.unpackbits(np.frombuffer(out, np.uint8), count=m, bitorder="little")


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
    raw = np.random.PCG64(public_seed).random_raw(-(-(n - 1) // 8))
    tops = raw.astype("<u8", copy=False).view(np.uint8)[:n - 1] >> 7
    seed = int.from_bytes(np.packbits(tops, bitorder="little").tobytes(), "little")
    return _modified_toeplitz(seed, bits, out_len)


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
    pa_seed: int
    output_bits: int

    @classmethod
    def from_dict(cls, d: dict) -> "PaRecord":
        """Read a record; ignores unknown keys, which older records carry."""
        return cls(d["key_index"], d["cycle_index"], d["direction"],
                   d["pa_seed"], d["output_bits"])


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

    def boost_factor_so_far(self) -> float:
        k0 = len(self.chain.keys[0].bits)
        return self.chain.total_delivered() / k0


def _direction(state: PartyState, cycle_index: int, direction: int,
               keyblock: bytes | None = None):
    """Core of one direction of a cycle, for the party at either end.

    The direction's sender masks fresh bits under its chain tip and answers
    the parity dialogue; the receiver decodes the block (`keyblock`, if
    already received) with its tip and drives the dialogue.  Both charge
    the ledger, amplify and append the new key.  Returns (key, PaRecord).
    """
    params = state.params
    tip = state.chain.tip
    if tip.used_as_basis:
        raise KeyExhaustedError(
            "key chain exhausted: every key has served as basis material")
    if (state.role == "A") == (direction == A_TO_B):
        bits = state.fresh_rng.integers(0, 2, len(tip.bits), dtype=np.uint8)
        levels = send_block(bits, tip, params, state.noise)
        yield (MessageType.KEYBLOCK, transport.pack_keyblock(
            cycle_index, levels, params.resolution_bits))
        pa_seed = int(state.pub_rng.integers(0, 2 ** 63))
        yield MessageType.PA_SEED, _PA_SEED.pack(cycle_index, direction, pa_seed)
        reconcile = _sender_core
    else:
        got_cycle, levels = yield from transport.recv_keyblock(
            params.resolution_bits, len(tip.bits), keyblock)
        if got_cycle != cycle_index:
            raise ProtocolError(
                f"expected cycle {cycle_index}, peer sent {got_cycle}")
        bits = recover_block(levels, tip.consume(), params.constellation)
        _, payload = yield from expect(MessageType.PA_SEED)
        seed_cycle, seed_dir, pa_seed = _unpack(_PA_SEED, payload, "PA_SEED")
        if seed_cycle != cycle_index or seed_dir != direction:
            raise ProtocolError("PA_SEED frame does not match the current block")
        reconcile = _receiver_core
    delta = LeakLedger()
    delta.add_symbols(len(bits), params.per_symbol_leak)
    bits = yield from reconcile(bits, delta)
    state.ledger.merge(delta)
    new_bits = privacy_amplify(
        bits, pa_output_length(len(bits), delta, params.safety_bits), pa_seed)
    key = state.chain.append(new_bits)
    return key, PaRecord(key.index, cycle_index, direction, pa_seed, len(new_bits))


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
                progress=None) -> SessionResult:
    """Run session_core over a channel."""
    return transport.drive(session_core(state, cycles, progress), channel)


def session_core(state: PartyState, cycles: int | None = None, progress=None):
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
    early_stop = peer_tag = None
    cycle_index = cycles_completed = 0

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
            k1, record = yield from _direction(state, cycle_index, A_TO_B, keyblock)
            pa_records.append(record)
            k2, record = yield from _direction(state, cycle_index, B_TO_A)
            pa_records.append(record)
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
        k1, _ = yield from _direction(state, cycle_index, A_TO_B)
        k2, _ = yield from _direction(state, cycle_index, B_TO_A)
        return k1.bits, k2.bits

    channel = transport.PeerChannel(cycle(state_b))
    keys = transport.drive(cycle(state_a), channel)
    if channel.error is not None:
        raise channel.error
    return keys


def simulate_session(params: SessionParams, k0_bits, seed_a: int, seed_b: int,
                     cycles: int, transcript_path=None, progress=None):
    """Drive a full two-party session in process, on the calling thread.

    Returns (result_a, result_b).  The handshake, key blocks, parity
    dialogue and confirmation cross a PeerChannel as framed bytes exactly
    as they would a socket; a transcript tap may record the eavesdropper's
    view, and raises OSError after the session if it lost a frame.
    """
    k0 = _as_bits(k0_bits)
    if len(k0) != params.block_length:
        raise ValueError(f"K0 has {len(k0)} bits, not {params.block_length}")
    proposal = params.hello()

    def role_b():
        hello = yield from transport.handshake_core(
            "B", expected_block_length=len(k0))
        state_b = PartyState.create("B", SessionParams.from_hello(hello), k0,
                                    seed_b)
        return (yield from session_core(state_b))

    channel = transport.PeerChannel(role_b())
    if transcript_path is not None:
        transport.record_transcript(channel, transcript_path)
    try:
        transport.handshake(channel, "A", proposal)
        state_a = PartyState.create("A", params, k0, seed_a)
        result_a = run_session(channel, state_a, cycles=cycles, progress=progress)
    finally:
        channel.close()
    if channel.error is not None:
        raise channel.error
    if channel.tap is not None:
        channel.tap.finish()
    return result_a, channel.result
