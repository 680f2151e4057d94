"""Alice/Bob key-distribution state machines.

One distribution cycle sends fresh random bits from A to B, noise-masked
under the current shared key (used exactly once as basis material), then
fresh bits from B back to A under the key that was just delivered.  Each
direction is parity-reconciled, charged to a leak ledger, and compressed
with a modified Toeplitz hash [I | T] (dual universal) before joining the
key chain.  Its n-1 public seed bits are drawn by the sender and travel in
PA_SEED; packed into one Python int, they make T x[m:] one shift and XOR
per set bit.

A direction is one-way: the sender writes KEYBLOCK, then PA_SEED with the
cycle, the direction, the parity and SHA-256 digest of its bits, and the
PA seed.  The whole key is the one parity block (the handshake admits a
bit-error rate of at most 2Q(8) ~ 1e-15).  A receiver whose parity and
digest match sends nothing; on a parity mismatch it sends one locate
request, and the sender's Hamming syndrome (XOR of the 1-based indices of
its set bits) names the error (Winnow: Buttler et al., PRA 67, 052303,
2003).  A digest that still differs ends the session with ERROR.  The
sender amplifies once its next received frame shows the outcome.

Every chained key is a little shorter than its predecessor (the discarded
bits pay for disclosed parities, the statistical basis leak, and a safety
margin), so a chain eventually exhausts and a fresh shared seed must
restart the process.  A block that would leave no key even without a
syndrome is never sent; the party whose turn it is sends CONFIRM instead.
All party randomness is drawn from seeded generators standing in for
physical entropy sources.

Each party's half of the dialogue is a sans-I/O core (see transport): it
yields frames to send or RECV, and one core serves both roles.  run_session
drives it over a channel; simulate_session steps role B's core behind a
transport.PeerChannel, so both parties share one thread.  A block leaves
only its key: everything public about it is on the wire, and Eve replays
receive_block, the receiver's own core, over her tape of it.
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

_PA_SEED = struct.Struct(">IB")     # cycle, direction; the check and the seed follow
_CHECK = struct.Struct(">B32s")     # parity and SHA-256 digest of the sender's bits
_CHECK_BITS = 1                     # ledger charge of that check, per direction
_SYNDROME = struct.Struct(">I")
_SUB_PROBE = 1                      # PARITY_REQ subtype of the locate request


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

    def block_ledger(self, n: int) -> "LeakLedger":
        """A fresh ledger for one n-bit block, charged its statistical leak."""
        return LeakLedger(n * self.per_symbol_leak)

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


def _check(bits: np.ndarray) -> bytes:
    """The reconciliation check PA_SEED carries: parity and digest."""
    return _CHECK.pack(_parity(bits), _digest(bits))


def _unpack(fmt: struct.Struct, payload: bytes, what: str) -> tuple:
    if len(payload) != fmt.size:
        raise ProtocolError(
            f"{what} needs {fmt.size} bytes, peer sent {len(payload)}")
    return fmt.unpack(payload)


def reconcile_receiver(bits, channel: Channel, ledger: LeakLedger,
                       check: bytes) -> np.ndarray:
    """Run reconcile_receiver_core over a channel."""
    return transport.drive(reconcile_receiver_core(bits, ledger, check), channel)


def reconcile_receiver_core(bits, ledger: LeakLedger, check: bytes):
    """Core: correct this side's candidate bits toward the sender's reference.

    `check` is the sender's parity and digest, as PA_SEED carries them.  On
    a parity mismatch, the XOR of the sender's syndrome and its own names
    the bit to flip; a digest that still differs is answered with ERROR.
    Both sides charge 1 bit per parity and n.bit_length() bits per
    syndrome.  Returns the corrected bits, a copy.
    """
    return _receiver_core(_as_bits(bits).copy(), ledger, check)


def _receiver_core(bits: np.ndarray, ledger: LeakLedger, check: bytes):
    # corrects in place
    parity, digest = _unpack(_CHECK, check, "reconciliation check")
    if parity > 1:
        raise ProtocolError(f"sender parity is {parity}, not 0 or 1")
    n = len(bits)
    ledger.add_parities(_CHECK_BITS)
    if parity != _parity(bits):
        yield MessageType.PARITY_REQ, bytes([_SUB_PROBE])
        ledger.add_parities(n.bit_length())
        _, payload = yield from expect(MessageType.PARITY_RESP)
        pos = _unpack(_SYNDROME, payload, "syndrome reply")[0] ^ _syndrome(bits)
        if 0 < pos <= n:
            bits[pos - 1] ^= 1
    if _digest(bits) != digest:
        yield MessageType.ERROR, b"keys still differ after reconciliation"
        raise ReconciliationError("keys still differ after reconciliation")
    return bits


def reconcile_sender(bits, channel: Channel, ledger: LeakLedger) -> tuple:
    """Run reconcile_sender_core over a channel."""
    return transport.drive(reconcile_sender_core(bits, ledger), channel)


def reconcile_sender_core(bits, ledger: LeakLedger):
    """Core: the sender's side, once PA_SEED carried _check(bits).

    Answers one locate request, if the receiver sends one.  Returns the
    first frame after the dialogue: the peer's next KEYBLOCK or CONFIRM.
    """
    return _sender_core(_as_bits(bits), ledger)


def _sender_core(bits: np.ndarray, ledger: LeakLedger):
    ledger.add_parities(_CHECK_BITS)
    frame = yield from expect(MessageType.PARITY_REQ, MessageType.KEYBLOCK,
                              MessageType.CONFIRM)
    if frame[0] == MessageType.PARITY_REQ:
        if frame[1] != bytes([_SUB_PROBE]):
            raise ProtocolError(f"unexpected reconciliation request {frame[1][:8].hex()}")
        ledger.add_parities(len(bits).bit_length())
        yield MessageType.PARITY_RESP, _SYNDROME.pack(_syndrome(bits))
        frame = yield from expect(MessageType.KEYBLOCK, MessageType.CONFIRM)
    return frame


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


def pa_seed_bytes(n: int) -> int:
    """Length of the PA seed of an n-bit input: its n-1 bits, whole bytes."""
    return -(-(n - 1) // 8)


def unpack_pa_seed(payload: bytes, n: int) -> tuple[int, int, bytes, bytes]:
    """Split the PA_SEED of an n-bit block into (cycle, direction, check, seed)."""
    head = _PA_SEED.size + _CHECK.size
    if len(payload) != head + pa_seed_bytes(n):
        raise ProtocolError(f"PA_SEED of a {n}-bit block needs {head} bytes "
                            f"and the seed, got {len(payload)}")
    cycle, direction = _PA_SEED.unpack_from(payload)
    return cycle, direction, bytes(payload[_PA_SEED.size:head]), bytes(payload[head:])


def privacy_amplify(bits, out_len: int, seed: bytes) -> np.ndarray:
    """Compress bits to out_len bits with a modified Toeplitz hash [I | T].

    Seed bit t is bit t of int.from_bytes(seed, "little"); bits past n-2
    are unused.  The family is dual universal (Hayashi & Tsurumaru, IEEE
    Trans. IT 2016) and universal_2 at the output length, so the
    leftover-hash bound holds as for a full Toeplitz matrix; at out_len == n
    it is the identity.
    """
    bits = _as_bits(bits)
    n = len(bits)
    if not 0 < out_len <= n:
        raise ValueError(f"out_len must lie in [1, {n}], got {out_len}")
    if len(seed) != pa_seed_bytes(n):
        raise ValueError(f"a {n}-bit input needs {pa_seed_bytes(n)} seed "
                         f"bytes, got {len(seed)}")
    return _modified_toeplitz(int.from_bytes(seed, "little"), bits, out_len)


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
class SessionResult:
    role: str
    cycles_completed: int
    delivered: list
    ledger: LeakLedger
    chain: KeyChain
    confirm_tag: bytes
    early_stop: str | None = None

    def boost_factor_so_far(self) -> float:
        k0 = len(self.chain.keys[0].bits)
        return self.chain.total_delivered() / k0


def _send_direction(state: PartyState, cycle_index: int, direction: int,
                    delta: LeakLedger):
    """Core: the sender's half of one direction, up to privacy amplification.

    Masks fresh bits under the chain tip, sends KEYBLOCK and PA_SEED and
    answers a locate request.  Returns (bits, PA seed, the peer's next frame).
    """
    params = state.params
    tip = state.chain.tip
    bits = state.fresh_rng.integers(0, 2, len(tip.bits), dtype=np.uint8)
    yield (MessageType.KEYBLOCK, transport.pack_keyblock(
        cycle_index, send_block(bits, tip, params, state.noise),
        params.resolution_bits))
    pa_seed = state.pub_rng.bytes(pa_seed_bytes(len(bits)))
    yield (MessageType.PA_SEED, _PA_SEED.pack(cycle_index, direction)
           + _check(bits) + pa_seed)
    frame = yield from _sender_core(bits, delta)
    return bits, pa_seed, frame


def receive_block(params: SessionParams, basis: ChainKey, cycle_index: int,
                  direction: int, delta: LeakLedger, keyblock: bytes):
    """Core: the receiver's half of one direction, up to privacy amplification.

    Decodes the KEYBLOCK payload `keyblock` with `basis`, consuming it,
    reads PA_SEED and reconciles against its check, charging `delta`.  The
    session runs it over the wire and Eve over her tape.  Returns
    (bits, PA seed).
    """
    got_cycle, levels = yield from transport.recv_keyblock(
        params.resolution_bits, len(basis.bits), keyblock)
    if got_cycle != cycle_index:
        raise ProtocolError(
            f"expected cycle {cycle_index}, peer sent {got_cycle}")
    bits = recover_block(levels, basis.consume(), params.constellation)
    del keyblock, levels   # a received block is dropped once decoded
    _, payload = yield from expect(MessageType.PA_SEED)
    cycle, way, check, pa_seed = unpack_pa_seed(payload, len(bits))
    if (cycle, way) != (cycle_index, direction):
        raise ProtocolError("PA_SEED frame does not match the current block")
    bits = yield from _receiver_core(bits, delta, check)
    return bits, pa_seed


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
    and is reported, not raised: whether it comes before a block, where
    both parties see it, or from a syndrome's charge.  The party whose turn
    it is to send then sends CONFIRM first.  Returns a SessionResult.
    """
    initiator, params = state.role == "A", state.params
    if initiator and cycles is None:
        raise ValueError("initiator needs an explicit cycle count")
    delivered = []
    early_stop = frame = None
    cycle_index = cycles_completed = 0
    direction = B_TO_A

    while True:
        direction ^= 1
        cycle_index += direction == A_TO_B
        sending = initiator == (direction == A_TO_B)
        n = len(state.chain.tip.bits)
        delta = params.block_ledger(n)
        try:    # a block is sent only if, charged its check, it leaves a key
            pa_output_length(n, LeakLedger(delta.statistical_leak, _CHECK_BITS),
                             params.safety_bits)
        except KeyExhaustedError as exc:
            early_stop = str(exc)
            break
        if sending and initiator and cycle_index > cycles:
            break
        if not sending:
            frame = frame or (yield from expect(MessageType.KEYBLOCK,
                                                MessageType.CONFIRM))
            if frame[0] == MessageType.CONFIRM:
                break
        if sending:
            bits, pa_seed, frame = yield from _send_direction(
                state, cycle_index, direction, delta)
        else:   # hand the KEYBLOCK on without keeping it here
            core, frame = receive_block(params, state.chain.tip, cycle_index,
                                        direction, delta, frame[1]), None
            bits, pa_seed = yield from core
        state.ledger.merge(delta)
        try:
            m = pa_output_length(n, delta, params.safety_bits)
        except KeyExhaustedError as exc:   # a syndrome's charge
            early_stop = str(exc)
            sending = not sending   # the receiver stops on its sending turn
            break
        state.chain.append(privacy_amplify(bits, m, pa_seed))
        if direction == B_TO_A:
            cycles_completed = cycle_index
            delivered.append(tuple(len(k.bits) for k in state.chain.keys[-2:]))
            if progress is not None:
                led = state.ledger
                progress({"cycle": cycle_index, "delivered_bits": list(delivered[-1]),
                          "statistical_leak": led.statistical_leak,
                          "disclosed_parity_bits": led.disclosed_parity_bits,
                          "ledger_total": led.total})

    tag = _confirm_tag(state, cycles_completed)
    if sending:
        yield MessageType.CONFIRM, tag
    frame = frame or (yield from expect(MessageType.CONFIRM))
    if not sending:
        yield MessageType.CONFIRM, tag
    if frame != (MessageType.CONFIRM, tag):
        raise ConfirmMismatchError(
            "peers computed different session confirmation tags")
    return SessionResult(
        role=state.role,
        cycles_completed=cycles_completed,
        delivered=delivered,
        ledger=state.ledger,
        chain=state.chain,
        confirm_tag=tag,
        early_stop=early_stop,
    )


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
