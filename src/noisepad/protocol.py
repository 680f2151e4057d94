"""Alice/Bob key-distribution state machines.

Block Y_j carries fresh random bits noise-masked under key K_{j-1}, used
exactly once as basis material, and becomes key K_j.  The parties take
turns, so the chain says whose turn it is: a chain of L keys is due block
Y_L, and turn(L) gives its cycle, ceil(L/2), and direction, A to B for odd
L.  Each block is parity-reconciled, charged to a leak ledger
(SessionParams.block_charge), and compressed with a modified Toeplitz hash
[I | T] (dual universal) to SessionParams.key_length, the one length rule
(parties, pre-send check, read-ahead and Eve alike), before joining the
key chain.  Its n-1 public seed bits are drawn by the sender and travel in
PA_SEED; packed into one Python int, they make T x[m:] one shift and XOR
per set bit.

A block is one-way: the sender writes KEYBLOCK, then PA_SEED with the
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
syndrome is never sent; the party due to send the next block sends CONFIRM
first instead.
All party randomness is drawn from seeded generators standing in for
physical entropy sources.

Each party's half of the dialogue is a sans-I/O core (see transport): it
yields frames to send or RECV, and one core serves both roles.  run_session
drives it over a channel; simulate_session steps role B's core behind a
transport.PeerChannel, so both parties share one thread.  A session returns
the PartyState it ran: its chain, ledger, CONFIRM tag and early-stop reason.
A block leaves only its key: everything public about it is on the wire, and
Eve replays receive_block, the receiver's own core, over her tape of it.
Blocks stream CHUNK symbols at a time, noise to KEYBLOCK payload to bits.
A party draws its next block's noise before it waits on the peer
(_read_ahead); fresh bits are one draw of whole uint32s (_fresh_bits).
"""

from __future__ import annotations

import hashlib
import math
import mmap
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import analysis, transport
from .encode import Constellation, decode_packed, transmit_symbol
from .encode import decode_with_basis  # noqa: F401 - perfbench's tracer wraps it (item 7)
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
MIN_BLOCK_LENGTH = 8
CHUNK = 1 << 15                     # symbols per pass of the block kernels

_PA_SEED = struct.Struct(">IB")     # cycle, direction; the check and the seed follow
_CHECK = struct.Struct(">B32s")     # parity and SHA-256 digest of the sender's bits
_CHECK_BITS = 1                     # ledger charge of that check, per block
_SYNDROME = struct.Struct(">I")
_SUB_PROBE = 1                      # PARITY_REQ subtype of the locate request
_EXHAUSTED = "privacy amplification would leave {} bits; a fresh shared seed is required"


def _as_bits(bits) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.uint8).reshape(-1)
    if arr.size and arr.max() > 1:
        raise ValueError("bit sequences must contain only 0s and 1s")
    return arr


def _unpack_bits(packed: bytes, start: int, stop: int) -> np.ndarray:
    """Bits [start, stop) of little-endian packed bytes, one uint8 each; start % 8 == 0."""
    return np.unpackbits(np.frombuffer(packed, np.uint8)[start // 8:-(-stop // 8)],
                         count=stop - start, bitorder="little")


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
        if self.block_length < MIN_BLOCK_LENGTH:
            raise ValueError(f"block_length must be >= {MIN_BLOCK_LENGTH}, "
                             f"got {self.block_length}")
        if not 0 <= self.safety_bits <= 0xFFFF:    # HELLO carries 16 bits
            raise ValueError(
                f"safety_bits must lie in [0, 65535], got {self.safety_bits}")
        self.constellation  # grid invariant
        report = analysis.validate_params(self.coherent, self.delta_phi)
        if not report.ok:
            raise ValueError(f"operating condition violated: {report.describe()}")

    @classmethod
    def from_hello(cls, hello: transport.HelloParams) -> "SessionParams":
        """The responder's parameters: the operating point a HELLO proposed."""
        return cls(hello.avg_photon_number, 2.0 ** hello.delta_phi_exp,
                   hello.resolution_bits, hello.block_length, hello.safety_bits)

    def block_charge(self, n: int, located: bool = False) -> "LeakLedger":
        """An n-bit block's charge: its statistical leak, the check, and the
        n.bit_length() bits of a syndrome if an error was located."""
        return LeakLedger(n * self.per_symbol_leak,
                          _CHECK_BITS + (n.bit_length() if located else 0))

    def key_length(self, n: int, located: bool = False) -> int:
        """The one length rule: the key an n-bit block leaves once its charge
        and the safety margin are paid; <= 0: none."""
        return n - math.ceil(self.block_charge(n, located).total) - self.safety_bits

    @property   # read by perfbench/sessions.py (ROADMAP item 7)
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


@dataclass(slots=True)
class ChainKey:
    """One key of the chain, its bits packed little-endian as the PA hash leaves
    them (zero past `length`), with its one-time usage state."""

    packed: bytes
    length: int
    index: int = 0      # set by KeyChain.append
    used_as_basis: bool = False
    tag_bits_used: int = 0

    @classmethod
    def from_bits(cls, bits, index: int = 0) -> "ChainKey":
        bits = _as_bits(bits)
        return cls(np.packbits(bits, bitorder="little").tobytes(), len(bits), index)

    def __len__(self) -> int:
        return self.length

    @property
    def bits(self) -> np.ndarray:
        """The bits, one uint8 each, unpacked anew on each read; off the session path."""
        return _unpack_bits(self.packed, 0, self.length)

    def consume(self) -> bytes:
        """Use this key as basis material, once; returns its packed bytes."""
        if self.used_as_basis:
            raise OneTimeViolationError(
                f"key K{self.index} was already used as basis material")
        self.used_as_basis = True
        return self.packed


class KeyChain:
    """Ordered keys K0, K1, K2, ... of one party; append() takes PA output unchecked."""

    def __init__(self, k0_bits):
        self.keys = [ChainKey.from_bits(k0_bits)]

    @property
    def tip(self) -> ChainKey:
        return self.keys[-1]

    def append(self, key: ChainKey) -> ChainKey:
        key.index = len(self.keys)
        self.keys.append(key)
        return key

    def total_delivered(self) -> int:
        return sum(map(len, self.keys[1:]))

    def bits_equal(self, other: "KeyChain") -> bool:
        return (len(self.keys) == len(other.keys) and
                all(a.length == b.length and a.packed == b.packed
                    for a, b in zip(self.keys, other.keys)))


@dataclass
class LeakLedger:
    """Running conservative estimate of what the channel gave away."""

    statistical_leak: float = 0.0
    disclosed_parity_bits: int = 0

    @property
    def total(self) -> float:
        return self.statistical_leak + self.disclosed_parity_bits

    def add_parities(self, count: int) -> None:
        self.disclosed_parity_bits += count

    def merge(self, other: "LeakLedger") -> None:
        self.statistical_leak += other.statistical_leak
        self.add_parities(other.disclosed_parity_bits)


# ---------------------------------------------------------------------------
# Block transfer
# ---------------------------------------------------------------------------

def send_block(fresh: np.ndarray, basis_key: ChainKey, params: SessionParams,
               noise: np.ndarray, out):
    """Noise-mask fresh bits under a one-time basis key, CHUNK symbols at a time.

    Kernel: `fresh` is a uint8 array of 0s and 1s, unchecked, and `noise`
    the block's drawn phase noise.  Packs the levels into the tail of `out`,
    a KEYBLOCK payload (transport.keyblock_payload), and returns `out`.
    Consumes the basis key.
    """
    n, r = len(fresh), params.resolution_bits
    if n != len(basis_key):
        raise ProtocolError(f"{n} fresh bits for a {len(basis_key)}-bit basis key")
    key, size = basis_key.consume(), transport.bytes_per_symbol(r)
    view = memoryview(out)[-n * size:]
    for i in range(0, n, CHUNK):
        basis = _unpack_bits(key, i, min(i + CHUNK, n))
        # transport's binding, which perfbench/tracer.py wraps (ROADMAP item 7)
        transport.pack_levels(transmit_symbol(
            fresh[i:i + CHUNK], basis, params.constellation, noise[i:i + CHUNK]),
            r, out=view[i * size:(i + CHUNK) * size])
    return out


def recover_block(levels, basis_key: ChainKey, constellation: Constellation) -> np.ndarray:
    """Decode packed levels with a one-time basis key, CHUNK symbols a pass; consumes it."""
    n, size = len(basis_key), transport.bytes_per_symbol(constellation.resolution_bits)
    if len(levels) != n * size:
        raise ProtocolError(f"{len(levels)} level bytes for a {n}-bit basis key")
    key, bits = basis_key.consume(), np.empty(n, np.uint8)
    for i in range(0, n, CHUNK):
        basis = _unpack_bits(key, i, min(i + CHUNK, n))
        decode_packed(levels[i * size:(i + CHUNK) * size], basis, constellation,
                      bits[i:i + CHUNK])
    return bits


# ---------------------------------------------------------------------------
# Reconciliation: one whole-key parity, a Hamming syndrome on mismatch
# ---------------------------------------------------------------------------

def _parity(bits: np.ndarray) -> int:
    return int(np.bitwise_xor.reduce(bits))    # 0/1 bits: sum & 1


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


# The blocking wrappers are not on the session path; perfbench/tracer.py
# wraps them by name (ROADMAP item 7).
def reconcile_receiver(bits, channel: Channel, check: bytes) -> tuple:
    """Run _receiver_core over a channel on a copy of bits."""
    return transport.drive(_receiver_core(_as_bits(bits).copy(), check), channel)


def _receiver_core(bits: np.ndarray, check: bytes):
    """Core: correct this side's candidate bits, in place, toward the sender's.

    `check` is the sender's parity and digest, as PA_SEED carries them.  On
    a parity mismatch, the XOR of the sender's syndrome and its own names
    the bit to flip; a digest that still differs is answered with ERROR.
    Returns the corrected bits and whether it sent a locate request.
    """
    parity, digest = _unpack(_CHECK, check, "reconciliation check")
    if parity > 1:
        raise ProtocolError(f"sender parity is {parity}, not 0 or 1")
    located = parity != _parity(bits)
    if located:
        yield MessageType.PARITY_REQ, bytes([_SUB_PROBE])
        _, payload = yield from expect(MessageType.PARITY_RESP)
        pos = _unpack(_SYNDROME, payload, "syndrome reply")[0] ^ _syndrome(bits)
        if 0 < pos <= len(bits):
            bits[pos - 1] ^= 1
    if _digest(bits) != digest:
        yield MessageType.ERROR, b"keys still differ after reconciliation"
        raise ReconciliationError("keys still differ after reconciliation")
    return bits, located


def reconcile_sender(bits, channel: Channel) -> tuple:
    """Run _sender_core over a channel."""
    return transport.drive(_sender_core(_as_bits(bits)), channel)


def _sender_core(bits: np.ndarray):
    """Core: the sender's side, once PA_SEED carried _check(bits).

    Answers one locate request, if the receiver sends one.  Returns whether
    it answered one, and the first frame after the dialogue: the peer's
    next KEYBLOCK or CONFIRM.
    """
    frame = yield from expect(MessageType.PARITY_REQ, MessageType.KEYBLOCK,
                              MessageType.CONFIRM)
    located = frame[0] == MessageType.PARITY_REQ
    if located:
        if frame[1] != bytes([_SUB_PROBE]):
            raise ProtocolError(f"unexpected reconciliation request {frame[1][:8].hex()}")
        yield MessageType.PARITY_RESP, _SYNDROME.pack(_syndrome(bits))
        frame = yield from expect(MessageType.KEYBLOCK, MessageType.CONFIRM)
    return located, frame


# ---------------------------------------------------------------------------
# Privacy amplification
# ---------------------------------------------------------------------------

def _modified_toeplitz(seed: int, vec: np.ndarray, m: int) -> ChainKey:
    """h(x) = x[:m] XOR T x[m:] over GF(2), with T[i, j] = seed[k-1+i-j], k = n-m.

    `seed` packs the n-1 seed bits, bit t = seed[t]; column j of T is the
    low m bits of seed >> (k-1-j), so the product is one shift and XOR of
    Python ints per set bit of x[m:].  h(x) is returned as a key, packed.
    """
    k = len(vec) - m
    acc = int.from_bytes(np.packbits(vec, bitorder="little").tobytes(), "little")
    for j in np.flatnonzero(vec[m:]).tolist():
        acc ^= seed >> (k - 1 - j)
    return ChainKey((acc & ((1 << m) - 1)).to_bytes(-(-m // 8), "little"), m)


def amplify_block(params: SessionParams, bits: np.ndarray, pa_seed: bytes,
                  located: bool) -> ChainKey:
    """A block's key: its bits hashed down to params.key_length(n, located);
    KeyExhaustedError if that is <= 0."""
    m = params.key_length(len(bits), located)
    if m <= 0:
        raise KeyExhaustedError(_EXHAUSTED.format(m))
    return privacy_amplify(bits, m, pa_seed)


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


def privacy_amplify(bits: np.ndarray, out_len: int, seed: bytes) -> ChainKey:
    """Compress bits to an out_len-bit key with a modified Toeplitz hash [I | T].

    Kernel: `bits` is a uint8 array of 0s and 1s, unchecked.  Seed bit t is
    bit t of int.from_bytes(seed, "little"); bits past n-2 are unused.  The
    family is dual universal (Hayashi & Tsurumaru, IEEE Trans. IT 2016) and
    universal_2 at the output length, so the leftover-hash bound holds as
    for a full Toeplitz matrix; at out_len == n it is the identity.
    """
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


def authenticate_tag(key: ChainKey, message: bytes) -> bytes:
    """Tag a message with TAG_BITS fresh bits of a chain key, consuming them."""
    available = len(key) - key.tag_bits_used
    if available < TAG_BITS:
        raise KeyExhaustedError(
            f"key K{key.index} has {available} unconsumed bits, "
            f"tag needs {TAG_BITS}")
    start = key.tag_bits_used
    key.tag_bits_used += TAG_BITS
    return tag_bytes(_unpack_bits(key.packed, start, start + TAG_BITS), message)


# ---------------------------------------------------------------------------
# Party state and session driver
# ---------------------------------------------------------------------------

def turn(j: int) -> tuple[int, int]:
    """Block Y_j's cycle, ceil(j/2), and direction: A_TO_B for odd j."""
    return divmod(j + 1, 2)


@dataclass
class PartyState:
    """One party of a session; session_core fills in the last three fields."""

    role: str
    params: SessionParams
    chain: KeyChain
    ledger: LeakLedger
    noise: PhaseNoiseModel
    fresh_rng: np.random.Generator
    pub_rng: np.random.Generator
    noise_buf: np.ndarray = field(repr=False)   # each block's noise; mmap'd, off the heap
    confirm_tag: bytes = b""
    early_stop: str | None = None
    noise_ahead: int = 0    # samples at its start drawn for the next block

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
            noise_buf=np.frombuffer(mmap.mmap(-1, 8 * params.block_length)),
        )

    def sends(self, j: int) -> bool:
        """Whether this party sends block Y_j: A sends each A_TO_B block."""
        return (turn(j)[1] == A_TO_B) == (self.role == "A")

    @property
    def cycles_completed(self) -> int:
        """The cycles before the one the chain is due next."""
        return turn(len(self.chain.keys))[0] - 1

    @property
    def delivered(self) -> list:
        """The key lengths of each completed cycle, one pair per cycle."""
        keys = self.chain.keys
        return [(len(keys[i]), len(keys[i + 1]))
                for i in range(1, 2 * self.cycles_completed, 2)]


def _read_ahead(state: PartyState, j: int, k: int, cycles: int | None) -> None:
    """Draw the noise of this party's block Y_k while the chain is due Y_j: as
    long as the key Y_j's base leaves k - j blocks on with no error located,
    and none if the pre-send check or role A's cycle count would stop Y_k."""
    n, a = len(state.chain.tip), state.noise_ahead
    for _ in range(k - j):
        n = state.params.key_length(n)
    stops = state.role == "A" and turn(k)[0] > cycles
    if n > a and state.params.key_length(n) > 0 and not stops:
        state.noise.sample(n - a, out=state.noise_buf[a:n])
        state.noise_ahead = n


def _fresh_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """rng.integers(0, 2, n, dtype=np.uint8), bits and state alike, from whole uint32s."""
    return rng.integers(0, 1 << 32, -(-n // 4), dtype="<u4").view(np.uint8)[:n] >> 7


def _send_direction(state: PartyState, j: int, cycles: int | None):
    """Core: the sender's half of block Y_j, up to privacy amplification.

    Masks fresh bits under the chain tip, sends KEYBLOCK and PA_SEED, draws
    ahead (see _read_ahead) and answers a locate request.  Returns (bits,
    PA seed, whether it answered one, the peer's next frame).
    """
    params, tip, n = state.params, state.chain.tip, len(state.chain.tip)
    bits = _fresh_bits(state.fresh_rng, n)
    _read_ahead(state, j, j, cycles)
    yield MessageType.KEYBLOCK, send_block(       # no reference kept once sent
        bits, tip, params, state.noise_buf[:n],
        transport.keyblock_payload(turn(j)[0], n, params.resolution_bits))
    state.noise_ahead -= n      # samples left over start the next block
    state.noise_buf[:state.noise_ahead] = state.noise_buf[n:n + state.noise_ahead]
    pa_seed = state.pub_rng.bytes(pa_seed_bytes(n))
    yield MessageType.PA_SEED, _PA_SEED.pack(*turn(j)) + _check(bits) + pa_seed
    _read_ahead(state, j, j + 2, cycles)
    located, frame = yield from _sender_core(bits)
    return bits, pa_seed, located, frame


def receive_block(params: SessionParams, basis: ChainKey, j: int,
                  keyblock: bytes):
    """Core: the receiver's half of block Y_j, up to privacy amplification.

    Decodes the KEYBLOCK payload `keyblock` with `basis`, consuming it,
    reads PA_SEED and reconciles against its check.  The session runs it
    over the wire and Eve over her tape.  Returns (bits, PA seed, whether
    it located an error).
    """
    cycle = turn(j)[0]
    got_cycle, levels = yield from transport.recv_keyblock(
        params.resolution_bits, len(basis), keyblock)
    if got_cycle != cycle:
        raise ProtocolError(f"expected cycle {cycle}, peer sent {got_cycle}")
    bits = recover_block(levels, basis, params.constellation)
    del keyblock, levels   # a received block is dropped once decoded
    _, payload = yield from expect(MessageType.PA_SEED)
    *got, check, pa_seed = unpack_pa_seed(payload, len(bits))
    if tuple(got) != turn(j):
        raise ProtocolError("PA_SEED frame does not match the current block")
    bits, located = yield from _receiver_core(bits, check)
    return bits, pa_seed, located


def _confirm_message(state: PartyState) -> bytes:
    return (b"NOTP confirm" +
            struct.pack(">IQQdI", state.cycles_completed,
                        state.chain.total_delivered(),
                        state.ledger.disclosed_parity_bits,
                        state.ledger.statistical_leak,
                        len(state.chain.tip)))


def _confirm_tag(state: PartyState) -> bytes:
    tip = state.chain.tip
    if len(tip) - tip.tag_bits_used < TAG_BITS:
        return b""
    return authenticate_tag(tip, _confirm_message(state))


def run_session(channel: Channel, state: PartyState, cycles: int | None = None,
                progress=None) -> PartyState:
    """Run session_core over a channel; returns the party's state."""
    return transport.drive(session_core(state, cycles, progress), channel)


def session_core(state: PartyState, cycles: int | None = None, progress=None):
    """Core: all distribution cycles plus the confirmation exchange.

    One loop over the chain: with L keys it is due block Y_L, and turn(L)
    says its cycle and sender.  The party runs the sender's or the
    receiver's half, charges the block, amplifies and appends.  The
    initiator (role A) stops before cycle `cycles` + 1; the responder
    follows the peer's frames.  Key exhaustion stops cycling early on both
    sides and is reported on state.early_stop, not raised: whether it comes
    before a block, where both parties see it, or from a syndrome's charge.
    The party due to send the next block sends CONFIRM first: Y_L, or
    Y_{L+1} once Y_L used the tip.  Returns `state`, with its CONFIRM tag
    on state.confirm_tag.
    """
    initiator, params, chain = state.role == "A", state.params, state.chain
    if initiator and cycles is None:
        raise ValueError("initiator needs an explicit cycle count")
    frame = None
    try:
        while True:
            j, n = len(chain.keys), len(chain.tip)
            if params.key_length(n) <= 0:   # a block is sent only if it leaves a key
                state.early_stop = _EXHAUSTED.format(params.key_length(n))
                break
            if state.sends(j):
                if initiator and turn(j)[0] > cycles:
                    break
                bits, pa_seed, located, frame = yield from _send_direction(state, j, cycles)
            else:
                if frame is None:   # role B, before Y1
                    _read_ahead(state, j, j + 1, cycles)
                    frame = yield from expect(MessageType.KEYBLOCK, MessageType.CONFIRM)
                if frame[0] == MessageType.CONFIRM:
                    break
                # hand the KEYBLOCK on without keeping it here
                core, frame = receive_block(params, chain.tip, j, frame[1]), None
                bits, pa_seed, located = yield from core
            state.ledger.merge(params.block_charge(n, located))
            try:
                chain.append(amplify_block(params, bits, pa_seed, located))
            except KeyExhaustedError as exc:   # a syndrome's charge
                state.early_stop = str(exc)
                break
            if turn(j)[1] == B_TO_A and progress is not None:
                led = state.ledger
                progress({"cycle": turn(j)[0],
                          "delivered_bits": [len(k) for k in chain.keys[-2:]],
                          "statistical_leak": led.statistical_leak,
                          "disclosed_parity_bits": led.disclosed_parity_bits,
                          "ledger_total": led.total})
    finally:    # unmaps the buffer on every exit; a [:0] view would keep it
        state.noise_buf = np.empty(0)

    first = state.sends(len(chain.keys) + chain.tip.used_as_basis)
    tag = state.confirm_tag = _confirm_tag(state)
    if first:
        yield MessageType.CONFIRM, tag
    frame = frame or (yield from expect(MessageType.CONFIRM))
    if not first:
        yield MessageType.CONFIRM, tag
    if frame != (MessageType.CONFIRM, tag):
        raise ConfirmMismatchError(
            "peers computed different session confirmation tags")
    return state


def simulate_session(params: SessionParams, k0_bits, seed_a: int, seed_b: int,
                     cycles: int, transcript_path=None, progress=None):
    """Drive a full two-party session in process, on the calling thread.

    Returns (state_a, state_b).  The handshake, key blocks, parity
    dialogue and confirmation cross a PeerChannel as (msg_type, payload)
    pairs.  A transcript tap keeps the eavesdropper's view, the bytes a
    socket would carry, and raises OSError after the session if it lost a frame.
    """
    k0 = _as_bits(k0_bits)
    if len(k0) != params.block_length:
        raise ValueError(f"K0 has {len(k0)} bits, not {params.block_length}")
    proposal = params.hello()

    def role_b():
        params_b = yield from transport.handshake_core(
            "B", expected_block_length=len(k0))
        return (yield from session_core(PartyState.create("B", params_b, k0, seed_b)))

    channel = transport.PeerChannel(role_b())
    if transcript_path is not None:
        transport.record_transcript(channel, transcript_path)
    try:
        transport.handshake(channel, "A", proposal)
        state_a = PartyState.create("A", params, k0, seed_a)
        run_session(channel, state_a, cycles=cycles, progress=progress)
    finally:
        channel.close()
    if channel.error is not None:
        raise channel.error
    if channel.tap is not None:
        channel.tap.finish()
    return state_a, channel.result
