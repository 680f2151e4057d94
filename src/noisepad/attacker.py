"""Eve's toolkit: transcript analysis, basis discrimination, and the
known-plaintext / chain-compromise attacks.

Eve's empirical attack is a classical phase-measurement maximum-likelihood
discriminator; the quantum discrimination bound is reported alongside as
the floor no strategy of hers can beat.  Once a chain key is revealed,
every later key falls from the recorded wire alone.  Eve's only input is
the tape of every frame: its HELLO gives the operating point, each
KEYBLOCK a level array, each PA_SEED the public amplification seed, and a
locate request shows that a syndrome was charged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import count

import numpy as np

from .encode import (
    Constellation,
    classify_set,
    dequantize,
    modulate,
    quantize,
    wrap_pi,
)
from .errors import KeyExhaustedError, ProtocolError
from .phys import CoherentStateParams, eavesdropper_error, q_gaussian
from .protocol import (
    LeakLedger,
    SessionParams,
    pa_output_length,
    privacy_amplify,
    recover_block,
    unpack_pa_seed,
)
from .transport import MessageType, iter_frames, unpack_hello, unpack_keyblock

PI = math.pi


@dataclass
class TapedBlock:
    """One key block and the public facts the tape holds about it."""

    levels: np.ndarray
    pa_seed: bytes | None = None    # None if its PA_SEED is not on the tape
    located: bool = False           # a locate request followed it


@dataclass
class Tape:
    params: SessionParams           # the operating point the HELLO proposed
    blocks: list                    # one TapedBlock per KEYBLOCK, in wire order


def read_tape(path) -> Tape:
    """Parse a recorded wire into its operating point and its key blocks.

    Block Y_j (index j-1) carries K_j's raw bits under basis K_{j-1}.  A
    malformed frame raises FrameError or ProtocolError; an operating point
    that SessionParams rejects raises ValueError.
    """
    with open(path, "rb") as fh:
        frames = iter_frames(fh.read())
    msg_type, payload = next(frames, (None, b""))
    if msg_type != MessageType.HELLO:
        raise ProtocolError(f"tape {path} does not start with HELLO")
    params = SessionParams.from_hello(unpack_hello(payload))
    blocks = []
    for msg_type, payload in frames:
        if msg_type == MessageType.KEYBLOCK:
            _, levels = unpack_keyblock(payload, params.resolution_bits)
            blocks.append(TapedBlock(levels))
        elif msg_type == MessageType.PA_SEED:
            if not blocks or blocks[-1].pa_seed is not None:
                raise ProtocolError(f"tape {path} has a PA_SEED without its KEYBLOCK")
            blocks[-1].pa_seed = unpack_pa_seed(payload, len(blocks[-1].levels))[3]
        elif msg_type == MessageType.PARITY_REQ and blocks:
            blocks[-1].located = True
    return Tape(params, blocks)


@dataclass
class AttackReport:
    symbols_observed: int
    basis_guess_error_rate: float | None = None
    bit_guess_error_rate: float | None = None
    helstrom_floor: float | None = None
    recovered_keys: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def to_json(self, **kwargs) -> str:
        doc = {
            "symbols_observed": self.symbols_observed,
            "basis_guess_error_rate": self.basis_guess_error_rate,
            "bit_guess_error_rate": self.bit_guess_error_rate,
            "helstrom_floor": self.helstrom_floor,
            "recovered_keys": [
                {"index": idx, "bits": "".join(map(str, map(int, bits)))}
                for idx, bits in self.recovered_keys
            ],
            "notes": self.notes,
        }
        return json.dumps(doc, sort_keys=True, **kwargs)


def _set_deviation(levels, c: Constellation):
    """Signed phase deviation from the nearest antipodal cluster center.

    Returns (set, deviation) where deviation = basis * delta_phi + noise
    for any transmitted symbol, whatever its bit.
    """
    phase = dequantize(np.asarray(levels, dtype=np.uint64), c.resolution_bits)
    sets = np.asarray(classify_set(np.asarray(levels, dtype=np.uint64), c))
    return sets, wrap_pi(phase - sets * PI)


def eve_ml_basis_guess(msg_levels, reuse_levels, c: Constellation) -> np.ndarray:
    """Maximum-likelihood basis guess from both emissions of each key bit.

    Each key bit shows up twice on the wire: once as a message (where its
    value selects the half-plane, so the set re-references that symbol's
    deviation onto the key bit) and once as basis material (where the
    deviation is keyed directly).  Folding both deviations and averaging
    halves the noise variance; the threshold sits midway between the basis
    centers 0 and delta_phi; for equal priors it does not depend on the
    noise width.
    """
    msg_sets, msg_dev = _set_deviation(msg_levels, c)
    _, reuse_dev = _set_deviation(reuse_levels, c)
    folded = np.where(msg_sets == 0, msg_dev, c.delta_phi - msg_dev)
    mean_dev = 0.5 * (folded + reuse_dev)
    out = (mean_dev > c.delta_phi / 2.0).astype(np.uint8)
    return out


def eve_bit_guess_rate(levels, c: Constellation, true_bits, seed: int = 0,
                       basis_oracle=None) -> float:
    """Eve's bit-error rate without basis knowledge.

    She reads each symbol's set exactly, guesses the basis uniformly at
    random, and infers bit = set XOR basis-guess.  Supplying a basis
    oracle instead reduces her to the legitimate decoder.
    """
    true_bits = np.asarray(true_bits, dtype=np.uint8)
    symbols = np.asarray(levels, dtype=np.uint64)
    if len(symbols) == 0:
        raise ValueError("transcript is empty")
    if len(true_bits) != len(symbols):
        raise ValueError("true_bits and transcript lengths differ")
    sets = np.asarray(classify_set(symbols, c))
    if basis_oracle is not None:
        basis = np.asarray(basis_oracle, dtype=np.uint8)
    else:
        basis = np.random.default_rng(seed).integers(
            0, 2, len(symbols), dtype=np.uint8)
    guesses = np.bitwise_xor(sets.astype(np.uint8), basis)
    return float(np.mean(guesses != true_bits))


def known_plaintext_attack(ciphertext_bits, plaintext_bits) -> np.ndarray:
    """XOR a recorded ciphertext with its known plaintext: the key, exactly."""
    cipher = np.asarray(ciphertext_bits, dtype=np.uint8)
    plain = np.asarray(plaintext_bits, dtype=np.uint8)
    if cipher.shape != plain.shape:
        raise ValueError(
            f"ciphertext ({cipher.size}) and plaintext ({plain.size}) "
            f"lengths differ")
    return np.bitwise_xor(cipher, plain)


def known_plaintext_attack_noisy(levels, plaintext_bits,
                                 c: Constellation) -> np.ndarray:
    """Recover the basis key from a noise-masked encryption of known bits.

    Noise does not help: the set of each symbol is macroscopic and equals
    bit XOR basis, so a known plaintext exposes the basis key directly.
    The roles of key and message are symmetric.
    """
    plain = np.asarray(plaintext_bits, dtype=np.uint8)
    sets = np.asarray(classify_set(np.asarray(levels, dtype=np.uint64), c),
                      dtype=np.uint8)
    if sets.shape != plain.shape:
        raise ValueError("plaintext and symbol counts differ")
    return np.bitwise_xor(sets, plain)


@dataclass
class ChainRecovery:
    recovered: list            # (key_index, bits) pairs
    gaps: list                 # human-readable reasons recovery stopped


def chain_compromise(tape: Tape, known_key_index: int,
                     known_key) -> ChainRecovery:
    """Walk the key chain forward from one revealed key, from the tape alone.

    Key K_{j-1} is the basis of block Y_j, so decoding Y_j exactly as the
    legitimate receiver yields K_j's raw bits.  Its length is replayed with
    the parties' own ledger rule (one parity bit, plus n.bit_length() if a
    locate request followed), and its public PA seed then gives K_j.  A
    missing or wrong-length block, a block without its PA_SEED, or one that
    leaves no key ends recovery with an explicit gap entry.
    """
    if known_key_index < 0:
        raise ValueError(f"known key index must be >= 0, got {known_key_index}")
    params = tape.params
    current = np.asarray(known_key, dtype=np.uint8)
    recovered, gaps = [], []
    for j in count(known_key_index + 1):
        if j > len(tape.blocks):
            gaps.append(f"no block Y{j} on the tape; chain recovery stops at "
                        f"K{j - 1}")
            break
        block = tape.blocks[j - 1]
        n = len(block.levels)
        if n != len(current):
            gaps.append(f"block Y{j} carries {n} symbols but K{j - 1} has "
                        f"{len(current)} bits")
            break
        if block.pa_seed is None:
            gaps.append(f"no PA_SEED on the tape for Y{j}")
            break
        ledger = LeakLedger(n * params.per_symbol_leak)
        ledger.add_parities(1)
        if block.located:
            ledger.add_parities(n.bit_length())
        try:
            m = pa_output_length(n, ledger, params.safety_bits)
        except KeyExhaustedError as exc:
            gaps.append(f"Y{j} leaves no key: {exc}")
            break
        raw = recover_block(block.levels, current, params.constellation)
        current = privacy_amplify(raw, m, block.pa_seed)
        recovered.append((j, current))
    return ChainRecovery(recovered, gaps)


# ---------------------------------------------------------------------------
# Monte-Carlo harness for the basis attack
# ---------------------------------------------------------------------------

def simulate_double_emission(params: CoherentStateParams, c: Constellation,
                             n_bits: int, seed: int):
    """Both wire appearances of n_bits chained key bits.

    For each key bit k: one symbol where k is the message (under an
    independent uniform basis) and one where k is the basis (carrying an
    independent uniform message).  Returns (msg_levels, reuse_levels, k).
    """
    rng = np.random.default_rng(seed)
    sigma = params.sigma_phi
    k = rng.integers(0, 2, n_bits, dtype=np.uint8)
    prev_basis = rng.integers(0, 2, n_bits, dtype=np.uint8)
    next_msg = rng.integers(0, 2, n_bits, dtype=np.uint8)
    msg_levels = quantize(
        modulate(k, prev_basis, c) + rng.normal(0.0, sigma, n_bits),
        c.resolution_bits)
    reuse_levels = quantize(
        modulate(next_msg, k, c) + rng.normal(0.0, sigma, n_bits),
        c.resolution_bits)
    return msg_levels, reuse_levels, k


def basis_attack_report(params: CoherentStateParams, c: Constellation,
                        n_bits: int, seed: int) -> AttackReport:
    """Empirical ML basis attack vs. the discrimination floor."""
    if n_bits < 1:
        raise ValueError(f"n_bits must be >= 1, got {n_bits}")
    msg_levels, reuse_levels, true_basis = simulate_double_emission(
        params, c, n_bits, seed)
    guesses = eve_ml_basis_guess(msg_levels, reuse_levels, c)
    error = float(np.mean(guesses != true_basis))
    floor = eavesdropper_error(params, c.delta_phi, repetitions=2)
    classical = q_gaussian(
        c.delta_phi * math.sqrt(params.avg_photon_number) / 2.0)
    return AttackReport(
        symbols_observed=2 * n_bits,
        basis_guess_error_rate=error,
        helstrom_floor=floor,
        notes={"classical_ml_error": classical, "key_bits": n_bits},
    )
