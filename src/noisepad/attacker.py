"""Eve's toolkit: transcript analysis, basis discrimination, and the
known-plaintext / chain-compromise attacks.

Eve's empirical attack is a classical phase-measurement maximum-likelihood
discriminator; the quantum discrimination bound is reported alongside as
the floor no strategy of hers can beat.  Once a chain key is revealed,
every later key falls from the recorded wire alone.  Eve's only input is
the tape of every frame: its HELLO gives the operating point, and she
replays the legitimate receiver's own core over each key block's frames,
then charges and amplifies each block with the parties' own steps.
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
    transmit_symbol,
    wrap_pi,
)
from .errors import NoisepadError, ProtocolError
from .phys import CoherentStateParams, eavesdropper_error, q_gaussian
from .protocol import (ChainKey, SessionParams, amplify_block, receive_block,
                       unpack_pa_seed)
from .transport import (
    MessageType,
    TapeChannel,
    drive,
    iter_frames,
    keyblock_symbols,
    unpack_hello,
)

PI = math.pi


@dataclass
class TapedBlock:
    """One KEYBLOCK on the tape and the frames after it, up to the next."""

    keyblock: bytes                 # its payload
    symbols: int                    # its level count
    frames: list = field(default_factory=list)    # (msg_type, payload) pairs


@dataclass
class Tape:
    params: SessionParams           # the operating point the HELLO proposed
    blocks: list                    # one TapedBlock per KEYBLOCK, in wire order


def read_tape(path) -> Tape:
    """Parse a recorded wire into its operating point and its key blocks.

    Block Y_j (index j-1) carries K_j's raw bits under basis K_{j-1}.  A
    malformed frame, KEYBLOCK or PA_SEED, or a PA_SEED that does not
    directly follow its KEYBLOCK, raises FrameError or ProtocolError; an
    operating point that SessionParams rejects raises ValueError.
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
            blocks.append(TapedBlock(payload, keyblock_symbols(
                payload, params.resolution_bits)))
            continue
        if msg_type == MessageType.PA_SEED:
            if not blocks or blocks[-1].frames:
                raise ProtocolError(f"tape {path} has a PA_SEED without its KEYBLOCK")
            unpack_pa_seed(payload, blocks[-1].symbols)     # its length
        if blocks:
            blocks[-1].frames.append((msg_type, payload))
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


def eve_bit_guess_rate(levels, c: Constellation, true_bits, seed: int = 0) -> float:
    """Eve's bit-error rate without basis knowledge.

    She reads each symbol's set exactly, guesses the basis uniformly at
    random, and infers bit = set XOR basis-guess.
    """
    true_bits = np.asarray(true_bits, dtype=np.uint8)
    symbols = np.asarray(levels, dtype=np.uint64)
    if len(symbols) == 0:
        raise ValueError("transcript is empty")
    if len(true_bits) != len(symbols):
        raise ValueError("true_bits and transcript lengths differ")
    sets = np.asarray(classify_set(symbols, c))
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


@dataclass
class ChainRecovery:
    recovered: list            # (key_index, bits) pairs
    gaps: list                 # human-readable reasons recovery stopped


def chain_compromise(tape: Tape, known_key_index: int,
                     known_key) -> ChainRecovery:
    """Walk the key chain forward from one revealed key, from the tape alone.

    Key K_{j-1} is the basis of block Y_j, so replaying the legitimate
    receiver's core over Y_j's frames with it yields K_j's reconciled bits;
    amplify_block, with the parties' key_length, and the public PA seed then
    give K_j, as for the parties.
    Every frame the receiver would send must be on the tape, so the taped
    parity and digest confirm or refute the guessed key.  A missing block,
    a frame the core rejects or would send that the tape does not hold, or
    a block that leaves no key ends recovery with a gap entry naming Y_j.
    """
    if known_key_index < 0:
        raise ValueError(f"known key index must be >= 0, got {known_key_index}")
    params = tape.params
    key = ChainKey.from_bits(known_key, known_key_index)
    recovered, gaps = [], []
    for j in count(known_key_index + 1):
        if j > len(tape.blocks):
            gaps.append(f"no block Y{j} on the tape; chain recovery stops at "
                        f"K{j - 1}")
            break
        block = tape.blocks[j - 1]
        core = receive_block(params, key, j, block.keyblock)
        try:
            bits, pa_seed, located = drive(core, TapeChannel(block.frames))
            key = amplify_block(params, bits, pa_seed, located)
        except NoisepadError as exc:
            gaps.append(f"Y{j}: {exc}")
            break
        recovered.append((j, key.bits))
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
    msg_levels = transmit_symbol(k, prev_basis, c, rng.normal(0.0, sigma, n_bits))
    reuse_levels = transmit_symbol(next_msg, k, c, rng.normal(0.0, sigma, n_bits))
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
