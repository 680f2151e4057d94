"""Eve's toolkit: transcript analysis, basis discrimination, and the
known-plaintext / chain-compromise attacks.

Eve's empirical attack is a classical phase-measurement maximum-likelihood
discriminator; the quantum discrimination bound is reported alongside as
the floor no strategy of hers can beat.  Privacy-amplification seeds are
treated as public (they travel in clear on the wire), so once a chain key
is revealed, every later key falls from the recorded transcripts alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .encode import (
    Constellation,
    classify_set,
    dequantize,
    modulate,
    quantize,
    wrap_pi,
)
from .phys import CoherentStateParams, eavesdropper_error, q_gaussian
from .protocol import (
    A_TO_B,
    B_TO_A,
    BlockTranscript,
    PaRecord,
    privacy_amplify,
    recover_block,
)
from .transport import read_transcript_levels

PI = math.pi


def load_transcripts(path, resolution_bits: int) -> list[BlockTranscript]:
    """Rebuild block transcripts from a recorded transcript file.

    Directions alternate on the wire: the first block of each cycle runs
    A to B, the second B to A.
    """
    out = []
    for i, (cycle, levels) in enumerate(read_transcript_levels(path, resolution_bits)):
        direction = A_TO_B if i % 2 == 0 else B_TO_A
        out.append(BlockTranscript(direction, levels, cycle))
    return out


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


def eve_ml_basis_guess(msg_levels, reuse_levels, c: Constellation,
                       sigma_phi: float) -> np.ndarray:
    """Maximum-likelihood basis guess from both emissions of each key bit.

    Each key bit shows up twice on the wire: once as a message (where its
    value selects the half-plane, so the set re-references that symbol's
    deviation onto the key bit) and once as basis material (where the
    deviation is keyed directly).  Folding both deviations and averaging
    halves the noise variance; the threshold sits midway between the basis
    centers 0 and delta_phi.

    `sigma_phi` is accepted for signature completeness; the ML threshold
    for equal priors does not depend on it.
    """
    msg_sets, msg_dev = _set_deviation(msg_levels, c)
    _, reuse_dev = _set_deviation(reuse_levels, c)
    folded = np.where(msg_sets == 0, msg_dev, c.delta_phi - msg_dev)
    mean_dev = 0.5 * (folded + reuse_dev)
    out = (mean_dev > c.delta_phi / 2.0).astype(np.uint8)
    return out


def eve_bit_guess_rate(transcript: BlockTranscript, c: Constellation,
                       true_bits, seed: int = 0,
                       basis_oracle=None) -> float:
    """Eve's bit-error rate without basis knowledge.

    She reads each symbol's set exactly, guesses the basis uniformly at
    random, and infers bit = set XOR basis-guess.  Supplying a basis
    oracle instead reduces her to the legitimate decoder.
    """
    true_bits = np.asarray(true_bits, dtype=np.uint8)
    symbols = np.asarray(transcript.symbols, dtype=np.uint64)
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
    recovered: list            # (key_index, bits) pairs, amplified when possible
    gaps: list                 # human-readable reasons recovery stopped


def chain_compromise(transcripts, known_key_index: int, known_key_bits,
                     c: Constellation,
                     pa_records: list[PaRecord] | None = None) -> ChainRecovery:
    """Walk the key chain forward from one revealed key.

    Key K_j is the basis of transcript Y_{j+1} (transcripts[j] with Y_1 at
    index 0), so decoding exactly as the legitimate receiver yields the
    next raw key; public amplification seeds then reproduce the delivered
    keys.  A missing or wrong-length transcript ends recovery with an
    explicit gap entry.
    """
    current = np.asarray(known_key_bits, dtype=np.uint8)
    recovered, gaps = [], []
    records = {r.key_index: r for r in pa_records} if pa_records else {}
    j = known_key_index
    while True:
        j += 1
        t_index = j - 1
        if t_index >= len(transcripts) or transcripts[t_index] is None:
            gaps.append(f"no transcript recorded for Y{j}; chain recovery "
                        f"stops at K{j - 1}")
            break
        t = transcripts[t_index]
        if len(t.symbols) != len(current):
            gaps.append(f"transcript Y{j} carries {len(t.symbols)} symbols but "
                        f"K{j - 1} has {len(current)} bits")
            break
        raw = recover_block(t, current, c)
        if pa_records:
            rec = records.get(j)
            if rec is None:
                gaps.append(f"no amplification record for K{j}")
                break
            if not 0 < rec.output_bits <= len(raw):
                gaps.append(f"amplification record for K{j} asks for "
                            f"{rec.output_bits} of {len(raw)} bits")
                break
            current = privacy_amplify(raw, rec.output_bits, rec.pa_seed)
        else:
            current = raw
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
    guesses = eve_ml_basis_guess(msg_levels, reuse_levels, c, params.sigma_phi)
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
