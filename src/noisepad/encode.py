"""Dual-basis phase constellation and R-bit quantization.

Basis 0 puts bits 0/1 at phases {0, pi}; basis 1 is the same antipodal pair
rotated by delta_phi with the bit assignment reversed: bit 1 at delta_phi,
bit 0 at delta_phi + pi.  Anyone can read which antipodal half-plane ("set")
a symbol falls in -- that equals bit XOR basis -- but resolving the
delta_phi offset through the phase noise is what requires basis knowledge.

Quantized phases are plain integer levels in [0, 2^R); array operations use
numpy and accept scalars or arrays interchangeably.

Decoding works on levels, not phases.  The bit-1 levels of each basis form
one circular window of the 2^R-level ring: with q = 2^R/4 and
o = delta_phi/step, basis 0 decodes to 1 iff q < l < 3q and basis 1 iff
o - q < l < o + q (ties go to 0).  So a level decodes as
((l - start) mod 2^R) < width, a few uint64 passes.  For delta_phi = 2^k
and R <= 48 this equals the float nearest-point rule on every level
tested; where a float64 phase cannot resolve one level (R > 48), the
integer rule is the definition.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi
PI = math.pi
# A little-endian uint64 slot seen as one opaque field of its low n bytes.
_SLOTS = {n: np.dtype({"names": ["low"], "formats": [f"V{n}"], "offsets": [0],
                       "itemsize": 8}) for n in range(1, 9)}


@dataclass(frozen=True)
class Constellation:
    """Basis offset delta_phi (radians) and ADC resolution R (bits)."""

    delta_phi: float
    resolution_bits: int = 16

    def __post_init__(self):
        if not (0.0 < self.delta_phi < PI / 8.0):
            raise ValueError(
                f"delta_phi must lie in (0, pi/8), got {self.delta_phi!r}")
        r = self.resolution_bits
        if not (isinstance(r, int) and 8 <= r <= 56):
            raise ValueError(f"resolution_bits must be an int in [8, 56], got {r!r}")
        if self.step > self.delta_phi / 2.0:
            raise ValueError(
                f"grid step {self.step:.3g} does not resolve delta_phi/2 = "
                f"{self.delta_phi / 2.0:.3g}; increase resolution_bits")

    @property
    def n_levels(self) -> int:
        return 1 << self.resolution_bits

    @property
    def step(self) -> float:
        return TWO_PI / self.n_levels

    @cached_property
    def phases(self) -> np.ndarray:
        """modulate(bit, basis) at index 2*bit + basis; read-only, computed once."""
        phases = modulate(*np.divmod(np.arange(4), 2), self)
        phases.flags.writeable = False
        return phases

    @cached_property
    def windows(self) -> tuple:
        """((start, width) of basis 0, (start, width) of basis 1): the bit-1 levels.

        Basis 1 runs from floor(o) - q + 1 to ceil(o) + q - 1, so it is one
        level wider than basis 0 unless o is a whole number of levels.
        """
        q = self.n_levels // 4
        o = self.delta_phi / self.step
        lo, hi = math.floor(o), math.ceil(o)
        return ((q + 1, 2 * q - 1),
                ((lo - q + 1) % self.n_levels, hi - lo + 2 * q - 1))


def wrap_pi(phase):
    """Wrap phase(s) to [-pi, pi)."""
    return np.mod(np.asarray(phase, dtype=float) + PI, TWO_PI) - PI


def modulate(bit, basis, c: Constellation):
    """Phase of (bit, basis): basis*delta_phi + (bit XOR basis)*pi."""
    bit = np.asarray(bit)
    basis = np.asarray(basis)
    return basis * c.delta_phi + np.bitwise_xor(bit, basis) * PI


def quantize(phase, resolution_bits: int):
    """Round phase to the nearest of 2^R levels on [0, 2pi); ties round up."""
    if not 8 <= resolution_bits <= 56:
        raise ValueError(f"resolution_bits must lie in [8, 56], got {resolution_bits!r}")
    n_levels = 1 << resolution_bits
    phase = np.asarray(phase, dtype=float)
    if phase.size and -TWO_PI < phase.min() and phase.max() < 2.0 * TWO_PI:
        # np.mod(x, 2pi) is x + 2pi below 0 and x - 2pi (exact, by Sterbenz)
        # from 2pi on; frac is a new array for the in-place steps below.
        wraps = (phase >= TWO_PI).view(np.int8) - (phase < 0.0).view(np.int8)
        frac = np.asarray(TWO_PI * wraps)
        np.subtract(phase, frac, out=frac)
    else:
        frac = np.asarray(np.mod(phase, TWO_PI))
    frac /= TWO_PI
    frac *= n_levels
    frac += 0.5
    np.floor(frac, out=frac)
    level = frac.astype(np.uint64)
    level &= np.uint64(n_levels - 1)
    return int(level) if level.ndim == 0 else level


def dequantize(level, resolution_bits: int):
    """Phase 2pi * level / 2^R of a quantization level."""
    n_levels = 1 << resolution_bits
    phase = np.asarray(level, dtype=float) * (TWO_PI / n_levels)
    return float(phase) if phase.ndim == 0 else phase


def transmit_symbol(bit, basis, c: Constellation, noise):
    """Quantized on-air phase: quantize(modulate(bit, basis) + noise)."""
    index = np.multiply(bit, 2, dtype=np.intp)
    index += basis
    phase = c.phases[index]
    phase += noise
    return quantize(phase, c.resolution_bits)


def classify_set(level, c: Constellation):
    """Half-plane (set) of a symbol: 0 near centers {0, delta_phi}, else 1.

    The decision boundary sits midway between the two antipodal clusters,
    at delta_phi/2 +- pi/2.  For ideal symbols the set equals bit XOR basis.
    """
    w = wrap_pi(dequantize(level, c.resolution_bits) - c.delta_phi / 2.0)
    in_set1 = (w > -PI / 2.0) & (w <= PI / 2.0)
    out = np.where(in_set1, 0, 1)
    return int(out) if out.ndim == 0 else out


def decode_with_basis(level, basis, c: Constellation):
    """Bit of the nearest constellation point of the given basis.

    Circular distance; exact ties resolve to bit 0.  Integer windows (see
    the module docstring); arrays come back as uint8.
    """
    (start0, width0), (start1, width1) = c.windows
    level = np.asarray(level, dtype=np.uint64)
    basis = np.asarray(basis, dtype=np.uint8)
    # offset = (level - start[basis]) mod 2^R, in one uint64 buffer
    offset = np.empty(np.broadcast_shapes(level.shape, basis.shape), np.uint64)
    np.multiply(basis, np.uint64((start1 - start0) % c.n_levels), out=offset)
    np.subtract(level, offset, out=offset)
    offset -= np.uint64(start0)
    offset &= np.uint64(c.n_levels - 1)
    out = offset < width0
    out |= (offset < width1) & (basis != 0)     # width1 >= width0
    return int(out) if out.ndim == 0 else out.view(np.uint8)


def bytes_per_symbol(resolution_bits: int) -> int:
    return (resolution_bits + 7) // 8


def pack_levels(levels, resolution_bits: int) -> bytes:
    """Serialize levels as ceil(R/8) little-endian bytes each, concatenated."""
    nbytes = bytes_per_symbol(resolution_bits)
    arr = np.ascontiguousarray(levels, dtype="<u8").reshape(-1)
    if arr.size and int(arr.max()) >> resolution_bits:
        raise ValueError("level out of range for resolution_bits")
    return arr.view(_SLOTS[nbytes])["low"].tobytes()


def unpack_levels(data, resolution_bits: int) -> np.ndarray:
    """Inverse of pack_levels; data is any bytes-like object."""
    nbytes = bytes_per_symbol(resolution_bits)
    if len(data) % nbytes:
        raise ValueError(
            f"packed data length {len(data)} is not a multiple of {nbytes}")
    levels = np.zeros(len(data) // nbytes, dtype="<u8")
    levels.view(_SLOTS[nbytes])["low"] = np.frombuffer(data, dtype=f"V{nbytes}")
    return levels
