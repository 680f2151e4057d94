"""Dual-basis phase constellation and R-bit quantization.

Basis 0 puts bits 0/1 at phases {0, pi}; basis 1 is the same antipodal pair
rotated by delta_phi with the bit assignment reversed: bit 1 at delta_phi,
bit 0 at delta_phi + pi.  Anyone can read which antipodal half-plane ("set")
a symbol falls in -- that equals bit XOR basis -- but resolving the
delta_phi offset through the phase noise is what requires basis knowledge.

Quantized phases are plain integer levels in [0, 2^R); array operations use
numpy and accept scalars or arrays interchangeably.  quantize fuses two
steps exactly: x / (2pi/2^R) equals x / 2pi * 2^R, since a power-of-two
scale commutes with rounding, and frac + 1/2, in [1/2, 2^56 + 1/2], casts
to its floor through int64 (a cheaper cast than to uint64, same result).

On the wire a level is ceil(R/8) little-endian bytes: one power-of-two
integer field per set bit of that count (R = 40: a <u4 at byte 0, a u1 at
byte 4); the low field is the level cast, each higher one a strided copy.

Decoding works on levels, not phases.  The bit-1 levels of each basis form
one circular window of the 2^R-level ring: with q = 2^R/4 and
o = delta_phi/step, basis 0 decodes to 1 iff q < l < 3q and basis 1 iff
o - q < l < o + q (ties go to 0).  So a level decodes as
((l - start) mod 2^R) < width, a few uint64 passes.  For delta_phi = 2^k
and R <= 48 this equals the float nearest-point rule on every level
tested; where a float64 phase cannot resolve one level (R > 48), the
integer rule is the definition.

decode_packed reads that rule off packed bytes.  A symbol's top field, its
last min(2, ceil(R/8)) bytes, holds level bits s and up, T = 2^(R-s) values,
shifted onto the uint16 ring (stray bits above R drop out).  From the centre
of its basis's run of T/2 - 1 all-bit-1 values, |top - centre| < 2^14 is
bit 1; at 2^14 a value may straddle an edge, so its chunk decodes full levels.
"""

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

TWO_PI = 2.0 * math.pi
PI = math.pi


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

    @cached_property
    def top_rule(self) -> tuple:
        """decode_packed's shift onto the uint16 ring, and minus the centre of the run of
        T/2 - 1 all-bit-1 top values per basis: basis 0's, and basis 1's less 0's."""
        s = 8 * max(bytes_per_symbol(self.resolution_bits) - 2, 0)  # bits below the top
        k = 16 - self.resolution_bits + s
        c0, c1 = ((-start >> s << k) + (1 << k) - (1 << 14) & 0xFFFF
                  for start, _ in self.windows)
        return k, np.uint16(c0), np.uint16(c1 - c0 & 0xFFFF)


def wrap_pi(phase):
    """Wrap phase(s) to [-pi, pi)."""
    return np.mod(np.asarray(phase, dtype=float) + PI, TWO_PI) - PI


def quantize(phase, resolution_bits: int):
    """Round phase to the nearest of 2^R levels on [0, 2pi); ties round up."""
    if not 8 <= resolution_bits <= 56:
        raise ValueError(f"resolution_bits must lie in [8, 56], got {resolution_bits!r}")
    n_levels = 1 << resolution_bits
    phase = np.asarray(phase, dtype=float)
    if phase.size and -TWO_PI < phase.min() and phase.max() < TWO_PI:
        # np.mod(x, 2pi) is x + 2pi below 0, else x (a modulated phase stays
        # below 2pi); frac is a new array for the in-place steps below.
        frac = np.asarray(np.multiply(phase < 0.0, TWO_PI))
        frac += phase
    else:
        frac = np.asarray(np.mod(phase, TWO_PI))
    frac /= TWO_PI / n_levels
    frac += 0.5
    level = frac.astype(np.int64).view(np.uint64)
    level &= np.uint64(n_levels - 1)
    return int(level) if level.ndim == 0 else level


def dequantize(level, resolution_bits: int):
    """Phase 2pi * level / 2^R of a quantization level."""
    n_levels = 1 << resolution_bits
    phase = np.asarray(level, dtype=float) * (TWO_PI / n_levels)
    return float(phase) if phase.ndim == 0 else phase


def transmit_symbol(bit, basis, c: Constellation, noise):
    """Quantized on-air phase: quantize((bit XOR basis)*pi + basis*delta_phi + noise)."""
    phase = np.multiply(np.bitwise_xor(bit, basis), PI)
    phase += np.multiply(basis, c.delta_phi)
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


def decode_packed(data, basis, c: Constellation, out) -> None:
    """decode_with_basis(unpack_levels(data, R), basis, c), written into uint8 `out`."""
    size, (k, c0, c1_c0) = bytes_per_symbol(c.resolution_bits), c.top_rule
    top = np.ndarray(len(basis), f"<u{min(2, size)}", data, max(size - 2, 0), (size,))
    y = np.multiply(basis, c1_c0, dtype=np.uint16)
    y += np.left_shift(top, k, dtype=np.uint16) if k else top
    y += c0
    np.abs(y.view(np.int16), out=y.view(np.int16))   # -2^15 stays 2^15 as uint16
    np.less(y, 1 << 14, out=out.view(bool))
    if (y == 1 << 14).any():    # a symbol at a window edge: decode every full level
        out[:] = decode_with_basis(unpack_levels(data, c.resolution_bits), basis, c)


def bytes_per_symbol(resolution_bits: int) -> int:
    return (resolution_bits + 7) // 8


@cache
def _fields(nbytes: int) -> np.dtype:
    """The integer fields of a packed symbol (see the module docstring)."""
    widths = [w for w in (8, 4, 2, 1) if nbytes & w]
    return np.dtype({"names": [f"u{w}" for w in widths],
                     "formats": [f"<u{w}" for w in widths],
                     "offsets": [nbytes & -2 * w for w in widths], "itemsize": nbytes})


def pack_levels(levels, resolution_bits: int, out) -> None:
    """Write levels into the writable buffer `out`, ceil(R/8) little-endian bytes each.
    Kernel: levels below 2^R, unchecked; transport.pack_keyblock checks outside ones."""
    arr = np.ascontiguousarray(levels, dtype="<u8").reshape(-1)
    packed = np.frombuffer(out, _fields(bytes_per_symbol(resolution_bits)))
    low, *high = packed.dtype.names
    np.copyto(packed[low], arr, casting="unsafe")   # faster than a strided copy
    for name in high:
        dtype, offset = packed.dtype.fields[name]
        packed[name] = arr.view(dtype)[offset // dtype.itemsize::8 // dtype.itemsize]


def unpack_levels(data, resolution_bits: int) -> np.ndarray:
    """Inverse of pack_levels; data is any bytes-like object."""
    nbytes = bytes_per_symbol(resolution_bits)
    if len(data) % nbytes:
        raise ValueError(
            f"packed data length {len(data)} is not a multiple of {nbytes}")
    packed = np.frombuffer(data, _fields(nbytes))
    low, *high = packed.dtype.names
    levels = packed[low].astype("<u8")
    for name in high:
        dtype, offset = packed.dtype.fields[name]
        levels.view(dtype)[offset // dtype.itemsize::8 // dtype.itemsize] = packed[name]
    return levels
