"""Independent reference implementations used to freeze expected values.

Everything here deliberately avoids the library's code paths: closed-form
chains are evaluated with 50-digit Decimal arithmetic, Gaussian tails by
numerical quadrature, and matrix hashes by explicit dense construction.
"""

import csv
import io
from decimal import Decimal, getcontext

import numpy as np

getcontext().prec = 50

LN2 = Decimal(2).ln()


def d_sigma_phi(n) -> Decimal:
    return (Decimal(2) / Decimal(n)).sqrt()


def d_overlap(delta_phi_12, sigma) -> Decimal:
    d, s = Decimal(delta_phi_12), Decimal(sigma)
    return (-(d * d) / (2 * s * s)).exp()


def _d_cos(x: Decimal) -> Decimal:
    # Taylor series; |x| is at most a few radians in every use here.
    term = Decimal(1)
    total = Decimal(1)
    for k in range(1, 60):
        term *= -x * x / (2 * k * (2 * k - 1))
        total += term
    return total


def d_fidelity_exact(n, delta_phi) -> Decimal:
    n, d = Decimal(n), Decimal(delta_phi)
    return (-2 * n * (1 - _d_cos(d / 2))).exp()


def d_fidelity_approx(n, delta_phi) -> Decimal:
    n, d = Decimal(n), Decimal(delta_phi)
    return (-n * d * d / 4).exp()


def d_helstrom(overlap_sq) -> Decimal:
    return (1 - (1 - Decimal(overlap_sq)).sqrt()) / 2


def d_eavesdropper_error(n, delta_phi, repetitions=2) -> Decimal:
    n, d, r = Decimal(n), Decimal(delta_phi), Decimal(repetitions)
    inner = 1 - (-(r * n / 4) * d * d).exp()
    return (1 - inner.sqrt()) / 2


def d_entropy_leak(n, delta_phi) -> Decimal:
    p_s = 1 - d_eavesdropper_error(n, delta_phi, 2)
    h_s = -p_s * p_s.ln() / LN2
    return 1 - h_s


def d_min_leak_length(n, delta_phi) -> Decimal:
    return 1 / (d_entropy_leak(n, delta_phi) - Decimal("0.5"))


def gaussian_tail(z: float, upper: float = 40.0, points: int = 2_000_001) -> float:
    """P(X > z) for standard normal X, by trapezoidal quadrature."""
    x = np.linspace(z, upper, points)
    pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    trapezoid = getattr(np, "trapezoid", None) or np.trapz   # numpy < 2.0: trapz
    return float(trapezoid(pdf, x))


def binom_3sigma(p: float, n: int) -> float:
    return 3.0 * np.sqrt(max(p * (1.0 - p), 1e-12) / n)


def dense_modified_toeplitz(seed_bits: np.ndarray, vec: np.ndarray,
                            m: int) -> np.ndarray:
    """Explicit m x n product [I | T] x over GF(2), T[i, j] = seed[k-1+i-j], k = n-m."""
    n = len(vec)
    k = n - m
    h = np.zeros((m, n), dtype=np.int64)
    for i in range(m):
        h[i, i] = 1
        for j in range(k):
            h[i, m + j] = seed_bits[k - 1 + i - j]
    return (h @ vec.astype(np.int64)) % 2


# Float phase arithmetic of the symbol layer, as encode computed it before it
# moved to integer levels: the kernels must return the same levels and bits.
_PI = np.pi
_TWO_PI = 2.0 * np.pi


def float_wrap_pi(phase):
    return np.mod(np.asarray(phase, dtype=float) + _PI, _TWO_PI) - _PI


def float_modulate(bit, basis, delta_phi):
    bit, basis = np.asarray(bit), np.asarray(basis)
    return basis * delta_phi + np.bitwise_xor(bit, basis) * _PI


def float_quantize(phase, resolution_bits):
    n_levels = 1 << resolution_bits
    frac = np.mod(np.asarray(phase, dtype=float), _TWO_PI) / _TWO_PI
    level = np.floor(frac * n_levels + 0.5).astype(np.uint64) % n_levels
    return int(level) if level.ndim == 0 else level


def wrap_floor_quantize(phase, resolution_bits):
    """encode.quantize before its passes were fused: wrap by -1/0/+1 turns,
    divide by 2pi, scale by 2^R, add 1/2, floor, cast, mask."""
    n_levels = 1 << resolution_bits
    phase = np.asarray(phase, dtype=float)
    if phase.size and -_TWO_PI < phase.min() and phase.max() < 2.0 * _TWO_PI:
        wraps = (phase >= _TWO_PI).view(np.int8) - (phase < 0.0).view(np.int8)
        frac = np.asarray(_TWO_PI * wraps)
        np.subtract(phase, frac, out=frac)
    else:
        frac = np.asarray(np.mod(phase, _TWO_PI))
    frac /= _TWO_PI
    frac *= n_levels
    frac += 0.5
    np.floor(frac, out=frac)
    level = frac.astype(np.uint64)
    level &= np.uint64(n_levels - 1)
    return int(level) if level.ndim == 0 else level


def float_transmit_symbol(bit, basis, delta_phi, resolution_bits, noise):
    return float_quantize(float_modulate(bit, basis, delta_phi) + noise,
                          resolution_bits)


def float_decode_with_basis(level, basis, delta_phi, resolution_bits):
    """Nearest of the basis's two points by circular distance; ties give 0."""
    phase = np.asarray(level, dtype=float) * (_TWO_PI / (1 << resolution_bits))
    d_bit0 = np.abs(float_wrap_pi(phase - float_modulate(0, basis, delta_phi)))
    d_bit1 = np.abs(float_wrap_pi(phase - float_modulate(1, basis, delta_phi)))
    out = np.where(d_bit1 < d_bit0, 1, 0)
    return int(out) if out.ndim == 0 else out


# Kernels as the package computed them before they moved to packed ints and
# one-copy slots: the new kernels must return the same bits and bytes.

def slice_modified_toeplitz(seed_bits: np.ndarray, vec: np.ndarray,
                            m: int) -> np.ndarray:
    """[I | T] x as one XOR of an m-bit uint8 seed slice per set bit of x[m:]."""
    k = len(vec) - m
    out = vec[:m].copy()
    for j in np.flatnonzero(vec[m:]):
        out ^= seed_bits[k - 1 - j:k - 1 - j + m]
    return out


def strided_pack_levels(levels, resolution_bits: int) -> bytes:
    nbytes = (resolution_bits + 7) // 8
    as_bytes = np.asarray(levels, dtype="<u8").view(np.uint8).reshape(-1, 8)
    return as_bytes[:, :nbytes].tobytes()


def strided_unpack_levels(data: bytes, resolution_bits: int) -> np.ndarray:
    nbytes = (resolution_bits + 7) // 8
    raw = np.frombuffer(data, dtype=np.uint8).reshape(-1, nbytes)
    padded = np.zeros((raw.shape[0], 8), dtype=np.uint8)
    padded[:, :nbytes] = raw
    return padded.view("<u8").reshape(-1).astype(np.uint64)


def surface_rows(text: str) -> list:
    """Rows of an analysis.emit_surface CSV as (n_avg, exponent, value) floats."""
    reader = csv.reader(io.StringIO(text))
    assert next(reader) == ["n_avg", "delta_phi_exp2", "value"]
    return [tuple(map(float, row)) for row in reader]
