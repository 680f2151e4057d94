import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisepad import encode
from noisepad.encode import (
    Constellation,
    bytes_per_symbol,
    classify_set,
    decode_packed,
    decode_with_basis,
    dequantize,
    pack_levels,
    quantize,
    transmit_symbol,
    unpack_levels,
)
from noisepad.transport import pack_keyblock

import oracles

PI = math.pi
C16 = Constellation(2.0 ** -6, 16)


def admissible_exponents(r):
    """Every k with Constellation(2**k, r) valid."""
    return [k for k in range(-2, -r - 1, -1)
            if 2.0 * PI / (1 << r) <= 2.0 ** k / 2.0]


def test_constellation_invariants():
    Constellation(2.0 ** -30, 40)
    with pytest.raises(ValueError):
        Constellation(0.0, 16)
    with pytest.raises(ValueError):
        Constellation(PI / 4.0, 16)          # offset too large
    with pytest.raises(ValueError):
        Constellation(2.0 ** -6, 7)          # R below range
    with pytest.raises(ValueError):
        Constellation(2.0 ** -6, 57)         # R above range
    with pytest.raises(ValueError):
        Constellation(2.0 ** -30, 16)        # grid cannot resolve the offset


def test_modulate_table():
    modulate = oracles.float_modulate
    dphi = C16.delta_phi
    assert modulate(0, 0, dphi) == 0.0
    assert modulate(1, 0, dphi) == PI
    assert modulate(1, 1, dphi) == pytest.approx(dphi, abs=0.0)
    assert modulate(0, 1, dphi) == pytest.approx(dphi + PI)
    # neighboring states of the two bases are separated by exactly delta_phi
    assert abs(modulate(1, 1, dphi) - modulate(0, 0, dphi)) == dphi
    # transmit_symbol forms the same phases itself
    for bit in (0, 1):
        for basis in (0, 1):
            assert transmit_symbol(bit, basis, C16, 0.0) == \
                quantize(modulate(bit, basis, dphi), 16)


def test_quantize_examples():
    assert quantize(0.0, 16) == 0
    assert quantize(PI, 16) == 32768
    step = 2.0 * PI / 65536
    assert quantize(2.0 * PI - step / 4.0, 16) == 0     # wraparound
    # ties round up
    assert quantize(step / 2.0, 16) == 1
    with pytest.raises(ValueError):
        quantize(0.0, 4)


def test_dequantize():
    assert dequantize(0, 16) == 0.0
    assert dequantize(1 << 15, 16) == pytest.approx(PI, rel=1e-15)


@pytest.mark.parametrize("r", [8, 16, 40])
def test_quantize_round_trip(r):
    rng = np.random.default_rng(r)
    phases = rng.uniform(0.0, 2.0 * PI, 10_000)
    levels = quantize(phases, r)
    back = dequantize(levels, r)
    err = np.abs(back - phases)
    err = np.minimum(err, 2.0 * PI - err)
    # 1e-14 absorbs double rounding at the decision boundary
    assert err.max() <= PI / (1 << r) + 1e-14


def test_transmit_symbol():
    assert transmit_symbol(0, 0, C16, 0.0) == quantize(0.0, 16)
    expected = round((PI + 0.1) / (2.0 * PI) * 65536) % 65536
    assert transmit_symbol(1, 0, C16, 0.1) == expected


def test_transmit_symbols_cluster_around_constellation_points():
    rng = np.random.default_rng(5)
    n = 4000
    bits = rng.integers(0, 2, n, dtype=np.uint8)
    basis = rng.integers(0, 2, n, dtype=np.uint8)
    noise = rng.normal(0.0, 0.01414, n)
    levels = transmit_symbol(bits, basis, C16, noise)
    phases = dequantize(levels, 16)
    centers = oracles.float_modulate(bits, basis, C16.delta_phi)
    dev = np.abs(np.mod(phases - centers + PI, 2.0 * PI) - PI)
    assert np.mean(dev < 5.0 * 0.01414) > 0.999


def test_classify_set_basics_and_algebra():
    assert classify_set(quantize(0.0, 16), C16) == 0
    assert classify_set(quantize(PI, 16), C16) == 1
    for bit in (0, 1):
        for basis in (0, 1):
            level = transmit_symbol(bit, basis, C16, 0.0)
            assert classify_set(level, C16) == bit ^ basis
    # flipping basis and bit together lands in the same set
    assert classify_set(transmit_symbol(1, 0, C16, 0.0), C16) == \
        classify_set(transmit_symbol(0, 1, C16, 0.0), C16)


def test_decode_with_basis_points():
    assert decode_with_basis(quantize(0.0, 16), 0, C16) == 0
    assert decode_with_basis(quantize(C16.delta_phi + PI, 16), 1, C16) == 0
    assert decode_with_basis(quantize(C16.delta_phi, 16), 1, C16) == 1
    assert decode_with_basis(quantize(PI, 16), 0, C16) == 1


def test_decode_complement_basis_flips_bits():
    for bit in (0, 1):
        for basis in (0, 1):
            level = transmit_symbol(bit, basis, C16, 0.0)
            assert decode_with_basis(level, 1 - basis, C16) == 1 - bit


def test_decode_round_trip_within_noise_margin():
    rng = np.random.default_rng(11)
    n = 100_000
    bits = rng.integers(0, 2, n, dtype=np.uint8)
    basis = rng.integers(0, 2, n, dtype=np.uint8)
    margin = PI / 2.0 - C16.delta_phi
    noise = rng.uniform(-margin * 0.999, margin * 0.999, n)
    levels = transmit_symbol(bits, basis, C16, noise)
    decoded = decode_with_basis(levels, basis, C16)
    assert np.array_equal(decoded, bits)


def test_decode_gaussian_noise_error_free():
    # legitimate_error(1e4) < 1e-300: 1e5 trials should never fail
    rng = np.random.default_rng(12)
    n = 100_000
    bits = rng.integers(0, 2, n, dtype=np.uint8)
    basis = rng.integers(0, 2, n, dtype=np.uint8)
    noise = rng.normal(0.0, 0.014142135623730951, n)
    levels = transmit_symbol(bits, basis, C16, noise)
    assert np.array_equal(decode_with_basis(levels, basis, C16), bits)


def test_set_classification_stable_under_quantization():
    rng = np.random.default_rng(13)
    n = 20_000
    bits = rng.integers(0, 2, n, dtype=np.uint8)
    basis = rng.integers(0, 2, n, dtype=np.uint8)
    margin = PI / 2.0 - C16.delta_phi - 2.0 * PI / C16.n_levels
    noise = rng.uniform(-margin, margin, n)
    levels = transmit_symbol(bits, basis, C16, noise)
    assert np.array_equal(np.asarray(classify_set(levels, C16)),
                          np.bitwise_xor(bits, basis))


@pytest.mark.parametrize("r", [8, 16, 40, 56])
def test_pack_unpack_round_trip(r):
    rng = np.random.default_rng(r)
    levels = rng.integers(0, 1 << min(r, 62), 257, dtype=np.uint64)
    levels &= np.uint64((1 << r) - 1)
    data = bytearray(257 * bytes_per_symbol(r))
    pack_levels(levels, r, out=data)
    assert np.array_equal(unpack_levels(data, r), levels)


@pytest.mark.parametrize("r", range(8, 57))
def test_pack_unpack_match_strided_formula(r):
    # The power-of-two integer fields of a packed symbol (a <u4 and a u1 at
    # R = 40) must give the bytes and levels of the byte-strided uint8 copy,
    # for every resolution, also when packed into a KEYBLOCK's tail, where
    # the fields sit at unaligned addresses.
    rng = np.random.default_rng(100 + r)
    top = (1 << r) - 1
    levels = np.concatenate([np.array([0, 1, top], dtype=np.uint64),
                             rng.integers(0, top, 61, dtype=np.uint64,
                                          endpoint=True)])
    data = oracles.strided_pack_levels(levels, r)
    payload = bytearray(b"abcd" + bytes(len(data)))
    pack_levels(levels, r, out=memoryview(payload)[4:])
    assert payload == b"abcd" + data
    back = unpack_levels(data, r)
    assert back.dtype == np.uint64 and back.flags.writeable
    assert np.array_equal(back, oracles.strided_unpack_levels(data, r))
    assert np.array_equal(back, levels)
    # any bytes-like view unpacks alike, e.g. a KEYBLOCK past its cycle index
    assert np.array_equal(unpack_levels(memoryview(b"abcd" + data)[4:], r), levels)


def test_constellation_windows_are_cached_and_transmit_matches_float_oracle():
    c = Constellation(2.0 ** -30, 40)
    assert c.windows is c.windows
    rng = np.random.default_rng(14)
    bits, basis = rng.integers(0, 2, (2, 512), dtype=np.uint8)
    noise = rng.normal(0.0, 0.01, 512)
    assert np.array_equal(
        transmit_symbol(bits, basis, c, noise),
        oracles.float_transmit_symbol(bits, basis, c.delta_phi, 40, noise))


def test_pack_sizes_and_errors():
    assert bytes_per_symbol(16) == 2
    out = bytearray(8)
    pack_levels(np.array([1, 2, 3, 0xABCD], dtype=np.uint64), 16, out=out)
    assert out == bytes.fromhex("0100" "0200" "0300" "cdab")
    pack_levels(np.zeros(0, dtype=np.uint64), 16, out=bytearray())
    # levels from outside the session are checked where they enter a KEYBLOCK
    for r in (16, 40):
        with pytest.raises(ValueError, match="out of range"):
            pack_keyblock(1, np.array([0, 1 << r], dtype=np.uint64), r)
    assert pack_keyblock(1, [(1 << 16) - 1], 16) == bytes.fromhex("00000001" "ffff")
    with pytest.raises(ValueError):
        unpack_levels(b"\x00\x01\x02", 16)


# ---------------------------------------------------------------------------
# Integer kernels against the float phase arithmetic they replace
# ---------------------------------------------------------------------------

def assert_decode_matches_float(levels, r, k):
    c = Constellation(2.0 ** k, r)
    for basis in (0, 1):
        want = oracles.float_decode_with_basis(levels, basis, c.delta_phi, r)
        got = decode_with_basis(levels, np.full(len(levels), basis, np.uint8), c)
        bad = np.flatnonzero(got != want)
        assert bad.size == 0, (r, k, basis, levels[bad[:5]])


@pytest.mark.parametrize("r", range(8, 17))
def test_decode_matches_float_on_every_level(r):
    levels = np.arange(1 << r, dtype=np.uint64)
    for k in admissible_exponents(r):
        assert_decode_matches_float(levels, r, k)


def test_decode_ties_go_to_zero():
    # o = delta_phi/step = 100 levels: o - q and o + q are equidistant from
    # both points of basis 1, like q and 3q in basis 0
    r = 16
    c = Constellation(100 * 2.0 * PI / (1 << r), r)
    assert c.delta_phi / c.step == 100.0
    q = 1 << (r - 2)
    ties = {0: [q, 3 * q], 1: [100 - q + (1 << r), 100 + q]}
    levels = np.arange(1 << r, dtype=np.uint64)
    for basis in (0, 1):
        got = decode_with_basis(levels, basis, c)
        want = oracles.float_decode_with_basis(levels, basis, c.delta_phi, r)
        for tie in ties[basis]:
            assert got[tie] == 0 and got[tie - 1] + got[tie + 1] == 1
        others = np.setdiff1d(levels, ties[basis])
        assert np.array_equal(got[others], want[others])


@pytest.mark.parametrize("r", [32, 40, 44, 48])
def test_decode_matches_float_around_the_decision_edges(r):
    n_levels = 1 << r
    q = n_levels // 4
    near = np.arange(-5000, 5001)
    random_levels = np.random.default_rng(r).integers(
        0, n_levels, 1 << 20, dtype=np.uint64)
    exponents = admissible_exponents(r)
    for k in exponents:
        c = Constellation(2.0 ** k, r)
        o = math.floor(c.delta_phi / c.step)
        edges = [q, 3 * q, o - q, o + q]
        levels = np.concatenate(
            [(e + near) % n_levels for e in edges]).astype(np.uint64)
        assert_decode_matches_float(levels, r, k)
    for k in (exponents[0], exponents[len(exponents) // 2], exponents[-1]):
        assert_decode_matches_float(random_levels, r, k)


@pytest.mark.parametrize("r", [8, 16, 40, 48])
def test_transmit_symbol_matches_float_across_the_wrap(r):
    # sigma = 1.5 puts phases below 0 and at or above 2pi; chunks of 256
    # take the in-range path unless one phase lies beyond [-2pi, 4pi)
    c = Constellation(2.0 ** -3, r)
    rng = np.random.default_rng(r)
    bits = rng.integers(0, 2, 1 << 16, dtype=np.uint8)
    basis = rng.integers(0, 2, 1 << 16, dtype=np.uint8)
    noise = rng.normal(0.0, 1.5, 1 << 16)
    noise[::4099] *= 5.0                      # a few chunks beyond one turn
    phases = oracles.float_modulate(bits, basis, c.delta_phi) + noise
    assert phases.min() < -2.0 * PI and phases.max() >= 2.0 * PI
    in_range = 0
    for chunk in np.split(np.arange(1 << 16), 256):
        want = oracles.float_transmit_symbol(
            bits[chunk], basis[chunk], c.delta_phi, r, noise[chunk])
        got = transmit_symbol(bits[chunk], basis[chunk], c, noise[chunk])
        assert np.array_equal(got, want)
        in_range += -2.0 * PI < phases[chunk].min()
    assert 0 < in_range < 256


def test_quantize_matches_float_at_the_wrap_points():
    two_pi = 2.0 * PI
    phases = np.array([0.0, -0.0, two_pi, -two_pi, 2.0 * two_pi, -2.0 * two_pi,
                       np.nextafter(two_pi, 0.0), np.nextafter(0.0, -1.0),
                       np.nextafter(-two_pi, 0.0), np.nextafter(2.0 * two_pi, 0.0),
                       np.nextafter(-two_pi, -10.0), 100.0, -100.0])
    for r in (8, 16, 40, 56):
        for phase in phases:
            assert quantize(phase, r) == oracles.float_quantize(phase, r)
        for part in (phases[:10], phases):   # in-range and np.mod paths
            assert np.array_equal(quantize(part, r),
                                  oracles.float_quantize(part, r))


_TWO_PI = 2.0 * PI
_EDGES = [-0.0, 0.0, _TWO_PI, np.nextafter(2.0 * _TWO_PI, 0.0),
          np.nextafter(-_TWO_PI, 0.0)]
# Inside (-2pi, 4pi) quantize wraps by whole turns; one phase outside sends
# the whole array through np.mod.
_INSIDE = st.one_of(st.sampled_from(_EDGES),
                    st.floats(-_TWO_PI, 2.0 * _TWO_PI, exclude_min=True,
                              exclude_max=True))
_OUTSIDE = st.one_of(st.sampled_from([-_TWO_PI, 2.0 * _TWO_PI]),
                     st.floats(2.0 * _TWO_PI, 1e6), st.floats(-1e6, -_TWO_PI))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(r=st.sampled_from([8, 16, 40, 56]),
       inside=st.lists(_INSIDE, min_size=1, max_size=40),
       outside=st.lists(_OUTSIDE, min_size=1, max_size=3))
def test_fused_quantize_matches_the_wrap_and_floor_passes(r, inside, outside):
    # quantize divides once by 2pi/2^R and casts without np.floor; both are
    # exact rewrites of the passes in oracles.wrap_floor_quantize.
    for phases in (inside, inside + outside):
        arr = np.array(phases)
        got = quantize(arr, r)
        assert got.dtype == np.uint64
        assert np.array_equal(got, oracles.wrap_floor_quantize(arr, r))
    for phase in _EDGES + inside[:3] + outside[:1]:
        got = quantize(phase, r)
        assert type(got) is int and got == oracles.wrap_floor_quantize(phase, r)


def test_kernels_take_and_return_scalars():
    c = Constellation(2.0 ** -30, 40)
    for bit in (0, 1):
        for basis in (0, 1):
            for noise in (0.0, 0.3, -0.3, -7.0):
                level = transmit_symbol(bit, basis, c, noise)
                assert type(level) is int
                assert level == oracles.float_transmit_symbol(
                    bit, basis, c.delta_phi, 40, noise)
                got = decode_with_basis(level, basis, c)
                assert type(got) is int
                assert got == oracles.float_decode_with_basis(
                    level, basis, c.delta_phi, 40)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_kernels_match_float_property(data):
    r = data.draw(st.integers(8, 48), label="r")
    k = data.draw(st.sampled_from(admissible_exponents(r)), label="k")
    c = Constellation(2.0 ** k, r)
    size = data.draw(st.integers(1, 64), label="size")
    levels = np.array(data.draw(st.lists(st.integers(0, (1 << r) - 1),
                                         min_size=size, max_size=size)),
                      dtype=np.uint64)
    basis = np.array(data.draw(st.lists(st.integers(0, 1), min_size=size,
                                        max_size=size)), dtype=np.uint8)
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=size,
                                       max_size=size)), dtype=np.uint8)
    noise = np.array(data.draw(st.lists(
        st.floats(-20.0, 20.0, allow_nan=False), min_size=size, max_size=size)))
    assert np.array_equal(
        decode_with_basis(levels, basis, c),
        oracles.float_decode_with_basis(levels, basis, c.delta_phi, r))
    assert np.array_equal(
        transmit_symbol(bits, basis, c, noise),
        oracles.float_transmit_symbol(bits, basis, c.delta_phi, r, noise))


# ---------------------------------------------------------------------------
# Packed decode against the level decode
# ---------------------------------------------------------------------------

def pack(levels, r, stray=False) -> bytearray:
    """Packed levels; `stray` sets the bits above R in every other top byte."""
    data = bytearray(len(levels) * bytes_per_symbol(r))
    pack_levels(levels, r, out=data)
    if stray and r % 8:
        np.frombuffer(data, np.uint8).reshape(len(levels), -1)[::2, -1] |= \
            np.uint8(0xFF << r % 8 & 0xFF)
    return data


def assert_packed_decode_matches(levels, r, c, stray=True):
    data = pack(levels, r, stray)
    for basis in (np.zeros(len(levels), np.uint8), np.ones(len(levels), np.uint8),
                  np.arange(len(levels), dtype=np.uint8) % 2):
        got = np.empty(len(levels), np.uint8)
        decode_packed(data, basis, c, got)
        want = decode_with_basis(unpack_levels(pack(levels, r), r), basis, c)
        bad = np.flatnonzero(got != want)
        assert bad.size == 0, (r, c.delta_phi, levels[bad[:5]], basis[bad[:5]])


def edge_levels(c: Constellation) -> np.ndarray:
    """Each window edge +-3 levels, and as much either side of the top-field
    cells (2^s levels) next to it: the straddling cells and their neighbours."""
    r = c.resolution_bits
    cell = 1 << 8 * max(bytes_per_symbol(r) - 2, 0)
    near = [d + j * cell for j in (-2, -1, 0, 1, 2) for d in range(-3, 4)]
    return np.array([(edge + d) % (1 << r) for start, width in c.windows
                     for edge in (start, start + width) for d in near], np.uint64)


@pytest.mark.parametrize("r", range(8, 57))
def test_packed_decode_matches_the_level_decode(r):
    # Every admissible delta_phi = 2^k at this R: its window edges, with
    # stray bits above R set in the top byte; and 10^5 random levels.
    # A few offsets that are no power of two check the rule's derivation.
    rng = np.random.default_rng(300 + r)
    exponents = admissible_exponents(r)
    offsets = [2.0 ** k for k in exponents] + list(
        rng.uniform(2.0 ** exponents[-1], PI / 8.0, 4))
    for delta_phi in offsets:
        c = Constellation(delta_phi, r)
        assert_packed_decode_matches(edge_levels(c), r, c)
    random_levels = rng.integers(0, 1 << r, 10 ** 5, dtype=np.uint64)
    for k in (exponents[0], exponents[-1]):
        assert_packed_decode_matches(random_levels, r, Constellation(2.0 ** k, r))


def test_packed_decode_of_a_chunk_of_edge_symbols_falls_back_to_full_levels(monkeypatch):
    # A chunk made only of edge symbols is decoded from its full levels, all
    # of it; a chunk of honest symbols never is.
    calls = []

    def spy(level, basis, c):
        calls.append(len(level))
        return decode_with_basis(level, basis, c)
    monkeypatch.setattr(encode, "decode_with_basis", spy)
    c = Constellation(2.0 ** -30, 40)
    cell = 1 << 24      # the levels of one top-field value at R = 40
    # (basis, level) within 3 of an edge that lies inside a cell, in that cell
    edges = [(b, edge + d) for b, (start, width) in enumerate(c.windows)
             for edge in (start, start + width) if edge % cell
             for d in range(-3, 4) if (edge + d) // cell == edge // cell]
    n = 1 << 15
    rng = np.random.default_rng(17)
    basis, levels = np.array(edges, np.uint64)[rng.integers(0, len(edges), n)].T
    levels %= np.uint64(1 << 40)
    basis = basis.astype(np.uint8)
    got = np.empty(n, np.uint8)
    decode_packed(pack(levels, 40), basis, c, got)
    assert calls == [n]
    assert np.array_equal(got, decode_with_basis(levels, basis, c))
    calls.clear()
    bits, basis = rng.integers(0, 2, (2, n), dtype=np.uint8)
    sigma = 0.05     # 3.5 times the CLI default operating point's 0.014
    levels = transmit_symbol(bits, basis, c, rng.normal(0.0, sigma, n))
    decode_packed(pack(levels, 40), basis, c, got)
    assert calls == [] and np.array_equal(got, bits)
