import math
from decimal import Decimal

import pytest

from noisepad.analysis import (
    boost_factor,
    emit_surface,
    entropy_leak,
    leak_length_for,
    min_leak_length,
    security_point,
    validate_params,
)
from noisepad.encode import Constellation
from noisepad.phys import CoherentStateParams

import oracles

# frozen from the Decimal oracle chain (Pe -> P_s -> H_s -> dH -> L)
DH_1E4_EXP6 = 0.8890842180028362
DH_100_EXP10 = 0.5015456199968138
L_100_EXP10 = 646.9895589222684
L_1E4_EXP6 = 2.5701376558858798


def test_entropy_leak_limiting_case_exact():
    for n in (10.0, 1e3, 1e6):
        assert abs(entropy_leak(CoherentStateParams(n), 0.0) - 0.5) < 1e-12


def test_entropy_leak_values():
    got = entropy_leak(CoherentStateParams(1e4), 2.0 ** -6)
    assert got == pytest.approx(DH_1E4_EXP6, rel=1e-12)
    assert abs(got - float(oracles.d_entropy_leak(10_000, Decimal(2) ** -6))) < 1e-12
    got = entropy_leak(CoherentStateParams(100), 2.0 ** -10)
    assert got == pytest.approx(DH_100_EXP10, rel=1e-12)
    assert abs(got - float(oracles.d_entropy_leak(100, Decimal(2) ** -10))) < 1e-12


def test_entropy_leak_range():
    for n in (10.0, 100.0, 1e4, 1e6):
        p = CoherentStateParams(n)
        for exp in range(-40, -1):
            dh = entropy_leak(p, 2.0 ** exp)
            assert 0.5 <= dh <= 1.0


def test_leak_length_synthetic():
    assert leak_length_for(0.6) == pytest.approx(10.0, rel=1e-12)
    assert leak_length_for(0.5) == math.inf


def test_min_leak_length_values():
    p100 = CoherentStateParams(100)
    got = min_leak_length(p100, 2.0 ** -10)
    assert got == pytest.approx(L_100_EXP10, rel=1e-9)
    assert abs(got - float(oracles.d_min_leak_length(100, Decimal(2) ** -10))) < 1e-6
    assert min_leak_length(p100, 0.0) == math.inf


def test_min_leak_length_monotone():
    dphis = [2.0 ** e for e in range(-14, -3)]
    ns = [50.0, 100.0, 1e3, 1e4, 1e5]
    for n in ns:
        lengths = [min_leak_length(CoherentStateParams(n), d) for d in dphis]
        assert all(a >= b for a, b in zip(lengths, lengths[1:]))
    for d in dphis:
        lengths = [min_leak_length(CoherentStateParams(n), d) for n in ns]
        assert all(a >= b for a, b in zip(lengths, lengths[1:]))


def test_validate_params():
    ok = validate_params(CoherentStateParams(1e4), 2.0 ** -10, 8.0)
    assert ok.ok
    tight_beam = validate_params(CoherentStateParams(2), 2.0 ** -10, 8.0)
    assert not tight_beam.ok
    assert [c.ok for c in tight_beam.checks] == [False, True]
    wide_offset = validate_params(CoherentStateParams(1e4), 0.01, 8.0)
    assert not wide_offset.ok
    assert [c.ok for c in wide_offset.checks] == [True, False]
    assert "VIOLATED" in wide_offset.describe()


def test_security_point_consistency():
    pt = security_point(CoherentStateParams(1e4), 2.0 ** -6)
    assert pt.p_success == 1.0 - pt.p_error
    assert pt.leak_length == pytest.approx(L_1E4_EXP6, rel=1e-9)


def test_emit_surface_single_point():
    text = emit_surface([1e4], [-6], "delta_h")
    lines = text.splitlines()
    assert lines[0] == "n_avg,delta_phi_exp2,value"
    assert len(lines) == 2
    _, _, value = oracles.surface_rows(text)[0]
    assert value == entropy_leak(CoherentStateParams(1e4), 2.0 ** -6)


def test_emit_surface_order_and_roundtrip():
    text = emit_surface([1e3, 10.0, 100.0], [-6, -10, -8], "delta_h")
    rows = oracles.surface_rows(text)
    assert [r[0] for r in rows] == [10.0] * 3 + [100.0] * 3 + [1e3] * 3
    assert [r[1] for r in rows][:3] == [-10.0, -8.0, -6.0]
    for n, exp, value in rows:
        assert value == entropy_leak(CoherentStateParams(n), 2.0 ** exp)
    # dH never decreases with <n> at fixed delta_phi
    by_exp = {}
    for n, exp, value in rows:
        by_exp.setdefault(exp, []).append(value)
    for values in by_exp.values():
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_emit_surface_zero_offset_column():
    text = emit_surface([10.0, 1e4], [float("-inf")], "delta_h")
    assert all(v == 0.5 for _, _, v in oracles.surface_rows(text))
    text = emit_surface([10.0, 1e4], [float("-inf")], "leak_length")
    assert all(v == math.inf for _, _, v in oracles.surface_rows(text))


def test_emit_surface_empty_and_bad_quantity():
    assert emit_surface([], [], "delta_h") == "n_avg,delta_phi_exp2,value\n"
    with pytest.raises(ValueError):
        emit_surface([10.0], [-6], "entropy")


def test_emit_surface_deterministic():
    a = emit_surface([100.0, 1e4], [-10, -6], "leak_length")
    b = emit_surface([1e4, 100.0], [-6, -10], "leak_length")
    assert a == b


def test_boost_factor():
    p = CoherentStateParams(1e4)
    c30 = Constellation(2.0 ** -30, 40)
    factor = boost_factor(p, c30, 256, 0)
    # per-symbol leak ~1.46e-8: one full bit takes ~6.9e7 symbols
    assert factor >= 1e3
    per = entropy_leak(p, 2.0 ** -30) - 0.5
    assert factor == pytest.approx((1.0 / per) / 256.0, rel=1e-12)
    # safety bits come off the deliverable total
    assert boost_factor(p, c30, 256, 32) < factor
    with pytest.raises(ValueError):
        boost_factor(p, c30, 127, 0)


def test_boost_factor_zero_offset_unbounded():
    # delta_phi = 0 cannot be a Constellation; probe the leak-length limit
    assert leak_length_for(entropy_leak(CoherentStateParams(1e4), 0.0)) == math.inf


def test_boost_factor_monotone_in_offset():
    p = CoherentStateParams(1e4)
    factors = [boost_factor(p, Constellation(2.0 ** e, 40), 256, 0)
               for e in (-30, -24, -18, -12)]
    assert all(a >= b for a, b in zip(factors, factors[1:]))
