import math
from decimal import Decimal

import numpy as np
import pytest

from noisepad.phys import (
    CoherentStateParams,
    PhaseNoiseModel,
    eavesdropper_error,
    fidelity_approx,
    fidelity_exact,
    helstrom_error,
    legitimate_error,
    overlap_probability,
    q_gaussian,
)

import oracles

# frozen from the Decimal oracle in oracles.py
SIGMA_1E4 = 0.014142135623730951
EXP_HALF = 0.6065306597126334
FID_EXACT_1K_01 = 0.08212775879836449
FID_APPROX_1K_01 = 0.08208499862389880
HELSTROM_HALF = 0.14644660940672624
PE_1E4_EXP6 = 0.08018535523830366


@pytest.mark.parametrize("n,expected", [(2.0, 1.0), (8.0, 0.5), (1e4, SIGMA_1E4)])
def test_sigma_phi_values(n, expected):
    assert CoherentStateParams(n).sigma_phi == pytest.approx(expected, rel=1e-12)


def test_sigma_phi_matches_decimal_oracle():
    got = CoherentStateParams(1e4).sigma_phi
    assert abs(got - float(oracles.d_sigma_phi(10_000))) < 1e-15


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_invalid_photon_number_rejected(bad):
    with pytest.raises(ValueError):
        CoherentStateParams(bad)


def test_overlap_probability():
    assert overlap_probability(0.0, 0.5) == 1.0
    assert overlap_probability(0.5, 0.5) == pytest.approx(EXP_HALF, rel=1e-12)
    assert overlap_probability(50.0, 0.5) < 1e-15
    with pytest.raises(ValueError):
        overlap_probability(0.1, 0.0)
    with pytest.raises(ValueError):
        overlap_probability(0.1, -1.0)


def test_fidelity_exact():
    p = CoherentStateParams(1000)
    assert fidelity_exact(p, 0.0) == 1.0
    assert fidelity_exact(p, 0.1) == pytest.approx(FID_EXACT_1K_01, rel=1e-12)
    assert abs(fidelity_exact(p, 0.1) - float(oracles.d_fidelity_exact(1000, "0.1"))) < 1e-14
    # cos(pi) = -1 makes the exponent -4000: underflows cleanly to zero
    assert fidelity_exact(p, 2.0 * math.pi) == 0.0


def test_fidelity_approx():
    p = CoherentStateParams(1000)
    assert fidelity_approx(p, 0.0) == 1.0
    assert fidelity_approx(p, 0.1) == pytest.approx(FID_APPROX_1K_01, rel=1e-12)
    gap = abs(fidelity_exact(p, 0.1) - fidelity_approx(p, 0.1)) / fidelity_exact(p, 0.1)
    assert gap < 1e-2


def test_fidelity_ordering_exact_dominates():
    # 1 - cos x <= x^2/2, so the exact exponent is the less negative one.
    for n in (5.0, 100.0, 1e4, 1e6):
        p = CoherentStateParams(n)
        for dphi in np.linspace(1e-4, math.pi, 80):
            assert fidelity_exact(p, dphi) >= fidelity_approx(p, dphi)


def test_fidelity_gap_small_in_operating_regime():
    # the 1% bound needs bounded <n>; n * dphi^4 / 192 grows without limit
    for n in (100.0, 1e3, 1e4):
        p = CoherentStateParams(n)
        for dphi in (1e-3, 0.02, 0.05, 0.1):
            exact = fidelity_exact(p, dphi)
            assert abs(exact - fidelity_approx(p, dphi)) / exact < 1e-2


def test_helstrom_error():
    assert helstrom_error(0.0) == 0.0
    assert helstrom_error(1.0) == 0.5
    assert helstrom_error(0.5) == pytest.approx(HELSTROM_HALF, rel=1e-12)
    assert abs(helstrom_error(0.5) - float(oracles.d_helstrom("0.5"))) < 1e-15
    # clamp tolerance
    assert helstrom_error(-1e-13) == 0.0
    assert helstrom_error(1.0 + 1e-13) == 0.5
    with pytest.raises(ValueError):
        helstrom_error(-1e-6)
    with pytest.raises(ValueError):
        helstrom_error(1.0 + 1e-6)


def test_eavesdropper_error_values():
    p = CoherentStateParams(1e4)
    for n in (2.0, 100.0, 1e6):
        assert eavesdropper_error(CoherentStateParams(n), 0.0) == 0.5
        assert eavesdropper_error(CoherentStateParams(n), 0.0, repetitions=7) == 0.5
    got = eavesdropper_error(p, 2.0 ** -6, repetitions=2)
    assert got == pytest.approx(PE_1E4_EXP6, rel=1e-12)
    assert abs(got - float(oracles.d_eavesdropper_error(10_000, Decimal(2) ** -6))) < 1e-12


def test_eavesdropper_error_single_look_composition():
    p = CoherentStateParams(1e4)
    got = eavesdropper_error(p, 2.0 ** -6, repetitions=1)
    assert got == pytest.approx(helstrom_error(fidelity_approx(p, 2.0 ** -6)), rel=1e-12)


def test_eavesdropper_error_monotone():
    dphis = [2.0 ** e for e in range(-12, -1)]
    ns = [10.0, 100.0, 1e3, 1e4, 1e5]
    for n in ns:
        p = CoherentStateParams(n)
        errs = [eavesdropper_error(p, d) for d in dphis]
        assert all(a >= b for a, b in zip(errs, errs[1:]))
    for d in dphis:
        errs = [eavesdropper_error(CoherentStateParams(n), d) for n in ns]
        assert all(a >= b for a, b in zip(errs, errs[1:]))


def test_eavesdropper_error_rejects_zero_repetitions():
    with pytest.raises(ValueError):
        eavesdropper_error(CoherentStateParams(10), 0.01, repetitions=0)


def test_helstrom_of_fidelity_bounded():
    for n in (2.0, 100.0, 1e4):
        p = CoherentStateParams(n)
        assert helstrom_error(fidelity_exact(p, 0.0)) == 0.5
        for dphi in (1e-6, 0.01, 0.3, 2.0):
            assert helstrom_error(fidelity_exact(p, dphi)) < 0.5


def test_legitimate_error_against_quadrature():
    got = legitimate_error(CoherentStateParams(2))
    want = 2.0 * oracles.gaussian_tail(math.pi / 2.0)
    assert got == pytest.approx(want, rel=1e-8)
    assert got == pytest.approx(0.11622996556681906, rel=1e-10)


def test_legitimate_error_vanishes_at_high_photon_number():
    assert legitimate_error(CoherentStateParams(1e4)) < 1e-300


def test_legitimate_error_monotone_decreasing():
    errs = [legitimate_error(CoherentStateParams(n)) for n in (2, 5, 10, 50, 200)]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_q_gaussian_quadrature_agreement():
    for z in (0.0, 0.5, 1.0, 3.0):
        assert q_gaussian(z) == pytest.approx(oracles.gaussian_tail(z), rel=1e-7)


def test_phase_noise_model_validation():
    with pytest.raises(ValueError):
        PhaseNoiseModel(0.0, 1)
    with pytest.raises(ValueError):
        PhaseNoiseModel(math.pi / 2.0, 1)
    with pytest.raises(ValueError):
        PhaseNoiseModel(0.5, 1).sample(-1)


def test_phase_noise_empty_and_deterministic():
    assert PhaseNoiseModel(0.5, 3).sample(0).shape == (0,)
    a = PhaseNoiseModel(0.5, 123)
    b = PhaseNoiseModel(0.5, 123)
    assert np.array_equal(a.sample(1000), b.sample(1000))
    # the stream advances between calls
    assert not np.array_equal(a.sample(10), b.sample(5)[:5])


def test_phase_noise_stream_equals_scaled_normal():
    # standard_normal scaled in place is bit-equal to normal(0, sigma, .),
    # call after call, whatever the sizes.
    model = PhaseNoiseModel(0.0141, 77)
    ref = np.random.default_rng(77)
    for count in (1024, 1, 0, 7, 262_147, 3, 1024):
        got = model.sample(count)
        assert got.tobytes() == ref.normal(0.0, 0.0141, count).tobytes()


def test_phase_noise_in_chunk_pieces_equals_one_draw():
    # A party draws noise in pieces: chunk by chunk, or ahead into one
    # reused buffer after the samples a shortened block left over.  The
    # pieces, ragged tail included, must be the one draw of a whole block.
    n = 2 * 2 ** 15 + 17
    want = PhaseNoiseModel(0.0141, 5).sample(n).tobytes()
    pieces = PhaseNoiseModel(0.0141, 5)
    got = np.concatenate([pieces.sample(len(r))
                          for r in np.array_split(np.arange(n), [2 ** 15, 2 ** 16])])
    assert got.tobytes() == want
    into, buf = PhaseNoiseModel(0.0141, 5), np.empty(n)
    for lo, hi in ((0, 13), (13, n)):
        assert np.shares_memory(into.sample(hi - lo, out=buf[lo:hi]), buf)
    assert buf.tobytes() == want


def test_phase_noise_statistics():
    count = 1_000_000
    samples = PhaseNoiseModel(0.5, 2024).sample(count)
    assert abs(samples.std() - 0.5) < 0.002
    assert abs(samples.mean()) < 4.0 * 0.5 / math.sqrt(count)
