"""Closed-form statistics of noisy coherent-state phase signals.

A pulse with mean photon number <n> = |alpha|^2 carries its bit in the
optical phase.  The field has an irreducible phase jitter of standard
deviation sigma_phi = sqrt(2/<n>); that jitter is what hides the small
basis offset delta_phi from an eavesdropper while leaving the pi-separated
bit values of a known basis easy to resolve.
"""

import math
from dataclasses import dataclass, field

import numpy as np

HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class CoherentStateParams:
    """Mean photon number of the signal pulses (dimensionless, > 0)."""

    avg_photon_number: float

    def __post_init__(self):
        n = self.avg_photon_number
        if not (isinstance(n, (int, float)) and math.isfinite(n) and n > 0):
            raise ValueError(f"avg_photon_number must be finite and > 0, got {n!r}")

    @property
    def sigma_phi(self) -> float:
        return math.sqrt(2.0 / self.avg_photon_number)


def overlap_probability(delta_phi_12: float, sigma: float) -> float:
    """Overlap probability exp(-(dphi12)^2 / (2 sigma^2)) of two phase levels.

    1.0 for identical levels (maximum indistinguishability), -> 0 for levels
    separated by many jitter widths.
    """
    if not (sigma > 0):
        raise ValueError(f"sigma_phi must be > 0, got {sigma!r}")
    return math.exp(-(delta_phi_12 ** 2) / (2.0 * sigma * sigma))


def fidelity_exact(params: CoherentStateParams, delta_phi: float) -> float:
    """Squared overlap of two equal-amplitude coherent states dphi apart.

    exp(-2<n>(1 - cos(dphi/2))); underflows to 0.0 for widely separated
    states at large <n>.
    """
    n = params.avg_photon_number
    return math.exp(-2.0 * n * (1.0 - math.cos(delta_phi / 2.0)))


def fidelity_approx(params: CoherentStateParams, delta_phi: float) -> float:
    """Small-angle form exp(-<n> dphi^2 / 4) of the squared overlap.

    Identical to exp(-dphi^2 / (2 sigma_phi^2)).  Intended for <n> >> 1 and
    dphi << 1; never exceeds fidelity_exact (since 1 - cos x <= x^2/2 the
    exact exponent is the less negative one).
    """
    n = params.avg_photon_number
    return math.exp(-n * delta_phi * delta_phi / 4.0)


def helstrom_error(overlap_sq: float) -> float:
    """Minimum error probability for discriminating two states.

    (1/2)(1 - sqrt(1 - overlap_sq)): 0 for orthogonal states, 1/2 for
    identical ones.  Inputs outside [0, 1] by more than 1e-12 are rejected;
    smaller excursions are clamped.
    """
    if overlap_sq < -1e-12 or overlap_sq > 1.0 + 1e-12:
        raise ValueError(f"overlap_sq must lie in [0, 1], got {overlap_sq!r}")
    x = min(max(overlap_sq, 0.0), 1.0)
    return 0.5 * (1.0 - math.sqrt(1.0 - x))


def eavesdropper_error(params: CoherentStateParams, delta_phi: float,
                       repetitions: int = 2) -> float:
    """Optimal basis-discrimination error for an attacker seeing r emissions.

    Each key bit is emitted once as a message and once more as basis
    material, so the default r = 2 doubles the effective photon number:

        Pe = (1/2)[1 - sqrt(1 - exp(-(r <n> / 4) dphi^2))]

    Exactly 1/2 at dphi = 0 (the bases coincide).
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions!r}")
    n = params.avg_photon_number
    # -expm1 keeps 1 - exp(-x) accurate for the tiny x of the secure regime
    inner = -math.expm1(-(repetitions * n / 4.0) * delta_phi * delta_phi)
    return 0.5 * (1.0 - math.sqrt(inner))


def q_gaussian(z: float) -> float:
    """Upper tail P(X > z) of the standard normal, via erfc."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def legitimate_error(params: CoherentStateParams) -> float:
    """Bit-error probability for a receiver who knows the basis.

    Probability 2 Q((pi/2)/sigma_phi) that the Gaussian phase excursion
    crosses the decision boundary between the two antipodal points of a
    known basis.  Vanishes (underflows to 0) for <n> of a few hundred up.
    """
    return 2.0 * q_gaussian(HALF_PI / params.sigma_phi)


@dataclass
class PhaseNoiseModel:
    """Seeded stand-in for a physical noise source.

    Draws zero-mean Gaussian phase fluctuations with standard deviation
    sigma_phi.  Identical seeds reproduce identical sample streams
    bit-exactly.  A deployment would replace this with physical entropy:
    any deterministic generator can in principle be searched and predicted
    by an attacker.
    """

    sigma_phi: float
    seed: int
    _rng: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.sigma_phi < HALF_PI):
            raise ValueError(
                f"sigma_phi must lie in (0, pi/2), got {self.sigma_phi!r}")
        self._rng = np.random.default_rng(self.seed)

    def sample(self, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count!r}")
        noise = self._rng.standard_normal(count)
        noise *= self.sigma_phi
        return noise

