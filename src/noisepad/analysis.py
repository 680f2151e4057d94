"""Security-analysis calculator.

Quantifies, per transmitted symbol, how much basis information leaks to an
optimal eavesdropper, the exchange length at which one leaked bit
accumulates, and whether a parameter choice sits in the operating regime
pi/2 >> sigma_phi >> delta_phi.
"""

import io
import math
from dataclasses import dataclass

from .encode import Constellation
from .phys import CoherentStateParams, eavesdropper_error

HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class SecurityPoint:
    """Leak figures for one (avg photon number, delta_phi) operating point."""

    avg_photon_number: float
    delta_phi: float
    p_error: float
    p_success: float
    delta_h: float
    leak_length: float


@dataclass(frozen=True)
class Check:
    name: str
    lhs: float
    rhs: float
    ok: bool

    @property
    def margin(self) -> float:
        return self.lhs / self.rhs if self.rhs else math.inf

    def describe(self) -> str:
        rel = "holds" if self.ok else "VIOLATED"
        return (f"{self.name}: {self.lhs:.6g} >= {self.rhs:.6g} "
                f"(margin {self.margin:.3g}) {rel}")


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    checks: tuple

    def describe(self) -> str:
        return "; ".join(c.describe() for c in self.checks)


def entropy_leak(params: CoherentStateParams, delta_phi: float) -> float:
    """Per-symbol basis-information leak dH = 1 - H_s, in bits.

    H_s = -P_s log2 P_s counts only the attacker's success events, with
    P_s = 1 - Pe from the two-emission discrimination bound.  Equals 1/2
    exactly when the bases coincide (delta_phi = 0) and approaches 1 when
    they are fully distinguishable.
    """
    if delta_phi == 0.0:
        return 0.5
    p_s = 1.0 - eavesdropper_error(params, delta_phi, repetitions=2)
    return 1.0 + p_s * math.log2(p_s)


def leak_length_for(delta_h: float) -> float:
    """Symbols until the cumulative leak estimate reaches one bit."""
    excess = delta_h - 0.5
    return math.inf if excess <= 0.0 else 1.0 / excess


def min_leak_length(params: CoherentStateParams, delta_phi: float) -> float:
    """Minimum exchanged length L with L * (dH - 1/2) = 1; +inf at dH = 1/2."""
    return leak_length_for(entropy_leak(params, delta_phi))


def security_point(params: CoherentStateParams, delta_phi: float) -> SecurityPoint:
    p_e = eavesdropper_error(params, delta_phi, repetitions=2)
    d_h = entropy_leak(params, delta_phi)
    return SecurityPoint(
        avg_photon_number=params.avg_photon_number,
        delta_phi=delta_phi,
        p_error=p_e,
        p_success=1.0 - p_e,
        delta_h=d_h,
        leak_length=leak_length_for(d_h),
    )


def validate_params(params: CoherentStateParams, delta_phi: float,
                    ratio: float = 8.0) -> ValidationReport:
    """Check the operating condition pi/2 >> sigma_phi >> delta_phi.

    Each ">>" is operationalized as ">= ratio *"; never raises, returns a
    report naming any violated inequality and its margin.
    """
    sigma = params.sigma_phi
    checks = (
        Check("pi/2 >> sigma_phi", HALF_PI, ratio * sigma, HALF_PI >= ratio * sigma),
        Check("sigma_phi >> delta_phi", sigma, ratio * delta_phi,
              sigma >= ratio * delta_phi),
    )
    return ValidationReport(ok=all(c.ok for c in checks), checks=checks)


def emit_surface(n_values, exponents, quantity: str) -> str:
    """CSV surface of delta_h or leak_length over an <n> x delta_phi grid.

    delta_phi is given as a power-of-two exponent (ADC bit-resolution
    convention); an exponent of -inf means delta_phi = 0.  Rows are ordered
    <n> outer ascending, exponent inner ascending, and float values use
    shortest round-trip repr so the table re-parses bit-exactly.
    """
    if quantity not in ("delta_h", "leak_length"):
        raise ValueError(f"quantity must be delta_h or leak_length, got {quantity!r}")
    out = io.StringIO()
    out.write("n_avg,delta_phi_exp2,value\n")
    for n in sorted(float(v) for v in n_values):
        params = CoherentStateParams(n)
        for exp in sorted(float(e) for e in exponents):
            point = security_point(params, 2.0 ** exp)
            value = point.delta_h if quantity == "delta_h" else point.leak_length
            out.write(f"{n!r},{exp!r},{value!r}\n")
    return out.getvalue()


def boost_factor(params: CoherentStateParams, c: Constellation,
                 seed_key_length: int, safety_bits: int) -> float:
    """Estimated deliverable fresh key bits per seed bit.

    Fresh bits can be exchanged until the cumulative statistical leak
    (dH - 1/2 per symbol) reaches one bit; the safety margin is discarded
    from the deliverable total.  +inf when delta_phi leaks nothing.
    """
    if seed_key_length < 128:
        raise ValueError(f"seed_key_length must be >= 128, got {seed_key_length!r}")
    symbols = leak_length_for(entropy_leak(params, c.delta_phi))
    if math.isinf(symbols):
        return math.inf
    return max(0.0, symbols - safety_bits) / seed_key_length
