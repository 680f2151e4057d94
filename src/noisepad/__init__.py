"""noisepad: boost a short shared secret into a long one-time-pad key stream.

Two parties chain fresh random keys over an open channel using dual-basis
phase encoding hidden inside coherent-state phase noise; analysis and
attacker modules quantify exactly what an eavesdropper can extract.
"""

from .analysis import (
    SecurityPoint,
    boost_factor,
    emit_surface,
    entropy_leak,
    min_leak_length,
    security_point,
    validate_params,
)
from .encode import Constellation, classify_set, decode_with_basis, modulate, quantize
from .phys import (
    CoherentStateParams,
    PhaseNoiseModel,
    eavesdropper_error,
    fidelity_approx,
    fidelity_exact,
    helstrom_error,
    legitimate_error,
    overlap_probability,
)
from .protocol import (
    KeyChain,
    LeakLedger,
    PartyState,
    SessionParams,
    authenticate_tag,
    pa_output_length,
    privacy_amplify,
    recover_block,
    send_block,
    simulate_session,
)

__version__ = "0.1.0"
