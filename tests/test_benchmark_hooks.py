"""The names the session benchmark patches or reads must exist.

perfbench/tracer.py wraps library functions by name and perfbench/sessions.py
reads SessionParams fields, the progress records and the parties a session
returns; a deleted or renamed one fails here without running a benchmark
session.  Tracer.restore must also leave the modules as it found
them, since the traced perfbench tests share one process with these.
"""

import sys
from pathlib import Path

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

import numpy as np  # noqa: E402

from noisepad import protocol, transport  # noqa: E402
from perfbench import sessions, tracer as tracing  # noqa: E402


def test_tracer_installs_and_restores_every_hook():
    before = [dict(vars(owner)) for owner in (protocol, transport)]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
    finally:
        tracer.restore()
    assert [dict(vars(owner)) for owner in (protocol, transport)] == before
    sessions.check_operating_point(sessions.session_params(1024), 1024)


def test_a_session_returns_what_the_benchmark_reads():
    k0 = np.random.default_rng(3).integers(0, 2, 256, dtype=np.uint8)
    records = []
    state_a, state_b = protocol.simulate_session(
        sessions.session_params(256), k0, 1, 2,
        cycles=sessions.RUN_TO_EXHAUSTION, progress=records.append)
    assert state_a.chain.bits_equal(state_b.chain)
    assert state_a.chain.total_delivered() > 0
    assert sessions.fingerprint(state_a, b"")["keys_sha256"]
    assert (state_a.role, state_b.role) == ("A", "B")
    assert state_a.early_stop is not None and state_b.early_stop is not None
    assert state_a.cycles_completed == state_b.cycles_completed == len(records) > 1
    assert sessions.ledger_floor_violations(records, 256) == []
