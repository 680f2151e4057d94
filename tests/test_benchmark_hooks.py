"""The names the session benchmark patches or reads must exist.

perfbench/tracer.py wraps library functions by name and perfbench/sessions.py
reads SessionParams fields; a deleted or renamed one fails here without
running a session.  Tracer.restore must also leave the modules as it found
them, since the traced perfbench tests share one process with these.
"""

import sys
from pathlib import Path

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

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
