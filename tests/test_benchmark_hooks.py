"""The names the session benchmark patches or reads must exist.

perfbench/tracer.py wraps library functions by name and perfbench/sessions.py
reads SessionParams fields, the progress records and the parties a session
returns; a deleted or renamed one fails here without running a benchmark
session.  Tracer.restore must also leave the modules as it found
them, since the traced perfbench tests share one process with these.
"""

import sys
from collections import Counter
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


def test_a_traced_session_times_every_symbol_kernel():
    # A first block of more than two chunks: modulate and pack run once per
    # chunk on both sides, so a kernel fused into another or renamed reads 0
    # here.  The receive kernel decodes packed bytes inside recover_block:
    # its time is protocol.block's, and the level-path spans stay unused.
    n = (1 << 16) + 17
    k0 = np.random.default_rng(4).integers(0, 2, n, dtype=np.uint8)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        protocol.simulate_session(sessions.session_params(n), k0, 1, 2, cycles=1)
    finally:
        tracer.restore()
    names = [span[0] for span in tracer.spans]
    chunks = names.count("encode.modulate")
    blocks = tracer.counts["A"]["protocol.blocks_sent"]
    assert blocks == 2 and chunks > 2 * blocks
    assert names.count("encode.pack") == chunks
    assert names.count("encode.unpack") == names.count("encode.decode") == 0
    # one send_block and one recover_block span per block, both roles on one thread
    assert names.count("protocol.block") == 2 * blocks


def test_traced_loopback_counts_both_roles_frames():
    # Role B's frames leave through its peer end's Channel.send, so the
    # tracer counts them on the loopback as it does on a socket.  A frame
    # that skips Channel.send, or passes it twice, moves these pinned counts.
    k0 = np.random.default_rng(1024).integers(0, 2, 1024, dtype=np.uint8)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        protocol.simulate_session(sessions.session_params(1024), k0, 1, 2, cycles=3)
    finally:
        tracer.restore()
    counts = Counter()
    for role in "AB":
        counts.update({key: n for key, n in tracer.counts[role].items()
                       if key.startswith("transport.")})
    assert counts == {
        "transport.frames.HELLO": 1, "transport.bytes.HELLO": 26,
        "transport.frames.HELLO_ACK": 1, "transport.bytes.HELLO_ACK": 10,
        "transport.frames.KEYBLOCK": 6, "transport.bytes.KEYBLOCK": 28254,
        "transport.frames.PA_SEED": 6, "transport.bytes.PA_SEED": 994,
        "transport.frames.CONFIRM": 2, "transport.bytes.CONFIRM": 84,
    }
