"""Self-tests of the session benchmark: run with `python3 -m pytest perfbench/tests`."""

import socket
import types
from time import perf_counter

import numpy as np
import pytest

from noisepad import transport
from noisepad.encode import bytes_per_symbol
from noisepad.transport import MessageType
from perfbench import run, sessions, tracer as tracing

R = sessions.RESOLUTION_BITS


def test_self_time_subtracts_child_spans():
    root = ["protocol.driver", 0.0, 10.0, None, "A", 1]
    recv = ["transport.recv", 1.0, 4.0, root, "A", 1]
    pa = ["protocol.pa", 5.0, 9.0, root, "A", 1]
    pack = ["encode.pack", 6.0, 7.0, pa, "A", 1]
    pa_b = ["protocol.pa", 2.0, 8.0, None, "B", 1]
    selfs = tracing.self_times([pack, recv, pa, root, pa_b])
    assert selfs[("A", "protocol.driver")] == pytest.approx(3.0)
    assert selfs[("A", "transport.recv")] == pytest.approx(3.0)
    assert selfs[("A", "protocol.pa")] == pytest.approx(3.0)
    assert selfs[("A", "encode.pack")] == pytest.approx(1.0)
    assert selfs[("B", "protocol.pa")] == pytest.approx(6.0)

    t = tracing.Tracer()
    t.spans = [pack, recv, pa, root, pa_b]
    t.counts["A"]["protocol.pa_bits_in"] = 10
    t.counts["B"]["protocol.pa_bits_in"] = 10
    t.counts["A"]["protocol.probes"] = 3
    t.counts["B"]["protocol.probes"] = 5
    metrics = tracing.layer_metrics(t, cycles=2)
    assert metrics["protocol.pa_ms"] == (pytest.approx(1500.0), "ms/cycle")
    assert metrics["protocol.pa_bits_in"][0] == 5      # role A only
    assert metrics["protocol.probes"][0] == 4          # both roles


def test_wrapper_records_nested_spans_and_counts():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x * 2
    ns.outer = lambda x: ns.inner(x) + 1
    t = tracing.Tracer()
    t.wrap(ns, "inner", "encode.pack", lambda a, k, r: (("encode.symbols", a[0]),))
    t.wrap(ns, "outer", "protocol.block")
    try:
        assert ns.outer(3) == 7
    finally:
        t.restore()
    inner, outer = t.spans
    assert (inner[0], outer[0]) == ("encode.pack", "protocol.block")
    assert inner[3] is outer and outer[3] is None
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]
    assert t.counts["A"]["encode.symbols"] == 3
    assert ns.outer(1) == 3 and len(t.spans) == 2    # restored


@pytest.mark.parametrize("fill", ["random", "top"])
def test_slip_channel_flips_exactly_one_symbol_by_pi(fill):
    rng = np.random.default_rng(3)
    if fill == "random":
        levels = rng.integers(0, 1 << R, 1024, dtype=np.uint64)
    else:   # every level wraps past 2**R when slipped
        levels = np.full(1024, (1 << R) - 1, dtype=np.uint64)
    s1, s2 = socket.socketpair()
    sender = sessions.SlipChannel(s1, seed=5)
    receiver = transport.SocketChannel(s2)
    try:
        transport.send_keyblock(sender, 7, levels, R)
        msg_type, payload = receiver.recv(timeout=5.0)
    finally:
        sender.close()
        receiver.close()
    assert msg_type == MessageType.KEYBLOCK
    assert len(payload) == 4 + 1024 * bytes_per_symbol(R)
    cycle, got = transport.unpack_keyblock(payload, R)
    assert cycle == 7 and len(got) == len(levels)
    changed = np.flatnonzero(got != levels)
    assert changed.tolist() == [sender.slipped[0][1]]
    i = int(changed[0])
    assert (int(got[i]) - int(levels[i])) % (1 << R) == 1 << (R - 1)


def test_mismatched_k0_session_is_counted_failed_and_run_goes_on():
    bench = sessions.Bench(sessions.WORKLOADS["tcp-1k-slips"], seed=11)
    try:
        bad = bench.inputs(1)
        bad.peer_k0 = 1 - bad.k0
        t0 = perf_counter()
        failed = bench.run(bad)
        assert perf_counter() - t0 < 20.0
        good = bench.run(bench.inputs(2))
    finally:
        bench.close()
    assert failed.error is not None and failed.delivered_bits == 0
    assert good.error is None and good.violations == [] and good.cycles > 0
    assert run.report_failures([failed, good]) == (1, 0)


def test_ledger_floor_flags_an_undercharged_cycle():
    ok = {"cycle": 1, "delivered_bits": [989, 954], "ledger_total": 4.00003}
    short = {"cycle": 2, "delivered_bits": [950, 900], "ledger_total": 9.0}
    assert sessions.ledger_floor_violations([ok], 1024) == []
    assert len(sessions.ledger_floor_violations([ok, short], 1024)) == 1


def _traced_session(workload: str, seed: int):
    bench = sessions.Bench(sessions.WORKLOADS[workload], seed)
    t = tracing.Tracer()
    tracing.install(t)
    try:
        out = bench.run(bench.inputs(1))
    finally:
        t.restore()
        bench.close()
    assert out.error is None and out.violations == []
    counts = {(role, k): v for role in "AB" for k, v in t.counts[role].items()}
    return out.cycles, out.delivered_bits, tracing.layer_metrics(t, out.cycles), counts


@pytest.mark.parametrize("workload", ["loopback-1k", "tcp-256k"])
def test_per_cycle_counts_do_not_depend_on_the_seed(workload):
    cycles1, bits1, metrics1, counts1 = _traced_session(workload, 1)
    cycles2, bits2, metrics2, counts2 = _traced_session(workload, 2)
    assert (cycles1, bits1) == (cycles2, bits2)
    for metric, _ in tracing.COUNT_METRICS:
        assert metrics1[metric] == metrics2[metric], metric
    assert counts1 == counts2
