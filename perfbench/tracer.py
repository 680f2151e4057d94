"""Per-layer tracing from outside the noisepad package.

`install` replaces public names where the calling module looks them up
(`protocol.privacy_amplify`, `transport.Channel.send`, every function of
`analysis`, ...) with wrappers that record one span per call:
`[name, start, end, parent, role, session]`.  The parent is the span that
was open on the same thread when the call began.  Role A is the thread that
created the tracer and drives the session; every other thread runs role B.
Spans stay in memory until `dump` writes them out.

A layer's self time is its spans' durations minus the time covered by
their child spans.  Times are reported for role A only: both roles share
one interpreter and run privacy amplification at the same moment, so
adding the two would count that wall time twice.  Counts follow the same
rule where both parties repeat the same work on the same block (PA input
and output, disclosed parities, delivered keys); the other counts
(frames, bytes, probes, blocks, symbols, noise samples, analysis calls) sum
both roles, each frame counted once, at its sender.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import defaultdict
from time import perf_counter

from noisepad import analysis, phys, protocol, transport

from . import sessions

# (metric, span name): self time of role A, in ms per completed cycle.
TIME_METRICS = (
    ("phys.noise_ms", "phys.noise"),
    ("encode.modulate_ms", "encode.modulate"),
    ("encode.decode_ms", "encode.decode"),
    ("encode.pack_ms", "encode.pack"),
    ("encode.unpack_ms", "encode.unpack"),
    ("analysis.ms", "analysis"),
    ("protocol.pa_ms", "protocol.pa"),
    ("protocol.reconcile_ms", "protocol.reconcile"),
    ("protocol.driver_ms", "protocol.driver"),
    ("protocol.block_ms", "protocol.block"),
    ("transport.recv_wait_ms", "transport.recv"),
    ("transport.send_ms", "transport.send"),
    ("transport.handshake_ms", "transport.handshake"),
)

# (metric, roles counted): counts per completed cycle.
COUNT_METRICS = (
    ("phys.noise_samples", "AB"),
    ("encode.symbols", "AB"),
    ("analysis.calls", "AB"),
    ("protocol.probes", "AB"),
    ("protocol.blocks_sent", "AB"),
    ("protocol.pa_bits_in", "A"),
    ("protocol.pa_bits_out", "A"),
    ("protocol.parity_bits", "A"),
    ("protocol.keys_delivered", "A"),
) + tuple((f"transport.{kind}.{t.name}", "AB")
          for kind in ("frames", "bytes") for t in transport.MessageType)


class Tracer:
    """In-memory span and counter store shared by the wrappers."""

    def __init__(self):
        self.spans: list = []
        self.counts = {"A": defaultdict(int), "B": defaultdict(int)}
        self.session = 0
        self._driver = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []

    def role(self) -> str:
        return "A" if threading.get_ident() == self._driver else "B"

    def wrap(self, owner, attr: str, name: str | None, count=None,
             mute_children: bool = False) -> None:
        """Replace owner.attr with a recording wrapper.

        `name` None records counts only.  `count(args, kwargs, result)`
        yields (counter, amount) pairs.  `mute_children` leaves calls made
        inside this span unrecorded, so its whole time stays its own.
        """
        original = vars(owner)[attr]
        local = self._local

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if getattr(local, "muted", False):
                return original(*args, **kwargs)
            if name is None:
                result = original(*args, **kwargs)
            else:
                stack = local.__dict__.setdefault("stack", [])
                record = [name, perf_counter(), 0.0,
                          stack[-1] if stack else None, self.role(), self.session]
                stack.append(record)
                local.muted = mute_children
                try:
                    result = original(*args, **kwargs)
                finally:
                    local.muted = False
                    stack.pop()
                    record[2] = perf_counter()
                    self.spans.append(record)
            if count is not None:
                counts = self.counts[self.role()]
                with self._lock:
                    for key, amount in count(args, kwargs, result):
                        counts[key] += amount
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path, **header) -> None:
        """Write every span as [name, start_s, end_s, parent_index, role, session]."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        t0 = min((rec[1] for rec in self.spans), default=0.0)
        rows = [[rec[0], rec[1] - t0, rec[2] - t0,
                 -1 if rec[3] is None else index[id(rec[3])], rec[4], rec[5]]
                for rec in self.spans]
        doc = dict(header, fields=["name", "start_s", "end_s", "parent",
                                   "role", "session"], spans=rows)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def self_times(spans) -> dict:
    """Total self time in seconds per (role, span name)."""
    covered = defaultdict(float)
    for rec in spans:
        if rec[3] is not None:
            covered[id(rec[3])] += rec[2] - rec[1]
    totals = defaultdict(float)
    for rec in spans:
        totals[(rec[4], rec[0])] += rec[2] - rec[1] - covered[id(rec)]
    return totals


def layer_metrics(tracer: Tracer, cycles: int) -> dict:
    """Per-layer metrics of the traced sessions, per completed cycle."""
    per_cycle = 1.0 / max(cycles, 1)
    selfs = self_times(tracer.spans)
    out = {metric: (1e3 * selfs[("A", span)] * per_cycle, "ms/cycle")
           for metric, span in TIME_METRICS}
    for metric, roles in COUNT_METRICS:
        unit = "bytes/cycle" if ".bytes." in metric else "count/cycle"
        total = sum(tracer.counts[r][metric] for r in roles)
        out[metric] = (total * per_cycle, unit)
    return out


def role_b_times(tracer: Tracer, cycles: int) -> dict:
    """Role B's self time per span name, in ms per completed cycle."""
    selfs = self_times(tracer.spans)
    return {span: 1e3 * selfs[("B", span)] / max(cycles, 1)
            for _, span in TIME_METRICS}


# ---------------------------------------------------------------------------
# What to wrap
# ---------------------------------------------------------------------------

def _frames(args, kwargs, _result):
    msg_type = transport.MessageType(args[1])
    payload = args[2] if len(args) > 2 else kwargs.get("payload", b"")
    yield f"transport.frames.{msg_type.name}", 1
    yield f"transport.bytes.{msg_type.name}", transport.HEADER_LEN + len(payload)
    if msg_type == transport.MessageType.PARITY_REQ and \
            payload[:1] == bytes([protocol._SUB_PROBE]):
        yield "protocol.probes", 1


def _counter(metric, size):
    return lambda args, kwargs, result: ((metric, size(args, result)),)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of phys, encode, analysis, protocol and transport."""
    w = tracer.wrap
    w(phys.PhaseNoiseModel, "sample", "phys.noise",
      _counter("phys.noise_samples", lambda a, r: len(r)))
    w(protocol, "transmit_symbol", "encode.modulate",
      _counter("encode.symbols", lambda a, r: len(r)))
    w(protocol, "decode_with_basis", "encode.decode")
    w(transport, "pack_levels", "encode.pack")
    w(transport, "unpack_levels", "encode.unpack")
    for fn_name, fn in list(vars(analysis).items()):
        if callable(fn) and not isinstance(fn, type) and \
                getattr(fn, "__module__", None) == analysis.__name__:
            w(analysis, fn_name, "analysis", _counter("analysis.calls", lambda a, r: 1))
    w(protocol, "privacy_amplify", "protocol.pa",
      lambda args, kwargs, result: (("protocol.pa_bits_in", len(args[0])),
                                    ("protocol.pa_bits_out", len(result))))
    w(protocol, "reconcile_sender", "protocol.reconcile")
    w(protocol, "reconcile_receiver", "protocol.reconcile")
    w(protocol, "run_session", "protocol.driver")
    w(protocol, "send_block", "protocol.block",
      _counter("protocol.blocks_sent", lambda a, r: 1))
    w(protocol, "recover_block", "protocol.block")
    w(protocol.KeyChain, "append", None,
      _counter("protocol.keys_delivered", lambda a, r: 1))
    w(protocol.LeakLedger, "add_parities", None,
      _counter("protocol.parity_bits", lambda a, r: a[1]))
    w(transport.Channel, "send", "transport.send", _frames)
    w(transport.Channel, "recv", "transport.recv")
    w(transport, "handshake", "transport.handshake")
    w(sessions.SlipChannel, "_slip", "bench.slip", mute_children=True)
