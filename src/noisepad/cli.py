"""Operator command line.

Exit codes: 0 success, 1 flag/parameter validation failure, 2 protocol or
runtime failure.  Every command is deterministic given --seed; delta_phi is
always supplied as a power-of-two exponent (ADC resolution convention).
Set NOISEPAD_LOG=debug|info|... for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import socket
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import analysis, attacker, protocol, transport
from .encode import Constellation, transmit_symbol
from .errors import NoisepadError
from .phys import CoherentStateParams

log = logging.getLogger("noisepad")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors and accepts
    comma-separated negative number lists like -10,-8,-6 as values."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(inf|\d+\.?\d*)(,-?(inf|\d+\.?\d*))*$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _json_out(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def _k0_bits(args) -> np.ndarray:
    if getattr(args, "k0_file", None):
        raw = np.frombuffer(Path(args.k0_file).read_bytes(), dtype=np.uint8)
        return np.unpackbits(raw)
    # Test-only derivation: a seeded generator is NOT a secret shared key.
    return np.random.default_rng([args.k0_seed, 0]).integers(
        0, 2, args.k0_bits, dtype=np.uint8)


def _session_params(args, block_length: int) -> protocol.SessionParams:
    return protocol.SessionParams(
        avg_photon_number=args.n_avg,
        delta_phi=2.0 ** args.delta_phi_exp,
        resolution_bits=args.resolution_bits,
        block_length=block_length,
        safety_bits=args.safety_bits,
    )


def _int_at_least(least: int):
    """argparse type for an integer >= least: 1 for a count, 0 for a seed."""
    def parse(text: str) -> int:
        if not text.isdigit() or int(text) < least:
            raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
        return int(text)
    return parse


def _numbers(text: str) -> list:
    """argparse type for a comma-separated list of numbers."""
    try:
        return [float(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _exponent(text: str) -> int:
    """argparse type for --delta-phi-exp: an integer k whose 2**k is a finite float."""
    if not text.removeprefix("-").isdigit() or int(text) >= sys.float_info.max_exp:
        raise argparse.ArgumentTypeError(
            f"expected an integer below {sys.float_info.max_exp}, got {text!r}")
    return int(text)


def _add_key_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="party seed")
    p.add_argument("--k0-bits", type=_int_at_least(1), default=1024)
    p.add_argument("--k0-seed", type=_int_at_least(0), default=7,
                   help="derive K0 from a seed (test only, insecure)")
    p.add_argument("--k0-file", help="read K0 as raw bytes")


def _add_session_flags(p: argparse.ArgumentParser):
    _add_key_flags(p)
    p.add_argument("--n-avg", type=float, default=1e4)
    p.add_argument("--delta-phi-exp", type=_exponent, default=-30)
    p.add_argument("--resolution-bits", type=int, default=40)
    p.add_argument("--safety-bits", type=int, default=32)


# ---------------------------------------------------------------------------
# analyze / surface
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    params = CoherentStateParams(args.n_avg)
    delta_phi = 2.0 ** args.delta_phi_exp
    report = analysis.validate_params(params, delta_phi, args.ratio)
    point = analysis.security_point(params, delta_phi)
    boost = unusable = None
    try:
        c = Constellation(delta_phi, args.resolution_bits)
    except ValueError as exc:       # no session can run at this point
        c, unusable = None, str(exc)
    if c is not None:
        try:
            boost = analysis.boost_factor(c=c, params=params,
                                          seed_key_length=args.k0_bits,
                                          safety_bits=0)
        except ValueError as exc:
            log.info("no boost estimate: %s", exc)
    doc = {
        "n_avg": args.n_avg,
        "delta_phi_exp2": args.delta_phi_exp,
        "delta_phi": delta_phi,
        "sigma_phi": params.sigma_phi,
        "validation": {
            "ok": report.ok and unusable is None,
            "ratio": args.ratio,
            "checks": [{"name": chk.name, "lhs": chk.lhs, "rhs": chk.rhs,
                        "margin": chk.margin, "ok": chk.ok}
                       for chk in report.checks],
        },
        "p_error": point.p_error,
        "p_success": point.p_success,
        "entropy_leak": point.delta_h,
        "min_leak_length": point.leak_length,
        "boost_factor": boost,
    }
    if args.json:
        _json_out(doc)
    else:
        print(f"sigma_phi        = {params.sigma_phi:.6g}")
        for chk in report.checks:
            print(chk.describe())
        print(f"p_error (Eve)    = {point.p_error:.6g}")
        print(f"entropy_leak     = {point.delta_h:.6g} bits/symbol")
        print(f"min_leak_length  = {point.leak_length:.6g} symbols")
        if boost is not None:
            print(f"boost_factor     = {boost:.6g} (K0 = {args.k0_bits} bits)")
    if unusable is not None:
        raise ValueError(unusable)
    return EXIT_OK if report.ok else EXIT_USAGE


def cmd_surface(args) -> int:
    if not all(exp < sys.float_info.max_exp for exp in args.exp_grid):  # nan too
        raise ValueError(f"--exp-grid exponents must lie below "
                         f"{sys.float_info.max_exp}, got {args.exp_grid!r}")
    text = analysis.emit_surface(args.n_grid, args.exp_grid, args.quantity)
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"{len(text.splitlines()) - 1} rows -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate / serve / connect
# ---------------------------------------------------------------------------

def _summary(result: protocol.SessionResult, extra: dict | None = None) -> dict:
    doc = {
        "role": result.role,
        "cycles_completed": result.cycles_completed,
        "delivered_bits": [list(d) for d in result.delivered],
        "total_delivered_bits": result.chain.total_delivered(),
        "boost_factor_so_far": result.boost_factor_so_far(),
        "ledger": {
            "statistical_leak": result.ledger.statistical_leak,
            "disclosed_parity_bits": result.ledger.disclosed_parity_bits,
            "total": result.ledger.total,
        },
        "confirm_tag": result.confirm_tag.hex(),
        "early_stop": result.early_stop,
    }
    if extra:
        doc.update(extra)
    return doc


def cmd_simulate(args) -> int:
    k0 = _k0_bits(args)
    params = _session_params(args, len(k0))
    progress_fh = open(args.progress_out, "w") if args.progress_out else None
    progress = None
    if progress_fh is not None:
        progress = lambda rec: print(json.dumps(rec, sort_keys=True),
                                     file=progress_fh, flush=True)
    try:
        result_a, result_b = protocol.simulate_session(
            params, k0, seed_a=args.seed, seed_b=args.seed + 1,
            cycles=args.cycles, transcript_path=args.transcript_out,
            progress=progress)
    finally:
        if progress_fh is not None:
            progress_fh.close()
    agreement = result_a.chain.bits_equal(result_b.chain)
    _json_out(_summary(result_a, {
        "seed": args.seed,
        "k0_bits": len(k0),
        "agreement": agreement,
        "confirm_match": result_a.confirm_tag == result_b.confirm_tag,
        "transcript_out": args.transcript_out,
    }))
    return EXIT_OK if agreement else EXIT_RUNTIME


def _host_port(text: str):
    """argparse type for host:port (an empty host means 127.0.0.1)."""
    host, _, port = text.rpartition(":")
    if not (port.isdigit() and int(port) < 65536):
        raise argparse.ArgumentTypeError(f"expected host:port, got {text!r}")
    return host or "127.0.0.1", int(port)


def _refuse_spent_k0(conn) -> None:
    """Answer a connection's HELLO with an ERROR frame: K0 is used up."""
    channel = transport.SocketChannel(conn)
    try:
        transport.drive(transport.expect(transport.MessageType.HELLO), channel)
        channel.send(transport.MessageType.ERROR,
                     b"this server's K0 already served a session and is used "
                     b"up; restart serve with a fresh shared key")
    except NoisepadError as exc:
        log.info("refused connection failed: %s", exc)
    finally:
        channel.close()


def cmd_serve(args) -> int:
    """Run sessions on K0 one connection at a time; K0 serves at most one.

    Once a session has passed its handshake, K0 has been used as basis
    material, so every later connection is refused with an ERROR frame.
    """
    k0 = _k0_bits(args)
    host, port = args.listen
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind((host, port))
    server.listen()
    bound = server.getsockname()
    print(json.dumps({"listening": {"host": bound[0], "port": bound[1]}}),
          flush=True)
    spent = False

    def handle(conn) -> int:
        nonlocal spent
        channel = transport.SocketChannel(conn)
        try:
            if args.transcript_out:
                transport.record_transcript(channel, args.transcript_out)
            hello = transport.handshake(channel, "B",
                                        expected_block_length=len(k0))
            spent = True
            state = protocol.PartyState.create(
                "B", protocol.SessionParams.from_hello(hello), k0, args.seed)
            result = protocol.run_session(channel, state)
            _json_out(_summary(result, {"seed": args.seed, "k0_bits": len(k0)}))
            if channel.tap is not None:
                channel.tap.finish()
            return EXIT_OK
        except NoisepadError as exc:
            print(f"session failed: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        finally:
            channel.close()

    try:
        while True:
            conn, peer = server.accept()
            log.info("connection from %s:%s", *peer)
            if spent:
                _refuse_spent_k0(conn)
                continue
            code = handle(conn)
            if args.once:
                return code
    finally:
        server.close()


def cmd_connect(args) -> int:
    k0 = _k0_bits(args)
    params = _session_params(args, len(k0))
    proposal = params.hello()
    tap = None
    if args.transcript_out:     # before connecting, to spare the server
        tap = transport.TranscriptTap(args.transcript_out)
    try:
        sock = socket.create_connection(args.addr, timeout=transport.DEFAULT_TIMEOUT)
    except OSError:
        if tap is not None:
            tap.close()
        raise
    channel = transport.SocketChannel(sock)
    channel.tap = tap
    try:
        transport.handshake(channel, "A", proposal)
        state = protocol.PartyState.create("A", params, k0, args.seed)
        result = protocol.run_session(channel, state, cycles=args.cycles)
        _json_out(_summary(result, {"seed": args.seed, "k0_bits": len(k0)}))
        if channel.tap is not None:
            channel.tap.finish()
        return EXIT_OK
    finally:
        channel.close()


# ---------------------------------------------------------------------------
# attacks
# ---------------------------------------------------------------------------

def cmd_attack_basis(args) -> int:
    params = CoherentStateParams(args.n_avg)
    c = Constellation(2.0 ** args.delta_phi_exp, args.resolution_bits)
    report = attacker.basis_attack_report(params, c, args.bits, args.seed)
    # Bit blindness over the same operating point, scored against truth.
    rng = np.random.default_rng([args.seed, 11])
    true_bits = rng.integers(0, 2, args.bits, dtype=np.uint8)
    basis = rng.integers(0, 2, args.bits, dtype=np.uint8)
    levels = transmit_symbol(true_bits, basis, c,
                             rng.normal(0.0, params.sigma_phi, args.bits))
    report.bit_guess_error_rate = attacker.eve_bit_guess_rate(
        levels, c, true_bits, seed=args.seed + 1)
    print(report.to_json(indent=2))
    return EXIT_OK


def _demo_session(args, cycles: int):
    """Run a session; return role A's result and the tape it recorded.

    Raises ValueError unless --known-key-index names a key of the chain.
    """
    k0 = _k0_bits(args)
    params = _session_params(args, len(k0))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "wire.bin")
        result_a, result_b = protocol.simulate_session(
            params, k0, seed_a=args.seed, seed_b=args.seed + 1, cycles=cycles,
            transcript_path=path)
        tape = attacker.read_tape(path)
    if not result_a.chain.bits_equal(result_b.chain):
        raise NoisepadError("demo session failed to agree")
    if not 0 <= args.known_key_index < len(result_a.chain.keys):
        raise ValueError(
            f"--known-key-index {args.known_key_index} is outside the demo "
            f"chain K0..K{len(result_a.chain.keys) - 1}")
    return result_a, tape


def cmd_attack_kpa(args) -> int:
    if bool(args.ciphertext_file) != bool(args.plaintext_file):
        missing = "plaintext" if args.ciphertext_file else "ciphertext"
        raise ValueError(f"file mode needs --{missing}-file too")
    if args.ciphertext_file:
        cipher = np.unpackbits(np.frombuffer(
            Path(args.ciphertext_file).read_bytes(), dtype=np.uint8))
        plain = np.unpackbits(np.frombuffer(
            Path(args.plaintext_file).read_bytes(), dtype=np.uint8))
        recovered = attacker.known_plaintext_attack(cipher, plain)
        report = attacker.AttackReport(
            symbols_observed=0,
            recovered_keys=[(args.known_key_index, recovered)],
            notes={"mode": "files"})
        print(report.to_json(indent=2))
        return EXIT_OK
    # Demo: run a session, let A and B encrypt a plaintext Eve knows with
    # the chain key K_i, and recover K_i from the public XOR.
    result, tape = _demo_session(args, cycles=args.cycles)
    key = result.chain.keys[args.known_key_index].bits
    plain = np.random.default_rng([args.seed, 99]).integers(
        0, 2, len(key), dtype=np.uint8)
    cipher = np.bitwise_xor(plain, key)
    recovered = attacker.known_plaintext_attack(cipher, plain)
    exact = bool(np.array_equal(recovered, key))
    report = attacker.AttackReport(
        symbols_observed=sum(block.symbols for block in tape.blocks),
        recovered_keys=[(args.known_key_index, recovered)],
        notes={"mode": "demo", "recovered_exact": exact})
    print(report.to_json(indent=2))
    return EXIT_OK if exact else EXIT_RUNTIME


def cmd_attack_chain(args) -> int:
    index, truth = args.known_key_index, None
    if args.transcript:
        if not args.known_key_hex:
            raise ValueError("file mode needs --known-key-hex")
        tape = attacker.read_tape(args.transcript)
        raw = bytes.fromhex(args.known_key_hex)
        known = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
        if 0 <= index < len(tape.blocks):   # trim the hex padding
            known = known[:tape.blocks[index].symbols]
    else:
        truth, tape = _demo_session(args, max(3, args.cycles))
        known = truth.chain.keys[index].bits
    recovery = attacker.chain_compromise(tape, index, known)
    notes = {"gaps": recovery.gaps}
    if truth is not None:
        keys = truth.chain.keys
        notes["recovered_exact"] = all(
            np.array_equal(bits, keys[idx].bits)
            for idx, bits in recovery.recovered if idx < len(keys))
        notes["chain_length"] = len(keys)
    report = attacker.AttackReport(
        symbols_observed=sum(block.symbols for block in tape.blocks),
        recovered_keys=recovery.recovered, notes=notes)
    print(report.to_json(indent=2))
    return EXIT_OK if notes.get("recovered_exact", True) else EXIT_RUNTIME


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="noisepad",
                     description="noisy one-time-pad key booster")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="leak figures for one operating point")
    p.add_argument("--n-avg", type=float, required=True)
    p.add_argument("--delta-phi-exp", type=_exponent, required=True)
    p.add_argument("--ratio", type=float, default=8.0)
    p.add_argument("--resolution-bits", type=int, default=40)
    p.add_argument("--k0-bits", type=_int_at_least(1), default=256)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("surface", help="CSV leak surface over a parameter grid")
    p.add_argument("--quantity", choices=("delta_h", "leak_length"),
                   required=True)
    p.add_argument("--n-grid", type=_numbers, required=True,
                   help="comma-separated <n> values")
    p.add_argument("--exp-grid", type=_numbers, required=True,
                   help="comma-separated exponents (-inf for delta_phi = 0)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_surface)

    p = sub.add_parser("simulate", help="two-party session in one process")
    _add_session_flags(p)
    p.add_argument("--cycles", type=_int_at_least(1), default=10)
    p.add_argument("--transcript-out")
    p.add_argument("--progress-out", help="per-cycle JSON lines")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("serve", help="accept sessions on a socket")
    _add_key_flags(p)
    p.add_argument("--listen", type=_host_port, default="127.0.0.1:0",
                   help="host:port")
    p.add_argument("--once", action="store_true",
                   help="handle one session and exit")
    p.add_argument("--transcript-out")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("connect", help="run a session against a server")
    _add_session_flags(p)
    p.add_argument("--addr", type=_host_port, required=True, help="host:port")
    p.add_argument("--cycles", type=_int_at_least(1), default=10)
    p.add_argument("--transcript-out")
    p.set_defaults(fn=cmd_connect)

    p = sub.add_parser("attack-basis", help="Monte-Carlo ML basis attack")
    p.add_argument("--n-avg", type=float, required=True)
    p.add_argument("--delta-phi-exp", type=_exponent, required=True)
    p.add_argument("--resolution-bits", type=int, default=24)
    p.add_argument("--bits", type=_int_at_least(1), default=100_000)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(fn=cmd_attack_basis)

    p = sub.add_parser("attack-kpa", help="known-plaintext key recovery")
    _add_session_flags(p)
    p.add_argument("--cycles", type=_int_at_least(1), default=1)
    p.add_argument("--ciphertext-file")
    p.add_argument("--plaintext-file")
    p.add_argument("--known-key-index", type=int, default=1)
    p.set_defaults(fn=cmd_attack_kpa)

    p = sub.add_parser("attack-chain", help="chain compromise from one key")
    _add_session_flags(p)
    p.add_argument("--cycles", type=_int_at_least(1), default=3)
    p.add_argument("--known-key-index", type=int, default=1)
    p.add_argument("--transcript", help="recorded tape (--transcript-out file)")
    p.add_argument("--known-key-hex")
    p.set_defaults(fn=cmd_attack_chain)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("NOISEPAD_LOG", "").upper()
    if level:
        logging.basicConfig(level=getattr(logging, level, logging.INFO),
                            stream=sys.stderr,
                            format="%(name)s %(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NoisepadError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
