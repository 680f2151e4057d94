import gc
import json
import math
import os
import socket
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from noisepad.analysis import entropy_leak, min_leak_length, security_point
from noisepad.attacker import read_tape
from noisepad.encode import dequantize
from noisepad.phys import CoherentStateParams
from noisepad.transport import unpack_keyblock

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "noisepad", *args],
                          capture_output=True, text=True, timeout=timeout,
                          env=env)


def test_analyze_json_matches_library():
    res = run_cli("analyze", "--n-avg", "1e4", "--delta-phi-exp", "-10", "--json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    p = CoherentStateParams(1e4)
    assert doc["sigma_phi"] == p.sigma_phi
    assert doc["entropy_leak"] == entropy_leak(p, 2.0 ** -10)
    assert doc["min_leak_length"] == min_leak_length(p, 2.0 ** -10)
    assert doc["validation"]["ok"] is True


def test_analyze_text_numbers_match_library_precision():
    res = run_cli("analyze", "--n-avg", "1e4", "--delta-phi-exp", "-6")
    assert res.returncode == 1          # sigma >> delta_phi fails at this point
    pt = security_point(CoherentStateParams(1e4), 2.0 ** -6)
    assert f"{pt.p_error:.6g}" in res.stdout
    assert f"{pt.delta_h:.6g}" in res.stdout
    assert f"{pt.leak_length:.6g}" in res.stdout
    assert "0.0801854" in res.stdout and "0.889084" in res.stdout
    assert "2.57014" in res.stdout


def test_analyze_violation_and_usage_exit_codes():
    res = run_cli("analyze", "--n-avg", "2", "--delta-phi-exp", "-6")
    assert res.returncode == 1
    assert "VIOLATED" in res.stdout
    res = run_cli("analyze", "--n-avg", "2")
    assert res.returncode == 1
    assert "delta-phi-exp" in res.stderr
    # a point no Constellation admits: valid by the checks, yet no session runs
    for exp, reason in (("-2000", "delta_phi must lie in"),     # 2**k is 0.0
                        ("-1000", "does not resolve"), ("-40", "does not resolve")):
        res = run_cli("analyze", "--n-avg", "1e4", "--delta-phi-exp", exp, "--json")
        assert res.returncode == 1
        assert json.loads(res.stdout)["validation"]["ok"] is False
        assert reason in res.stderr.splitlines()[-1]
        assert run_cli("simulate", "--delta-phi-exp", exp).returncode == 1
    for exp, code in (("-10", 0), ("-6", 1)):     # -6 breaks sigma >> delta_phi
        res = run_cli("analyze", "--n-avg", "1e4", "--delta-phi-exp", exp)
        assert res.returncode == code
        assert "error:" not in res.stderr
    res = run_cli("analyze", "--n-avg", "1e4", "--delta-phi-exp", "-10",
                  "--k0-bits", "100", "--json")         # too short for a boost
    assert res.returncode == 0
    assert json.loads(res.stdout)["boost_factor"] is None


def test_surface_grid(tmp_path):
    out = tmp_path / "surface.csv"
    res = run_cli("surface", "--quantity", "delta_h",
                  "--n-grid", "100,1000,10000", "--exp-grid", "-10,-8,-6",
                  "--out", str(out))
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n_avg,delta_phi_exp2,value"
    assert len(lines) == 10
    first = out.read_bytes()
    res = run_cli("surface", "--quantity", "delta_h",
                  "--n-grid", "100,1000,10000", "--exp-grid", "-10,-8,-6",
                  "--out", str(out))
    assert res.returncode == 0
    assert out.read_bytes() == first


def test_surface_unwritable_path(tmp_path):
    res = run_cli("surface", "--quantity", "delta_h", "--n-grid", "100",
                  "--exp-grid", "-10", "--out",
                  str(tmp_path / "missing" / "dir" / "x.csv"))
    assert res.returncode == 2


def test_simulate_reference_invocation():
    args = ("simulate", "--seed", "42", "--k0-bits", "1024", "--cycles", "10",
            "--n-avg", "1e4", "--delta-phi-exp", "-30")
    res = run_cli(*args)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["agreement"] is True
    assert doc["confirm_match"] is True
    assert doc["cycles_completed"] == 10
    assert doc["ledger"]["statistical_leak"] < 1e-3
    # byte-identical on repeat
    res2 = run_cli(*args)
    assert res2.stdout == res.stdout


def test_simulate_rejects_bad_operating_point():
    res = run_cli("simulate", "--seed", "1", "--delta-phi-exp", "-3")
    assert res.returncode == 1
    assert "operating condition" in res.stderr


def test_serve_and_connect_reject_flags_hello_does_not_carry():
    # serve takes its operating point from the peer's HELLO, and HELLO
    # carries no reconciliation block size; nor does any other command
    for command in (["serve"], ["connect", "--addr", "127.0.0.1:9"],
                    ["simulate"], ["attack-kpa"], ["attack-chain"]):
        res = run_cli(*command, "--recon-block", "64")
        assert res.returncode == 1
        assert "unrecognized arguments: --recon-block" in res.stderr
    res = run_cli("serve", "--n-avg", "1e4")
    assert res.returncode == 1


@pytest.fixture(scope="module")
def tape_frames(tmp_path_factory):
    """(msg_type, payload) of each frame on a one-cycle 256-bit session's tape."""
    from noisepad.protocol import SessionParams, simulate_session
    from noisepad.transport import iter_frames
    path = tmp_path_factory.mktemp("tape") / "wire.bin"
    k0 = np.random.default_rng(1).integers(0, 2, 256, dtype=np.uint8)
    simulate_session(SessionParams(1e4, 2.0 ** -30, 40, 256), k0, 1, 2, cycles=1,
                     transcript_path=path)
    return list(iter_frames(path.read_bytes()))


def encode_tape(frames) -> bytes:
    from noisepad.transport import frame_encode
    return b"".join(frame_encode(t, p) for t, p in frames)


# attack-chain file mode; "@tape.bin" stands for a real tape in tmp_path
CHAIN_FILE_MODE = ("attack-chain", "--transcript", "@tape.bin",
                   "--known-key-hex", "ff")


@pytest.mark.parametrize("args", [
    ("connect", "--addr", "localhost"),
    ("serve", "--listen", "nohost"),
    ("simulate", "--k0-bits", "-5"),
    ("surface", "--quantity", "delta_h", "--n-grid", "abc", "--exp-grid", "-10",
     "--out", os.devnull),
    ("surface", "--quantity", "delta_h", "--n-grid", "0", "--exp-grid", "-10",
     "--out", os.devnull),
    ("analyze", "--n-avg", "-1", "--delta-phi-exp", "-10"),
    ("attack-basis", "--n-avg", "0", "--delta-phi-exp", "-6"),
    ("attack-basis", "--n-avg", "1e4", "--delta-phi-exp", "-6", "--bits", "0"),
    ("attack-chain", "--known-key-index", "9", "--cycles", "3"),
    ("simulate", "--cycles", "-1"),
    ("connect", "--addr", "127.0.0.1:9", "--cycles", "0"),
    ("attack-kpa", "--cycles", "0"),
    ("attack-kpa", "--known-key-index", "3"),
    (*CHAIN_FILE_MODE, "--known-key-index", "-1"),
    (*CHAIN_FILE_MODE, "--known-key-hex", "f"),
    CHAIN_FILE_MODE[:3],
    ("attack-kpa", "--ciphertext-file", "@tape.bin"),
    ("attack-kpa", "--plaintext-file", "@tape.bin"),
    ("simulate", "--safety-bits", "70000"),         # HELLO carries 16 bits
    ("connect", "--addr", "127.0.0.1:9", "--safety-bits", "70000"),
    ("analyze", "--n-avg", "1e4", "--delta-phi-exp", "2000"),   # 2**k overflows
    ("simulate", "--delta-phi-exp", "2000"),
    ("connect", "--addr", "127.0.0.1:9", "--delta-phi-exp", "2000"),
    ("attack-basis", "--n-avg", "1e4", "--delta-phi-exp", "2000"),
    ("attack-kpa", "--delta-phi-exp", "2000"),
    ("attack-chain", "--delta-phi-exp", "2000"),
    ("surface", "--quantity", "delta_h", "--n-grid", "1e4", "--exp-grid",
     "-10,2000", "--out", os.devnull),
    ("surface", "--quantity", "delta_h", "--n-grid", "1e4", "--out", os.devnull,
     "--exp-grid", "x"),
    ("simulate", "--seed", "-1"),
    ("simulate", "--k0-seed", "-1"),
    ("attack-basis", "--n-avg", "1e4", "--delta-phi-exp", "-20", "--seed", "-1"),
], ids=" ".join)
def test_bad_operator_input_exits_1_without_traceback(args, tmp_path, tape_frames):
    (tmp_path / "tape.bin").write_bytes(encode_tape(tape_frames))
    res = run_cli(*(str(tmp_path / a[1:]) if a.startswith("@") else a
                    for a in args))
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert "error:" in res.stderr.splitlines()[-1]
    if args[-2] in ("--cycles", "--k0-bits", "--bits") and int(args[-1]) < 1 \
            or args[-2] == "--delta-phi-exp" and int(args[-1]) > 1023 \
            or args[-2] in ("--seed", "--k0-seed") and int(args[-1]) < 0:
        assert f"argument {args[-2]}:" in res.stderr.splitlines()[-1]
    for grid in ("--n-grid", "--exp-grid"):     # a word where numbers belong
        if grid in args and args[args.index(grid) + 1].isalpha():
            assert f"argument {grid}:" in res.stderr.splitlines()[-1]
    if args[0] == "attack-kpa" and args[1].endswith("-file"):  # names the other
        missing = ({"--ciphertext-file", "--plaintext-file"} - {args[1]}).pop()
        assert missing in res.stderr.splitlines()[-1]


def _bad_hello(frame):
    """The HELLO with delta_phi = 2**-3, which the operating condition rejects."""
    from dataclasses import replace
    from noisepad.transport import pack_hello, unpack_hello
    return frame[0], pack_hello(replace(unpack_hello(frame[1]), delta_phi_exp=-3))


# each rewrites the good tape's frames: HELLO, HELLO_ACK, KEYBLOCK, PA_SEED, ...
HOSTILE_TAPES = {
    "empty": (lambda f: b"", 2, "does not start with HELLO"),
    "no HELLO": (lambda f: encode_tape(f[1:]), 2, "does not start with HELLO"),
    "truncated frame": (lambda f: encode_tape(f[:3])[:-1], 2, "declared "),
    "PA_SEED too long for its block": (
        lambda f: encode_tape([*f[:3], (f[3][0], f[3][1] + b"\x00"), *f[4:]]),
        2, "PA_SEED of a 256-bit block"),
    "PA_SEED twice": (lambda f: encode_tape([*f[:4], f[3], *f[4:]]), 2,
                      "PA_SEED without its KEYBLOCK"),
    "invalid operating point": (
        lambda f: encode_tape([_bad_hello(f[0]), *f[1:]]), 1, "operating condition"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_TAPES))
def test_hostile_tape_ends_with_one_error_line(case, tmp_path, tape_frames):
    make, code, reason = HOSTILE_TAPES[case]
    (tmp_path / "tape.bin").write_bytes(make(tape_frames))
    res = run_cli("attack-chain", "--transcript", str(tmp_path / "tape.bin"),
                  "--known-key-hex", "ff")
    assert res.returncode == code and res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith("error: ") and reason in res.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_lost_transcript_exits_2(tmp_path):
    missing = str(tmp_path / "no" / "dir" / "x.bin")
    session = ("--seed", "3", "--k0-bits", "256", "--cycles", "1")
    # a tap that cannot be opened stops the command before any handshake
    res = run_cli("simulate", *session, "--transcript-out", missing)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.splitlines() == [
        f"error: [Errno 2] No such file or directory: '{missing}'"]
    server = ServeProc("--seed", "1", "--k0-bits", "256", "--transcript-out",
                       missing, once=False)
    client = run_cli("connect", "--addr", f"127.0.0.1:{server.port}", *session)
    code, out, err = server.finish()
    assert code == 2 and out == "" and client.returncode == 2
    assert err.splitlines()[-1].startswith("error: [Errno 2]")
    server = ServeProc("--seed", "1", "--k0-bits", "256")
    connect = ("connect", "--addr", f"127.0.0.1:{server.port}", *session)
    assert run_cli(*connect, "--transcript-out", missing).returncode == 2
    assert run_cli(*connect).returncode == 0     # serve --once was not spent
    assert server.finish()[0] == 0
    # a write error does not stop the session, but fails the command after it
    progress = tmp_path / "progress.jsonl"
    res = run_cli("simulate", *session, "--transcript-out", "/dev/full",
                  "--progress-out", str(progress))
    assert res.returncode == 2 and res.stdout == ""
    assert len(progress.read_text().splitlines()) == 1
    assert res.stderr.splitlines() == [
        "error: transcript /dev/full is incomplete: "
        "[Errno 28] No space left on device"]


def test_simulate_progress_and_transcript(tmp_path):
    transcript = tmp_path / "wire.bin"
    progress = tmp_path / "progress.jsonl"
    res = run_cli("simulate", "--seed", "5", "--k0-bits", "512", "--cycles", "3",
                  "--transcript-out", str(transcript),
                  "--progress-out", str(progress))
    assert res.returncode == 0
    records = [json.loads(line) for line in progress.read_text().splitlines()]
    assert [r["cycle"] for r in records] == [1, 2, 3]
    from noisepad.attacker import read_tape
    assert len(read_tape(transcript).blocks) == 6


def test_attack_basis_report():
    res = run_cli("attack-basis", "--n-avg", "1e4", "--delta-phi-exp", "-6",
                  "--bits", "20000", "--seed", "0")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["symbols_observed"] == 40000
    assert doc["helstrom_floor"] == pytest.approx(0.08018535523830366, rel=1e-9)
    assert doc["helstrom_floor"] <= doc["basis_guess_error_rate"] <= 0.5 + 0.011
    assert abs(doc["bit_guess_error_rate"] - 0.5) < 0.011


@pytest.mark.parametrize("index", [1, 2])
def test_attack_kpa_demo(index):
    session = ("--seed", "9", "--k0-bits", "512", "--cycles", "1")
    res = run_cli("attack-kpa", *session, "--known-key-index", str(index))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["notes"]["recovered_exact"] is True
    (key,) = doc["recovered_keys"]
    delivered = json.loads(run_cli("simulate", *session).stdout)["delivered_bits"]
    assert key["index"] == index and len(key["bits"]) == delivered[0][index - 1]


def test_attack_chain_demo():
    res = run_cli("attack-chain", "--seed", "9", "--k0-bits", "512",
                  "--cycles", "3")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["notes"]["recovered_exact"] is True
    assert [k["index"] for k in doc["recovered_keys"]] == [2, 3, 4, 5, 6]


def test_attack_chain_from_files(tmp_path):
    transcript = tmp_path / "wire.bin"
    res = run_cli("simulate", "--seed", "31", "--k0-bits", "512", "--cycles", "3",
                  "--transcript-out", str(transcript))
    assert res.returncode == 0 and "pa_records" not in json.loads(res.stdout)
    # the analyst replays the chain from K1; take it from a fresh simulate run
    from noisepad.protocol import SessionParams, simulate_session
    params = SessionParams(1e4, 2.0 ** -30, 40, 512)
    k0 = np.random.default_rng([7, 0]).integers(0, 2, 512, dtype=np.uint8)
    res_a, _ = simulate_session(params, k0, 31, 32, cycles=3)
    k1 = res_a.chain.keys[1].bits
    hexkey = np.packbits(k1).tobytes().hex()
    # the operating point comes from the tape's HELLO, not from flags
    res = run_cli("attack-chain", "--transcript", str(transcript),
                  "--known-key-hex", hexkey, "--known-key-index", "1")
    assert res.returncode == 0
    doc2 = json.loads(res.stdout)
    # every symbol on the tape: block Y_j is masked under K_{j-1}
    assert doc2["symbols_observed"] == sum(len(k.bits) for k in res_a.chain.keys[:-1])
    got = {k["index"]: k["bits"] for k in doc2["recovered_keys"]}
    for idx in (2, 3, 4, 5, 6):
        want = "".join(map(str, res_a.chain.keys[idx].bits.tolist()))
        assert got[idx] == want


def test_attack_chain_file_mode_recovers_what_demo_mode_does(tmp_path):
    # the demo records its own tape; replaying simulate's tape from the
    # K1 that attack-kpa recovers must give the same keys, K2..K8
    tape = tmp_path / "wire.bin"
    res = run_cli("simulate", "--seed", "5", "--cycles", "4",
                  "--transcript-out", str(tape))
    assert res.returncode == 0
    kpa = json.loads(run_cli("attack-kpa", "--seed", "5").stdout)
    k1 = np.array([int(b) for b in kpa["recovered_keys"][0]["bits"]], np.uint8)
    res = run_cli("attack-chain", "--transcript", str(tape),
                  "--known-key-hex", np.packbits(k1).tobytes().hex())
    assert res.returncode == 0
    from_files = json.loads(res.stdout)
    demo = json.loads(run_cli("attack-chain", "--seed", "5", "--cycles", "4").stdout)
    assert demo["notes"]["recovered_exact"] is True
    assert [k["index"] for k in demo["recovered_keys"]] == list(range(2, 9))
    assert from_files["recovered_keys"] == demo["recovered_keys"]
    assert from_files["notes"]["gaps"] == demo["notes"]["gaps"]


class ServeProc:
    def __init__(self, *extra, once=True):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "noisepad", "serve",
             "--listen", "127.0.0.1:0", *(["--once"] if once else []), *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        line = self.proc.stdout.readline()
        self.port = json.loads(line)["listening"]["port"]

    def finish(self, timeout=120):
        out, err = self.proc.communicate(timeout=timeout)
        return self.proc.returncode, out, err


@pytest.mark.parametrize("cycles", [4])
def test_serve_connect_session(tmp_path, cycles):
    ts_server = tmp_path / "server.bin"
    ts_client = tmp_path / "client.bin"
    server = ServeProc("--seed", "100", "--k0-seed", "9", "--k0-bits", "1024",
                       "--transcript-out", str(ts_server))
    res = run_cli("connect", "--addr", f"127.0.0.1:{server.port}",
                  "--seed", "200", "--k0-seed", "9", "--k0-bits", "1024",
                  "--cycles", str(cycles),
                  "--transcript-out", str(ts_client))
    code, out, _ = server.finish()
    assert res.returncode == 0
    assert code == 0
    client_doc = json.loads(res.stdout)
    server_doc = json.loads(out)
    assert client_doc["confirm_tag"] == server_doc["confirm_tag"]
    assert client_doc["cycles_completed"] == cycles
    assert ts_server.read_bytes() == ts_client.read_bytes()


def test_default_seeds_are_fresh_so_role_b_repeats_no_stream_of_role_a(tmp_path):
    # Were both parties seeded alike, B's Y2 would carry A's Y1 noise and
    # fresh bits, and Eve's Y2 - Y1 mod pi would be (K1 - K0) * delta_phi,
    # at most 2^-30 rad; drawn fresh, the two noises leave a residual of
    # order sigma
    tape = tmp_path / "wire.bin"
    server = ServeProc("--transcript-out", str(tape))
    res = run_cli("connect", "--addr", f"127.0.0.1:{server.port}", "--cycles", "1")
    code, out, _ = server.finish()
    assert res.returncode == code == 0
    client, served = json.loads(res.stdout), json.loads(out)
    assert client["seed"] != served["seed"]
    assert client["confirm_tag"] == served["confirm_tag"]
    y1, y2 = (unpack_keyblock(block.keyblock, 40)[1] for block in read_tape(tape).blocks)
    diff = dequantize(y2, 40) - dequantize(y1[:len(y2)], 40)
    residual = np.mod(diff + math.pi / 2, math.pi) - math.pi / 2
    sigma = CoherentStateParams(1e4).sigma_phi
    assert sigma / 2 < np.std(residual) < 4 * sigma


def test_loopback_and_socket_transcripts_identical(tmp_path):
    # same seeds, same K0: the in-process wire and the real socket must
    # leave byte-identical eavesdropper records
    sim_ts = tmp_path / "sim.bin"
    run_cli("simulate", "--seed", "200", "--k0-seed", "9", "--k0-bits", "1024",
            "--cycles", "3", "--transcript-out", str(sim_ts))
    sock_ts = tmp_path / "sock.bin"
    server = ServeProc("--seed", "201", "--k0-seed", "9", "--k0-bits", "1024")
    res = run_cli("connect", "--addr", f"127.0.0.1:{server.port}",
                  "--seed", "200", "--k0-seed", "9", "--k0-bits", "1024",
                  "--cycles", "3", "--transcript-out", str(sock_ts))
    server.finish()
    assert res.returncode == 0
    assert sim_ts.read_bytes() == sock_ts.read_bytes()


def test_serve_refuses_a_second_session_on_one_k0(tmp_path):
    transcript = tmp_path / "server.bin"
    server = ServeProc("--seed", "100", "--k0-seed", "9", "--k0-bits", "1024",
                       "--transcript-out", str(transcript), once=False)
    connect = ("connect", "--addr", f"127.0.0.1:{server.port}", "--seed", "200",
               "--k0-seed", "9", "--cycles", "2", "--k0-bits")
    try:
        # a rejected handshake leaves K0 unused
        mismatched = run_cli(*connect, "512")
        first = run_cli(*connect, "1024")
        recorded = transcript.read_bytes()
        second = run_cli(*connect, "1024")
    finally:
        server.proc.kill()
        server.finish()
    assert mismatched.returncode == 2 and "rejected" in mismatched.stderr
    assert first.returncode == 0
    assert second.returncode == 2
    assert "already served a session" in second.stderr
    assert transcript.read_bytes() == recorded


def test_serve_connect_with_k0_file(tmp_path):
    k0_file = tmp_path / "k0.bin"
    k0_file.write_bytes(np.random.default_rng(3).integers(
        0, 256, 128, dtype=np.uint8).tobytes())
    server = ServeProc("--seed", "1", "--k0-file", str(k0_file))
    res = run_cli("connect", "--addr", f"127.0.0.1:{server.port}",
                  "--seed", "2", "--k0-file", str(k0_file), "--cycles", "2")
    code, out, _ = server.finish()
    assert res.returncode == 0 and code == 0
    doc = json.loads(res.stdout)
    assert doc["k0_bits"] == 1024
    assert doc["confirm_tag"] == json.loads(out)["confirm_tag"]


@pytest.mark.parametrize("k0_flag", [("--k0-bits", "5"), ("--k0-file", "@empty.bin")],
                         ids=" ".join)
def test_serve_refuses_a_k0_no_session_can_use(k0_flag, tmp_path):
    # every HELLO would be refused on block length, so serve must not listen;
    # the short timeout fails this test instead of hanging on a server that does
    (tmp_path / "empty.bin").write_bytes(b"")
    flag, value = k0_flag
    res = run_cli("serve", "--once", flag,
                  str(tmp_path / value[1:]) if value.startswith("@") else value,
                  timeout=10)
    assert res.returncode == 1 and res.stdout == ""
    bits = 5 if flag == "--k0-bits" else 0
    assert res.stderr.splitlines() == [
        f"error: K0 has {bits} bits; a session needs at least 8"]


def test_serve_connect_k0_mismatch_fails():
    server = ServeProc("--seed", "100", "--k0-seed", "9", "--k0-bits", "1024")
    res = run_cli("connect", "--addr", f"127.0.0.1:{server.port}",
                  "--seed", "200", "--k0-seed", "10", "--k0-bits", "1024",
                  "--cycles", "2")
    code, _, err = server.finish()
    assert res.returncode == 2
    assert code == 2
    assert "differ" in res.stderr or "mismatch" in res.stderr or err


def test_connect_handshake_rejection():
    server = ServeProc("--seed", "1", "--k0-seed", "9", "--k0-bits", "512")
    res = run_cli("connect", "--addr", f"127.0.0.1:{server.port}",
                  "--seed", "2", "--k0-seed", "9", "--k0-bits", "1024",
                  "--cycles", "1")
    server.finish()
    assert res.returncode == 2
    assert "rejected" in res.stderr


def test_connect_closes_its_tap_when_the_connection_fails(tmp_path, capsys):
    from noisepad import cli
    with socket.socket() as closed:     # bound, not listening: refused
        closed.bind(("127.0.0.1", 0))
        port = closed.getsockname()[1]
        code = cli.main(["connect", "--addr", f"127.0.0.1:{port}",
                         "--transcript-out", str(tmp_path / "x.bin")])
    gc.collect()    # an unclosed tap would warn here, failing the test
    assert code == 2
    assert capsys.readouterr().err.startswith("error: [Errno 111]")


def _raw_client(port: int):
    from noisepad.transport import SocketChannel
    return SocketChannel(socket.create_connection(("127.0.0.1", port), timeout=30))


@pytest.mark.parametrize("seed_frame", [
    "short", "wrong seed length", "wrong cycle"])
def test_serve_exits_2_on_a_hostile_pa_seed(seed_frame):
    from noisepad.protocol import SessionParams, _check, pa_seed_bytes
    from noisepad.transport import MessageType, handshake, pack_keyblock
    server = ServeProc("--seed", "1", "--k0-seed", "9", "--k0-bits", "1024")
    ch = _raw_client(server.port)
    try:
        handshake(ch, "A", SessionParams(1e4, 2.0 ** -30, 40, 1024).hello())
        ch.send(MessageType.KEYBLOCK,
                pack_keyblock(1, np.zeros(1024, dtype=np.uint64), 40))
        cycle, seed = 1, bytes(pa_seed_bytes(1024))
        if seed_frame == "wrong seed length":
            seed += b"\x00"
        if seed_frame == "wrong cycle":
            cycle = 2
        payload = struct.pack(">IB", cycle, 0) + _check(np.zeros(8, np.uint8)) + seed
        ch.send(MessageType.PA_SEED, payload[:5] if seed_frame == "short" else payload)
        code, out, err = server.finish()
    finally:
        ch.close()
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith("session failed: PA_SEED")


def test_serve_refuses_a_version_1_hello_and_keeps_k0():
    from noisepad.errors import ChannelError
    from noisepad.protocol import SessionParams
    from noisepad.transport import MessageType, frame_encode, pack_hello
    server = ServeProc("--seed", "100", "--k0-seed", "9", "--k0-bits", "1024",
                       once=False)
    try:
        ch = _raw_client(server.port)
        hello = bytearray(frame_encode(MessageType.HELLO, pack_hello(
            SessionParams(1e4, 2.0 ** -30, 40, 1024).hello())))
        hello[4] = 0x01
        ch._sock.sendall(bytes(hello))
        with pytest.raises(ChannelError):   # closed: no KEYBLOCK follows
            ch.recv()
        ch.close()
        # no block went out under K0, so it still serves one session
        res = run_cli("connect", "--addr", f"127.0.0.1:{server.port}",
                      "--seed", "200", "--k0-seed", "9", "--cycles", "1")
    finally:
        server.proc.kill()
        _, _, err = server.finish()
    assert res.returncode == 0
    assert "session failed: unsupported version 0x01" in err
