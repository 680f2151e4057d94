import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from noisepad.analysis import entropy_leak, min_leak_length, security_point
from noisepad.phys import CoherentStateParams

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
], ids=" ".join)
def test_bad_operator_input_exits_1_without_traceback(args):
    res = run_cli(*args)
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert "error:" in res.stderr.splitlines()[-1]


def test_simulate_progress_and_transcript(tmp_path):
    transcript = tmp_path / "wire.bin"
    progress = tmp_path / "progress.jsonl"
    res = run_cli("simulate", "--seed", "5", "--k0-bits", "512", "--cycles", "3",
                  "--transcript-out", str(transcript),
                  "--progress-out", str(progress))
    assert res.returncode == 0
    records = [json.loads(line) for line in progress.read_text().splitlines()]
    assert [r["cycle"] for r in records] == [1, 2, 3]
    from noisepad.attacker import load_transcripts
    assert len(load_transcripts(transcript, 40)) == 6


def test_attack_basis_report():
    res = run_cli("attack-basis", "--n-avg", "1e4", "--delta-phi-exp", "-6",
                  "--bits", "20000", "--seed", "0")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["symbols_observed"] == 40000
    assert doc["helstrom_floor"] == pytest.approx(0.08018535523830366, rel=1e-9)
    assert doc["helstrom_floor"] <= doc["basis_guess_error_rate"] <= 0.5 + 0.011
    assert abs(doc["bit_guess_error_rate"] - 0.5) < 0.011


def test_attack_kpa_demo():
    res = run_cli("attack-kpa", "--seed", "9", "--k0-bits", "512")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["notes"]["recovered_exact"] is True
    assert doc["recovered_keys"][0]["index"] == 1


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
    doc = json.loads(res.stdout)
    record = tmp_path / "session.json"
    record.write_text(json.dumps({"pa_records": doc["pa_records"]}))
    # the analyst replays the chain from K1; take it from a fresh simulate run
    from noisepad.protocol import SessionParams, simulate_session
    params = SessionParams(1e4, 2.0 ** -30, 40, 512)
    k0 = np.random.default_rng([7, 0]).integers(0, 2, 512, dtype=np.uint8)
    res_a, _ = simulate_session(params, k0, 31, 32, cycles=3)
    k1 = res_a.chain.keys[1].bits
    hexkey = np.packbits(k1).tobytes().hex()
    res = run_cli("attack-chain", "--transcript", str(transcript),
                  "--session-record", str(record),
                  "--known-key-hex", hexkey,
                  "--known-key-bits", str(len(k1)),
                  "--known-key-index", "1",
                  "--delta-phi-exp", "-30", "--resolution-bits", "40")
    assert res.returncode == 0
    doc2 = json.loads(res.stdout)
    got = {k["index"]: k["bits"] for k in doc2["recovered_keys"]}
    for idx in (2, 3, 4, 5, 6):
        want = "".join(map(str, res_a.chain.keys[idx].bits.tolist()))
        assert got[idx] == want


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
