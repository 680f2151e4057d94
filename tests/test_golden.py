"""Golden wire: fixed-seed sessions must keep every byte role A sends.

The digests pin role A's frames and its delivered keys for five in-process
sessions (three at R = 40, one each at R = 16 and R = 56), so any change to
a kernel (noise, modulation, packing, decoding, reconciliation, PA, tags)
that alters one byte fails here.  The largest
block, two full 2^15-symbol chunks and a 17-symbol tail, pins the chunk
seams of send_block and recover_block.  The values
were re-pinned when the PA seed moved onto the wire (every key changed);
the PA they pin is checked bit for bit against the dense and slice-loop
reference products in test_protocol.
"""

import hashlib
import struct

import numpy as np
import pytest

from noisepad import transport
from noisepad.protocol import SessionParams, simulate_session
from noisepad.transport import MessageType, pack_keyblock, unpack_keyblock

R = 40


class _RoleAEnd(transport.PeerChannel):
    """Role A's end of simulate_session: hashes the frames it sends.

    The symbols listed in `slips` (by index in A's KEYBLOCK number
    `slip_block`, counted from 0) get a pi phase slip before the frame is
    sent; the hash covers each frame's bytes as a socket would carry them.
    """

    slips: tuple = ()
    slip_block: int = 0
    r: int = R
    opened: list = []

    def __init__(self, peer_core):
        self.frames = hashlib.sha256()
        self.keyblocks = 0
        self.opened.append(self)
        super().__init__(peer_core)

    def send(self, msg_type, payload=b""):
        if msg_type == MessageType.KEYBLOCK:
            if self.keyblocks == self.slip_block and self.slips:
                cycle, levels = unpack_keyblock(payload, self.r)
                for i in self.slips:
                    levels[i] = (int(levels[i]) + (1 << (self.r - 1))) % (1 << self.r)
                payload = pack_keyblock(cycle, levels, self.r)
            self.keyblocks += 1
        super().send(msg_type, payload)

    def _send(self, msg_type, payload):
        self.frames.update(transport.frame_encode(msg_type, payload))
        super()._send(msg_type, payload)


def _keys_sha256(chain) -> str:
    keys = hashlib.sha256()
    for key in chain.keys[1:]:
        keys.update(struct.pack(">I", len(key.bits)))
        keys.update(np.packbits(key.bits).tobytes())
    return keys.hexdigest()


@pytest.mark.parametrize("n, cycles, slips, frames_sha, keys_sha", [
    (1024, 3, (),
     "29aa01caa79ac785eed5993dc4d4923a6f5f64aecbae8e9bae7bcd180cbfc471",
     "1044d5455390561e6406a6ac7494dd064e75ce2268cba5723c093fa2c5d28efa"),
    (4096, 2, (1234,),
     "4d0b812cbd4aa40bb63240de5b21631767b5722a5c0450ab5b9b39037a858451",
     "6937f37f359a26847bc8af00e0e5224b77e3f782dd4433d99470dff4df90022f"),
    (2 * 2 ** 15 + 17, 2, (40000,),
     "3c3606c527b7a8fc458be11285c690ca73990923baf24dcfa4d4d837d52a2685",
     "b9e5d6b57d6aef41c2bb074edbc27fafbcca4f128d0c097f17c72158aa5128a2"),
], ids=["1k-3-cycles", "4k-2-cycles-one-slip", "64k+17-2-cycles-one-slip"])
def test_role_a_wire_and_keys_are_pinned(monkeypatch, n, cycles, slips,
                                        frames_sha, keys_sha):
    _check_pinned_session(monkeypatch, SessionParams(1e4, 2.0 ** -30, R, n),
                          cycles, slips, frames_sha, keys_sha)


@pytest.mark.parametrize("r, delta_phi, frames_sha, keys_sha", [
    (16, 2.0 ** -10,
     "b2fa629baabe4eb1da399154996e5adbc7154894ecb9654132686267c912f40b",
     "25fb47d1e076ebb5d1ef93c6dcbc16cb44ab61a83b5f277338e1b6ab892ff71c"),
    (56, 2.0 ** -30,
     "795b361edc1ac6b6ad8acb71dace66be65ec506cde15d0b4b3bfac49f8dcee4e",
     "6937f37f359a26847bc8af00e0e5224b77e3f782dd4433d99470dff4df90022f"),
], ids=["R16-4k-one-slip", "R56-4k-one-slip"])
def test_role_a_wire_and_keys_are_pinned_at_other_widths(
        monkeypatch, r, delta_phi, frames_sha, keys_sha):
    # Two more packed widths, 4 Ki, 2 cycles, one slip: a 2-byte symbol
    # (R = 16) and a 7-byte one (R = 56), packed as fields of 4 + 2 + 1 bytes.
    monkeypatch.setattr(_RoleAEnd, "r", r)
    _check_pinned_session(monkeypatch, SessionParams(1e4, delta_phi, r, 4096),
                          2, (1234,), frames_sha, keys_sha)


def _check_pinned_session(monkeypatch, params, cycles, slips, frames_sha, keys_sha):
    n = params.block_length
    monkeypatch.setattr(_RoleAEnd, "slips", slips)
    monkeypatch.setattr(_RoleAEnd, "opened", [])
    monkeypatch.setattr(transport, "PeerChannel", _RoleAEnd)
    k0 = np.random.default_rng([n, 9]).integers(0, 2, n, dtype=np.uint8)
    res_a, res_b = simulate_session(params, k0, 101, 202, cycles=cycles)
    (end,) = _RoleAEnd.opened
    assert res_a.cycles_completed == cycles and end.keyblocks == cycles
    assert res_a.chain.bits_equal(res_b.chain)
    parity_bits = res_a.ledger.disclosed_parity_bits
    assert parity_bits == 2 * cycles + len(slips) * n.bit_length()
    assert end.frames.hexdigest() == frames_sha
    assert _keys_sha256(res_a.chain) == keys_sha


@pytest.mark.parametrize(
    "n, safety, slip_block, tape_sha, early_stop, ledger, tag_hex", [
        (1200, 400, None,
         "758a88b0813248e062ab35876a58eec19cf2e90704e3f043f06cc1c3d8015aef",
         "privacy amplification would leave -6 bits; a fresh shared seed is required",
         (2.912428844092929e-05, 2),
         "167ad6bc13af4b782812062fa5ec4dac6feb443f7c7ce0fe55304dd5ae2f15aa"),
        (1500, 400, None,
         "400ef9c8feb5fb856e2f0d162badf63fce1e73998248599b72aa1c1773524482",
         "privacy amplification would leave -108 bits; a fresh shared seed is required",
         (4.8015718780991534e-05, 3),
         "cfe40b3dde0bed3b8a24e7518b7d0b9ec99fc7edd0958bd4173b3e0a93f52239"),
        (909, 300, 1,
         "ea18134b58c8ad011280212a10ed38656e2a89d8267212bc9634eb58a0023824",
         "privacy amplification would leave -6 bits; a fresh shared seed is required",
         (2.654420883430042e-05, 12),
         "58d97e20f8ac1290e6605d056e5a2188fe8c725ef22891c980d471edb723ee57"),
    ], ids=["A stops", "B stops", "syndrome stops"])
def test_early_stops_are_pinned(monkeypatch, tmp_path, n, safety, slip_block,
                                tape_sha, early_stop, ledger, tag_hex):
    # The three ways a chain runs out: the tip leaves no key for A's block,
    # or for B's, or a slipped block's 9-bit syndrome exhausts it.  The tape
    # pins every frame both ways, so also who sends CONFIRM first.
    if slip_block is not None:
        monkeypatch.setattr(_RoleAEnd, "slips", (0,))
        monkeypatch.setattr(_RoleAEnd, "slip_block", slip_block)
    monkeypatch.setattr(_RoleAEnd, "opened", [])
    monkeypatch.setattr(transport, "PeerChannel", _RoleAEnd)
    params = SessionParams(1e4, 2.0 ** -30, R, n, safety_bits=safety)
    k0 = np.random.default_rng([n, 9]).integers(0, 2, n, dtype=np.uint8)
    tape = tmp_path / "wire.bin"
    parties = simulate_session(params, k0, 101, 202, cycles=10,
                               transcript_path=tape)
    assert hashlib.sha256(tape.read_bytes()).hexdigest() == tape_sha
    for state in parties:
        assert state.early_stop == early_stop
        assert (state.ledger.statistical_leak,
                state.ledger.disclosed_parity_bits) == ledger
        assert state.confirm_tag.hex() == tag_hex
