"""Golden wire: fixed-seed sessions must keep every byte role A sends.

The digests pin role A's frames and its delivered keys for two in-process
sessions, so any change to a kernel (noise, modulation, packing, decoding,
reconciliation, PA, tags) that alters one byte fails here.  The values
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

    The symbols listed in `slips` (by index in A's first KEYBLOCK) get a
    pi phase slip before the frame is encoded.
    """

    slips: tuple = ()
    opened: list = []

    def __init__(self, peer_core):
        self.frames = hashlib.sha256()
        self.keyblocks = 0
        self.opened.append(self)
        super().__init__(peer_core)

    def send(self, msg_type, payload=b""):
        if msg_type == MessageType.KEYBLOCK:
            if self.keyblocks == 0 and self.slips:
                cycle, levels = unpack_keyblock(payload, R)
                for i in self.slips:
                    levels[i] = (int(levels[i]) + (1 << (R - 1))) % (1 << R)
                payload = pack_keyblock(cycle, levels, R)
            self.keyblocks += 1
        super().send(msg_type, payload)

    def _send_frame(self, frame):
        self.frames.update(frame)
        super()._send_frame(frame)


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
], ids=["1k-3-cycles", "4k-2-cycles-one-slip"])
def test_role_a_wire_and_keys_are_pinned(monkeypatch, n, cycles, slips,
                                        frames_sha, keys_sha):
    monkeypatch.setattr(_RoleAEnd, "slips", slips)
    monkeypatch.setattr(_RoleAEnd, "opened", [])
    monkeypatch.setattr(transport, "PeerChannel", _RoleAEnd)
    params = SessionParams(1e4, 2.0 ** -30, R, n)
    k0 = np.random.default_rng([n, 9]).integers(0, 2, n, dtype=np.uint8)
    res_a, res_b = simulate_session(params, k0, 101, 202, cycles=cycles)
    (end,) = _RoleAEnd.opened
    assert res_a.cycles_completed == cycles and end.keyblocks == cycles
    assert res_a.chain.bits_equal(res_b.chain)
    parity_bits = res_a.ledger.disclosed_parity_bits
    assert parity_bits == 2 * cycles + len(slips) * n.bit_length()
    assert end.frames.hexdigest() == frames_sha
    assert _keys_sha256(res_a.chain) == keys_sha
