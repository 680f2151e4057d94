"""Golden wire: fixed-seed sessions must keep every byte role A sends.

The digests pin role A's frames and its delivered keys for two in-process
sessions, so any change to a kernel (noise, modulation, packing, decoding,
reconciliation, PA, tags) that alters one byte fails here.  The values
were computed with the slice-loop PA, the byte-strided level packing and
normal() noise that the packed-int kernels replaced, and equal theirs.
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
     "88e93d30bff85429c65b41a4cc12f939fa039661b8bf80bef2e7dae8a5afd16f",
     "1723b2714970b56c7a10cecf6c054e6aaea89f75911cb14d1cb61fa4803fe1cb"),
    (4096, 2, (1234,),
     "978b89b1889ee9586b6c09d649fb324c28c6829eb87ffe689aded407b783b7bb",
     "4ff4c7a9ab381b2c8d94e4db876a8085866834ed514e915b2300498ccf3d81ac"),
])
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
