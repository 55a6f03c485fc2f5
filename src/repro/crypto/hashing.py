"""Collision-resistant hashing and packet identifiers.

The paper uses ``H(m)``, the hash of a data packet ``m``, as the packet
identifier carried by probes and acks. We use SHA-256: 32-byte identifiers
make accidental collisions irrelevant at simulation scale and the identifier
doubles as a compact dictionary key inside node packet stores.
"""

from __future__ import annotations

import hashlib


def hash_bytes(data: bytes) -> bytes:
    """Return the SHA-256 digest of ``data``.

    This is the collision-resistant hash function ``h`` of §3.2.

    >>> len(hash_bytes(b"packet"))
    32
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError(f"hash input must be bytes, got {type(data).__name__}")
    return hashlib.sha256(bytes(data)).digest()


def packet_identifier(payload: bytes, timestamp: float) -> bytes:
    """Return the identifier ``H(m)`` for a data packet.

    A data packet in the paper is ``m = <data || timestamp>``; both parts
    feed the identifier so a replayed payload with a fresh timestamp maps to
    a new identifier. The timestamp is encoded with fixed width so the
    encoding is injective.

    Parameters
    ----------
    payload:
        The application payload carried by the packet.
    timestamp:
        The source timestamp embedded in the packet (seconds).
    """
    encoded_time = repr(float(timestamp)).encode("ascii")
    # Length-prefix the payload so (payload, timestamp) parsing is unique.
    # The concatenation is bytes (or a TypeError), so it needs no
    # ``hash_bytes`` type check.
    header = len(payload).to_bytes(8, "big")
    return hashlib.sha256(header + bytes(payload) + encoded_time).digest()


def truncate(digest: bytes, size: int) -> bytes:
    """Truncate ``digest`` to ``size`` bytes (for compact wire formats)."""
    if size <= 0 or size > len(digest):
        raise ValueError(f"invalid truncation size {size} for {len(digest)}-byte digest")
    return digest[:size]
