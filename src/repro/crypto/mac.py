"""Message authentication codes.

Implements HMAC-SHA256 from the RFC 2104 construction::

    HMAC(K, m) = H((K' xor opad) || H((K' xor ipad) || m))

rather than delegating to the :mod:`hmac` stdlib module, since the paper's
protocols are specified directly in terms of a MAC primitive and the
reproduction builds its substrates from scratch. The implementation is
validated against the RFC 4231 test vectors in the test suite.

Both hash passes start with a block that depends only on the key, so
:func:`hmac_key_states` builds the padded key blocks with
``bytes.translate`` and caches the two keyed ``sha256`` states per key in
a bounded LRU cache. Each MAC then costs two C-level ``copy()``/
``update()`` rounds. The cache is keyed by an immutable ``bytes`` copy of
the key, so mutating a ``bytearray`` key between calls never reuses a
stale state.

``[m]_K`` in the paper denotes ``m`` together with a MAC over ``m`` under
``K``; the :func:`mac` / :func:`verify_mac` pair provides the truncated MAC
used inside onion reports.
"""

from __future__ import annotations

import functools
import hashlib
from time import perf_counter

from repro.constants import MAC_SIZE
from repro.obs.registry import TIME_BUCKETS, get_registry

_BLOCK_SIZE = 64  # SHA-256 block size in bytes.
#: Byte-wise ``xor 0x36`` / ``xor 0x5c`` as ``bytes.translate`` tables.
_IPAD_TABLE = bytes(byte ^ 0x36 for byte in range(256))
_OPAD_TABLE = bytes(byte ^ 0x5C for byte in range(256))

#: Distinct keys whose keyed states stay cached.
KEY_CACHE_SIZE = 1024

#: (registry, calls counter, seconds histogram) — rebound when the active
#: registry changes so instruments always land in the current one.
_OBS_CACHE = (None, None, None)


def _obs_instruments(registry):
    global _OBS_CACHE
    cached, calls, seconds = _OBS_CACHE
    if cached is not registry:
        calls = registry.counter("crypto.hmac.calls")
        seconds = registry.histogram("crypto.hmac.seconds", buckets=TIME_BUCKETS)
        _OBS_CACHE = (registry, calls, seconds)
    return calls, seconds


@functools.lru_cache(maxsize=KEY_CACHE_SIZE)
def hmac_key_states(key: bytes):
    """Return the ``(inner, outer)`` ``sha256`` states keyed by ``key``.

    ``inner`` has absorbed ``K' xor ipad`` and ``outer`` ``K' xor opad``.
    Callers must ``copy()`` a state before updating it: the objects are
    shared through the cache.
    """
    if len(key) > _BLOCK_SIZE:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_BLOCK_SIZE, b"\x00")
    return (
        hashlib.sha256(key.translate(_IPAD_TABLE)),
        hashlib.sha256(key.translate(_OPAD_TABLE)),
    )


def _hmac_sha256(key: bytes, message: bytes) -> bytes:
    if not isinstance(key, (bytes, bytearray)):
        raise TypeError("key must be bytes")
    if not isinstance(message, (bytes, bytearray)):
        raise TypeError("message must be bytes")
    inner, outer = hmac_key_states(bytes(key))
    inner = inner.copy()
    inner.update(message)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """Return the full 32-byte HMAC-SHA256 of ``message`` under ``key``."""
    registry = get_registry()
    if not registry.enabled:
        return _hmac_sha256(key, message)
    calls, seconds = _obs_instruments(registry)
    start = perf_counter()
    digest = _hmac_sha256(key, message)
    seconds.observe(perf_counter() - start)
    calls.inc()
    return digest


def mac(key: bytes, message: bytes, size: int = MAC_SIZE) -> bytes:
    """Return a ``size``-byte MAC tag over ``message``.

    Truncation of HMAC output is the standard way to trade tag size against
    forgery probability (2^-64 for the default 8-byte tags — far below the
    false-positive rates the protocols tolerate).
    """
    if size <= 0 or size > 32:
        raise ValueError(f"MAC size must be in [1, 32], got {size}")
    return hmac_sha256(key, message)[:size]


def verify_mac(key: bytes, message: bytes, tag: bytes) -> bool:
    """Check ``tag`` against the MAC of ``message`` under ``key``.

    Comparison is constant-time in the tag length to mirror real
    implementations (irrelevant for simulation results, cheap to do right).
    """
    if not tag:
        return False
    expected = mac(key, message, size=len(tag))
    if len(expected) != len(tag):
        return False
    result = 0
    for x, y in zip(expected, tag):
        result |= x ^ y
    return result == 0
