"""Winternitz one-time signatures (WOTS), from scratch.

Footnote 1 of the paper mentions a "fairly simple AAI protocol that
employs asymmetric key cryptography", dismissed for its per-packet
computation and communication cost. To reproduce that variant without any
external crypto dependency we build signatures from the only primitive the
rest of the stack already trusts: a hash function.

WOTS signs a fixed-size digest by revealing intermediate values of hash
chains:

* private key: ``L`` random 32-byte starting points (derived from a seed);
* public key: each start hashed forward ``2^w - 1`` times;
* signature: chain values at depths given by the message digits (base
  ``2^w``) plus a checksum that prevents digit-increase forgeries;
* verification: hash each signature element forward the *remaining*
  distance and compare with the public key.

Security rests on preimage resistance: producing a signature for a digest
with any digit *smaller* than a seen one requires inverting the chain, and
the checksum digits move oppositely so some digit always shrinks. Each key
signs exactly one message — :mod:`repro.crypto.merkle` lifts this to a
many-time scheme.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Sequence

from repro.crypto.hashing import hash_bytes
from repro.crypto.prf import PRF
from repro.exceptions import ConfigurationError

#: Digest length signed by a WOTS key (SHA-256).
DIGEST_BYTES = 32


@dataclass(frozen=True)
class WotsParams:
    """WOTS parameterization.

    ``w`` is the Winternitz log-width: digits are in ``[0, 2^w)``. Larger
    ``w`` shrinks signatures but costs exponentially more hashing —
    exactly the compute/size trade-off footnote 1 alludes to.
    """

    w: int = 4

    def __post_init__(self) -> None:
        if self.w not in (1, 2, 4, 8):
            raise ConfigurationError("w must be one of 1, 2, 4, 8")

    @property
    def base(self) -> int:
        return 1 << self.w

    @property
    def message_digits(self) -> int:
        return (DIGEST_BYTES * 8) // self.w

    @property
    def checksum_digits(self) -> int:
        max_checksum = self.message_digits * (self.base - 1)
        digits = 0
        while max_checksum > 0:
            digits += 1
            max_checksum //= self.base
        return digits

    @property
    def total_digits(self) -> int:
        return self.message_digits + self.checksum_digits

    @property
    def signature_bytes(self) -> int:
        return self.total_digits * DIGEST_BYTES


def _digits(params: WotsParams, digest: bytes) -> List[int]:
    """Message digits plus checksum digits, base ``2^w``."""
    base = params.base
    value = int.from_bytes(digest, "big")
    digits = []
    for _ in range(params.message_digits):
        digits.append(value % base)
        value //= base
    checksum = sum(base - 1 - digit for digit in digits)
    for _ in range(params.checksum_digits):
        digits.append(checksum % base)
        checksum //= base
    return digits


def _chain(value: bytes, steps: int) -> bytes:
    """Hash ``value`` forward ``steps`` times; only the first step, on
    caller input, needs :func:`hash_bytes`'s type check."""
    if steps <= 0:
        return value
    value = hash_bytes(value)
    for _ in range(steps - 1):
        value = hashlib.sha256(value).digest()
    return value


def _split(blob: bytes, params: WotsParams, what: str) -> List[bytes]:
    """Cut a joined ``total_digits`` x 32-byte blob back into its elements."""
    expected = params.total_digits * DIGEST_BYTES
    if len(blob) != expected:
        raise ConfigurationError(
            f"{what} blob must be {expected} bytes, got {len(blob)}"
        )
    return [
        blob[index : index + DIGEST_BYTES]
        for index in range(0, expected, DIGEST_BYTES)
    ]


class WotsPrivateKey:
    """One-time private key; refuses to sign twice."""

    def __init__(self, seed: bytes, params: WotsParams = WotsParams()) -> None:
        self.params = params
        prf = PRF(seed, label="wots-keygen")
        self._starts: List[bytes] = [
            prf.digest(index.to_bytes(4, "big"))
            for index in range(params.total_digits)
        ]
        self._used = False

    @classmethod
    def from_starts(
        cls, blob: bytes, params: WotsParams = WotsParams()
    ) -> "WotsPrivateKey":
        """Rebuild an unused key from :meth:`encode_starts` output, so a
        key pool can hold each key as one ``bytes`` object."""
        key = cls.__new__(cls)
        key.params = params
        key._starts = _split(blob, params, "chain-start")
        key._used = False
        return key

    def encode_starts(self) -> bytes:
        """The chain starts, joined (the inverse of :meth:`from_starts`)."""
        return b"".join(self._starts)

    def public_key(self) -> "WotsPublicKey":
        tops = [
            _chain(start, self.params.base - 1) for start in self._starts
        ]
        return WotsPublicKey(tops, self.params)

    def sign(self, digest: bytes) -> List[bytes]:
        """Sign a 32-byte digest; one-time use enforced."""
        if len(digest) != DIGEST_BYTES:
            raise ConfigurationError("WOTS signs exactly 32-byte digests")
        if self._used:
            raise ConfigurationError(
                "one-time key reused: this leaks enough chain values to forge"
            )
        self._used = True
        return [
            _chain(start, digit)
            for start, digit in zip(self._starts, _digits(self.params, digest))
        ]


class WotsPublicKey:
    """Verifier half of a WOTS key."""

    def __init__(self, tops: Sequence[bytes], params: WotsParams = WotsParams()) -> None:
        if len(tops) != params.total_digits:
            raise ConfigurationError(
                f"expected {params.total_digits} chain tops, got {len(tops)}"
            )
        self.params = params
        self.tops = list(tops)

    def verify(self, digest: bytes, signature: Sequence[bytes]) -> bool:
        if len(digest) != DIGEST_BYTES:
            return False
        if len(signature) != self.params.total_digits:
            return False
        top_digit = self.params.base - 1
        for element, digit, top in zip(
            signature, _digits(self.params, digest), self.tops
        ):
            if not isinstance(element, (bytes, bytearray)) or len(element) != DIGEST_BYTES:
                return False
            if _chain(bytes(element), top_digit - digit) != top:
                return False
        return True

    def encode(self) -> bytes:
        """Serialize (for embedding in Merkle leaves and wire messages)."""
        return b"".join(self.tops)

    @classmethod
    def decode(cls, blob: bytes, params: WotsParams = WotsParams()) -> "WotsPublicKey":
        return cls(_split(blob, params, "public key"), params)
