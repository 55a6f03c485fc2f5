"""Merkle trees and a many-time hash-based signer.

Lifts the one-time WOTS scheme of :mod:`repro.crypto.wots` into a
many-time signature scheme (an XMSS-style construction, simplified):

* a signer pre-generates ``2^h`` one-time keys from a seed and publishes
  only the Merkle root over their public keys — the node's long-term
  public identity;
* signature ``i`` consists of the WOTS signature, the one-time public
  key, and the authentication path proving that key is leaf ``i``;
* a verifier checks the WOTS signature, then hashes the leaf up the
  authentication path and accepts if the result is a registered root.

A signer stores each one-time key as two ``bytes`` objects (joined chain
starts, encoded public key) and rebuilds its private key only to sign. A
verifier with several roots (one per regenerated pool) hashes a signature
once and tests the resulting root for membership, so its cost does not
grow with the number of roots.

The sizes this produces (a few KiB per signature) against the 8-byte MACs
of the symmetric protocols are the quantitative form of footnote 1's
dismissal of asymmetric AAI — measured by the sig-ack protocol and its
bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, List, Sequence, Union

from repro.crypto.hashing import hash_bytes
from repro.crypto.prf import PRF
from repro.crypto.wots import (
    DIGEST_BYTES,
    WotsParams,
    WotsPrivateKey,
    WotsPublicKey,
)
from repro.exceptions import ConfigurationError

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def _leaf_hash(data: bytes) -> bytes:
    return hash_bytes(_LEAF_PREFIX + data)


def _node_hash(left: bytes, right: bytes) -> bytes:
    return hash_bytes(_NODE_PREFIX + left + right)


class MerkleTree:
    """A complete binary Merkle tree over ``2^h`` leaves."""

    def __init__(self, leaves: Sequence[bytes]) -> None:
        count = len(leaves)
        if count == 0 or count & (count - 1):
            raise ConfigurationError("leaf count must be a power of two")
        self._levels: List[List[bytes]] = [[_leaf_hash(leaf) for leaf in leaves]]
        while len(self._levels[-1]) > 1:
            below = self._levels[-1]
            self._levels.append(
                [
                    _node_hash(below[i], below[i + 1])
                    for i in range(0, len(below), 2)
                ]
            )

    @property
    def root(self) -> bytes:
        return self._levels[-1][0]

    @property
    def height(self) -> int:
        return len(self._levels) - 1

    def auth_path(self, index: int) -> List[bytes]:
        """Sibling hashes from leaf ``index`` up to (not including) the root."""
        if not 0 <= index < len(self._levels[0]):
            raise ConfigurationError(f"leaf index {index} out of range")
        path = []
        for level in self._levels[:-1]:
            path.append(level[index ^ 1])
            index //= 2
        return path

    @staticmethod
    def verify_path(
        leaf: bytes,
        index: int,
        path: Sequence[bytes],
        roots: Union[bytes, Collection[bytes]],
    ) -> bool:
        """Whether ``path`` hashes leaf ``index`` up to ``roots`` (one
        root, or any member of a collection of roots)."""
        if isinstance(roots, (bytes, bytearray)):
            roots = (roots,)
        node = _leaf_hash(leaf)
        for sibling in path:
            if not isinstance(sibling, (bytes, bytearray)) or len(sibling) != DIGEST_BYTES:
                return False
            if index % 2 == 0:
                node = _node_hash(node, bytes(sibling))
            else:
                node = _node_hash(bytes(sibling), node)
            index //= 2
        return index == 0 and node in roots


@dataclass
class MerkleSignature:
    """One many-time signature: WOTS sig + its public key + Merkle proof."""

    index: int
    wots_signature: List[bytes]
    wots_public: bytes  # encoded WotsPublicKey
    auth_path: List[bytes]

    @property
    def size_bytes(self) -> int:
        """Wire size: what the sig-ack protocol pays per report layer."""
        return (
            4
            + sum(len(element) for element in self.wots_signature)
            + len(self.wots_public)
            + sum(len(node) for node in self.auth_path)
        )


class MerkleSigner:
    """A node's many-time signing identity.

    Parameters
    ----------
    seed:
        Secret seed; all one-time keys derive from it.
    height:
        Tree height ``h``: the signer can produce ``2^h`` signatures
        before :meth:`exhausted` (the AAI protocol regenerates a new pool
        and re-registers the root — a real operational cost this
        reproduction surfaces in its overhead accounting).
    """

    def __init__(
        self, seed: bytes, height: int = 6, params: WotsParams = WotsParams()
    ) -> None:
        if not 1 <= height <= 16:
            raise ConfigurationError("height must be in [1, 16]")
        self.params = params
        self.height = height
        count = 1 << height
        prf = PRF(seed, label="merkle-keygen")
        #: Per one-time key: its joined chain starts and its encoded
        #: public key (two ``bytes`` objects instead of 134 small ones).
        self._starts: List[bytes] = []
        self._publics: List[bytes] = []
        for index in range(count):
            private = WotsPrivateKey(prf.digest(index.to_bytes(4, "big")), params)
            self._starts.append(private.encode_starts())
            self._publics.append(private.public_key().encode())
        self._tree = MerkleTree(self._publics)
        self._next = 0

    @property
    def public_root(self) -> bytes:
        """The long-term public key to register with verifiers."""
        return self._tree.root

    @property
    def remaining(self) -> int:
        return (1 << self.height) - self._next

    @property
    def exhausted(self) -> bool:
        return self.remaining == 0

    def sign(self, message: bytes) -> MerkleSignature:
        """Sign an arbitrary message (hashed internally)."""
        if self.exhausted:
            raise ConfigurationError(
                "key pool exhausted: generate a new signer and re-register"
            )
        index = self._next
        self._next += 1
        digest = hash_bytes(message)
        private = WotsPrivateKey.from_starts(self._starts[index], self.params)
        return MerkleSignature(
            index=index,
            wots_signature=private.sign(digest),
            wots_public=self._publics[index],
            auth_path=self._tree.auth_path(index),
        )


def encode_signature(signature: MerkleSignature) -> bytes:
    """Serialize a signature for the wire.

    Layout: index(4) || path_len(1) || wots_sig || wots_pub || auth_path,
    with all hash elements 32 bytes.
    """
    return (
        signature.index.to_bytes(4, "big")
        + len(signature.auth_path).to_bytes(1, "big")
        + b"".join(signature.wots_signature)
        + signature.wots_public
        + b"".join(signature.auth_path)
    )


def decode_signature(
    blob: bytes, params: WotsParams = WotsParams()
) -> MerkleSignature:
    """Inverse of :func:`encode_signature`.

    Raises :class:`ConfigurationError` on structural mismatch (the AAI
    layer treats that as an invalid signature).
    """
    if len(blob) < 5:
        raise ConfigurationError("signature blob too short")
    index = int.from_bytes(blob[:4], "big")
    path_len = blob[4]
    sig_elements = params.total_digits
    expected = 5 + (2 * sig_elements + path_len) * DIGEST_BYTES
    if len(blob) != expected:
        raise ConfigurationError(
            f"signature blob must be {expected} bytes, got {len(blob)}"
        )
    cursor = 5
    wots_signature = []
    for _ in range(sig_elements):
        wots_signature.append(blob[cursor : cursor + DIGEST_BYTES])
        cursor += DIGEST_BYTES
    wots_public = blob[cursor : cursor + sig_elements * DIGEST_BYTES]
    cursor += sig_elements * DIGEST_BYTES
    auth_path = []
    for _ in range(path_len):
        auth_path.append(blob[cursor : cursor + DIGEST_BYTES])
        cursor += DIGEST_BYTES
    return MerkleSignature(
        index=index,
        wots_signature=wots_signature,
        wots_public=wots_public,
        auth_path=auth_path,
    )


class MerkleVerifier:
    """Verifies signatures against one registered root or a collection of
    them; an empty collection rejects every signature."""

    def __init__(
        self,
        roots: Union[bytes, Collection[bytes]],
        params: WotsParams = WotsParams(),
    ) -> None:
        if isinstance(roots, (bytes, bytearray)):
            roots = (roots,)
        self.roots = frozenset(bytes(root) for root in roots)
        if any(len(root) != DIGEST_BYTES for root in self.roots):
            raise ConfigurationError("root must be a 32-byte digest")
        self.params = params

    def verify(self, message: bytes, signature: MerkleSignature) -> bool:
        if not self.roots:
            return False
        try:
            public = WotsPublicKey.decode(signature.wots_public, self.params)
        except ConfigurationError:
            return False
        if not public.verify(hash_bytes(message), signature.wots_signature):
            return False
        return MerkleTree.verify_path(
            signature.wots_public, signature.index, signature.auth_path, self.roots
        )
