"""Sig-ack: the asymmetric-cryptography AAI variant of footnote 1.

This is the full-ack protocol with every MAC replaced by a hash-based
signature (:mod:`repro.crypto.wots` / :mod:`repro.crypto.merkle`). It runs
on full-ack's agents — the classes here subclass
:class:`~repro.protocols.fullack.FullAckSource` and the shared onion
forwarder/destination and override only their crypto methods — so the
round is full-ack's and only the signature format is this module's:

* the destination's per-packet ack is a signature over the identifier;
* probe responses are *signature onions* — each node wraps the downstream
  report and signs the whole layer with its Merkle key, so any party
  (not just the source) could audit the report chain — the property
  asymmetric crypto buys;
* each node's signing pool holds ``2^h`` one-time keys; when it runs dry
  the node regenerates a pool and re-registers its root (counted in
  ``key_regenerations`` — an operational cost symmetric protocols don't
  have).

What footnote 1 dismisses, this module quantifies: a single signature is
several KiB (vs. 8-byte MACs) and costs thousands of hash evaluations, so
per-packet acks become more expensive than the data they protect. The
``sig-ack`` registry entry and its bench exist to make that comparison
concrete; detection behavior is identical to full-ack.
"""

from __future__ import annotations

from typing import Dict, List

from repro.crypto.merkle import (
    MerkleSigner,
    MerkleVerifier,
    decode_signature,
    encode_signature,
)
from repro.exceptions import ConfigurationError
from repro.net.packets import AckPacket
from repro.protocols.fullack import FullAckProtocol, FullAckSource
from repro.protocols.onion_common import OnionDestination, OnionForwarder

_HEADER = 2 + 4 + 4  # position, payload length, inner length


class _SignerPool:
    """A node's signing identity with automatic pool regeneration."""

    def __init__(self, seed: bytes, height: int) -> None:
        self._seed = seed
        self._height = height
        self._generation = 0
        self.key_regenerations = 0
        self._signer = self._fresh()
        #: Roots in registration order; verifiers accept any of them
        #: (re-registration is assumed out-of-band and instantaneous).
        self.roots: List[bytes] = [self._signer.public_root]

    def _fresh(self) -> MerkleSigner:
        signer = MerkleSigner(
            self._seed + self._generation.to_bytes(4, "big"), height=self._height
        )
        self._generation += 1
        return signer

    def sign(self, message: bytes) -> bytes:
        if self._signer.exhausted:
            self._signer = self._fresh()
            self.roots.append(self._signer.public_root)
            self.key_regenerations += 1
        return encode_signature(self._signer.sign(message))


class _SigVerifierSet:
    """Source-side verifier accepting a node's registered roots.

    One :meth:`MerkleVerifier.verify` per signature, against the set of
    every root registered so far: the WOTS chains and the authentication
    path are hashed once, whatever the number of pool generations.
    """

    def __init__(self, pool: _SignerPool) -> None:
        self._pool = pool

    def verify(self, message: bytes, blob: bytes) -> bool:
        try:
            signature = decode_signature(blob)
        except ConfigurationError:
            return False
        return MerkleVerifier(self._pool.roots).verify(message, signature)


def _signed_layer(node, payload: bytes, inner: bytes) -> bytes:
    """One signature-onion layer from ``node``: header, payload, inner
    report, then the node's signature over all of it."""
    body = (
        node.position.to_bytes(2, "big")
        + len(payload).to_bytes(4, "big")
        + len(inner).to_bytes(4, "big")
        + payload
        + inner
    )
    return body + node.protocol.pools[node.position].sign(body)


class SigAckSource(FullAckSource):
    """Full-ack source that verifies signatures instead of MACs."""

    ack_fault = "ack_signature_failure"

    def _init_crypto(self) -> None:
        # Signature verifiers only: sig-ack derives no MAC key state.
        self._verifiers = self.protocol.verifiers

    def _ack_valid(self, ack: AckPacket) -> bool:
        dest = self.params.path_length
        return self._verifiers[dest].verify(b"e2e" + ack.identifier, ack.report)

    def _report_depth(self, ack: AckPacket) -> int:
        """Walk the signature onion outside-in; return the effective depth."""
        depth = 0
        expected = 1
        remaining = ack.report
        while remaining:
            if expected > self.params.path_length or len(remaining) < _HEADER:
                break
            position = int.from_bytes(remaining[0:2], "big")
            payload_len = int.from_bytes(remaining[2:6], "big")
            inner_len = int.from_bytes(remaining[6:10], "big")
            if position != expected:
                break
            end = _HEADER + payload_len + inner_len
            if len(remaining) < end:
                break
            payload = remaining[_HEADER : _HEADER + payload_len]
            if payload != ack.identifier:
                break
            if not self._verifiers[position].verify(remaining[:end], remaining[end:]):
                break
            depth = position
            expected += 1
            remaining = remaining[_HEADER + payload_len : end]
        return depth


class SigAckForwarder(OnionForwarder):
    """Full-ack forwarder whose report layers are signed, not MACed."""

    def _originate(self, identifier: bytes) -> bytes:
        return _signed_layer(self, identifier, b"")

    def _wrap(self, identifier: bytes, inner: bytes) -> bytes:
        return _signed_layer(self, identifier, inner)


class SigAckDestination(OnionDestination):
    """Full-ack destination that signs every ack and probe response."""

    def _ack_tag(self, identifier: bytes) -> bytes:
        return self.protocol.pools[self.position].sign(b"e2e" + identifier)

    def _originate(self, identifier: bytes) -> bytes:
        return _signed_layer(self, identifier, b"")


class SigAckProtocol(FullAckProtocol):
    """Wire instance of the footnote-1 asymmetric AAI variant.

    Parameters
    ----------
    pool_height:
        Merkle tree height per signing pool (``2^h`` signatures before a
        regeneration).
    """

    name = "sig-ack"
    #: Draw-identical to full-ack on the wire (signatures consume no
    #: stream draws), so it keeps full-ack's onion-ack fastpath replay.
    agent_classes = (SigAckSource, SigAckForwarder, SigAckDestination)

    def __init__(self, *args, pool_height: int = 6, **kwargs) -> None:
        self._pool_height = pool_height
        self.pools: Dict[int, _SignerPool] = {}
        self.verifiers: Dict[int, _SigVerifierSet] = {}
        super().__init__(*args, **kwargs)

    def _build_nodes(self):
        d = self.params.path_length
        for position in range(1, d + 1):
            pool = _SignerPool(
                self.keys.master_key(position), height=self._pool_height
            )
            self.pools[position] = pool
            self.verifiers[position] = _SigVerifierSet(pool)
        return super()._build_nodes()

    def total_key_regenerations(self) -> int:
        return sum(pool.key_regenerations for pool in self.pools.values())
