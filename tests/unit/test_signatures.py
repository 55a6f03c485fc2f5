"""Tests for the hash-based signature substrate (WOTS + Merkle)."""

import pytest

from repro.crypto.hashing import hash_bytes
from repro.crypto.merkle import (
    MerkleSignature,
    MerkleSigner,
    MerkleTree,
    MerkleVerifier,
)
from repro.crypto.wots import (
    DIGEST_BYTES,
    WotsParams,
    WotsPrivateKey,
    WotsPublicKey,
    _chain,
)
from repro.exceptions import ConfigurationError


class TestWotsParams:
    @pytest.mark.parametrize("w,digits", [(1, 256), (2, 128), (4, 64), (8, 32)])
    def test_message_digits(self, w, digits):
        assert WotsParams(w).message_digits == digits

    def test_checksum_digit_count_covers_maximum(self):
        params = WotsParams(4)
        max_checksum = params.message_digits * (params.base - 1)
        assert params.base ** params.checksum_digits > max_checksum

    def test_invalid_w(self):
        with pytest.raises(ConfigurationError):
            WotsParams(3)

    def test_signature_size(self):
        params = WotsParams(4)
        assert params.signature_bytes == params.total_digits * 32


class TestWotsSignatures:
    def test_sign_verify_roundtrip(self):
        private = WotsPrivateKey(b"seed-1")
        public = private.public_key()
        digest = hash_bytes(b"message")
        signature = private.sign(digest)
        assert public.verify(digest, signature)

    def test_rejects_other_digest(self):
        private = WotsPrivateKey(b"seed-2")
        public = private.public_key()
        signature = private.sign(hash_bytes(b"message-a"))
        assert not public.verify(hash_bytes(b"message-b"), signature)

    def test_rejects_tampered_signature(self):
        private = WotsPrivateKey(b"seed-3")
        public = private.public_key()
        digest = hash_bytes(b"message")
        signature = private.sign(digest)
        tampered = list(signature)
        tampered[0] = bytes(32)
        assert not public.verify(digest, tampered)

    def test_one_time_enforced(self):
        private = WotsPrivateKey(b"seed-4")
        private.sign(hash_bytes(b"first"))
        with pytest.raises(ConfigurationError):
            private.sign(hash_bytes(b"second"))

    def test_wrong_digest_length(self):
        private = WotsPrivateKey(b"seed-5")
        with pytest.raises(ConfigurationError):
            private.sign(b"short")
        public = private.public_key()
        assert not public.verify(b"short", [])

    def test_wrong_signature_length(self):
        private = WotsPrivateKey(b"seed-6")
        public = private.public_key()
        digest = hash_bytes(b"m")
        signature = private.sign(digest)
        assert not public.verify(digest, signature[:-1])

    def test_chain_advance_forgery_fails(self):
        """Hashing signature elements forward (the only computable
        direction) must not yield a valid signature for another digest:
        the checksum guarantees some digit must *decrease*."""
        params = WotsParams(4)
        private = WotsPrivateKey(b"seed-7", params)
        public = private.public_key()
        digest = hash_bytes(b"target")
        signature = private.sign(digest)
        advanced = [hash_bytes(element) for element in signature]
        for other in (b"other-1", b"other-2", b"other-3"):
            assert not public.verify(hash_bytes(other), advanced)

    def test_non_bytes_signature_element_rejected(self):
        private = WotsPrivateKey(b"seed-9")
        public = private.public_key()
        digest = hash_bytes(b"m")
        signature = private.sign(digest)
        as_text = [element.hex()[:DIGEST_BYTES] for element in signature]
        assert not public.verify(digest, as_text)

    def test_chain_type_checks_its_input(self):
        with pytest.raises(TypeError):
            _chain("x" * DIGEST_BYTES, 3)

    def test_chain_of_zero_steps_is_identity(self):
        value = hash_bytes(b"start")
        assert _chain(value, 0) == value

    def test_chain_matches_repeated_hashing(self):
        value = bytearray(hash_bytes(b"start"))
        expected = bytes(value)
        for _ in range(15):
            expected = hash_bytes(expected)
        assert _chain(value, 15) == expected

    def test_encode_decode_roundtrip(self):
        public = WotsPrivateKey(b"seed-8").public_key()
        decoded = WotsPublicKey.decode(public.encode())
        assert decoded.tops == public.tops

    def test_decode_validation(self):
        with pytest.raises(ConfigurationError):
            WotsPublicKey.decode(b"short")


class TestMerkleTree:
    def test_root_changes_with_any_leaf(self):
        leaves = [bytes([i]) * 8 for i in range(8)]
        baseline = MerkleTree(leaves).root
        for index in range(8):
            mutated = list(leaves)
            mutated[index] = b"x" * 8
            assert MerkleTree(mutated).root != baseline

    @pytest.mark.parametrize("count", [1, 2, 4, 16])
    def test_auth_paths_verify(self, count):
        leaves = [bytes([i]) * 4 for i in range(count)]
        tree = MerkleTree(leaves)
        for index, leaf in enumerate(leaves):
            path = tree.auth_path(index)
            assert len(path) == tree.height
            assert MerkleTree.verify_path(leaf, index, path, tree.root)

    def test_wrong_leaf_rejected(self):
        leaves = [bytes([i]) for i in range(4)]
        tree = MerkleTree(leaves)
        path = tree.auth_path(2)
        assert not MerkleTree.verify_path(b"wrong", 2, path, tree.root)

    def test_wrong_index_rejected(self):
        leaves = [bytes([i]) for i in range(4)]
        tree = MerkleTree(leaves)
        path = tree.auth_path(2)
        assert not MerkleTree.verify_path(leaves[2], 1, path, tree.root)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError):
            MerkleTree([b"a", b"b", b"c"])
        with pytest.raises(ConfigurationError):
            MerkleTree([])

    def test_index_bounds(self):
        tree = MerkleTree([b"a", b"b"])
        with pytest.raises(ConfigurationError):
            tree.auth_path(2)


class TestMerkleSigner:
    def test_sign_verify_many(self):
        signer = MerkleSigner(b"node-seed", height=3)
        verifier = MerkleVerifier(signer.public_root)
        for index in range(8):
            message = b"report-%d" % index
            signature = signer.sign(message)
            assert signature.index == index
            assert verifier.verify(message, signature)

    def test_exhaustion(self):
        signer = MerkleSigner(b"node-seed", height=1)
        signer.sign(b"a")
        signer.sign(b"b")
        assert signer.exhausted
        with pytest.raises(ConfigurationError):
            signer.sign(b"c")

    def test_remaining_countdown(self):
        signer = MerkleSigner(b"node-seed", height=2)
        assert signer.remaining == 4
        signer.sign(b"x")
        assert signer.remaining == 3

    def test_cross_message_rejection(self):
        signer = MerkleSigner(b"node-seed", height=2)
        verifier = MerkleVerifier(signer.public_root)
        signature = signer.sign(b"honest")
        assert not verifier.verify(b"forged", signature)

    def test_cross_signer_rejection(self):
        signer_a = MerkleSigner(b"seed-a", height=2)
        signer_b = MerkleSigner(b"seed-b", height=2)
        verifier_a = MerkleVerifier(signer_a.public_root)
        signature = signer_b.sign(b"message")
        assert not verifier_a.verify(b"message", signature)

    def test_auth_path_splice_rejected(self):
        """A valid WOTS signature under a key NOT in the tree must fail
        the Merkle proof."""
        signer = MerkleSigner(b"seed-c", height=2)
        verifier = MerkleVerifier(signer.public_root)
        outsider = MerkleSigner(b"seed-d", height=2)
        stolen = outsider.sign(b"message")
        # Graft the insider's auth path onto the outsider's signature.
        insider = signer.sign(b"message")
        spliced = MerkleSignature(
            index=insider.index,
            wots_signature=stolen.wots_signature,
            wots_public=stolen.wots_public,
            auth_path=insider.auth_path,
        )
        assert not verifier.verify(b"message", spliced)

    def test_signature_size_reported(self):
        signer = MerkleSigner(b"seed-e", height=4)
        signature = signer.sign(b"m")
        params = WotsParams()
        expected = 4 + params.signature_bytes + params.total_digits * 32 + 4 * 32
        assert signature.size_bytes == expected
        # Multi-KiB signatures: footnote 1's dismissal, quantified.
        assert signature.size_bytes > 4000

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MerkleSigner(b"s", height=0)
        with pytest.raises(ConfigurationError):
            MerkleVerifier(b"short-root")


class TestCompactPool:
    def test_same_seed_signers_agree_and_stay_independent(self):
        first = MerkleSigner(b"twin-seed", height=2)
        second = MerkleSigner(b"twin-seed", height=2)
        assert first.public_root == second.public_root
        signatures = [first.sign(b"m%d" % index) for index in range(3)]
        # Signing with one signer does not advance the other.
        assert second.remaining == 4
        for index, signature in enumerate(signatures):
            assert second.sign(b"m%d" % index) == signature

    def test_exhaustion_after_compact_storage(self):
        signer = MerkleSigner(b"small-seed", height=1)
        verifier = MerkleVerifier(signer.public_root)
        assert verifier.verify(b"a", signer.sign(b"a"))
        assert verifier.verify(b"b", signer.sign(b"b"))
        with pytest.raises(ConfigurationError):
            signer.sign(b"c")

    def test_from_starts_round_trip(self):
        digest = hash_bytes(b"message")
        private = WotsPrivateKey(b"seed-11")
        rebuilt = WotsPrivateKey.from_starts(private.encode_starts())
        assert rebuilt.public_key().encode() == private.public_key().encode()
        assert rebuilt.sign(digest) == private.sign(digest)
        # The one-time guard holds on a rebuilt key too.
        with pytest.raises(ConfigurationError):
            rebuilt.sign(digest)

    def test_from_starts_rejects_wrong_length(self):
        blob = WotsPrivateKey(b"seed-12").encode_starts()
        for bad in (blob[:-1], blob + b"\x00", b""):
            with pytest.raises(ConfigurationError):
                WotsPrivateKey.from_starts(bad)


class TestVerifierRootSet:
    def _signatures(self):
        signer = MerkleSigner(b"set-seed", height=2)
        outsider = MerkleSigner(b"other-seed", height=2)
        messages = [b"a", b"b", b"c"]
        signed = [(message, signer.sign(message)) for message in messages]
        signed.append((b"d", outsider.sign(b"d")))
        signed.append((b"forged", signer.sign(b"e")))
        return signer.public_root, outsider.public_root, signed

    def test_root_set_agrees_with_single_root(self):
        root, other, signed = self._signatures()
        for roots in ({root}, [root, other], (other, root)):
            as_set = MerkleVerifier(roots)
            for message, signature in signed:
                expected = any(
                    MerkleVerifier(single).verify(message, signature)
                    for single in roots
                )
                assert as_set.verify(message, signature) == expected
        # Both outcomes occur: the agreement is not vacuous.
        outcomes = {MerkleVerifier(root).verify(m, s) for m, s in signed}
        assert outcomes == {True, False}

    def test_empty_set_rejects(self):
        root, _, signed = self._signatures()
        assert MerkleVerifier(root).verify(*signed[0])
        empty = MerkleVerifier(set())
        for message, signature in signed:
            assert not empty.verify(message, signature)

    def test_short_root_in_set_raises(self):
        root, _, _ = self._signatures()
        with pytest.raises(ConfigurationError):
            MerkleVerifier({root, b"\x00" * 31})
        with pytest.raises(ConfigurationError):
            MerkleVerifier(b"\x00" * 31)

    def test_verify_path_with_root_collection(self):
        leaves = [b"l%d" % index for index in range(4)]
        tree = MerkleTree(leaves)
        path = tree.auth_path(1)
        assert MerkleTree.verify_path(leaves[1], 1, path, {tree.root})
        assert MerkleTree.verify_path(leaves[1], 1, path, [b"\x00" * 32, tree.root])
        assert not MerkleTree.verify_path(leaves[1], 1, path, [b"\x00" * 32])
        assert not MerkleTree.verify_path(leaves[1], 1, path, ())
