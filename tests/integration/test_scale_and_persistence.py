"""Integration tests for synthetic-signature scaling and serialisation."""

import numpy as np
import pytest

from repro.core.ensemble import LSHEnsemble
from repro.datagen.distributions import power_law_sizes
from repro.minhash.generator import sample_signatures
from repro.minhash.lean import LeanMinHash

NUM_PERM = 64


class TestSyntheticScale:
    """The Figure 9 / Table 4 code path at a CI-friendly scale."""

    @pytest.fixture(scope="class")
    def synthetic_entries(self):
        sizes = power_law_sizes(5000, alpha=2.0, min_size=10,
                                max_size=100_000, seed=8)
        sigs = sample_signatures(sizes, num_perm=NUM_PERM, seed=8)
        return [("s%d" % i, sig, int(size))
                for i, (sig, size) in enumerate(zip(sigs, sizes))]

    def test_bulk_index_and_query(self, synthetic_entries):
        index = LSHEnsemble(num_perm=NUM_PERM, num_partitions=8)
        index.index(synthetic_entries)
        assert len(index) == 5000
        # Self-queries must come back.
        for key, sig, size in synthetic_entries[::1000]:
            assert key in index.query(sig, size=size, threshold=1.0)

    def test_router_scale(self, synthetic_entries, in_process_cluster):
        router, _ = in_process_cluster(
            synthetic_entries, 5,
            lambda: LSHEnsemble(num_perm=NUM_PERM, num_partitions=8))
        with router:
            assert len(router) == 5000
            key, sig, size = synthetic_entries[123]
            assert key in router.query(sig, size=size, threshold=1.0)

    def test_query_cost_grows_sublinearly_with_candidates(
            self, synthetic_entries):
        """Candidate sets stay far below corpus size at high threshold."""
        index = LSHEnsemble(num_perm=NUM_PERM, num_partitions=16)
        index.index(synthetic_entries)
        key, sig, size = synthetic_entries[42]
        found = index.query(sig, size=size, threshold=0.9)
        assert len(found) < len(synthetic_entries) * 0.5


class TestSerialisationRoundtrip:
    def test_index_rebuild_from_serialized_signatures(self):
        """Signatures survive a serialise/deserialise cycle bit-exactly, so
        a rebuilt index answers identically."""
        rng = np.random.default_rng(4)
        entries = []
        for i in range(200):
            size = int(rng.integers(10, 500))
            values = ["p%d_%d" % (i, j) for j in range(size)]
            from repro.minhash.minhash import MinHash

            sig = LeanMinHash(MinHash.from_values(values,
                                                  num_perm=NUM_PERM))
            entries.append(("k%d" % i, sig, size))

        blobs = [(key, sig.serialize(), size) for key, sig, size in entries]
        restored = [(key, LeanMinHash.deserialize(blob), size)
                    for key, blob, size in blobs]

        original = LSHEnsemble(num_perm=NUM_PERM, num_partitions=4)
        original.index(entries)
        rebuilt = LSHEnsemble(num_perm=NUM_PERM, num_partitions=4)
        rebuilt.index(restored)

        for key, sig, size in entries[::23]:
            assert original.query(sig, size=size, threshold=0.7) == \
                rebuilt.query(sig, size=size, threshold=0.7)
