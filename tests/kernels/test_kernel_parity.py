"""Index-level kernel parity: backends are bit-identical, end to end.

The kernel contract (``repro/kernels/base.py``) says backend selection
is purely a performance decision — it can never change a query answer.
This suite pins that across every index shape a kernel touches: the
flat :class:`MinHashLSH`, a dynamic :class:`LSHEnsemble` with live
tombstones, a saved-and-mmap-loaded snapshot, and a router over
in-process shards; plus the b-bit packing properties
(packed answers are supersets, and recall — the Figure 4-7 metric —
never drops).
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ensemble import LSHEnsemble
from repro.datagen import generate_corpus, sample_queries
from repro.datagen.stream import stream_signature_blocks
from repro.eval.harness import AccuracyExperiment
from repro.eval.metrics import aggregate, evaluate_query
from repro.kernels import list_kernels
from repro.lsh.lsh import MinHashLSH
from repro.minhash.batch import SignatureBatch
from repro.persistence import load_ensemble, save_ensemble

NUM_PERM = 64
KERNELS = list_kernels()
VECTOR_KERNELS = [n for n in KERNELS if n != "python"]


def _block(num_rows: int, seed: int):
    return next(iter(stream_signature_blocks(
        num_rows, NUM_PERM, block_rows=num_rows, seed=seed)))


def _queries(block, count: int):
    rows = np.arange(0, len(block), max(1, len(block) // count))[:count]
    batch = SignatureBatch(None, np.ascontiguousarray(block.matrix[rows]),
                           seed=block.seed)
    sizes = [int(block.sizes[i]) for i in rows]
    return batch, sizes


def _canonical(results):
    return [frozenset(found) for found in results]


class TestFlatLSHParity:
    @given(seed=st.integers(0, 2 ** 16), num_rows=st.integers(8, 200),
           threshold=st.sampled_from([0.5, 0.8, 0.9]))
    @settings(max_examples=15, deadline=None)
    def test_query_and_batch_match_python(self, seed, num_rows, threshold):
        block = _block(num_rows, seed)
        indexes = {}
        for name in KERNELS:
            index = MinHashLSH(threshold=threshold, num_perm=NUM_PERM,
                               kernel=name)
            for key, sig, _size in block.entries():
                index.insert(key, sig)
            indexes[name] = index
        batch, _ = _queries(block, 16)
        reference = _canonical(indexes["python"].query_batch(batch))
        ref_single = [indexes["python"].query(sig) for sig in batch]
        for name in VECTOR_KERNELS:
            assert _canonical(indexes[name].query_batch(batch)) == reference
            assert [indexes[name].query(s) for s in batch] == ref_single
        # Batch is a pure optimisation of the scalar path too.
        assert [set(r) for r in reference] == ref_single


class TestDynamicEnsembleParity:
    @given(seed=st.integers(0, 2 ** 16), num_rows=st.integers(24, 160),
           removals=st.integers(1, 12))
    @settings(max_examples=10, deadline=None)
    def test_tombstoned_index_matches_python(self, seed, num_rows,
                                             removals):
        """Insert everything, remove a slice (tombstones), insert a few
        back — every backend must agree with the reference at each step.
        """
        block = _block(num_rows, seed)
        entries = list(block.entries())
        indexes = {}
        for name in KERNELS:
            index = LSHEnsemble(threshold=0.5, num_perm=NUM_PERM,
                                num_partitions=4, kernel=name)
            index.index(entries[: num_rows // 2])
            for key, sig, size in entries[num_rows // 2:]:
                index.insert(key, sig, size)
            rng = np.random.default_rng(seed)
            doomed = rng.choice(num_rows, size=removals, replace=False)
            for i in doomed:
                index.remove(entries[i][0])
            key, sig, size = entries[int(doomed[0])]
            index.insert(key, sig, size)  # resurrect one key
            indexes[name] = index
        batch, sizes = _queries(block, 16)
        reference = _canonical(indexes["python"].query_batch(
            batch, sizes=sizes, threshold=0.5))
        for name in VECTOR_KERNELS:
            got = _canonical(indexes[name].query_batch(
                batch, sizes=sizes, threshold=0.5))
            assert got == reference


class TestLoadedSnapshotParity:
    @given(seed=st.integers(0, 2 ** 16), num_rows=st.integers(16, 120))
    @settings(max_examples=8, deadline=None)
    def test_mmap_loaded_matches_python(self, seed, num_rows):
        block = _block(num_rows, seed)
        built = LSHEnsemble(threshold=0.5, num_perm=NUM_PERM,
                            num_partitions=4, kernel="python")
        built.index(block.entries())
        batch, sizes = _queries(block, 12)
        reference = _canonical(built.query_batch(batch, sizes=sizes,
                                                 threshold=0.5))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "snap.lshe"
            save_ensemble(built, path)
            for name in KERNELS:
                loaded = load_ensemble(path, kernel=name, mmap=True)
                assert loaded.kernel.name == name
                got = _canonical(loaded.query_batch(batch, sizes=sizes,
                                                    threshold=0.5))
                assert got == reference


class TestRouterParity:
    @given(seed=st.integers(0, 2 ** 16), num_rows=st.integers(24, 120))
    @settings(max_examples=8, deadline=None)
    def test_cluster_matches_python(self, in_process_cluster, seed,
                                    num_rows):
        block = _block(num_rows, seed)
        entries = list(block.entries())
        batch, sizes = _queries(block, 12)
        reference = None
        for name in ["python"] + VECTOR_KERNELS:
            router, flat = in_process_cluster(
                entries, 3, lambda name=name: LSHEnsemble(
                    threshold=0.5, num_perm=NUM_PERM, num_partitions=2,
                    kernel=name))
            with router:
                got = _canonical(router.query_batch(
                    batch, sizes=sizes, threshold=0.5))
            assert got == _canonical(flat.query_batch(
                batch, sizes=sizes, threshold=0.5))
            if reference is None:
                reference = got
            assert got == reference

    @given(seed=st.integers(0, 2 ** 16), num_rows=st.integers(24, 120))
    @settings(max_examples=6, deadline=None)
    def test_cluster_top_k_matches_python(self, in_process_cluster, seed,
                                          num_rows):
        block = _block(num_rows, seed)
        entries = list(block.entries())
        batch, sizes = _queries(block, 8)
        reference = None
        for name in ["python"] + VECTOR_KERNELS:
            router, flat = in_process_cluster(
                entries, 3, lambda name=name: LSHEnsemble(
                    threshold=0.5, num_perm=NUM_PERM, num_partitions=2,
                    kernel=name))
            with router:
                got = router.query_top_k_batch(batch, 3, sizes=sizes)
            assert got == flat.query_top_k_batch(batch, 3, sizes=sizes)
            if reference is None:
                reference = got
            assert got == reference


class TestBbitProperties:
    @given(seed=st.integers(0, 2 ** 16), num_rows=st.integers(16, 120),
           bbit=st.sampled_from([8, 16]))
    @settings(max_examples=10, deadline=None)
    def test_packed_answers_are_supersets(self, seed, num_rows, bbit):
        """Truncating band keys can only merge buckets, so every packed
        answer contains the unpacked answer (recall never drops)."""
        block = _block(num_rows, seed)
        entries = list(block.entries())
        plain = LSHEnsemble(threshold=0.5, num_perm=NUM_PERM,
                            num_partitions=4)
        plain.index(entries)
        packed = LSHEnsemble(threshold=0.5, num_perm=NUM_PERM,
                             num_partitions=4, bbit=bbit)
        packed.index(entries)
        batch, sizes = _queries(block, 12)
        plain_results = plain.query_batch(batch, sizes=sizes, threshold=0.5)
        packed_results = packed.query_batch(batch, sizes=sizes,
                                            threshold=0.5)
        for loose, tight in zip(packed_results, plain_results):
            assert loose >= tight

    @given(seed=st.integers(0, 2 ** 16), num_rows=st.integers(16, 100),
           bbit=st.sampled_from([8, 16]))
    @settings(max_examples=8, deadline=None)
    def test_packed_parity_across_kernels(self, seed, num_rows, bbit):
        """b-bit changes the answer set, but all backends must change it
        the same way."""
        block = _block(num_rows, seed)
        entries = list(block.entries())
        results = {}
        for name in KERNELS:
            index = LSHEnsemble(threshold=0.5, num_perm=NUM_PERM,
                                num_partitions=4, kernel=name, bbit=bbit)
            index.index(entries)
            batch, sizes = _queries(block, 12)
            results[name] = _canonical(index.query_batch(
                batch, sizes=sizes, threshold=0.5))
        for name in VECTOR_KERNELS:
            assert results[name] == results["python"]


class TestBbitRecallParity:
    """The Figure 4-7 harness re-run under b-bit packing: recall against
    exact containment ground truth must not drop (precision may — the
    merged buckets admit extra candidates, which is the advertised
    trade-off)."""

    @pytest.fixture(scope="class")
    def experiment(self):
        corpus = generate_corpus(num_domains=300, max_size=400, seed=7)
        queries = sample_queries(corpus, 20, seed=11)
        exp = AccuracyExperiment(corpus, queries, num_perm=NUM_PERM)
        exp.prepare()
        return exp

    @pytest.mark.parametrize("bbit", [8, 16])
    def test_recall_never_drops(self, experiment, bbit):
        threshold = 0.5
        entries = experiment.entries()
        plain = LSHEnsemble(threshold=threshold, num_perm=NUM_PERM,
                            num_partitions=4)
        plain.index(entries)
        packed = LSHEnsemble(threshold=threshold, num_perm=NUM_PERM,
                             num_partitions=4, bbit=bbit)
        packed.index(entries)
        sigs = experiment.signatures
        evaluations = {"plain": [], "packed": []}
        for key in experiment.query_keys:
            truth = experiment.ground_truth(key, threshold)
            size = experiment.corpus.size_of(key)
            for label, index in (("plain", plain), ("packed", packed)):
                found = index.query(sigs[key], size=size,
                                    threshold=threshold)
                evaluations[label].append(evaluate_query(found, truth))
        plain_recall = aggregate(evaluations["plain"]).recall
        packed_recall = aggregate(evaluations["packed"]).recall
        assert packed_recall >= plain_recall
        assert packed_recall > 0.0  # the harness actually found things
