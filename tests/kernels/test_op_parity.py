"""Op-level parity: every vectorised backend pinned to the python ops.

The index-level suite (``test_kernel_parity.py``) proves whole query
answers match; this one isolates each of the three hot-loop ops so a
future backend that diverges fails on the *op* that broke, not three
layers up.  The ``python`` kernel's op methods are the scalar twins the
vectorised backends must reproduce bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import list_kernels, resolve_kernel
from repro.kernels.base import ProbeIndex, SortedHashes

REFERENCE = resolve_kernel("python")
VECTOR_NAMES = [n for n in list_kernels() if n != "python"]

uint64s = st.integers(0, 2 ** 64 - 1)


def vector_kernels():
    return pytest.mark.parametrize(
        "kernel", [resolve_kernel(n) for n in VECTOR_NAMES],
        ids=VECTOR_NAMES)


# --------------------------------------------------------------------- #
# band_hash
# --------------------------------------------------------------------- #

class TestBandHashParity:
    @vector_kernels()
    @given(data=st.data(), rows=st.integers(1, 6), lanes=st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_2d_no_salt(self, kernel, data, rows, lanes):
        matrix = np.array(
            data.draw(st.lists(st.lists(uint64s, min_size=lanes,
                                        max_size=lanes),
                               min_size=rows, max_size=rows)),
            dtype=np.uint64)
        assert np.array_equal(kernel.band_hash(matrix),
                              REFERENCE.band_hash(matrix))

    @vector_kernels()
    @given(data=st.data(), rows=st.integers(1, 4), trees=st.integers(1, 4),
           lanes=st.integers(1, 6), salt=uint64s)
    @settings(max_examples=100, deadline=None)
    def test_3d_scalar_salt(self, kernel, data, rows, trees, lanes, salt):
        flat = data.draw(st.lists(uint64s, min_size=rows * trees * lanes,
                                  max_size=rows * trees * lanes))
        matrix = np.array(flat, dtype=np.uint64).reshape(rows, trees, lanes)
        s = np.uint64(salt)
        assert np.array_equal(kernel.band_hash(matrix, s),
                              REFERENCE.band_hash(matrix, s))

    @vector_kernels()
    @given(seed=st.integers(0, 2 ** 16), rows=st.integers(1, 5),
           trees=st.integers(1, 5), lanes=st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_3d_per_tree_salt_broadcast(self, kernel, seed, rows, trees,
                                        lanes):
        """The forest's exact call shape: (rows, trees, lanes) lanes with
        a length-``trees`` salt vector broadcast over the output."""
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 2 ** 63, size=(rows, trees, lanes),
                              dtype=np.uint64)
        salts = rng.integers(0, 2 ** 63, size=trees, dtype=np.uint64)
        got = kernel.band_hash(matrix, salts)
        want = REFERENCE.band_hash(matrix, salts)
        assert got.shape == want.shape == (rows, trees)
        assert np.array_equal(got, want)

    @vector_kernels()
    def test_known_fnv1a_vector(self, kernel):
        """Pin the constants themselves, not just cross-backend equality."""
        lanes = np.array([[0], [1]], dtype=np.uint64)
        offset, prime = 0xCBF29CE484222325, 0x100000001B3
        mask = (1 << 64) - 1
        want = [((offset ^ 0) * prime) & mask, ((offset ^ 1) * prime) & mask]
        assert kernel.band_hash(lanes).tolist() == want


# --------------------------------------------------------------------- #
# probe
# --------------------------------------------------------------------- #

def _sorted_hashes(draw, with_dups: bool):
    values = draw(st.lists(uint64s, min_size=1, max_size=32))
    if with_dups and len(values) > 1:
        values += values[: len(values) // 2]  # plant 64-bit "collisions"
    return np.sort(np.array(values, dtype=np.uint64))


class TestProbeParity:
    @vector_kernels()
    @given(data=st.data(), dups=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_pos_and_hits_match(self, kernel, data, dups):
        sorted_hashes = _sorted_hashes(data.draw, dups)
        # Probes mix guaranteed-present values with arbitrary ones, so
        # both the hit and miss branches are exercised every example.
        present = data.draw(st.lists(
            st.sampled_from(sorted_hashes.tolist()), max_size=8))
        absent = data.draw(st.lists(uint64s, max_size=8))
        probes = np.array(present + absent, dtype=np.uint64)
        if probes.size == 0:
            probes = sorted_hashes[:1].copy()
        pos_k, hits_k = kernel.probe(sorted_hashes, probes)
        pos_p, hits_p = REFERENCE.probe(sorted_hashes, probes)
        assert np.array_equal(pos_k, pos_p)
        assert np.array_equal(hits_k, hits_p)

    @vector_kernels()
    def test_clamped_insertion_point(self, kernel):
        """Probes beyond the last element clamp to the last slot (and
        therefore never report a false hit)."""
        sorted_hashes = np.array([5, 10], dtype=np.uint64)
        probes = np.array([0, 5, 7, 10, 2 ** 64 - 1], dtype=np.uint64)
        pos, hits = kernel.probe(sorted_hashes, probes)
        assert pos.tolist() == [0, 0, 1, 1, 1]
        assert hits.tolist() == [1, 3]


# --------------------------------------------------------------------- #
# probe_hits
# --------------------------------------------------------------------- #

class TestProbeHitsParity:
    """probe_hits' weaker contract: hits identical to probe, pos pinned
    only at the hits (the leftmost match)."""

    @vector_kernels()
    @given(data=st.data(), dups=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_small_fallback_matches_probe(self, kernel, data, dups):
        sorted_hashes = _sorted_hashes(data.draw, dups)
        present = data.draw(st.lists(
            st.sampled_from(sorted_hashes.tolist()), max_size=8))
        absent = data.draw(st.lists(uint64s, max_size=8))
        probes = np.array(present + absent, dtype=np.uint64)
        if probes.size == 0:
            probes = sorted_hashes[:1].copy()
        index = SortedHashes(sorted_hashes)
        pos_h, hits_h = kernel.probe_hits(index, probes)
        pos_p, hits_p = REFERENCE.probe(sorted_hashes, probes)
        assert np.array_equal(hits_h, hits_p)
        assert np.array_equal(pos_h[hits_h], pos_p[hits_p])

    @vector_kernels()
    @given(seed=st.integers(0, 2 ** 16))
    @settings(max_examples=20, deadline=None)
    def test_table_path_matches_probe(self, kernel, seed):
        """Above the 8192-key floor the numpy backend answers from its
        open-addressing table; hits and hit positions must still match
        the binary-search reference exactly, duplicates included."""
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 2 ** 63, size=9000, dtype=np.uint64)
        # Plant duplicate runs so the leftmost-position contract is live.
        values[1000:2000] = values[:1000]
        sorted_hashes = np.sort(values)
        present = rng.choice(sorted_hashes, size=512)
        absent = rng.integers(0, 2 ** 63, size=512, dtype=np.uint64)
        probes = np.concatenate((present, absent))
        index = SortedHashes(sorted_hashes)
        pos_h, hits_h = kernel.probe_hits(index, probes)
        pos_p, hits_p = REFERENCE.probe(sorted_hashes, probes)
        assert np.array_equal(hits_h, hits_p)
        assert np.array_equal(pos_h[hits_h], pos_p[hits_p])

    @vector_kernels()
    def test_aux_structure_is_cached_per_holder(self, kernel):
        rng = np.random.default_rng(3)
        sorted_hashes = np.sort(
            rng.integers(0, 2 ** 63, size=9000, dtype=np.uint64))
        index = SortedHashes(sorted_hashes)
        # Enough probes to take the table path (small sets bisect).
        probes = sorted_hashes[:512].copy()
        kernel.probe_hits(index, probes)
        first = index._aux
        assert first is not None
        kernel.probe_hits(index, probes)
        assert index._aux is first

    def test_base_class_falls_back_to_probe(self):
        """A backend that implements only probe still gets probe_hits."""
        sorted_hashes = np.array([3, 5, 5, 9], dtype=np.uint64)
        probes = np.array([5, 4, 9], dtype=np.uint64)
        index = SortedHashes(sorted_hashes)
        pos, hits = REFERENCE.probe_hits(index, probes)
        assert hits.tolist() == [0, 2]
        assert pos[hits].tolist() == [1, 3]


# --------------------------------------------------------------------- #
# merge
# --------------------------------------------------------------------- #

def _probe_index_for_merge(rng, num_buckets: int,
                           max_members: int) -> ProbeIndex:
    universe = ["m%04d" % i for i in range(64)]
    buckets = []
    for _ in range(num_buckets):
        count = int(rng.integers(1, max_members + 1))
        picks = rng.choice(len(universe), size=count, replace=False)
        buckets.append({universe[i] for i in picks})
    n = len(buckets)
    return ProbeIndex(hashes=np.zeros(n, dtype=np.uint64),
                      tree_ids=np.zeros(n, dtype=np.int64),
                      prefix_lanes=np.zeros((n, 1), dtype=np.uint64),
                      buckets=buckets, ambiguous=frozenset())


def _run_merge(kernel, index, num_rows, hit_rows, hit_pos):
    results = [set() for _ in range(num_rows)]
    rows = np.arange(num_rows, dtype=np.int64)
    kernel.merge(results, rows, hit_rows, hit_pos, index)
    return results


class TestMergeParity:
    @vector_kernels()
    @given(seed=st.integers(0, 2 ** 16), num_rows=st.integers(1, 6),
           num_buckets=st.integers(1, 8), num_hits=st.integers(0, 24))
    @settings(max_examples=100, deadline=None)
    def test_small_hit_counts(self, kernel, seed, num_rows, num_buckets,
                              num_hits):
        rng = np.random.default_rng(seed)
        index = _probe_index_for_merge(rng, num_buckets, max_members=6)
        # hit_rows non-decreasing: the row-major scan contract.
        hit_rows = np.sort(rng.integers(0, num_rows, size=num_hits))
        hit_pos = rng.integers(0, num_buckets, size=num_hits)
        got = _run_merge(kernel, index, num_rows, hit_rows, hit_pos)
        want = _run_merge(REFERENCE, index, num_rows, hit_rows, hit_pos)
        assert got == want

    @vector_kernels()
    @given(seed=st.integers(0, 64))
    @settings(max_examples=10, deadline=None)
    def test_columnar_threshold_crossed(self, kernel, seed):
        """>=1024 hits forces the numpy kernel's columnar gather path;
        it must still match the set-union reference exactly."""
        rng = np.random.default_rng(seed)
        num_rows, num_buckets, num_hits = 32, 40, 2048
        index = _probe_index_for_merge(rng, num_buckets, max_members=8)
        hit_rows = np.sort(rng.integers(0, num_rows, size=num_hits))
        hit_pos = rng.integers(0, num_buckets, size=num_hits)
        got = _run_merge(kernel, index, num_rows, hit_rows, hit_pos)
        want = _run_merge(REFERENCE, index, num_rows, hit_rows, hit_pos)
        assert got == want

    @vector_kernels()
    def test_merge_appends_to_existing_results(self, kernel):
        """Merge unions into caller-owned sets without replacing them."""
        rng = np.random.default_rng(0)
        index = _probe_index_for_merge(rng, 2, max_members=3)
        results = [{"pre-existing"}]
        kernel.merge(results, np.array([0]), np.array([0, 0]),
                     np.array([0, 1]), index)
        assert "pre-existing" in results[0]
        assert results[0] >= index.buckets[0] | index.buckets[1]

    @vector_kernels()
    def test_empty_hits_is_a_no_op(self, kernel):
        rng = np.random.default_rng(0)
        index = _probe_index_for_merge(rng, 2, max_members=3)
        results = [set(), set()]
        kernel.merge(results, np.arange(2),
                     np.empty(0, dtype=np.int64),
                     np.empty(0, dtype=np.int64), index)
        assert results == [set(), set()]


class TestProbeIndexColumns:
    def test_columns_roundtrip_buckets(self):
        rng = np.random.default_rng(1)
        index = _probe_index_for_merge(rng, 5, max_members=6)
        member_ids, offsets, id_to_key = index.columns()
        assert offsets[0] == 0 and offsets[-1] == member_ids.size
        for p, bucket in enumerate(index.buckets):
            ids = member_ids[offsets[p]:offsets[p + 1]]
            assert {id_to_key[i] for i in ids} == bucket

    def test_columns_cached(self):
        rng = np.random.default_rng(2)
        index = _probe_index_for_merge(rng, 3, max_members=4)
        assert index.columns() is index.columns()
