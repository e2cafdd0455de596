"""Unit tests for the one bucket layout (:mod:`repro.forest.layout`).

Every test compares :class:`BucketLayout` against a brute-force model:
a dict from ``(slot, band prefix)`` to the set of keys whose tree of
that slot starts with that prefix — the dict-of-sets tables the sorted
arrays replaced.  Lane values mix a small low part (so prefixes share
buckets) with a high part above bit 16 (so b-bit packing merges
buckets the full lanes keep apart).
"""

import numpy as np
import pytest

from repro.forest.layout import BucketLayout, _scan_runs
from repro.kernels import (NumpyKernel, ProbeIndex, PythonKernel, band_dtype,
                           get_kernel)

NUM_TREES = 4
MAX_DEPTH = 3
NUM_PERM = NUM_TREES * MAX_DEPTH + 2   # two columns outside the forest
PARTITION_ROWS = (25, 20, 15)
KERNELS = ["python", "numpy"]
BBITS = [None, 8, 16]


class WeakNumpyKernel(NumpyKernel):
    """The numpy kernel with its band hash cut to 3 bits."""

    name = "weak-numpy"

    def band_hash(self, lanes, salt=None):
        return super().band_hash(lanes, salt) & np.uint64(7)


class WeakPythonKernel(PythonKernel):
    """The python kernel with its band hash cut to 3 bits."""

    name = "weak-python"

    def band_hash(self, lanes, salt=None):
        return super().band_hash(lanes, salt) & np.uint64(7)


WEAK = {"python": WeakPythonKernel(), "numpy": WeakNumpyKernel()}


def lanes(rng, rows):
    low = rng.integers(0, 3, size=(rows, NUM_PERM), dtype=np.uint64)
    high = rng.integers(0, 2, size=(rows, NUM_PERM), dtype=np.uint64)
    return low + (high << np.uint64(32))


def make_layout(kernel="numpy", bbit=None, seed=0,
                partition_rows=PARTITION_ROWS, matrix=None, keys=None):
    if matrix is None:
        matrix = lanes(np.random.default_rng(seed), sum(partition_rows))
    if keys is None:
        keys = ["k%d" % i for i in range(len(matrix))]
    return BucketLayout(matrix, keys, NUM_TREES, MAX_DEPTH,
                        get_kernel(kernel), band_dtype(bbit),
                        partition_rows=partition_rows)


def row_slots(layout):
    """The first slot of every row's partition."""
    return np.repeat(np.arange(len(layout.partition_rows)) * NUM_TREES,
                     layout.partition_rows)


def prefix(layout, row, tree, r):
    band = row[tree * MAX_DEPTH:tree * MAX_DEPTH + r]
    return tuple(band.astype(layout.dtype).tolist())


def model_buckets(layout, r):
    """Brute-force ``{(slot, prefix): keys}`` at depth ``r``."""
    buckets = {}
    for row, key, first in zip(layout.matrix, layout.keys, row_slots(layout)):
        for tree in range(NUM_TREES):
            buckets.setdefault((int(first) + tree,
                                prefix(layout, row, tree, r)),
                               set()).add(key)
    return buckets


def layout_buckets(layout, r):
    """The layout's depth-``r`` buckets in the model's form."""
    index = layout.depth(r)
    return {(int(slot), tuple(lanes_.tolist())): bucket
            for slot, lanes_, bucket in zip(index.tree_ids,
                                            index.prefix_lanes,
                                            index.buckets)}


def model_probe(layout, queries, rows, first_slots, bs, rs, results):
    buckets = {r: model_buckets(layout, r) for r in set(rs.tolist())}
    for row, first, b, r in zip(rows, first_slots, bs, rs):
        for tree in range(b):
            results[row] |= buckets[r].get(
                (int(first) + tree, prefix(layout, queries[row], tree, r)),
                set())


def random_plan(layout, rng, queries, items=40):
    n = len(queries)
    parts = len(layout.partition_rows)
    return (rng.integers(0, n, size=items),
            rng.integers(0, parts, size=items) * NUM_TREES,
            rng.integers(1, NUM_TREES + 1, size=items),
            rng.integers(1, MAX_DEPTH + 1, size=items))


def probe(layout, queries, rows, first_slots, bs, rs, results=None):
    if results is None:
        results = [set() for _ in range(len(queries))]
    layout.probe(queries, np.asarray(rows), np.asarray(first_slots),
                 np.asarray(bs), np.asarray(rs), results)
    return results


def query_set(layout, seed):
    """Stored rows mixed with fresh rows from the same distribution."""
    rng = np.random.default_rng(seed)
    return np.vstack([layout.matrix[::3], lanes(rng, 12)])


# ---------------------------------------------------------------------- #
# Against the brute-force model
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("bbit", BBITS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_buckets_match_the_model(kernel, bbit):
    layout = make_layout(kernel, bbit)
    for r in range(1, MAX_DEPTH + 1):
        assert layout_buckets(layout, r) == model_buckets(layout, r)


@pytest.mark.parametrize("bbit", BBITS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_probe_matches_the_model(kernel, bbit):
    layout = make_layout(kernel, bbit, seed=1)
    queries = query_set(layout, seed=2)
    plan = random_plan(layout, np.random.default_rng(3), queries)
    expected = [set() for _ in range(len(queries))]
    model_probe(layout, queries, *plan, expected)
    assert probe(layout, queries, *plan) == expected


@pytest.mark.parametrize("bbit", BBITS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_colliding_hashes_keep_buckets_exact(kernel, bbit):
    layout = make_layout(WEAK[kernel], bbit, seed=4)
    for r in range(1, MAX_DEPTH + 1):
        assert layout_buckets(layout, r) == model_buckets(layout, r)
        assert layout.depth(r).ambiguous


@pytest.mark.parametrize("bbit", BBITS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_colliding_hashes_keep_probes_exact(kernel, bbit):
    weak = make_layout(WEAK[kernel], bbit, seed=5)
    default = make_layout(kernel, bbit, seed=5)
    queries = query_set(weak, seed=6)
    plan = random_plan(weak, np.random.default_rng(7), queries, items=60)
    expected = [set() for _ in range(len(queries))]
    model_probe(weak, queries, *plan, expected)
    assert probe(weak, queries, *plan) == expected
    assert probe(default, queries, *plan) == expected


# ---------------------------------------------------------------------- #
# Build
# ---------------------------------------------------------------------- #


class TestBuild:
    def test_hashes_sorted_ascending(self):
        layout = make_layout()
        for r in range(1, MAX_DEPTH + 1):
            hashes = layout.depth(r).hashes
            assert hashes.dtype == np.uint64
            assert (hashes[1:] >= hashes[:-1]).all()

    def test_bucket_count_is_distinct_slot_prefix_pairs(self):
        layout = make_layout()
        for r in range(1, MAX_DEPTH + 1):
            assert layout.depth(r).hashes.size == len(model_buckets(layout, r))

    def test_every_row_sits_in_one_bucket_per_tree(self):
        layout = make_layout()
        n = len(layout.keys)
        for r in range(1, MAX_DEPTH + 1):
            row_ids, offsets, _ = layout.depth(r).columns()
            members = row_ids[offsets[0]:offsets[-1]]
            assert np.bincount(members, minlength=n).tolist() == [
                NUM_TREES] * n

    def test_duplicate_rows_share_one_bucket(self):
        row = lanes(np.random.default_rng(8), 1)
        layout = make_layout(matrix=np.repeat(row, 3, axis=0),
                             keys=["a", "b", "c"], partition_rows=(3,))
        index = layout.depth(MAX_DEPTH)
        assert index.hashes.size == NUM_TREES
        assert index.buckets == [{"a", "b", "c"}] * NUM_TREES

    def test_members_are_int32_rows_ascending_within_a_bucket(self):
        layout = make_layout()
        for r in range(1, MAX_DEPTH + 1):
            row_ids, offsets, _ = layout.depth(r).columns()
            assert row_ids.dtype == np.int32
            assert (np.diff(offsets) > 0).all()
            for lo, hi in zip(offsets[:-1], offsets[1:]):
                members = row_ids[lo:hi]
                assert (members[1:] > members[:-1]).all()

    def test_no_ambiguous_hashes_without_collisions(self):
        layout = make_layout()
        layout.materialize()
        for r in layout.built_depths:
            assert layout.depth(r).ambiguous == frozenset()

    def test_ambiguous_names_exactly_the_shared_hashes(self):
        layout = make_layout(WEAK["numpy"])
        for r in range(1, MAX_DEPTH + 1):
            index = layout.depth(r)
            values, counts = np.unique(index.hashes, return_counts=True)
            assert index.ambiguous == frozenset(values[counts > 1].tolist())

    def test_shared_hash_runs_ordered_by_slot_then_prefix(self):
        layout = make_layout(WEAK["numpy"])
        for r in range(1, MAX_DEPTH + 1):
            index = layout.depth(r)
            order = [(int(h), int(s), tuple(p.tolist()))
                     for h, s, p in zip(index.hashes, index.tree_ids,
                                        index.prefix_lanes)]
            assert order == sorted(order)
            assert len(set(order)) == len(order)

    def test_slots_number_trees_partition_major(self):
        layout = make_layout()
        slots = set(layout.depth(1).tree_ids.tolist())
        assert slots == set(range(len(PARTITION_ROWS) * NUM_TREES))

    def test_identical_rows_in_different_partitions_stay_apart(self):
        row = lanes(np.random.default_rng(9), 1)
        layout = make_layout(matrix=np.repeat(row, 2, axis=0),
                             keys=["left", "right"], partition_rows=(1, 1))
        index = layout.depth(MAX_DEPTH)
        assert index.hashes.size == 2 * NUM_TREES
        assert sorted(map(sorted, index.buckets)) == (
            [["left"]] * NUM_TREES + [["right"]] * NUM_TREES)

    def test_columns_outside_the_forest_are_ignored(self):
        rng = np.random.default_rng(10)
        matrix = lanes(rng, sum(PARTITION_ROWS))
        changed = matrix.copy()
        changed[:, NUM_TREES * MAX_DEPTH:] = lanes(
            rng, len(matrix))[:, :NUM_PERM - NUM_TREES * MAX_DEPTH]
        first, second = make_layout(matrix=matrix), make_layout(matrix=changed)
        for r in range(1, MAX_DEPTH + 1):
            assert layout_buckets(first, r) == layout_buckets(second, r)

    def test_read_only_matrix_is_used_without_a_copy(self):
        matrix = lanes(np.random.default_rng(11), sum(PARTITION_ROWS))
        matrix.flags.writeable = False
        layout = make_layout(matrix=matrix)
        layout.materialize()
        assert layout.matrix is matrix
        assert layout_buckets(layout, 2) == model_buckets(layout, 2)

    def test_keys_may_be_any_hashable(self):
        keys = [("t", i) if i % 3 == 0 else i if i % 3 == 1 else "s%d" % i
                for i in range(sum(PARTITION_ROWS))]
        layout = make_layout(keys=keys)
        queries = layout.matrix[:6]
        results = probe(layout, queries, range(6), [0, 0, 0, 0, 0, 0],
                        [NUM_TREES] * 6, [MAX_DEPTH] * 6)
        for key, found in zip(keys, results):
            assert key in found

    def test_empty_layout_builds_and_answers_nothing(self):
        layout = make_layout(matrix=np.empty((0, NUM_PERM), dtype=np.uint64),
                             keys=[], partition_rows=None)
        layout.materialize()
        assert layout.depth(1).hashes.size == 0
        queries = lanes(np.random.default_rng(12), 2)
        assert probe(layout, queries, [0, 1], [0, 0], [NUM_TREES, 1],
                     [1, MAX_DEPTH]) == [set(), set()]

    def test_one_partition_when_rows_are_not_given(self):
        layout = make_layout(partition_rows=None,
                             matrix=lanes(np.random.default_rng(13), 7))
        assert layout.partition_rows == (7,)
        assert set(layout.depth(1).tree_ids.tolist()) <= set(range(NUM_TREES))


# ---------------------------------------------------------------------- #
# Laziness
# ---------------------------------------------------------------------- #


class TestLaziness:
    def test_a_new_layout_builds_nothing(self):
        assert make_layout().built_depths == ()

    def test_depth_builds_only_that_depth(self):
        layout = make_layout()
        layout.depth(2)
        assert layout.built_depths == (2,)

    def test_depth_is_built_once(self):
        layout = make_layout()
        assert layout.depth(3) is layout.depth(3)

    def test_probe_builds_only_the_depths_it_plans(self):
        layout = make_layout()
        queries = layout.matrix[:4]
        probe(layout, queries, [0, 1, 2, 3], [0, 0, 4, 8], [1, 2, 3, 4],
              [3, 1, 3, 1])
        assert layout.built_depths == (1, 3)

    def test_materialize_builds_every_depth(self):
        layout = make_layout()
        layout.materialize()
        assert layout.built_depths == tuple(range(1, MAX_DEPTH + 1))

    def test_materialize_is_idempotent(self):
        layout = make_layout()
        layout.materialize()
        built = [layout.depth(r) for r in layout.built_depths]
        layout.materialize()
        assert layout.built_depths == tuple(range(1, MAX_DEPTH + 1))
        assert all(a is b for a, b in zip(
            built, [layout.depth(r) for r in layout.built_depths]))

    def test_build_order_does_not_change_buckets(self):
        forward, backward = make_layout(seed=14), make_layout(seed=14)
        for r in range(1, MAX_DEPTH + 1):
            forward.depth(r)
        for r in range(MAX_DEPTH, 0, -1):
            backward.depth(r)
        for r in range(1, MAX_DEPTH + 1):
            assert layout_buckets(forward, r) == layout_buckets(backward, r)
            assert layout_buckets(forward, r) == model_buckets(forward, r)


# ---------------------------------------------------------------------- #
# Probe
# ---------------------------------------------------------------------- #


class TestProbe:
    def test_stored_row_finds_itself_at_every_b_r(self):
        layout = make_layout()
        first = row_slots(layout)
        for row in (0, 30, 59):
            for b in range(1, NUM_TREES + 1):
                for r in range(1, MAX_DEPTH + 1):
                    found = probe(layout, layout.matrix, [row], [first[row]],
                                  [b], [r])
                    assert layout.keys[row] in found[row]

    def test_probe_unions_into_existing_results(self):
        layout = make_layout()
        queries = layout.matrix[:1]
        results = probe(layout, queries, [0], [0], [NUM_TREES], [1],
                        results=[{"already-there"}])
        assert "already-there" in results[0]
        assert "k0" in results[0]

    def test_rows_outside_the_plan_stay_untouched(self):
        layout = make_layout()
        queries = layout.matrix[:3]
        results = probe(layout, queries, [1], [0], [NUM_TREES], [1])
        assert results[0] == set() and results[2] == set()
        assert "k1" in results[1]

    def test_item_order_does_not_change_the_answer(self):
        layout = make_layout(seed=15)
        queries = query_set(layout, seed=16)
        plan = random_plan(layout, np.random.default_rng(17), queries)
        shuffle = np.random.default_rng(18).permutation(len(plan[0]))
        assert probe(layout, queries, *plan) == probe(
            layout, queries, *(column[shuffle] for column in plan))

    def test_mixed_depth_plan_equals_one_probe_per_depth(self):
        layout = make_layout(seed=19)
        queries = query_set(layout, seed=20)
        rows, first_slots, bs, rs = random_plan(
            layout, np.random.default_rng(21), queries)
        split = [set() for _ in range(len(queries))]
        for r in range(1, MAX_DEPTH + 1):
            mine = rs == r
            probe(layout, queries, rows[mine], first_slots[mine], bs[mine],
                  rs[mine], results=split)
        assert probe(layout, queries, rows, first_slots, bs, rs) == split

    def test_unseen_values_miss(self):
        layout = make_layout()
        queries = np.full((1, NUM_PERM), 99, dtype=np.uint64)
        assert probe(layout, queries, [0], [0], [NUM_TREES],
                     [1]) == [set()]

    def test_first_slot_selects_one_partition(self):
        layout = make_layout()
        first = row_slots(layout)
        row = 30                     # in the second partition
        own = probe(layout, layout.matrix, [row], [first[row]],
                    [NUM_TREES], [MAX_DEPTH])[row]
        partition = set(layout.keys[25:45].tolist())
        assert own <= partition
        other = probe(layout, layout.matrix, [row], [0],
                      [NUM_TREES], [MAX_DEPTH])[row]
        assert other.isdisjoint(partition)

    def test_b_counts_the_trees_consulted(self):
        rng = np.random.default_rng(22)
        stored = lanes(rng, 1)
        query = stored + np.uint64(5)           # disagrees everywhere...
        query[0, MAX_DEPTH:2 * MAX_DEPTH] = stored[0, MAX_DEPTH:2 * MAX_DEPTH]
        layout = make_layout(matrix=stored, keys=["only"],
                             partition_rows=(1,))
        assert probe(layout, query, [0], [0], [1], [MAX_DEPTH]) == [set()]
        assert probe(layout, query, [0], [0], [2], [MAX_DEPTH]) == [{"only"}]

    def test_deeper_r_never_adds_candidates(self):
        layout = make_layout(seed=23)
        queries = query_set(layout, seed=24)
        n = len(queries)
        rows, zeros = np.arange(n), np.zeros(n, dtype=np.intp)
        full = np.full(n, NUM_TREES)
        by_depth = [probe(layout, queries, rows, zeros, full,
                          np.full(n, r)) for r in range(1, MAX_DEPTH + 1)]
        for shallow, deep in zip(by_depth, by_depth[1:]):
            assert all(d <= s for s, d in zip(shallow, deep))

    def test_more_trees_never_lose_candidates(self):
        layout = make_layout(seed=25)
        queries = query_set(layout, seed=26)
        n = len(queries)
        rows, zeros = np.arange(n), np.zeros(n, dtype=np.intp)
        depth = np.full(n, 2)
        by_b = [probe(layout, queries, rows, zeros, np.full(n, b), depth)
                for b in range(1, NUM_TREES + 1)]
        for fewer, more in zip(by_b, by_b[1:]):
            assert all(f <= m for f, m in zip(fewer, more))

    @pytest.mark.parametrize("bbit", [8, 16])
    def test_bbit_packing_only_adds_candidates(self, bbit):
        full, packed = make_layout(seed=27), make_layout(bbit=bbit, seed=27)
        queries = query_set(full, seed=28)
        plan = random_plan(full, np.random.default_rng(29), queries)
        wide = probe(full, queries, *plan)
        narrow = probe(packed, queries, *plan)
        assert all(w <= p for w, p in zip(wide, narrow))
        assert wide != narrow   # the high lanes really did split buckets

    def test_empty_plan_changes_nothing(self):
        layout = make_layout()
        empty = np.empty(0, dtype=np.intp)
        results = probe(layout, layout.matrix[:2], empty, empty, empty, empty,
                        results=[{"x"}, set()])
        assert results == [{"x"}, set()]
        assert layout.built_depths == ()


# ---------------------------------------------------------------------- #
# The collision run scan
# ---------------------------------------------------------------------- #


def run_index():
    """Three buckets sharing hash 5, then one with hash 9."""
    return ProbeIndex(np.array([5, 5, 5, 9], dtype=np.uint64),
                      np.array([0, 1, 2, 0]),
                      np.array([[1], [1], [1], [2]], dtype=np.uint64),
                      [{"a"}, {"b"}, {"c"}, {"d"}], frozenset({5}))


def scan(index, at, ok, hashes, slots, prefixes):
    return _scan_runs(index, np.array(at), np.array(ok),
                      np.array(hashes, dtype=np.uint64), np.array(slots),
                      np.array(prefixes, dtype=np.uint64))


class TestScanRuns:
    def test_failed_hit_finds_its_bucket_later_in_the_run(self):
        at, ok = scan(run_index(), [0], [False], [5], [2], [[1]])
        assert at.tolist() == [2] and ok.tolist() == [True]

    def test_hit_without_a_matching_bucket_stops_at_the_run_end(self):
        at, ok = scan(run_index(), [0], [False], [5], [3], [[1]])
        assert ok.tolist() == [False]

    def test_scan_stops_at_the_end_of_the_array(self):
        index = ProbeIndex(np.array([3, 5, 5], dtype=np.uint64),
                           np.array([0, 0, 1]),
                           np.array([[1], [1], [1]], dtype=np.uint64),
                           [{"a"}, {"b"}, {"c"}], frozenset({5}))
        at, ok = scan(index, [1], [False], [5], [7], [[1]])
        assert ok.tolist() == [False]

    def test_verified_hits_and_the_inputs_are_left_alone(self):
        at_in, ok_in = np.array([0, 0]), np.array([True, False])
        at, ok = _scan_runs(run_index(), at_in, ok_in,
                            np.array([5, 5], dtype=np.uint64),
                            np.array([0, 1]),
                            np.array([[1], [1]], dtype=np.uint64))
        assert at.tolist() == [0, 1] and ok.tolist() == [True, True]
        assert at_in.tolist() == [0, 0] and ok_in.tolist() == [True, False]
