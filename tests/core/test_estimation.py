"""Unit tests for signature-based containment estimation."""

import numpy as np
import pytest

from repro.core.estimation import estimate_containment, rank_candidates
from repro.minhash.lean import LeanMinHash
from repro.minhash.minhash import MinHash
from tests.conftest import make_overlapping_sets

NUM_PERM = 256


def sig(values):
    return LeanMinHash(MinHash.from_values(values, num_perm=NUM_PERM))


class TestEstimateContainment:
    def test_full_containment(self):
        base = {"v%d" % i for i in range(50)}
        superset = base | {"w%d" % i for i in range(150)}
        est = estimate_containment(sig(base), sig(superset),
                                   query_size=50, candidate_size=200)
        assert est > 0.75

    def test_no_overlap(self):
        a = {"a%d" % i for i in range(50)}
        b = {"b%d" % i for i in range(50)}
        est = estimate_containment(sig(a), sig(b), 50, 50)
        assert est < 0.2

    def test_half_containment(self):
        qs, xs = make_overlapping_sets(50, 50, 100, tag="est")
        est = estimate_containment(sig(qs), sig(xs), len(qs), len(xs))
        assert abs(est - 0.5) < 0.25

    def test_clipped_to_unit_interval(self):
        base = {"v%d" % i for i in range(10)}
        superset = base | {"w%d" % i for i in range(990)}
        est = estimate_containment(sig(base), sig(superset), 10, 1000)
        assert 0.0 <= est <= 1.0

    def test_sizes_estimated_when_missing(self):
        base = {"v%d" % i for i in range(100)}
        est = estimate_containment(sig(base), sig(base))
        assert est > 0.9

    def test_validation(self):
        s = sig({"a"})
        with pytest.raises(ValueError):
            estimate_containment(s, s, query_size=0)


class TestRankCandidates:
    def test_orders_by_containment(self):
        query = {"q%d" % i for i in range(40)}
        full = query | {"f%d" % i for i in range(60)}
        half = set(list(query)[:20]) | {"h%d" % i for i in range(80)}
        none = {"n%d" % i for i in range(100)}
        ranked = rank_candidates(
            sig(query),
            {"full": sig(full), "half": sig(half), "none": sig(none)},
            query_size=40,
            sizes={"full": 100, "half": 100, "none": 100},
        )
        names = [key for key, _ in ranked]
        assert names[0] == "full"
        assert names[-1] == "none"

    def test_deterministic_tiebreak(self):
        query = {"q"}
        same_a = {"q", "x"}
        same_b = {"q", "x"}
        ranked = rank_candidates(
            sig(query), {"b": sig(same_b), "a": sig(same_a)},
            query_size=1, sizes={"a": 2, "b": 2},
        )
        assert [key for key, _ in ranked] == ["a", "b"]

    def test_empty_candidates(self):
        assert rank_candidates(sig({"q"}), {}, query_size=1) == []

    def test_scores_in_unit_interval(self):
        query = {"q%d" % i for i in range(30)}
        cands = {
            "c%d" % i: sig({"q%d" % j for j in range(i)} |
                           {"c%d_%d" % (i, j) for j in range(40)})
            for i in range(1, 10)
        }
        for _, score in rank_candidates(sig(query), cands, query_size=30):
            assert 0.0 <= score <= 1.0


def scalar_rank(query, candidates, query_size=None, sizes=None):
    """The reference: one estimate_containment per candidate, then the
    (-score, str(key)) sort."""
    sizes = sizes or {}
    scored = [(key, estimate_containment(query, signature, query_size,
                                         sizes.get(key)))
              for key, signature in candidates.items()]
    scored.sort(key=lambda pair: (-pair[1], str(pair[0])))
    return scored


def random_pool(seed, n=120, num_perm=64):
    """A query and a pool of candidates sharing a random share of its
    lanes: MinHash and LeanMinHash values, int and str keys, exact
    duplicates (score ties), missing sizes and sizes far above q."""
    rng = np.random.default_rng(seed)
    query = rng.integers(0, 2 ** 32, size=num_perm, dtype=np.uint64)
    pool, sizes = {}, {}
    for i in range(n):
        row = query.copy()
        redraw = rng.random(num_perm) < rng.random()
        row[redraw] = rng.integers(0, 2 ** 32, size=int(redraw.sum()),
                                   dtype=np.uint64)
        key = i if i % 3 == 0 else "c%d" % i
        pool[key] = (MinHash(num_perm=num_perm, hashvalues=row) if i % 2
                     else LeanMinHash(seed=1, hashvalues=row))
        if i % 5:
            sizes[key] = int(rng.integers(1, 10 ** int(rng.integers(1, 6))))
    for twin, of in ((1000, 3), ("c1001", 3), (2, "c4"), (10, "c4")):
        pool[twin] = pool[of]
        if of in sizes:
            sizes[twin] = sizes[of]
    return LeanMinHash(seed=1, hashvalues=query), pool, sizes


class TestRankMatchesScalarReference:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("query_size", [None, 1, 37, 5000])
    def test_identical_keys_scores_and_order(self, seed, query_size):
        query, pool, sizes = random_pool(seed)
        ranked = rank_candidates(query, pool, query_size, sizes)
        expected = scalar_rank(query, pool, query_size, sizes)
        assert ranked == expected
        assert [repr(score) for _, score in ranked] == \
            [repr(score) for _, score in expected]

    def test_ties_break_on_key_string(self):
        query, pool, sizes = random_pool(0)
        ranked = rank_candidates(query, pool, 40, sizes)
        scores, names = dict(ranked), [key for key, _ in ranked]
        # 2 and 10 share "c4"'s row and size: the tie sorts "10" < "2".
        assert scores[2] == scores[10] == scores["c4"]
        assert names.index(10) < names.index(2)

    def test_missing_sizes_fall_back_to_count(self):
        query, pool, _ = random_pool(1)
        assert rank_candidates(query, pool, 50) == scalar_rank(query, pool,
                                                                50)

    def test_large_candidates_clip_to_one(self):
        query, pool, _ = random_pool(2)
        sizes = {key: 10 ** 9 for key in pool}
        ranked = rank_candidates(query, pool, 3, sizes)
        assert ranked == scalar_rank(query, pool, 3, sizes)
        assert ranked[0][1] == 1.0

    def test_empty_pool(self):
        query, _, __ = random_pool(3)
        assert rank_candidates(query, {}, 10) == []
        assert rank_candidates(query, {}, 0) == []

    @pytest.mark.parametrize("bad", ["seed", "num_perm", "size"])
    def test_same_errors_as_scalar(self, bad):
        query, pool, sizes = random_pool(4, n=10)
        odd = pool["c5"]
        if bad == "seed":
            pool["c5"] = LeanMinHash(seed=7, hashvalues=odd.hashvalues)
        elif bad == "num_perm":
            pool["c5"] = LeanMinHash(seed=1, hashvalues=odd.hashvalues[:32])
        else:
            sizes["c5"] = 0
        with pytest.raises(ValueError) as want:
            scalar_rank(query, pool, 20, sizes)
        with pytest.raises(ValueError) as got:
            rank_candidates(query, pool, 20, sizes)
        assert str(got.value) == str(want.value)
