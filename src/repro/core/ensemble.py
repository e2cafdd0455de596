"""LSH Ensemble — the paper's primary contribution (Section 5).

The index partitions domains by cardinality and keeps one dynamic LSH
(an LSH Forest of prefix trees, see :mod:`repro.forest.prefix_forest`)
per partition.  A containment query ``(Q, t*)`` is answered per
partition (Algorithm 1):

1. estimate the query size ``q`` from its signature (``approx(|Q|)``);
2. convert ``t*`` to that partition's conservative Jaccard threshold using
   the partition's size upper bound ``u_i`` (Eq. 7) — realised here by
   tuning ``(b_i, r_i)`` directly against the containment-space objective
   (Eq. 26);
3. query the partition's forest at ``(b_i, r_i)``;

and the union of the partition results is returned
(``Partitioned-Containment-Search``).  Partitions whose largest possible
containment ``u_i / q`` is below ``t*`` cannot hold a true positive and
are pruned outright.

All partitions' forests are one
:class:`~repro.forest.layout.BucketLayout` over the partition-major
signature matrix (trees numbered per partition), so a batch is planned
to its per-(query, partition) ``(b, r)`` first and then probed once per
distinct ``r`` across every partition.

Dynamic lifecycle (two-tier LSM-style mutation path)
----------------------------------------------------

The partitioning above is computed once at build time, but live corpora
drift (Section 6.2).  Post-build writes therefore never touch the
immutable **base tier**: ``insert`` stages entries into a small
self-partitioned **delta tier** (:class:`~repro.core.delta.DeltaTier`)
and ``remove`` of a base-tier key adds a **tombstone**.  Every query
entry point answers from both tiers, filtering tombstones out of the
base results.  A **drift monitor** (:meth:`LSHEnsemble.drift_stats`)
tracks partition-depth imbalance, write churn and size-distribution
skewness shift; when drift warrants it — manually, or automatically via
``auto_rebalance_at`` — :meth:`LSHEnsemble.rebalance` folds both tiers
into a freshly partitioned base through the vectorised bulk-build path.

Concurrency and the mutation epoch
----------------------------------

All public mutators and query entry points serialise on one reentrant
lock, so threads may freely race ``insert``/``remove``/``rebalance``
against ``query``/``query_batch``: a query never observes a
half-swapped base tier or a cleared-but-unreplaced tombstone set.
Queries are writers too (the first probe after a write flushes the
delta tier; removals dirty the lazily recomputed tuning bounds), which
is why a plain exclusive lock — not a reader-writer split — is the
honest choice; the serving layer regains cross-request throughput by
coalescing concurrent requests into single ``query_batch`` calls
rather than by running queries concurrently.
Every logical mutation also bumps a monotonic
:attr:`LSHEnsemble.mutation_epoch` (``generation`` only moves on
rebalance), giving layered caches — e.g. the HTTP serving tier in
:mod:`repro.serve` — an exact invalidation key.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Hashable, Iterable, Sequence

import numpy as np

from repro.core.delta import DeltaTier
from repro.core.partitioner import (
    Partition,
    assign_partition,
    equi_depth_partitions,
    partition_depth_cv,
)
from repro.core.querycore import QuerySurface, normalise_queries
from repro.core.tuning import (
    TuningResult,
    ratio_buckets,
    tune_params_quantized,
)
from repro.forest.layout import BucketLayout, key_column
from repro.forest.prefix_forest import default_forest_shape
from repro.kernels import band_dtype, get_kernel, validate_bbit
from repro.minhash.batch import as_lean
from repro.minhash.lean import LeanMinHash
from repro.minhash.minhash import MinHash
from repro.stats.skewness import skewness_from_sums

__all__ = ["LSHEnsemble", "PartitionQueryReport"]


class PartitionQueryReport:
    """Diagnostics for one partition's contribution to a query.

    ``elapsed_seconds`` is the wall time of this partition's probe.  The
    paper evaluates partitions concurrently (Eq. 9 minimises the *max*
    per-partition cost for exactly that reason), so the parallel-model
    query time of a whole ensemble query is ``max`` over these, while the
    single-worker time is their sum.

    ``tier`` names the tier the partition belongs to: ``"base"`` for the
    immutable built index, ``"delta"`` for the write tier's
    self-partitioned side index.
    """

    __slots__ = ("partition", "tuning", "num_candidates", "pruned",
                 "elapsed_seconds", "tier")

    def __init__(self, partition: Partition, tuning: TuningResult | None,
                 num_candidates: int, pruned: bool,
                 elapsed_seconds: float = 0.0, tier: str = "base") -> None:
        self.partition = partition
        self.tuning = tuning
        self.num_candidates = num_candidates
        self.pruned = pruned
        self.elapsed_seconds = elapsed_seconds
        self.tier = tier

    def __repr__(self) -> str:
        suffix = "" if self.tier == "base" else ", tier=%s" % self.tier
        if self.pruned:
            return "PartitionQueryReport([%d, %d), pruned%s)" % (
                self.partition.lower, self.partition.upper, suffix)
        return ("PartitionQueryReport([%d, %d), b=%d, r=%d, candidates=%d%s)"
                % (self.partition.lower, self.partition.upper,
                   self.tuning.b, self.tuning.r, self.num_candidates,
                   suffix))


class LSHEnsemble(QuerySurface):
    """Containment-search index over domains with skewed cardinalities.

    Parameters
    ----------
    threshold:
        Default containment threshold ``t*``; can be overridden per query.
    num_perm:
        Signature length ``m`` (paper default 256).
    num_partitions:
        Number of cardinality partitions ``n`` (paper evaluates 8/16/32).
    num_trees, max_depth:
        Per-partition forest shape ``(B, K)``; defaults to the balanced
        shape for ``num_perm`` (32 trees of depth 8 at ``m = 256``).
    partitioner:
        Callable ``(sizes, n) -> list[Partition]`` used by :meth:`index`;
        defaults to equi-depth (Theorem 2).  Pass
        :func:`~repro.core.partitioner.optimal_partitions` for non-power-law
        data, or a custom callable.
    kernel:
        Hot-loop backend name or :class:`~repro.kernels.Kernel`
        instance for every forest of the ensemble (band hashing,
        probing, candidate merge — see :mod:`repro.kernels`).  Defaults
        to the process selection (``REPRO_KERNEL`` env, then ``numpy``)
        and is recorded in snapshot headers so loaded indexes and pool
        workers adopt the builder's choice.
    bbit:
        b-bit band-key packing (None / 8 / 16) applied to every
        forest; persisted in snapshot headers.  Packed keys cut probe
        memory bandwidth 8x/4x and can only *add* candidates (recall
        never drops).
    auto_rebalance_at:
        Optional drift-score threshold in ``(0, 1]``.  When set, every
        :meth:`insert` / :meth:`remove` checks the (O(partitions)) drift
        score and triggers :meth:`rebalance` once it reaches the
        threshold.  ``None`` (default) leaves compaction fully manual.

    The index is built in one shot with :meth:`index` (partition bounds
    are derived from the data, as in the paper).  After the build the
    base tier is immutable: :meth:`insert` stages new domains in the
    self-partitioned delta tier and :meth:`remove` tombstones base-tier
    keys, until :meth:`rebalance` folds everything into a freshly
    partitioned base (see the module docstring).
    """

    def __init__(self, threshold: float = 0.8, num_perm: int = 256,
                 num_partitions: int = 8,
                 num_trees: int | None = None, max_depth: int | None = None,
                 partitioner=equi_depth_partitions,
                 kernel=None, bbit=None,
                 auto_rebalance_at: float | None = None) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if num_perm < 2:
            raise ValueError("num_perm must be at least 2")
        if auto_rebalance_at is not None:
            auto_rebalance_at = float(auto_rebalance_at)
            if not 0.0 < auto_rebalance_at <= 1.0:
                raise ValueError("auto_rebalance_at must be in (0, 1]")
        self.auto_rebalance_at = auto_rebalance_at
        self.threshold = float(threshold)
        self.num_perm = int(num_perm)
        self.num_partitions = int(num_partitions)
        if num_trees is None or max_depth is None:
            auto_trees, auto_depth = default_forest_shape(num_perm)
            num_trees = num_trees if num_trees is not None else auto_trees
            max_depth = max_depth if max_depth is not None else auto_depth
        if num_trees * max_depth > num_perm:
            raise ValueError(
                "num_trees * max_depth = %d exceeds num_perm = %d"
                % (num_trees * max_depth, num_perm)
            )
        self.num_trees = int(num_trees)
        self.max_depth = int(max_depth)
        self._partitioner = partitioner
        self._kernel = get_kernel(kernel)
        self.bbit = validate_bbit(bbit)
        self._partitions: list[Partition] = []
        # The base tier is its row-aligned, read-only columns: the
        # layout's matrix and keys (rows partition-major; None until the
        # build), seeds, sizes and one key -> row map.  Tombstoned rows
        # stay physically present (removal is logical), so the live key
        # set is (base - tombstones) | delta.
        self._layout: BucketLayout | None = None
        self._seeds = np.empty(0, dtype=np.int64)
        self._row_sizes = np.empty(0, dtype=np.int64)
        self._rows: dict[Hashable, int] = {}
        # Largest *live* true size routed into each partition.  Sizes
        # clamped at build time (explicit partitions narrower than the
        # data) can exceed the partition's nominal upper bound; queries
        # must use the larger of the two or pruning/tuning would lose
        # those domains.  Tombstoning a partition's maximal key marks
        # this dirty; it is recomputed lazily (_resolve_live_max_locked) so the
        # tuning bound u never stays inflated by removed domains.
        self._partition_max_size: list[int] = []
        self._live_max_dirty = False
        # Dynamic tiers.
        self._delta: DeltaTier | None = None
        self._tombstones: set = set()
        self._generation = 0
        # Monotonic count of *logical* mutations (insert/remove/
        # rebalance).  Unlike ``generation`` — which only bumps on
        # rebalance — every content change bumps it, which is what lets
        # a serving layer key result caches on it.  Bumped strictly
        # after the mutation's state changes, under the same lock that
        # serialises queries, so a query observing epoch E always sees
        # exactly the contents of epoch E.
        self._mutation_epoch = 0
        # Serialises mutations against the query paths.  Queries are not
        # pure reads (the first query after a write flushes the delta
        # tier, and removals dirty the lazily recomputed tuning bounds),
        # and rebalance() swaps out every base structure; the reentrant
        # lock makes insert/remove/rebalance safe to race against
        # query/query_batch from other threads.
        self._lock = threading.RLock()
        # Drift monitor state: per-base-partition live counts (base-tier
        # live keys, and delta keys routed by the *base* partitions), and
        # exact integer power sums (n, Σx, Σx², Σx³) of the live size
        # distribution for O(1) incremental skewness.
        self._base_live_counts: list[int] = []
        self._delta_routed_counts: list[int] = []
        self._moments: list[int] = [0, 0, 0, 0]
        self._baseline_depth_cv = 0.0
        self._baseline_skew = 0.0
        # Set by the persistence layer when this index was restored from
        # a manifest segment; lets a re-save into the same directory
        # reuse the unchanged base segment.  rebalance() clears it.
        self._base_source = None

    # ------------------------------------------------------------------ #
    # Build
    # ------------------------------------------------------------------ #

    def index(self, entries: Iterable[tuple[Hashable, MinHash | LeanMinHash,
                                            int]],
              partitions: Sequence[Partition] | None = None) -> None:
        """Bulk-build the index from ``(key, signature, size)`` triples.

        Partition bounds come from the configured partitioner applied to
        the observed sizes, unless explicit ``partitions`` are supplied
        (used by the Figure 8 sweep to impose blended partitionings).
        """
        staged = list(entries)
        if not staged:
            raise ValueError("cannot index an empty collection of domains")
        sizes = [int(size) for _, __, size in staged]
        if min(sizes) < 1:
            raise ValueError("all domain sizes must be >= 1")
        # One (n, m) matrix for the whole build: routing, partition
        # grouping, and bucket-key packing all become numpy passes
        # instead of n Python round trips through insert().
        matrix = np.empty((len(staged), self.num_perm), dtype=np.uint64)
        seeds = np.empty(len(staged), dtype=np.int64)
        for i, (_, signature, __) in enumerate(staged):
            if not isinstance(signature, (MinHash, LeanMinHash)):
                raise TypeError(
                    "expected MinHash or LeanMinHash, got %r"
                    % type(signature).__name__
                )
            if signature.num_perm != self.num_perm:
                raise ValueError(
                    "signature num_perm %d does not match forest num_perm %d"
                    % (signature.num_perm, self.num_perm)
                )
            matrix[i] = signature.hashvalues
            seeds[i] = signature.seed
        # Building swaps in the base structures the query paths walk,
        # so it serialises on the same lock as every other mutator.
        with self._lock:
            if self._layout is not None:
                raise RuntimeError(
                    "index() may only be called on an empty index")
            if partitions is not None:
                self._partitions = list(partitions)
            else:
                self._partitions = self._partitioner(
                    sizes, self.num_partitions)
            keys = [key for key, __, ___ in staged]
            if len(set(keys)) != len(keys):
                seen: set = set()
                for key in keys:
                    if key in seen:
                        raise ValueError(
                            "key %r is already in the index" % (key,))
                    seen.add(key)
            self._partition_max_size = [0] * len(self._partitions)
            self._bulk_fill_locked((key_column(keys),
                                    np.asarray(sizes, dtype=np.int64),
                                    matrix, seeds))
            # A fresh build is served immediately: build every depth's
            # buckets now rather than on the first queries.  Loaded
            # snapshots stay lazy — see _restore_columnar_locked.
            self.materialize()

    def materialize(self) -> None:
        """Build the buckets of every depth now, in both tiers.

        After :func:`~repro.persistence.load_ensemble` each depth is
        built the first time a query reaches it; call this to pay the
        whole cost up front instead (e.g. before putting a replica into
        rotation).  Idempotent.
        """
        if self._layout is not None:
            self._layout.materialize()
        if self._delta is not None:
            self._delta.materialize()

    def _assign_partitions(self, clamped: np.ndarray) -> np.ndarray:
        """Partition index per (already clamped) size, vectorised."""
        parts = self._partitions
        contiguous = all(parts[i].upper == parts[i + 1].lower
                         for i in range(len(parts) - 1))
        if contiguous:
            bounds = np.fromiter(
                (p.lower for p in parts), dtype=np.int64, count=len(parts))
            bounds = np.concatenate([bounds, [parts[-1].upper]])
            return np.searchsorted(bounds, clamped, side="right") - 1
        # Caller-supplied partitions with gaps: fall back to the exact
        # per-size scan (raises for sizes no partition covers, exactly
        # like the single-entry path).
        return np.fromiter(
            (assign_partition(int(c), parts) for c in clamped),
            dtype=np.intp, count=len(clamped))

    def _columns(self) -> tuple:
        """The base tier's row-aligned ``(keys, sizes, matrix, seeds)``,
        the one tuple every fill, gather and delete below moves."""
        layout = self._layout
        return layout.keys, self._row_sizes, layout.matrix, self._seeds

    def _row_partitions(self) -> np.ndarray:
        """The partition index of every base row."""
        return np.repeat(np.arange(len(self._partitions)),
                         self._layout.partition_rows)

    def _live_mask(self) -> np.ndarray | None:
        """Which base rows are not tombstoned; None when all are live."""
        if not self._tombstones:
            return None
        live = np.ones(len(self._rows), dtype=bool)
        live[[self._rows[key] for key in self._tombstones]] = False
        return live

    def _bulk_fill_locked(self, columns: tuple,
                          initial: bool = True) -> None:
        """Route rows to partitions and lay the base tier out over them.

        ``columns`` is ``(keys, sizes, matrix, seeds)``, row-aligned
        arrays.  ``initial=True`` (a build or rebalance) makes these
        rows the whole base tier and seeds the drift monitor from them;
        ``initial=False`` (the delta tier's vectorised top-up flush)
        appends them to the rows already there — the layout is
        immutable, so it is rebuilt over old and new rows together — and
        folds them into the monitor incrementally.  Callers own key
        deduplication against the existing contents.
        """
        parts = self._partitions
        sizes = columns[1]
        idx = self._assign_partitions(
            np.clip(sizes, parts[0].lower, parts[-1].upper - 1))
        peaks = np.zeros(len(parts), dtype=np.int64)
        np.maximum.at(peaks, idx, sizes)
        self._partition_max_size = [
            max(have, peak) for have, peak
            in zip(self._partition_max_size, peaks.tolist())]
        counts = np.bincount(idx, minlength=len(parts)).tolist()
        added = sizes.tolist()
        if not initial:
            columns = tuple(np.concatenate(pair)
                            for pair in zip(self._columns(), columns))
            idx = np.concatenate((self._row_partitions(), idx))
        # Partition-major, stable within a partition; this gather is the
        # only copy of the rows.
        order = np.argsort(idx, kind="stable")
        self._set_base_locked(*(column[order] for column in columns),
                              np.bincount(idx, minlength=len(parts)))
        if initial:
            self._init_drift_state(counts, added)
            return
        for i, count in enumerate(counts):
            self._base_live_counts[i] += count
        self._moments = [have + new for have, new
                         in zip(self._moments, self._moments_of(added))]
        self._base_source = None

    def _set_base_locked(self, keys: np.ndarray, sizes: np.ndarray,
                         matrix: np.ndarray, seeds: np.ndarray,
                         partition_rows) -> None:
        """Base tier := these row-aligned columns (rows already
        partition-major, ``partition_rows`` per partition) and a fresh
        layout whose depths are built on first use.  The columns are
        frozen, never copied — a memory-mapped snapshot stays mapped."""
        rows = dict(zip(keys.tolist(), range(len(keys))))
        if len(rows) != len(keys):
            raise ValueError("duplicate keys in snapshot")
        if matrix.shape != (len(keys), self.num_perm):
            raise ValueError("got %d keys for a %s signature matrix"
                             % (len(keys), matrix.shape))
        for column in (keys, sizes, matrix, seeds):
            column.setflags(write=False)
        self._rows = rows
        self._row_sizes = sizes
        self._seeds = seeds
        self._layout = BucketLayout(matrix, keys, self.num_trees,
                                    self.max_depth, self._kernel,
                                    band_dtype(self.bbit), partition_rows)

    def _init_drift_state(self, counts: list[int],
                          sizes: Iterable[int]) -> None:
        """Seed the drift monitor from a freshly filled base tier."""
        self._base_live_counts = [int(c) for c in counts]
        self._delta_routed_counts = [0] * len(self._partitions)
        self._moments = self._moments_of(sizes)
        self._baseline_depth_cv = partition_depth_cv(self._base_live_counts)
        self._baseline_skew = skewness_from_sums(*self._moments)

    @staticmethod
    def _moments_of(sizes: Iterable[int]) -> list[int]:
        """Exact integer power sums (n, Σx, Σx², Σx³) of ``sizes``."""
        n = s1 = s2 = s3 = 0
        for s in sizes:
            s = int(s)
            sq = s * s
            n += 1
            s1 += s
            s2 += sq
            s3 += sq * s
        return [n, s1, s2, s3]

    def _track_size(self, size: int, sign: int) -> None:
        """Add (+1) or drop (-1) one live size from the moment sums."""
        s = int(size)
        sq = s * s
        m = self._moments
        m[0] += sign
        m[1] += sign * s
        m[2] += sign * sq
        m[3] += sign * sq * s

    def _restore_columnar_locked(self, partitions: Sequence[Partition],
                                 keys: list, sizes: list[int],
                                 matrix: np.ndarray, seeds,
                                 partition_rows: Sequence[int],
                                 partition_max_size: Sequence[int]) -> None:
        """Rebuild from a columnar snapshot (persistence format v2).

        ``matrix`` rows must already be ordered partition-major with
        ``partition_rows[i]`` rows per partition; it becomes the base
        tier as is (a memmap stays mapped, and no depth is built until
        a query reaches it).  ``partition_max_size`` is restored
        verbatim — it can exceed what the stored sizes imply when the
        saved index had its largest domains removed, and queries must
        stay conservative about that.
        """
        if self._layout is not None:
            raise RuntimeError(
                "restore requires an empty index; this one is built")
        self._set_base_locked(key_column(keys),
                              np.asarray(sizes, dtype=np.int64), matrix,
                              np.asarray(seeds, dtype=np.int64),
                              partition_rows)
        self._partitions = list(partitions)
        self._partition_max_size = [int(m) for m in partition_max_size]
        self._init_drift_state(list(partition_rows),
                               self._row_sizes.tolist())

    def insert(self, key: Hashable, signature: MinHash | LeanMinHash,
               size: int) -> None:
        """Add one domain to an already-built index.

        The base tier is immutable: the entry is staged in the delta
        tier (O(1) — no bucket work until the next query flushes it),
        where it gets partitions fitted to the delta's own size
        distribution instead of clamping into the base tier's stale
        boundary partitions.  :meth:`rebalance` later folds the delta
        into a freshly partitioned base.
        """
        if self._layout is None:
            raise RuntimeError("call index() before insert()")
        if size < 1:
            raise ValueError("domain size must be >= 1")
        lean = as_lean(signature)
        if lean.num_perm != self.num_perm:
            raise ValueError(
                "signature num_perm %d does not match index num_perm %d"
                % (lean.num_perm, self.num_perm)
            )
        with self._lock:
            if key in self:
                raise ValueError("key %r is already in the index" % (key,))
            size = int(size)
            if self._delta is None:
                self._delta = DeltaTier(self._delta_factory)
            self._delta.add(key, lean, size)
            self._delta_routed_counts[self._route_index(size)] += 1
            self._track_size(size, +1)
            self._mutation_epoch += 1
            self._maybe_auto_rebalance_locked()

    def _delta_factory(self) -> "LSHEnsemble":
        """An empty delta-tier inner index bound to this configuration.

        The delta stays small between rebalances, so it gets at most 4
        partitions — enough self-partitioning to keep drifted sizes out
        of degenerate clamping, cheap enough to rebuild on flush.
        """
        return LSHEnsemble(
            threshold=self.threshold, num_perm=self.num_perm,
            num_partitions=min(4, self.num_partitions),
            num_trees=self.num_trees, max_depth=self.max_depth,
            partitioner=self._partitioner,
            kernel=self._kernel, bbit=self.bbit)

    def _route_index(self, size: int) -> int:
        """Base partition index for ``size`` (clamped into range)."""
        clamped = min(max(size, self._partitions[0].lower),
                      self._partitions[-1].upper - 1)
        return assign_partition(clamped, self._partitions)

    def _remove_physical_locked(self, key: Hashable) -> None:
        """Physically remove from the base tier (delta inner index only —
        the public :meth:`remove` tombstones instead); the layout is
        rebuilt without the row."""
        row = self._rows[key]
        size = int(self._row_sizes[row])
        i = self._route_index(size)
        partition_rows = list(self._layout.partition_rows)
        partition_rows[i] -= 1
        self._set_base_locked(
            *(np.delete(column, row, axis=0) for column in self._columns()),
            partition_rows)
        self._base_live_counts[i] -= 1
        self._track_size(size, -1)
        if size >= self._partition_max_size[i]:
            # The partition's maximal key may be gone: recompute the
            # tuning bound lazily instead of serving an inflated u.
            self._live_max_dirty = True
        self._base_source = None

    def remove(self, key: Hashable) -> None:
        """Remove a domain from the index.

        Delta-tier entries are dropped outright; base-tier keys get a
        tombstone (the base layout stays untouched, and no depth of it
        is built).  Tombstoned keys are filtered out of every query and
        reclaimed by :meth:`rebalance`.
        """
        with self._lock:
            if self._delta is not None and key in self._delta:
                size = self._delta.discard(key)
                self._delta_routed_counts[self._route_index(size)] -= 1
                self._track_size(size, -1)
            elif key in self._rows and key not in self._tombstones:
                size = int(self._row_sizes[self._rows[key]])
                self._tombstones.add(key)
                i = self._route_index(size)
                self._base_live_counts[i] -= 1
                self._track_size(size, -1)
                if size >= self._partition_max_size[i]:
                    self._live_max_dirty = True
            else:
                raise KeyError(key)
            self._mutation_epoch += 1
            self._maybe_auto_rebalance_locked()

    def _resolve_live_max_locked(self) -> None:
        """Recompute per-partition live maxima if removals dirtied them.

        ``remove()`` of a partition's maximal key would otherwise leave
        the old maximum as the tuning bound ``u`` forever, inflating
        every subsequent (b, r) selection for that partition.  One
        vectorised pass over the live rows of the sizes column restores
        the exact bound; delta entries carry their own partitions and
        do not participate.
        """
        if not self._live_max_dirty:
            return
        sizes, idx = self._row_sizes, self._row_partitions()
        live = self._live_mask()
        if live is not None:
            sizes, idx = sizes[live], idx[live]
        peaks = np.zeros(len(self._partitions), dtype=np.int64)
        np.maximum.at(peaks, idx, sizes)
        self._partition_max_size = peaks.tolist()
        # Cleared only after the swap: a concurrent query that observes
        # the flag down must also observe the recomputed bounds (the
        # recompute is idempotent, so a duplicated pass is benign).
        self._live_max_dirty = False

    # ------------------------------------------------------------------ #
    # Drift monitor + compaction
    # ------------------------------------------------------------------ #

    def drift_stats(self) -> dict:
        """How far the live corpus has drifted from the built partitioning.

        All O(num_partitions) — safe to poll on every mutation.  The
        components (each reported clipped to ``[0, 1]``):

        * ``depth_excess`` — growth of the partition-depth coefficient
          of variation (:func:`~repro.core.partitioner.partition_depth_cv`
          of the live counts, with delta keys routed by the base
          partitions) over the value recorded at build time.  The
          scale-free form of Figure 8's x-axis.
        * ``churn_ratio`` — fraction of the live corpus carried by the
          write tiers (delta entries + tombstones): how much work a
          :meth:`rebalance` would fold in.
        * ``skewness_shift`` — relative change of the live size
          distribution's skewness (Eq. 29, kept incrementally via
          :func:`~repro.stats.skewness.skewness_from_sums`) against the
          build-time baseline.

        ``drift_score`` is the max of the three; ``auto_rebalance_at``
        compares against it.
        """
        with self._lock:
            return self._drift_stats_locked()

    def _drift_stats_locked(self) -> dict:
        if self._layout is None:
            raise RuntimeError("the index is empty; call index() first")
        counts = [b + d for b, d in zip(self._base_live_counts,
                                        self._delta_routed_counts)]
        total = sum(counts)
        depth_cv = partition_depth_cv(counts)
        # Every reported component is clipped to [0, 1] (the scale the
        # README documents for operators), not just the aggregate.
        depth_excess = min(1.0, max(0.0,
                                    depth_cv - self._baseline_depth_cv))
        delta_keys = len(self._delta) if self._delta is not None else 0
        churned = delta_keys + len(self._tombstones)
        # A fully-tombstoned index is all churn, not zero churn — an
        # operator must see it as maximally drifted, not healthy.
        churn = min(1.0, churned / total) if total else (
            1.0 if churned else 0.0)
        skew = skewness_from_sums(*self._moments)
        skew_shift = min(1.0, abs(skew - self._baseline_skew)
                         / (1.0 + abs(self._baseline_skew)))
        score = max(depth_excess, churn, skew_shift)
        return {
            "generation": self._generation,
            "mutation_epoch": self._mutation_epoch,
            "base_keys": len(self._rows) - len(self._tombstones),
            "delta_keys": delta_keys,
            "tombstones": len(self._tombstones),
            "live_counts": counts,
            "depth_cv": depth_cv,
            "baseline_depth_cv": self._baseline_depth_cv,
            "depth_excess": depth_excess,
            "churn_ratio": churn,
            "size_skewness": skew,
            "baseline_skewness": self._baseline_skew,
            "skewness_shift": skew_shift,
            "drift_score": score,
            "auto_rebalance_at": self.auto_rebalance_at,
        }

    def _maybe_auto_rebalance_locked(self) -> None:
        if self.auto_rebalance_at is None or len(self) == 0:
            return
        if self.drift_stats()["drift_score"] >= self.auto_rebalance_at:
            self.rebalance()

    def rebalance(self, num_partitions: int | None = None) -> dict:
        """Fold the write tiers into a freshly partitioned base (compaction).

        See :meth:`_rebalance_locked`; the whole compaction holds the
        index lock, so concurrent queries block briefly instead of
        observing a half-swapped base tier.
        """
        with self._lock:
            return self._rebalance_locked(num_partitions)

    def _rebalance_locked(self, num_partitions: int | None = None) -> dict:
        """Fold the write tiers into a freshly partitioned base (compaction).

        Recomputes the partitioning over the merged live size
        distribution with the configured partitioner (Theorem 1/2
        applied to what the corpus looks like *now*), rebuilds the
        forests through the vectorised columnar bulk path, and resets
        the delta tier, tombstones and drift baselines.  The rebuilt
        index answers queries identically to a from-scratch
        :meth:`index` over the live entries.

        The live base rows are gathered in row order, then the delta's
        rows are appended; the new partition-major order is stable over
        that sequence.  Signature rows backed by a memory-mapped
        snapshot are copied into fresh memory here — after a rebalance
        the index no longer aliases the file it was loaded from.

        Returns a summary dict (timings, tier sizes folded in, drift
        before/after) and bumps ``generation``.
        """
        if self._layout is None:
            raise RuntimeError("the index is empty; call index() first")
        n = len(self)
        if n == 0:
            raise ValueError("cannot rebalance an index with no live keys")
        before = self.drift_stats()
        t0 = time.perf_counter()
        folded = {"base": len(self._rows) - len(self._tombstones),
                  "delta": len(self._delta) if self._delta else 0,
                  "tombstones": len(self._tombstones)}
        columns = self._columns()
        live = self._live_mask()
        if live is not None:
            columns = tuple(column[live] for column in columns)
        if folded["delta"]:
            columns = tuple(np.concatenate(pair) for pair
                            in zip(columns, self._delta.columns()))
        if num_partitions is not None:
            if num_partitions < 1:
                raise ValueError("num_partitions must be >= 1")
            self.num_partitions = int(num_partitions)
        partitions = self._partitioner(columns[1].tolist(),
                                       self.num_partitions)
        self._partitions = list(partitions)
        self._partition_max_size = [0] * len(self._partitions)
        self._live_max_dirty = False
        self._tombstones = set()
        self._delta = None
        self._moments = [0, 0, 0, 0]
        self._bulk_fill_locked(columns)
        self.materialize()
        self._generation += 1
        self._mutation_epoch += 1
        self._base_source = None
        after = self.drift_stats()
        return {
            "seconds": time.perf_counter() - t0,
            "generation": self._generation,
            "live_keys": n,
            "folded": folded,
            "num_partitions": len(self._partitions),
            "depth_cv_before": before["depth_cv"],
            "depth_cv_after": after["depth_cv"],
            "drift_score_before": before["drift_score"],
            "drift_score_after": after["drift_score"],
        }

    def _attach_dynamic_state_locked(self, tombstones: Iterable[Hashable],
                                     delta_index: "LSHEnsemble | None",
                                     generation: int) -> None:
        """Reattach delta/tombstone state after a manifest load.

        ``delta_index`` is a physically clean ensemble holding the delta
        entries (the loaded delta segment); ``tombstones`` must all name
        physical base keys.  Used by :mod:`repro.persistence`.
        """
        for key in tombstones:
            size = int(self._row_sizes[self._rows[key]])
            i = self._route_index(size)
            self._base_live_counts[i] -= 1
            self._track_size(size, -1)
        self._tombstones = set(tombstones)
        self._live_max_dirty = bool(self._tombstones)
        if delta_index is not None and len(delta_index):
            self._delta = DeltaTier.adopt(delta_index, self._delta_factory)
            for _, __, size in self._delta.items():
                self._delta_routed_counts[self._route_index(size)] += 1
                self._track_size(size, +1)
        self._generation = int(generation)

    def locked(self):
        """The index's reentrant lock, for multi-step atomic sections.

        Use ``with index.locked():`` whenever several reads/writes must
        observe one consistent state — a save that walks every tier, a
        dispatch that pairs the epoch with the overlay it describes.
        Every public method already serialises on this same lock
        internally (it is reentrant), so nesting is free; what the
        accessor buys external callers is not having to reach into the
        private ``_lock`` attribute (the invariant linter's RL001 flags
        that).
        """
        return self._lock

    def epoch_snapshot(self) -> tuple[int, dict]:
        """``(mutation_epoch, overlay)`` captured under one lock
        acquisition.

        The pair is the unit the process-pool protocol ships: an epoch
        label and exactly the tiers that epoch describes.  Reading them
        as two separate calls would let a mutator slip in between (the
        invariant linter's RL005 flags that pattern); this accessor is
        the sanctioned atomic read.
        """
        with self._lock:
            return self._mutation_epoch, self.overlay_snapshot()

    def overlay_snapshot(self) -> dict:
        """Picklable snapshot of the dynamic tiers for process workers.

        Takes the index lock (reentrant — callers already holding it
        via :meth:`locked` pay nothing), so the epoch, tombstones and
        delta contents are mutually consistent.  The delta tier ships
        as columnar arrays (the in-memory form of a v2 segment, see
        :func:`repro.persistence.export_columnar`) so a worker
        re-materialises a bit-identical inner index — same partitions,
        same tuning bounds, same signatures — and answers exactly like
        this index does at this epoch.
        """
        from repro.persistence import export_columnar

        with self._lock:
            delta_inner = (self._delta.inner_index()
                           if self._delta is not None else None)
            return {
                "epoch": self._mutation_epoch,
                "generation": self._generation,
                "tombstones": list(self._tombstones),
                "delta": (export_columnar(delta_inner)
                          if delta_inner is not None else None),
            }

    # ------------------------------------------------------------------ #
    # Query
    # ------------------------------------------------------------------ #

    def query(self, signature: MinHash | LeanMinHash,
              size: int | None = None,
              threshold: float | None = None) -> set:
        """All keys whose domains likely contain ``>= t*`` of the query.

        Parameters
        ----------
        signature:
            MinHash of the query domain ``Q``.
        size:
            ``|Q|`` if known; otherwise estimated from the signature
            (Algorithm 1's ``approx(|Q|)``).
        threshold:
            Per-query ``t*``; defaults to the constructor threshold.
        """
        results, _ = self.query_with_report(signature, size, threshold)
        return results

    def query_with_report(self, signature: MinHash | LeanMinHash,
                          size: int | None = None,
                          threshold: float | None = None,
                          ) -> tuple[set, list[PartitionQueryReport]]:
        """:meth:`query` plus per-partition tuning diagnostics."""
        with self._lock:
            return self._query_with_report_locked(signature, size, threshold)

    def _query_with_report_locked(self, signature: MinHash | LeanMinHash,
                                  size: int | None = None,
                                  threshold: float | None = None,
                                  ) -> tuple[set,
                                             list[PartitionQueryReport]]:
        if self._layout is None:
            raise RuntimeError("the index is empty; call index() first")
        lean = as_lean(signature)
        t_star = self.threshold if threshold is None else float(threshold)
        if not 0.0 <= t_star <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        q = int(size) if size is not None else max(1, lean.count())
        if q < 1:
            raise ValueError("query size must be >= 1")
        if lean.num_perm != self.num_perm:
            raise ValueError(
                "signature num_perm %d does not match index num_perm %d"
                % (lean.num_perm, self.num_perm)
            )
        self._resolve_live_max_locked()
        tombstones = self._tombstones
        layout = self._layout
        query = lean.hashvalues[None, :]
        results: set = set()
        reports: list[PartitionQueryReport] = []
        for i, partition in enumerate(self._partitions):
            u = self._bound(i)
            if not layout.partition_rows[i] or (t_star > 0
                                                and u < t_star * q):
                # Empty, or no domain this small can contain t* of Q.
                reports.append(PartitionQueryReport(partition, None, 0, True))
                continue
            # One one-partition plan through the shared probe, so each
            # partition's time is its own (Eq. 9's per-partition cost).
            t0 = time.perf_counter()
            tuning = self._tune(u, q, t_star)
            found: set = set()
            layout.probe(query, np.zeros(1, dtype=np.intp),
                         np.array([i * self.num_trees]),
                         np.array([tuning.b]), np.array([tuning.r]), [found])
            if tombstones:
                found -= tombstones
            elapsed = time.perf_counter() - t0
            results |= found
            reports.append(
                PartitionQueryReport(partition, tuning, len(found), False,
                                     elapsed)
            )
        if self._delta is not None and len(self._delta):
            delta_found, delta_reports = self._delta.query_with_report(
                lean, q, t_star)
            results |= delta_found
            for report in delta_reports:
                report.tier = "delta"
            reports.extend(delta_reports)
        return results, reports

    def query_batch(self, batch, sizes: Sequence[int] | None = None,
                    threshold: float | None = None) -> list[set]:
        """:meth:`query` for many signatures in one pass.

        Semantically a pure optimisation: returns exactly
        ``[self.query(s, size, threshold) for s, size in zip(batch, sizes)]``
        but plans first and probes once — every (signature, partition)
        pair is pruned and tuned individually (Algorithm 1's per-query
        parameter selection, see :meth:`_plan_locked`), and the whole
        plan is then probed with one hash pass, probe, verify and merge
        per distinct ``r`` across all partitions.  One row and many take
        the same path.

        Parameters
        ----------
        batch:
            A :class:`~repro.minhash.batch.SignatureBatch` or a sequence
            of :class:`MinHash` / :class:`LeanMinHash` signatures.
        sizes:
            Per-signature domain sizes ``|Q|``; estimated from the
            signature matrix (vectorised ``approx(|Q|)``) when omitted.
        threshold:
            Containment threshold ``t*`` shared by the whole batch;
            defaults to the constructor threshold.
        """
        with self._lock:
            return self._query_batch_locked(batch, sizes, threshold)

    def _query_batch_locked(self, batch, sizes: Sequence[int] | None = None,
                            threshold: float | None = None) -> list[set]:
        if self._layout is None:
            raise RuntimeError("the index is empty; call index() first")
        sb, qs = normalise_queries(batch, sizes)
        n = len(sb)
        t_star = self.threshold if threshold is None else float(threshold)
        if not 0.0 <= t_star <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        if n == 0:
            return []
        if sb.num_perm != self.num_perm:
            raise ValueError(
                "batch num_perm %d does not match index num_perm %d"
                % (sb.num_perm, self.num_perm)
            )
        self._resolve_live_max_locked()
        results: list[set] = [set() for _ in range(n)]
        self._layout.probe(sb.matrix, *self._plan_locked(qs, t_star),
                           results)
        # Tombstones filter only the base-tier candidates; a key
        # re-inserted after removal lives in the delta and must survive.
        if self._tombstones:
            tombstones = self._tombstones
            for found in results:
                if found:
                    found.difference_update(tombstones)
        if self._delta is not None and len(self._delta):
            for found, extra in zip(results,
                                    self._delta.query_batch(sb, qs, t_star)):
                found |= extra
        return results

    def _bound(self, i: int) -> int:
        """Partition ``i``'s size bound ``u``.  Build-time clamped
        entries can exceed the nominal bound; stay conservative (the
        live per-partition max is tracked)."""
        return max(self._partitions[i].upper - 1,
                   self._partition_max_size[i])

    def _tune(self, u: int, q: int, t_star: float) -> TuningResult:
        """Algorithm 1's ``(b, r)`` for a partition bounded by ``u``
        (Eq. 26, memoised per size-ratio bucket)."""
        return tune_params_quantized(u, q, t_star, self.num_trees,
                                     self.max_depth, self.num_perm)

    def _plan_locked(self, qs: list[int], t_star: float) -> tuple:
        """Algorithm 1's pruning and parameter selection for a batch.

        Returns one ``(row, first slot, b, r)`` item per (query,
        partition) pair to probe, as the arrays
        :meth:`~repro.forest.layout.BucketLayout.probe` takes.  A
        partition whose bound ``u`` cannot hold ``t*`` of a query is
        pruned for it; tuning depends on ``(u, q)`` only through
        ``ratio_bucket(u, q)`` (the quantised tuner's memo key, computed
        here in one vectorised pass that agrees with the scalar one
        exactly), so each distinct (partition, bucket) pair is tuned
        once.
        """
        parts = np.flatnonzero(self._layout.partition_rows)
        bounds = [self._bound(i) for i in parts.tolist()]
        us = np.array(bounds, dtype=np.float64)
        qs_arr = np.asarray(qs, dtype=np.float64)
        if t_star > 0:
            # A domain of at most u values cannot contain t* of a
            # larger query.
            rows, cols = np.nonzero(t_star * qs_arr[:, None] <= us)
        else:
            rows, cols = np.divmod(np.arange(qs_arr.size * us.size),
                                   us.size)
        if not rows.size:
            return rows, rows, rows, rows
        buckets = ratio_buckets(us[cols], qs_arr[rows])
        low = int(buckets.min())
        span = int(buckets.max()) - low + 1
        codes = cols * span + (buckets - low)
        # Any row of a (partition, bucket) pair stands for all of them.
        sample = np.full(parts.size * span, -1, dtype=np.intp)
        sample[codes] = rows
        present = np.flatnonzero(sample >= 0)
        tunings = [self._tune(bounds[code // span], qs[row], t_star)
                   for code, row in zip(present.tolist(),
                                        sample[present].tolist())]
        b_of = np.zeros(sample.size, dtype=np.intp)
        r_of = np.zeros(sample.size, dtype=np.intp)
        b_of[present] = [tuning.b for tuning in tunings]
        r_of[present] = [tuning.r for tuning in tunings]
        return (rows, parts[cols] * self.num_trees, b_of[codes],
                r_of[codes])

    def signatures_for(self, keys: Iterable[Hashable]) -> tuple[dict, dict]:
        """``(signatures, sizes)`` of the live keys among ``keys`` —
        the candidate pool top-k ranking reads; absent keys are
        silently missing."""
        with self._lock:
            held = [key for key in keys if key in self]
            return ({key: self._signature_of(key) for key in held},
                    {key: self.size_of(key) for key in held})

    def _signature_of(self, key: Hashable) -> LeanMinHash:
        """Signature of a *live* key (either tier); no tombstone check.
        A base row is wrapped on demand, aliasing the matrix."""
        if self._delta is not None and key in self._delta:
            return self._delta.get_signature(key)
        row = self._rows[key]
        return LeanMinHash.wrap(int(self._seeds[row]),
                                self._layout.matrix[row])

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def get_signature(self, key: Hashable) -> LeanMinHash:
        """The stored signature for ``key`` (KeyError when absent)."""
        if key not in self:
            raise KeyError(key)
        return self._signature_of(key)

    def stats(self) -> dict:
        """Operational statistics: partition fill and size spread.

        Returns a dict with one entry per partition: bounds, live domain
        count, and the min/max live size routed there (delta entries are
        routed by the base partitions for this report) — the numbers an
        operator watches to decide when distribution drift warrants a
        :meth:`rebalance`, plus the tier sizes themselves.  See
        :meth:`drift_stats` for the condensed drift score.
        """
        with self._lock:
            return self._stats_locked()

    def _stats_locked(self) -> dict:
        if self._layout is None:
            raise RuntimeError("the index is empty; call index() first")
        parts = self._partitions
        sizes, idx = self._row_sizes, self._row_partitions()
        live = self._live_mask()
        if live is not None:
            sizes, idx = sizes[live], idx[live]
        if self._delta is not None and len(self._delta):
            extra = np.array([size for *_, size in self._delta.items()],
                             dtype=np.int64)
            sizes = np.concatenate((sizes, extra))
            idx = np.concatenate((idx, self._assign_partitions(np.clip(
                extra, parts[0].lower, parts[-1].upper - 1))))
        counts = np.bincount(idx, minlength=len(parts)).tolist()
        lows = np.full(len(parts), np.iinfo(np.int64).max)
        highs = np.zeros(len(parts), dtype=np.int64)
        np.minimum.at(lows, idx, sizes)
        np.maximum.at(highs, idx, sizes)
        per_partition = [
            {"lower": p.lower, "upper": p.upper, "count": count,
             "min_size": low if count else None,
             "max_size": high if count else None}
            for p, count, low, high in zip(parts, counts, lows.tolist(),
                                           highs.tolist())]
        mean = sum(counts) / len(counts)
        variance = sum((c - mean) ** 2 for c in counts) / len(counts)
        return {
            "num_domains": len(self),
            "num_partitions": len(self._partitions),
            "partition_count_std": variance ** 0.5,
            "partitions": per_partition,
            "base_keys": len(self._rows) - len(self._tombstones),
            "delta_keys": len(self._delta) if self._delta is not None else 0,
            "tombstones": len(self._tombstones),
            "generation": self._generation,
            "mutation_epoch": self._mutation_epoch,
        }

    @property
    def partitions(self) -> list[Partition]:
        """The partition intervals the base tier was built with."""
        return list(self._partitions)

    @property
    def kernel(self):
        """The resolved hot-loop kernel backend (see :mod:`repro.kernels`)."""
        return self._kernel

    @property
    def generation(self) -> int:
        """Compaction generation: 0 at build, +1 per :meth:`rebalance`."""
        return self._generation

    @property
    def mutation_epoch(self) -> int:
        """Monotonic logical-mutation counter: 0 at build, +1 per
        :meth:`insert` / :meth:`remove` / :meth:`rebalance`.

        ``generation`` only moves on compaction, so two snapshots of the
        index can share a generation yet answer differently; the epoch
        distinguishes them.  A result computed at epoch E is valid
        exactly while ``mutation_epoch == E`` — the serving layer's
        result cache keys on it.
        """
        return self._mutation_epoch

    def size_of(self, key: Hashable) -> int:
        """The recorded domain size for ``key``."""
        if self._delta is not None and key in self._delta:
            return self._delta.size_of(key)
        if key in self._tombstones:
            raise KeyError(key)
        return int(self._row_sizes[self._rows[key]])

    def keys(self) -> Iterable[Hashable]:
        """Every live key: base rows in row (partition-major) order,
        then the delta tier's."""
        tombstones = self._tombstones
        yield from (key for key in self._rows if key not in tombstones)
        if self._delta is not None:
            yield from (key for key, _, __ in self._delta.items())

    def __contains__(self, key: Hashable) -> bool:
        if self._delta is not None and key in self._delta:
            return True
        return key in self._rows and key not in self._tombstones

    def __len__(self) -> int:
        delta = len(self._delta) if self._delta is not None else 0
        return len(self._rows) - len(self._tombstones) + delta

    def is_empty(self) -> bool:
        return len(self) == 0

    def __repr__(self) -> str:
        return ("LSHEnsemble(threshold=%.2f, num_perm=%d, partitions=%d, "
                "keys=%d, generation=%d)"
                % (self.threshold, self.num_perm, len(self._partitions),
                   len(self), self._generation))
