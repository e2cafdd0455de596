"""Kernel interface: the three hot loops behind every LSH query path.

Profiling the batch query path at 1M+ domains (the ROADMAP's 10M-scale
target; the paper itself stops at 575k in Table 4) shows the time going
to three loops, and only three:

* **band hashing** — FNV-1a over the packed uint64 lanes of every
  (row, tree) band prefix of a signature matrix;
* **probing** — binary search of the hashed probes against the sorted
  hashes of all stored bucket keys;
* **merging** — the union of every verified hit's bucket members into
  the per-query candidate sets.

A :class:`Kernel` bundles one implementation of each.  The ``python``
backend keeps the plain dict/loop code as the bit-exact reference; the
``numpy`` backend is the vectorised production path.  Backends are
registered by name (see :mod:`repro.kernels`) exactly like partitioners
— a compiled backend would plug in through
:func:`repro.kernels.register_kernel` — and the chosen name is recorded
in snapshot headers so process-pool workers and loaded indexes adopt
the builder's choice.

Every backend must be *bit-identical* to ``python`` — the property suite
(`tests/kernels/`) enforces it — so selection is purely a performance
decision and can never change a query answer.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Kernel", "ProbeIndex", "SortedHashes"]


class Kernel:
    """One backend for the band-hash / probe / merge hot loops.

    ``vectorized`` gates dispatch in the forest and storage layers: a
    non-vectorised kernel (the ``python`` reference) makes callers take
    their plain per-probe loops, which *is* the reference implementation
    — its op methods below exist so the property suite can also pin the
    vectorised backends' ops one at a time.
    """

    name: str = "?"
    #: Whether callers should take their batch-vectorised paths.
    vectorized: bool = True

    def band_hash(self, lanes: np.ndarray,
                  salt: np.ndarray | np.uint64 | None = None) -> np.ndarray:
        """FNV-1a over the last axis of ``lanes`` (uint64), one hash per
        leading-shape element.  ``salt`` broadcasts against the output
        shape and distinguishes key spaces sharing one index (e.g. the
        trees of a forest)."""
        raise NotImplementedError

    def probe(self, sorted_hashes: np.ndarray,
              probes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Binary-search ``probes`` in ``sorted_hashes`` (both uint64).

        Returns ``(pos, hits)``: ``pos[i]`` is the clamped insertion
        point of ``probes[i]`` and ``hits`` the probe indices whose
        hash actually matched (``sorted_hashes[pos[i]] == probes[i]``).
        ``sorted_hashes`` must be non-empty.
        """
        raise NotImplementedError

    def probe_hits(self, index: "SortedHashes",
                   probes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`probe` when only the *hits* matter — the query path.

        Same return shape as :meth:`probe`, with a weaker contract that
        unlocks faster structures: ``hits`` must be identical, and
        ``pos[i]`` must equal :meth:`probe`'s for every ``i`` in
        ``hits`` (the leftmost match), but ``pos`` entries of missed
        probes are unspecified.  ``index`` is a :class:`SortedHashes`
        (or subclass), so backends can lazily attach an acceleration
        structure to it via :meth:`SortedHashes.aux` — the numpy
        backend hangs an open-addressing hash table there, turning the
        ~``log2(n)`` dependent cache misses of a binary search into
        ~1 gather per probe at large ``n``.
        """
        return self.probe(index.hashes, probes)

    def merge(self, results: list, rows, hit_rows: np.ndarray,
              hit_pos: np.ndarray, index: "ProbeIndex") -> None:
        """Union the bucket of every verified hit into the caller's sets.

        Hit ``i`` unions ``index.buckets[hit_pos[i]]`` into
        ``results[rows[hit_rows[i]]]``.  ``hit_rows`` is non-decreasing
        (probe hits come out of a row-major scan) — vectorised backends
        rely on that to group hits per row without a sort.
        """
        raise NotImplementedError


class SortedHashes:
    """A sorted uint64 hash array plus a backend-owned lookup structure.

    The minimal probe-side index: :meth:`Kernel.probe_hits` takes one of
    these (the storage layer's packed-key prefilter uses it directly;
    the forest's richer :class:`ProbeIndex` subclasses it).  ``aux``
    lazily attaches whatever acceleration structure the active backend
    wants (the numpy kernel's hash table) — cached here because the
    holder's lifetime IS the structure's validity: any mutation of the
    underlying buckets discards the whole holder, never the array in
    place.
    """

    __slots__ = ("hashes", "_aux")

    def __init__(self, hashes: np.ndarray) -> None:
        self.hashes = hashes
        self._aux = None

    def aux(self, build):
        """The cached acceleration structure, built on first use.

        ``build(hashes)`` runs at most once per holder; backends must
        therefore derive the structure purely from ``hashes`` (two
        backends sharing one holder is not supported — a holder belongs
        to the index that owns it, which resolved exactly one kernel).
        """
        structure = self._aux
        if structure is None:
            structure = self._aux = build(self.hashes)
        return structure


class ProbeIndex(SortedHashes):
    """The forest's per-depth probe-side view of all stored bucket keys.

    Built once per (depth, mutation generation) by
    :meth:`~repro.forest.prefix_forest.PrefixForest._probe_index` and
    handed to the kernel ops: ``hashes`` are the sorted salted key
    hashes, ``tree_ids`` / ``prefix_lanes`` the per-key verification
    lanes and ``buckets`` the live bucket views, all aligned with the
    sort order.  ``ambiguous`` holds hash values shared by more than one
    stored key (64-bit collisions) — probes failing lane verification
    there are re-checked against the real tables by the caller.

    :meth:`columns` lazily flattens the buckets into one columnar
    ``(member_ids, offsets, id_to_key)`` triple so a vectorised merge
    can gather candidate IDs with array ops instead of per-bucket set
    unions; the flatten cost is paid once per index build and only when
    a merge actually wants it.
    """

    __slots__ = ("tree_ids", "prefix_lanes", "buckets",
                 "ambiguous", "_columns")

    def __init__(self, hashes: np.ndarray, tree_ids: np.ndarray,
                 prefix_lanes: np.ndarray, buckets: list,
                 ambiguous: frozenset) -> None:
        super().__init__(hashes)
        self.tree_ids = tree_ids
        self.prefix_lanes = prefix_lanes
        self.buckets = buckets
        self.ambiguous = ambiguous
        self._columns: tuple | None = None

    def columns(self) -> tuple:
        """``(member_ids, offsets, id_to_key)`` over all buckets.

        ``member_ids[offsets[p]:offsets[p + 1]]`` are integer IDs of the
        members of ``buckets[p]``; ``id_to_key`` maps ID back to the
        stored key.  Safe to cache alongside the index: any bucket
        mutation invalidates the whole probe index (the forest clears
        its cache), never the buckets in place underneath a live one.
        """
        cols = self._columns
        if cols is None:
            id_of: dict = {}
            id_to_key: list = []
            ids: list[int] = []
            offsets = np.empty(len(self.buckets) + 1, dtype=np.int64)
            offsets[0] = 0
            for p, bucket in enumerate(self.buckets):
                for key in bucket:
                    i = id_of.get(key)
                    if i is None:
                        i = len(id_to_key)
                        id_of[key] = i
                        id_to_key.append(key)
                    ids.append(i)
                offsets[p + 1] = len(ids)
            member_ids = np.asarray(ids, dtype=np.int64)
            # Object array, not list: lets the merge gather whole key
            # segments with one fancy index instead of a Python loop.
            keys_arr = np.empty(len(id_to_key), dtype=object)
            keys_arr[:] = id_to_key
            cols = self._columns = (member_ids, offsets, keys_arr)
        return cols
