"""Kernel interface: the three hot loops behind every LSH query path.

Profiling the batch query path at 1M+ domains (the ROADMAP's 10M-scale
target; the paper itself stops at 575k in Table 4) shows the time going
to three loops, and only three:

* **band hashing** — FNV-1a over the packed uint64 lanes of every
  (row, tree) band prefix of a signature matrix;
* **probing** — search of the hashed probes in the sorted hashes of
  all stored buckets;
* **merging** — the union of every verified hit's bucket members into
  the per-query candidate sets.

A :class:`Kernel` bundles one implementation of each.  Every index
builds and probes one bucket layout (:class:`ProbeIndex`, built by
:mod:`repro.forest.layout`) and calls these three ops on its arrays,
whichever backend is selected: the ``python`` backend runs them as
scalar loops and is the bit-exact reference; the ``numpy`` backend is
the vectorised production path.  Backends are registered by name (see
:mod:`repro.kernels`) exactly like partitioners — a compiled backend
would plug in through :func:`repro.kernels.register_kernel` — and the
chosen name is recorded in snapshot headers so process-pool workers and
loaded indexes adopt the builder's choice.

Every backend must be *bit-identical* to ``python`` — the property suite
(`tests/kernels/`) enforces it — so selection is purely a performance
decision and can never change a query answer.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Kernel", "ProbeIndex", "SortedHashes"]


class Kernel:
    """One backend for the band-hash / probe / merge hot loops."""

    name: str = "?"

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

        Hit ``i`` unions the members of bucket ``hit_pos[i]`` (see
        :meth:`ProbeIndex.columns`) into ``results[rows[hit_rows[i]]]``;
        hits may come in any order.
        """
        raise NotImplementedError


class SortedHashes:
    """A sorted uint64 hash array plus a backend-owned lookup structure.

    The minimal probe-side index: :meth:`Kernel.probe_hits` takes one of
    these (the bucket layout's :class:`ProbeIndex` subclasses it).
    ``aux`` lazily attaches whatever acceleration structure the active
    backend wants (the numpy kernel's hash table) — cached here because
    the holder is immutable: a changed index is a new holder, never an
    array rewritten in place.
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
    """All buckets of one depth, as sorted contiguous arrays.

    The repository's one bucket representation.  Bucket ``p`` has the
    salted band hash ``hashes[p]`` (sorted ascending), the verification
    pair ``tree_ids[p]`` (the slot: which tree of which partition) and
    ``prefix_lanes[p]`` (the band prefix itself), and the members
    ``row_ids[offsets[p]:offsets[p + 1]]`` of :meth:`columns` — int32
    row ids that become keys only through the one ``keys`` object
    array, at the very end of a merge.

    Buckets sharing a hash (a 64-bit collision) sit in one contiguous
    run; ``ambiguous`` holds those hash values, and a probe whose
    verification fails on the run's first bucket scans the rest of the
    run, so answers stay exact.

    :mod:`repro.forest.layout` builds these straight from a signature
    matrix (:meth:`from_columns`); the constructor takes explicit
    bucket member sets, for kernel-level tests and benches.
    """

    __slots__ = ("tree_ids", "prefix_lanes", "ambiguous", "_columns")

    def __init__(self, hashes: np.ndarray, tree_ids: np.ndarray,
                 prefix_lanes: np.ndarray, buckets: list,
                 ambiguous: frozenset) -> None:
        id_of: dict = {}
        ids: list[int] = []
        offsets = np.empty(len(buckets) + 1, dtype=np.int64)
        offsets[0] = 0
        for p, bucket in enumerate(buckets):
            for key in bucket:
                ids.append(id_of.setdefault(key, len(id_of)))
            offsets[p + 1] = len(ids)
        keys = np.fromiter(id_of, dtype=object, count=len(id_of))
        self._init(hashes, tree_ids, prefix_lanes,
                   (np.asarray(ids, dtype=np.int32), offsets, keys),
                   ambiguous)

    @classmethod
    def from_columns(cls, hashes: np.ndarray, tree_ids: np.ndarray,
                     prefix_lanes: np.ndarray, columns: tuple,
                     ambiguous: frozenset) -> "ProbeIndex":
        """An index over ready-made ``(row_ids, offsets, keys)`` arrays."""
        index = cls.__new__(cls)
        index._init(hashes, tree_ids, prefix_lanes, columns, ambiguous)
        return index

    def _init(self, hashes, tree_ids, prefix_lanes, columns,
              ambiguous) -> None:
        SortedHashes.__init__(self, hashes)
        self.tree_ids = tree_ids
        self.prefix_lanes = prefix_lanes
        self.ambiguous = ambiguous
        self._columns = columns

    def columns(self) -> tuple:
        """``(row_ids, offsets, keys)``: bucket ``p``'s members are
        ``keys[row_ids[offsets[p]:offsets[p + 1]]]``."""
        return self._columns

    @property
    def buckets(self) -> list[set]:
        """Every bucket's members as a set (diagnostics and tests)."""
        row_ids, offsets, keys = self._columns
        return [set(keys[row_ids[lo:hi]].tolist())
                for lo, hi in zip(offsets[:-1].tolist(),
                                  offsets[1:].tolist())]
