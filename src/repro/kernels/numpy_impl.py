"""The ``numpy`` kernel backend — the default production path.

One FNV-1a pass per band over the whole signature matrix, an
open-addressing hash table for probing large batches (binary search
stays the :meth:`probe` op and answers small ones), and a columnar merge
that gathers member row ids from the bucket layout's CSR arrays and
dedups them before touching any Python set.  Bit-identical to the
``python`` reference (the property suite pins it); faster because every
per-probe decision happens inside numpy.

Why a hash table: at 1M+ domains the sorted hash arrays are tens of MB,
so each binary search is ~``log2(n)`` *dependent* DRAM misses.  The
table (linear probing, load factor <= 0.25, hash and position packed
into one 16-byte row so a probe's verify never leaves its cache line)
gets that down to ~1 gather per probe, and both build and lookup are
whole-batch numpy passes.  Its fixed cost per call is ~10 array ops per
round, so a few hundred probes — a one-row query — are cheaper to
binary-search.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import Kernel, ProbeIndex, SortedHashes

__all__ = ["NumpyKernel", "fnv1a_lanes"]

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)

# Fibonacci multiplicative hashing spreads the (already FNV-mixed)
# 64-bit keys over the table's power-of-two slots.
_SLOT_MULT = np.uint64(0x9E3779B97F4A7C15)

# Below this many stored hashes a binary search stays cache-resident
# and beats the table's build cost + fixed lookup overhead.
_MIN_TABLE_KEYS = 8192

# At or below this many probes (whether a whole small batch or the
# stragglers a table walk leaves in long collision clusters) one binary
# search beats another round of whole-array table ops.
_BINARY_SEARCH_PROBES = 256


def _build_probe_table(sorted_hashes: np.ndarray):
    """Open-addressing table over the *distinct* values of a sorted
    uint64 array: ``(table, shift, mask)``.

    ``table`` is ``(size, 2)`` uint64 — column 0 the stored hash,
    column 1 the leftmost position in ``sorted_hashes`` plus one (0
    marks an empty slot), packed side by side so a lookup's compare and
    its position read share one 16-byte row.  Insertion is whole-batch:
    every round writes one pending key into each contested free slot
    (``np.unique`` picks the winner, so no duplicate fancy writes) and
    advances the rest one slot; at least one key lands per round, so
    the loop terminates in O(max cluster) rounds.
    """
    n = sorted_hashes.size
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(sorted_hashes[1:], sorted_hashes[:-1], out=first[1:])
    positions = np.flatnonzero(first)
    keys = sorted_hashes[positions]
    size = 1 << max(4, int(4 * keys.size - 1).bit_length())
    shift = np.uint64(64 - size.bit_length() + 1)
    mask = np.int64(size - 1)
    table = np.zeros((size, 2), dtype=np.uint64)
    stored = positions.astype(np.uint64) + np.uint64(1)
    idx = ((keys * _SLOT_MULT) >> shift).astype(np.int64)
    pending = np.arange(keys.size)
    while pending.size:
        slots = idx[pending]
        free = table[slots, 1] == 0
        writers = pending[free]
        wslots = slots[free]
        uniq_slots, sel = np.unique(wslots, return_index=True)
        winners = writers[sel]
        table[uniq_slots, 0] = keys[winners]
        table[uniq_slots, 1] = stored[winners]
        lost = np.ones(writers.size, dtype=bool)
        lost[sel] = False
        pending = np.concatenate((pending[~free], writers[lost]))
        idx[pending] = (idx[pending] + 1) & mask
    return table, shift, mask


def fnv1a_lanes(lanes: np.ndarray,
                salt: np.ndarray | np.uint64 | None = None) -> np.ndarray:
    """Vectorised FNV-1a over the uint64 lanes of packed bucket keys.

    ``lanes`` holds one key per row (last axis = the key's 8-byte lanes);
    returns one uint64 hash per row.  The bucket layout sorts buckets by
    this hash and verifies every hash match against the bucket's own
    lanes, so a 64-bit collision can cost a wasted comparison, never a
    wrong result.  ``salt`` distinguishes key spaces sharing one index
    (e.g. one hash array for all trees of a forest).
    """
    h = np.bitwise_xor(_FNV_OFFSET if salt is None else _FNV_OFFSET ^ salt,
                       lanes[..., 0])
    h = h * _FNV_PRIME
    for c in range(1, lanes.shape[-1]):
        h = (h ^ lanes[..., c]) * _FNV_PRIME
    return h


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` without its per-call overhead (several times the
    sort itself at the few hundred values of a one-row query)."""
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


class NumpyKernel(Kernel):
    """Batch-vectorised band-hash / probe / merge."""

    name = "numpy"

    def band_hash(self, lanes, salt=None):
        return fnv1a_lanes(lanes, salt)

    def probe(self, sorted_hashes, probes):
        pos = np.searchsorted(sorted_hashes, probes)
        np.minimum(pos, sorted_hashes.size - 1, out=pos)
        hits = np.nonzero(sorted_hashes[pos] == probes)[0]
        return pos, hits

    def probe_hits(self, index: SortedHashes, probes):
        if (index.hashes.size < _MIN_TABLE_KEYS
                or probes.size <= _BINARY_SEARCH_PROBES):
            return self.probe(index.hashes, probes)
        table, shift, mask = index.aux(_build_probe_table)
        m = probes.size
        pos = np.zeros(m, dtype=np.intp)
        hit = np.zeros(m, dtype=bool)
        idx = ((probes * _SLOT_MULT) >> shift).astype(np.int64)
        active = np.arange(m)
        pv = probes
        while active.size > _BINARY_SEARCH_PROBES:
            rows = table[idx]
            occupied = rows[:, 1] != 0
            match = occupied & (rows[:, 0] == pv)
            if match.any():
                where = active[match]
                hit[where] = True
                pos[where] = rows[match, 1].astype(np.intp) - 1
            # Occupied by a different hash: advance one slot.  An empty
            # slot proves absence (nothing is ever deleted from the
            # table — a changed index is a new holder).
            cont = occupied ^ match  # match is a subset of occupied
            active = active[cont]
            pv = pv[cont]
            idx = (idx[cont] + 1) & mask
        if active.size:
            # Collision-cluster stragglers: one binary search settles
            # them all instead of a whole-array round per cluster slot.
            tail_pos, tail_hits = self.probe(index.hashes, pv)
            where = active[tail_hits]
            hit[where] = True
            pos[where] = tail_pos[tail_hits]
        return pos, np.flatnonzero(hit)

    def merge(self, results, rows, hit_rows, hit_pos, index: ProbeIndex):
        """Gather every hit bucket's member ids from the CSR arrays into
        one flat buffer and dedup ``(row, id)`` pairs before touching
        the Python sets — the per-member Python cost is one set insert
        per *unique* candidate, and row ids become keys through one
        object gather."""
        hit_pos = np.asarray(hit_pos, dtype=np.intp)
        if not hit_pos.size:
            return
        member_ids, offsets, keys = index.columns()
        starts = offsets[hit_pos]
        counts = offsets[hit_pos + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return
        cum = np.cumsum(counts) - counts  # gather-space start of each hit
        gather = np.repeat(starts - cum, counts)
        gather += np.arange(total)
        ids = member_ids[gather].astype(np.int64)
        hit_rows = np.asarray(hit_rows, dtype=np.int64)
        if hit_rows[0] == hit_rows[-1] and (hit_rows == hit_rows[0]).all():
            results[rows[int(hit_rows[0])]].update(
                keys[_sorted_unique(ids)].tolist())
            return
        # (row, id) packs into one int64 (both factors are list
        # lengths, so the product stays well inside the type), and one
        # sort-dedup replaces a per-row loop.
        width = np.int64(keys.size)
        pairs = _sorted_unique(np.repeat(hit_rows, counts) * width + ids)
        urows = pairs // width
        uids = pairs - urows * width
        splits = np.flatnonzero(urows[1:] != urows[:-1]) + 1
        seg_rows = urows[np.concatenate(([0], splits))]
        members = keys[uids]  # one object gather for every segment
        for j, seg in zip(seg_rows.tolist(), np.split(members, splits)):
            results[rows[j]].update(seg.tolist())
