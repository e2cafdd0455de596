"""The ``python`` kernel backend — the bit-exact reference.

The three ops as scalar loops (integer FNV, ``bisect`` probing, one set
insert per bucket member) over the same bucket-layout arrays the
``numpy`` backend reads, so every index answers through the same build,
verify and run-scan code whichever kernel is selected — only the ops
differ.  The property suite pins each vectorised op against its scalar
twin here, and whole answers against this backend's.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.kernels.base import Kernel, ProbeIndex

__all__ = ["PythonKernel"]

_OFFSET = 0xCBF29CE484222325
_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1


class PythonKernel(Kernel):
    """Scalar reference ops."""

    name = "python"

    def band_hash(self, lanes, salt=None):
        lanes = np.asarray(lanes, dtype=np.uint64)
        shape = lanes.shape[:-1]
        if salt is None:
            salts = np.zeros(shape, dtype=np.uint64)
        else:
            salts = np.broadcast_to(np.asarray(salt, dtype=np.uint64),
                                    shape)
        out = np.empty(shape, dtype=np.uint64)
        flat_lanes = lanes.reshape(-1, lanes.shape[-1])
        flat_salts = salts.reshape(-1)
        flat_out = out.reshape(-1)
        for i in range(flat_lanes.shape[0]):
            h = _OFFSET ^ int(flat_salts[i])
            for lane in flat_lanes[i].tolist():
                h = ((h ^ lane) * _PRIME) & _MASK
            flat_out[i] = h
        return out

    def probe(self, sorted_hashes, probes):
        table = sorted_hashes.tolist()
        last = len(table) - 1
        pos = np.empty(len(probes), dtype=np.intp)
        hits = []
        for i, p in enumerate(np.asarray(probes).tolist()):
            k = min(bisect_left(table, p), last)
            pos[i] = k
            if table[k] == p:
                hits.append(i)
        return pos, np.asarray(hits, dtype=np.intp)

    def merge(self, results, rows, hit_rows, hit_pos, index: ProbeIndex):
        member_ids, offsets, keys = index.columns()
        for j, p in zip(np.asarray(hit_rows).tolist(),
                        np.asarray(hit_pos).tolist()):
            add = results[rows[j]].add
            for i in member_ids[offsets[p]:offsets[p + 1]].tolist():
                add(keys[i])
