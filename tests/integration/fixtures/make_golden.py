"""Regenerate the golden snapshot fixtures under ``golden/``.

Usage (from the repository root)::

    PYTHONPATH=src python tests/integration/fixtures/make_golden.py [OUT]

``OUT`` defaults to ``tests/integration/fixtures/golden``.  The script
builds a ~300-domain power-law corpus at ``num_perm=32`` and writes

* ``flat.lshe`` — the built index as a single-file v2 snapshot;
* ``manifest/`` — the same build plus delta-tier inserts (some flushed,
  some staged) and tombstones, saved as a dynamic manifest directory;
* ``golden_answers.json`` — the query signatures and, per snapshot,
  ``query_batch`` answers at t* 0.3 / 0.5 / 0.9 and
  ``query_top_k_batch`` answers at k = 5 (scores as exact ``repr``
  strings).

``tests/integration/test_golden_snapshots.py`` loads both snapshots,
checks their answers against the JSON, and re-saves each into a fresh
path, asserting the bytes equal the committed files.  Rerun this script
only when a format or answer change is intended, and commit its output.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

from repro import LSHEnsemble, SignatureBatch, SignatureFactory, save_ensemble
from repro.datagen.corpus import generate_corpus

NUM_PERM = 32
THRESHOLDS = ("0.3", "0.5", "0.9")
TOP_K = 5
NUM_BASE = 290
NUM_DELTA = 20


def _corpus():
    """Base and delta domains (disjoint keys), deterministic."""
    corpus = generate_corpus(num_domains=NUM_BASE + NUM_DELTA, alpha=1.8,
                             min_size=5, max_size=400, num_topics=12,
                             seed=2016)
    keys = sorted(corpus)
    base = {key: corpus[key] for key in keys[:NUM_BASE]}
    delta = {"n" + key[1:]: corpus[key] for key in keys[NUM_BASE:]}
    return base, delta


def build_indexes():
    """``(flat, dynamic, queries, sizes)``: the two snapshot subjects
    and the query rows both answer."""
    base, delta = _corpus()
    factory = SignatureFactory(num_perm=NUM_PERM, seed=1)
    sigs = {key: factory.lean(values)
            for key, values in {**base, **delta}.items()}

    def build():
        index = LSHEnsemble(threshold=0.5, num_perm=NUM_PERM,
                            num_partitions=8)
        index.index((key, sigs[key], len(values))
                    for key, values in base.items())
        return index

    flat = build()
    dynamic = build()
    delta_keys = sorted(delta)
    for key in delta_keys[:12]:
        dynamic.insert(key, sigs[key], len(delta[key]))
    # A query flushes the first twelve into the delta's inner index; the
    # rest stay staged until the save flushes them.
    dynamic.query(sigs[delta_keys[0]], size=len(delta[delta_keys[0]]))
    for key in delta_keys[12:]:
        dynamic.insert(key, sigs[key], len(delta[key]))
    dynamic.remove(delta_keys[1])     # flushed: physical delta removal
    dynamic.remove(delta_keys[-1])    # still staged
    base_keys = sorted(base)
    for key in base_keys[::29]:       # ten tombstones
        dynamic.remove(key)
    query_keys = base_keys[::17] + delta_keys[::5] + base_keys[15::75]
    queries = [sigs[key] for key in query_keys]
    sizes = [len(base.get(key) or delta[key]) for key in query_keys]
    return flat, dynamic, queries, sizes


def answers(index, batch: SignatureBatch, sizes: list[int]) -> dict:
    """The golden answer table of one snapshot."""
    table = {"query_batch": {}}
    for threshold in THRESHOLDS:
        found = index.query_batch(batch, sizes=sizes,
                                  threshold=float(threshold))
        table["query_batch"][threshold] = [sorted(hits) for hits in found]
    table["top_k"] = [
        [[key, repr(score)] for key, score in row]
        for row in index.query_top_k_batch(batch, TOP_K, sizes=sizes)]
    return table


def main(argv: list[str]) -> int:
    out = Path(argv[1]) if len(argv) > 1 else Path(__file__).with_name(
        "golden")
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    flat, dynamic, queries, sizes = build_indexes()
    save_ensemble(flat, out / "flat.lshe")
    save_ensemble(dynamic, out / "manifest", version=3)
    batch = SignatureBatch.from_signatures(queries)
    golden = {
        "num_perm": NUM_PERM,
        "seed": batch.seed,
        "queries": np.ascontiguousarray(batch.matrix, dtype="<u8")
        .tobytes().hex(),
        "sizes": sizes,
        "answers": {"flat": answers(flat, batch, sizes),
                    "manifest": answers(dynamic, batch, sizes)},
    }
    (out / "golden_answers.json").write_text(
        json.dumps(golden, separators=(",", ":"), sort_keys=True) + "\n",
        encoding="utf-8")
    total = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    print("wrote %s (%d bytes)" % (out, total))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
