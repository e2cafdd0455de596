"""Process-parallel queries over a shared mmap snapshot.

Builds a small corpus, saves it as a v2 columnar snapshot, then answers
the same batch two ways and shows the answers are identical:

1. in-process (the GIL-bound baseline),
2. through a :class:`~repro.parallel.procpool.PooledIndex` — worker
   processes that memory-map the very snapshot file the parent loaded.

It then mutates the live index (insert + remove) and queries again:
the pending delta entries and tombstones ship to the workers inside
each task's overlay, so process-mode answers track mutations with no
re-save.  Run: ``python examples/procpool_demo.py``.
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core.ensemble import LSHEnsemble
from repro.minhash.batch import SignatureBatch
from repro.minhash.generator import sample_signatures
from repro.parallel.procpool import PooledIndex
from repro.persistence import load_ensemble, save_ensemble

NUM_PERM = 128
NUM_DOMAINS = 1500
WORKERS = 2


def build_entries():
    rng = np.random.default_rng(11)
    sizes = np.clip((10 * (1 + rng.pareto(1.5, size=NUM_DOMAINS))).astype(int),
                    10, 50_000)
    signatures = sample_signatures(sizes.tolist(), num_perm=NUM_PERM,
                                   seed=1, rng=rng)
    return [("domain-%04d" % i, sig, int(size))
            for i, (sig, size) in enumerate(zip(signatures, sizes))]


def main() -> None:
    entries = build_entries()
    matrix = np.vstack([sig.hashvalues for _, sig, __ in entries[:32]])
    batch = SignatureBatch(None, matrix, seed=1)
    sizes = [size for _, __, size in entries[:32]]

    workdir = Path(tempfile.mkdtemp(prefix="procpool-demo-"))
    snapshot = workdir / "corpus.lshe"

    index = LSHEnsemble(num_perm=NUM_PERM, num_partitions=8, threshold=0.5)
    index.index(entries)
    save_ensemble(index, snapshot)
    loaded = load_ensemble(snapshot, mmap=True)
    in_process = loaded.query_batch(batch, sizes=sizes, threshold=0.5)

    # Workers mmap the same snapshot file: one page-cache copy of the
    # signature matrix, no per-worker copies.
    with PooledIndex(loaded, num_workers=WORKERS,
                     source_path=snapshot) as pooled:
        process_rows = pooled.query_batch(batch, sizes=sizes,
                                          threshold=0.5)
        print("flat process == in-process: %s"
              % (process_rows == in_process))

        # Mutations ship to workers as overlay payloads — no re-save.
        new_sig = sample_signatures([64], num_perm=NUM_PERM, seed=1)[0]
        loaded.insert("fresh-domain", new_sig, 64)
        loaded.remove(entries[0][0])
        after = pooled.query_batch(batch, sizes=sizes, threshold=0.5)
        live = loaded.query_batch(batch, sizes=sizes, threshold=0.5)
        print("after insert+remove, process == live parent: %s"
              % (after == live))
        hit = pooled.query(new_sig, size=64, threshold=0.95)
        print("workers see the pending delta entry: %s"
              % ("fresh-domain" in hit))
        print("pool: %s" % pooled.pool.stats())


if __name__ == "__main__":
    main()
