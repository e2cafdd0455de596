"""Batched queries: answer many containment searches in one pass.

The paper's deployment (Section 6.3) serves heavy query traffic; the
binding constraint there is throughput, not single-query latency.  This
example shows the batch API end to end:

1. ``MinHashGenerator.bulk`` hashes many query domains into one
   ``SignatureBatch`` (a single ``(n, num_perm)`` matrix) with one
   vectorised numpy pass;
2. ``LSHEnsemble.query_batch`` answers the whole batch partition-major,
   packing all band bucket keys per partition with one byte-packing
   expression — same results as a loop of ``query`` calls, much less
   per-query Python overhead;
3. ``RouterIndex.query_batch`` fans the batch out across four shards
   (here in-process; deployed, each is a ``cli shardnode`` behind
   ``cli router``) and unions their answers — one fan-out per batch,
   not per query, and the same answers as the flat index.

Run:  python examples/batch_queries.py
"""

import time

from repro import LSHEnsemble, MinHashGenerator
from repro.serve.executor import InProcessExecutor
from repro.serve.router import RouterIndex

# ---------------------------------------------------------------------- #
# 1. A synthetic corpus: categorical domains with planted containment.
# ---------------------------------------------------------------------- #

CORPUS = {}
for i in range(400):
    # Families of overlapping domains: domain i contains the values of
    # family root i - (i % 4).
    root = i - (i % 4)
    CORPUS["domain_%03d" % i] = {
        "val_%d_%d" % (root, j) for j in range(10 + 2 * (i % 4))
    }

generator = MinHashGenerator(num_perm=128, seed=1)

index = LSHEnsemble(threshold=0.7, num_perm=128, num_partitions=8)
index.index(
    (name, generator.lean(values), len(values))
    for name, values in CORPUS.items()
)

# ---------------------------------------------------------------------- #
# 2. Build a batch of query signatures in one vectorised pass.
# ---------------------------------------------------------------------- #

queries = {name: CORPUS[name] for name in list(CORPUS)[::8]}
batch = generator.bulk(queries)
sizes = [len(queries[name]) for name in batch.keys]
print("query batch: %d signatures, matrix shape %s"
      % (len(batch), batch.matrix.shape))

# ---------------------------------------------------------------------- #
# 3. Answer the whole batch at once, and compare with the query loop.
# ---------------------------------------------------------------------- #

t0 = time.perf_counter()
batch_results = index.query_batch(batch, sizes=sizes)
batch_seconds = time.perf_counter() - t0

t0 = time.perf_counter()
loop_results = [
    index.query(batch[j], size=sizes[j]) for j in range(len(batch))
]
loop_seconds = time.perf_counter() - t0

assert batch_results == loop_results  # the batch path is exact
print("loop : %5.1f ms for %d queries" % (loop_seconds * 1e3, len(batch)))
print("batch: %5.1f ms for %d queries (%.1fx)"
      % (batch_seconds * 1e3, len(batch),
         loop_seconds / max(batch_seconds, 1e-9)))

name = batch.keys[3]
print("\nexample result for %s: %s"
      % (name, sorted(batch_results[3])))

# ---------------------------------------------------------------------- #
# 4. The same batch through a router over four shards, and ranked top-k.
# ---------------------------------------------------------------------- #

names = list(CORPUS)
shards = {}
for i in range(4):
    shard = LSHEnsemble(threshold=0.7, num_perm=128, num_partitions=8)
    # Shards built with the flat index's partition bounds tune exactly
    # like it, so the router's union equals the flat answer.
    shard.index(((name, generator.lean(CORPUS[name]), len(CORPUS[name]))
                 for name in names[i::4]), partitions=index.partitions)
    shards["shard_%d" % i] = InProcessExecutor(shard)
with RouterIndex.from_executors(shards) as router:
    routed_results = router.query_batch(batch, sizes=sizes)
assert routed_results == batch_results
print("\nrouted batch: %d result sets (first: %s)"
      % (len(routed_results), sorted(routed_results[0])))

top = index.query_top_k_batch(batch, 3, sizes=sizes)
print("\ntop-3 by estimated containment for %s:" % batch.keys[0])
for key, score in top[0]:
    print("  %-12s ~t = %.2f" % (key, score))
