"""Web-scale search, simulated: a router over five shards of 50k domains.

The paper's Section 6.3 deployment: the corpus is split into equal chunks
across cluster nodes, each node holds an LSH Ensemble over its chunk, a
query fans out to every node and the answers are unioned.  This example
reproduces the topology in one process — a
:class:`~repro.serve.router.RouterIndex` over one
:class:`~repro.serve.executor.InProcessExecutor` per shard (deployed,
each shard is a ``cli shardnode`` behind ``cli router``) — and reports
build time, query latency, and the per-partition behaviour of one query
(which partitions were pruned, what (b, r) the tuner picked).

Run:  python examples/web_table_scale.py
      REPRO_EXAMPLE_DOMAINS=200000 python examples/web_table_scale.py
"""

import os
import time

from repro import LSHEnsemble
from repro.datagen import generate_corpus, sample_queries
from repro.serve.executor import InProcessExecutor
from repro.serve.router import RouterIndex

NUM_DOMAINS = int(os.environ.get("REPRO_EXAMPLE_DOMAINS", "50000"))
NUM_PERM = 128
NUM_SHARDS = 5
THRESHOLD = 0.5

# ---------------------------------------------------------------------- #
# 1. A power-law corpus standing in for WDC web tables.
# ---------------------------------------------------------------------- #

print("generating %d domains..." % NUM_DOMAINS)
corpus = generate_corpus(num_domains=NUM_DOMAINS, alpha=2.0,
                         min_size=10, max_size=10_000,
                         num_topics=100, seed=3)
t0 = time.perf_counter()
signatures = corpus.signatures(num_perm=NUM_PERM)
print("signatures built in %.1fs" % (time.perf_counter() - t0))

# ---------------------------------------------------------------------- #
# 2. Build the 5-shard deployment.
# ---------------------------------------------------------------------- #

entries = list(corpus.entries(signatures))
t0 = time.perf_counter()
shards = []
for i in range(NUM_SHARDS):
    shard = LSHEnsemble(threshold=THRESHOLD, num_perm=NUM_PERM,
                        num_partitions=16)
    shard.index(entries[i::NUM_SHARDS])
    shards.append(shard)
with RouterIndex.from_executors(
        {"shard_%d" % i: InProcessExecutor(shard)
         for i, shard in enumerate(shards)}) as router:
    print("indexed %d domains across %d shards in %.1fs"
          % (len(router), NUM_SHARDS, time.perf_counter() - t0))

    # ------------------------------------------------------------------ #
    # 3. Query latency over a sample.
    # ------------------------------------------------------------------ #

    queries = sample_queries(corpus, 20, seed=4)
    t0 = time.perf_counter()
    total_candidates = 0
    for key in queries:
        found = router.query(signatures[key],
                             size=corpus.size_of(key))
        total_candidates += len(found)
    elapsed = time.perf_counter() - t0
    print("%d queries: mean latency %.1f ms, mean candidates %.0f"
          % (len(queries), 1000 * elapsed / len(queries),
             total_candidates / len(queries)))

    # ------------------------------------------------------------------ #
    # 4. Anatomy of one query on one shard: pruning and tuning.
    # ------------------------------------------------------------------ #

    shard = shards[0]
    key = queries[0]
    _, reports = shard.query_with_report(signatures[key],
                                         size=corpus.size_of(key))
    print("\nquery %r (|Q| = %d) on shard 0:" % (key, corpus.size_of(key)))
    for report in reports:
        p = report.partition
        if report.pruned:
            print("  partition [%6d, %6d): pruned (cannot contain t* of Q)"
                  % (p.lower, p.upper))
        else:
            print("  partition [%6d, %6d): b=%2d r=%d -> %4d candidates"
                  % (p.lower, p.upper, report.tuning.b, report.tuning.r,
                     report.num_candidates))
