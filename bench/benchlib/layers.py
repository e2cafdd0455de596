"""The traced run: per-layer metrics and the depth ladder.

End-to-end metrics always come from the untraced run.  This module
drives the same workload once more with a span around every call the
harness makes into a layer, then times each layer on its own — from
outside, through public functions, ``GET /stats`` scrapes and direct
requests to inner servers — and replays one fixed set of single
queries at every depth of the stack (the *ladder*): a layer's self time
is its depth's median minus the depth below.

Every workload reports every per-layer metric; a layer the workload
does not contain reads 0.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.core.partitioner import equi_depth_partitions
from repro.core.tuning import ratio_buckets, tune_params_quantized
from repro.forest import PrefixForest
from repro.kernels import get_kernel
from repro.kernels.base import ProbeIndex
from repro.lsh import MinHashLSH
from repro.parallel import PooledIndex
from repro.persistence import load_ensemble, pack_snapshot_bytes
from repro.serve.cache import ResultCache
from repro.serve.engine import ServingEngine
from repro.serve.placement import load_manifest, owning_shard
from repro.serve.remote import RemoteShardExecutor, ShardNodeClient
from repro.serve.router import RouterIndex

from benchlib import client, stats
from benchlib.inputs import (NUM_PARTITIONS, NUM_PERM, SIGNATURE_SEED,
                             THRESHOLD)
from benchlib.workloads import (FIRST_BATCH, SHARDS, WRITE_LAG, Run, Served,
                                deploy_serve)

LADDER = 500              # single queries replayed at every depth
BLOCK = 256               # in-process batch block
REPEATS = 38              # replays of the FIRST_BATCH cached bodies
GROUP_KEY = ("query", SIGNATURE_SEED, THRESHOLD)
# Op spans are named after the outermost layer the harness calls.
OP_LAYER = {"loaded": "core.query_batch", "built": "core.query_batch",
            "serve": "serve.http", "router": "serve.router_http"}
# Name of the top rung on each served depth.
TOP_RUNG = {"serve": "serve.http_query_ms",
            "router": "serve.router_http_query_ms"}


def median_ms(call, arguments) -> float:
    """Median wall time of ``call(argument)`` over ``arguments``, ms."""
    sample = []
    for argument in arguments:
        begin = time.perf_counter()
        call(argument)
        sample.append(time.perf_counter() - begin)
    return 1e3 * stats.percentile(sample, 50)


def seconds(call) -> float:
    begin = time.perf_counter()
    call()
    return time.perf_counter() - begin


def scrape(port: int) -> dict:
    conn = client.Conn(port)
    try:
        return json.loads(conn.call("GET", "/stats")[1])
    finally:
        conn.close()


def replay(port: int, groups, sketches) -> tuple[float, list]:
    """One contiguous closed-loop replay of query requests (``groups``
    of sketch rows) against any server; returns the median latency in
    ms and the operations."""
    target = Served(port, sketches)
    ops, _ = target.run("query", [target.request("query", group)
                                  for group in groups])
    return stats.percentile([op.latency * 1e3 for op in ops
                             if op.latency is not None], 50), ops


# --------------------------------------------------------------------- #
# In-process layers (every workload has the flat index at hand)
# --------------------------------------------------------------------- #


def library_layers(run: Run, m: dict) -> None:
    sketches, tracer = run.sketches, run.tracer
    cycles = run.plan.cycles
    corpus = sketches.corpus
    values = sum(sketches.sizes[:corpus])
    m["datagen.corpus_s"] = tracer.duration("datagen.corpus")
    m["minhash.bulk_s"] = tracer.duration("minhash.bulk") / cycles
    m["minhash.values"] = values
    m["minhash.values_per_s"] = values / m["minhash.bulk_s"]
    m["core.index_s"] = tracer.duration("core.index") / cycles
    m["persistence.save_s"] = tracer.duration("persistence.save") / cycles
    m["persistence.bytes_per_domain"] = (
        run.index_path.stat().st_size / corpus)

    loads = []
    for _ in range(3):
        with tracer.span("persistence.load"):
            begin = time.perf_counter()
            pristine = load_ensemble(run.index_path, mmap=True)
            loads.append(time.perf_counter() - begin)
    m["persistence.load_mmap_ms"] = 1e3 * stats.percentile(loads, 50)
    with tracer.span("forest.materialize"):
        m["forest.materialize_s"] = seconds(pristine.materialize)
    m["persistence.pack_snapshot_s"] = seconds(
        lambda: pack_snapshot_bytes(pristine))

    # Ladder rungs "core" and "engine": the same single queries.
    ladder = [sketches.batch(group)
              for group in run.phases["ladder"].groups]
    with tracer.span("ladder.core"):
        m["core.query_batch1_ms"] = median_ms(
            lambda q: pristine.query_batch(q[0], sizes=q[1],
                                           threshold=THRESHOLD), ladder)
    engine = ServingEngine(pristine)
    payloads = [[(batch.matrix[0], sizes[0])] for batch, sizes in ladder]
    with tracer.span("ladder.engine"):
        m["serve.engine_dispatch1_ms"] = median_ms(
            lambda p: engine.dispatch(GROUP_KEY, p), payloads)
    sixteen = [sum(payloads[i:i + 16], [])
               for i in range(0, len(payloads) - 15, 16)]
    m["serve.engine_dispatch16_us_per_query"] = 1e3 / 16 * median_ms(
        lambda p: engine.dispatch(GROUP_KEY, p), sixteen)
    m["serve.engine_digest_us"] = 1e3 * median_ms(
        lambda p: engine.digest(GROUP_KEY, *p[0]), payloads)
    cache = ResultCache(4096)

    def get_put(key):
        cache.get(key)
        cache.put(key, key)

    m["serve.cache_get_put_us"] = 1e3 * median_ms(
        get_put, [(i, 0) for i in range(8192)])
    m["serve.placement_owning_shard_us"] = 1e3 * median_ms(
        lambda key: owning_shard(key, SHARDS), sketches.keys[:2000])

    # Blocks of 256 and 32, cycling over the corpus.
    def blocks(width: int, count: int):
        return [sketches.batch([(i * width + j) % corpus
                                for j in range(width)])
                for i in range(count)]

    found = []
    with tracer.span("core.query_batch256"):
        m["core.query_batch256_us_per_query"] = 1e3 / BLOCK * median_ms(
            lambda q: found.extend(pristine.query_batch(
                q[0], sizes=q[1], threshold=THRESHOLD)), blocks(BLOCK, 8))
    m["core.candidates_per_query"] = float(np.mean(
        [len(keys) for keys in found]))
    m["core.topk_batch32_ms_per_query"] = 1 / 32 * median_ms(
        lambda q: pristine.query_top_k_batch(q[0], 10, sizes=q[1]),
        blocks(32, 6))

    # Tuning: one call per (partition, size-ratio bucket) of a block.
    _, sizes = blocks(BLOCK, 1)[0]
    pairs = []
    for partition in pristine.partitions:
        u = partition.upper - 1
        buckets = ratio_buckets(u, np.asarray(sizes, dtype=np.float64))
        firsts = {int(b): q for b, q in zip(buckets[::-1], sizes[::-1])}
        pairs.extend((u, q) for q in firsts.values())
    m["core.tune_calls"] = len(pairs)
    m["core.tune_us_per_call"] = 1e3 * median_ms(
        lambda p: tune_params_quantized(
            p[0], p[1], THRESHOLD, pristine.num_trees,
            pristine.max_depth, NUM_PERM), pairs * 4)
    m["core.partition_s"] = seconds(lambda: equi_depth_partitions(
        sketches.sizes[:corpus], NUM_PARTITIONS))

    # The write path on a scratch copy: inserts, the read that pays the
    # delta flush, removes, and a rebalance folding a delta back in.
    scratch = load_ensemble(run.index_path, mmap=True)
    scratch.materialize()
    entries = [sketches.entry(row) for row in run.write_rows[:100]]
    with tracer.span("core.writes"):
        m["core.insert_us"] = 1e3 * median_ms(
            lambda e: scratch.insert(*e), entries)
        m["core.first_query_after_write_ms"] = 1e3 * seconds(
            lambda: scratch.query_batch(ladder[0][0], sizes=ladder[0][1],
                                        threshold=THRESHOLD))
        m["core.remove_us"] = 1e3 * median_ms(
            scratch.remove, [entry[0] for entry in entries[WRITE_LAG:]])
        m["core.rebalance_s"] = seconds(scratch.rebalance)
    del scratch

    # Standalone forest and LSH over the whole corpus, fixed (b, r).
    keys = sketches.keys[:corpus]
    matrix = sketches.matrix[:corpus]
    forest = PrefixForest(NUM_PERM)

    def fill():
        forest.insert_batch(keys, matrix, seeds=SIGNATURE_SEED)
        forest.materialize()

    m["forest.insert_batch_s"] = seconds(fill)
    b, r = forest.num_trees, 2
    m["forest.query_batch_us_per_query"] = 1e3 / BLOCK * median_ms(
        lambda q: forest.query_batch(q[0], b, r), blocks(BLOCK, 8))
    lsh = MinHashLSH(threshold=THRESHOLD, num_perm=NUM_PERM)
    m["lsh.insert_batch_s"] = seconds(
        lambda: lsh.insert_batch(keys, matrix, seeds=SIGNATURE_SEED))
    del forest, lsh
    kernel_layers(matrix, b, r, m)

    # The process executor: no workload uses it on a 2-core box, so
    # this number moves no end-to-end metric; it is here so the layer
    # has one.
    pooled = PooledIndex(pristine, num_workers=2,
                         source_path=run.index_path,
                         spill_dir=run.tmp / "pool")
    try:
        pooled.query_batch(*blocks(BLOCK, 1)[0], threshold=THRESHOLD)
        m["parallel.pooled_query_batch_us_per_query"] = (
            1e3 / BLOCK * median_ms(
                lambda q: pooled.query_batch(q[0], sizes=q[1],
                                             threshold=THRESHOLD),
                blocks(BLOCK, 4)))
    finally:
        pooled.close()


def kernel_layers(matrix: np.ndarray, b: int, r: int, m: dict) -> None:
    """The three hot-loop kernels on arrays shaped like one forest
    probe of a 256-query block (probe keys hashed from the corpus, so
    hit rates are real)."""
    kernel = get_kernel()
    depth = NUM_PERM // b
    salts = (np.uint64(0x9E3779B97F4A7C15)
             * np.arange(1, b + 1, dtype=np.uint64))
    lanes = np.ascontiguousarray(
        matrix[:, :b * depth].reshape(len(matrix), b, depth)[:, :, :r])
    stored = np.unique(kernel.band_hash(lanes, salts).ravel())
    block = lanes[:BLOCK]
    reps = range(20)
    m["kernels.band_hash_ns_per_lane"] = 1e6 / block.size * median_ms(
        lambda _: kernel.band_hash(block, salts), reps)
    probes = kernel.band_hash(block, salts).ravel()
    m["kernels.probe_ns_per_probe"] = 1e6 / probes.size * median_ms(
        lambda _: kernel.probe(stored, probes), reps)
    pos, hits = kernel.probe(stored, probes)
    index = ProbeIndex(
        stored, np.zeros(len(stored), dtype=np.intp),
        np.zeros((len(stored), r), dtype=np.uint64),
        [{int(h)} for h in stored.tolist()], frozenset())
    m["kernels.merge_us_per_query"] = 1e3 / BLOCK * median_ms(
        lambda _: kernel.merge([set() for _ in range(BLOCK)],
                               range(BLOCK), hits // b, pos[hits], index),
        reps)


# --------------------------------------------------------------------- #
# Served layers
# --------------------------------------------------------------------- #


def serve_layers(run: Run, m: dict) -> None:
    """One HTTP server: ``/stats`` deltas around contiguous replays."""
    port, sketches = run.depth.port, run.sketches
    before = scrape(port)
    begin = time.perf_counter()
    _, ops = replay(port, run.phases["http_probe"].groups, sketches)
    wall = time.perf_counter() - begin
    after = scrape(port)

    def delta(*path):
        a, b = after, before
        for key in path:
            a, b = a[key], b[key]
        return a - b

    coalescer = after["coalescer"]
    batch_seconds = (coalescer["mean_batch_seconds"]
                     * coalescer["batches_total"]
                     - before["coalescer"]["mean_batch_seconds"]
                     * before["coalescer"]["batches_total"])
    m["serve.coalescer_busy_share"] = batch_seconds / wall
    m["serve.coalescer_window_ms"] = 1e3 * coalescer["window_seconds"]
    # The second scrape is itself a request: leave it out of the mean.
    served = delta("http", "latency", "count") - 1
    m["serve.http_server_mean_ms"] = (
        1e3 * delta("http", "latency", "total_seconds") / served)
    good = [op for op in ops if op.latency is not None]
    m["serve.http_client_gap_ms"] = (
        float(np.mean([op.latency for op in good])) * 1e3
        - m["serve.http_server_mean_ms"])
    m["serve.request_bytes"] = float(np.mean(
        [len(body) for body in run.phases["http_probe"].requests]))
    m["serve.response_bytes"] = float(np.mean(
        [len(op.reply) for op in good]))

    before = scrape(port)
    replay(port, run.phases["table_probe"].groups, sketches)
    after = scrape(port)
    m["serve.coalescer_mean_batch"] = (
        delta("coalescer", "dispatched_total")
        / delta("coalescer", "batches_dispatched"))

    # The repeat phase: FIRST_BATCH bodies replayed after a fill pass.
    fill = [[row] for row in range(FIRST_BATCH)]
    replay(port, fill, sketches)
    before = scrape(port)
    m["serve.cached_p50_ms"], _ = replay(
        port, fill * run.scale.ops(REPEATS, 1), sketches)
    after = scrape(port)
    m["serve.cache_hit_share"] = delta("cache", "hits") / (
        delta("cache", "hits") + delta("cache", "misses"))
    m["serve.cache_evictions"] = after["cache"]["evictions"]


def router_layers(run: Run, m: dict) -> None:
    """The cluster, outside in: router ``/stats`` deltas, then the same
    kind of replay at every depth between one node and the router's
    front door."""
    port, sketches, phases = run.depth.port, run.sketches, run.phases
    name, node_port = sorted(run.node_ports.items())[0]
    shard = name.rsplit("_r", 1)[0]

    # Single-box HTTP over the flat index, for the router-vs-single gap.
    single, _ = deploy_serve(run.children, run.index_path)
    with run.tracer.span("ladder.http_single"):
        m["serve.http_query_ms"], _ = replay(
            single, phases["ladder"].groups, sketches)
    remote = RemoteShardExecutor([("127.0.0.1", node_port)], shard=shard)
    router = RouterIndex.from_manifest(
        load_manifest(run.tmp / "cluster.json"))
    try:
        # The rungs between one node and the router's front door have
        # one caller each (the remote executor and the in-harness
        # router are library calls), so the node is asked by one
        # connection too; the three take turns, a tenth of their
        # queries at a time, so that drift of the machine cannot
        # reorder rungs that are a tenth of a millisecond apart.
        conn = client.Conn(node_port)
        node = Served(node_port, sketches)

        def library_call(target):
            return lambda q: target.query_batch(q[0], sizes=q[1],
                                                threshold=THRESHOLD)

        rungs = [
            ("serve.node_query_ms",
             lambda body: conn.call("POST", "/query", body),
             [node.request("query", group)
              for group in phases["ladder_node"].groups]),
            ("serve.remote_query1_ms", library_call(remote),
             [sketches.batch(group)
              for group in phases["ladder_remote"].groups]),
            ("serve.router_inproc_query_ms", library_call(router),
             [sketches.batch(group)
              for group in phases["ladder_inproc"].groups])]
        samples = {metric: [] for metric, _, _ in rungs}
        with run.tracer.span("ladder.node_to_router"):
            for piece in range(10):
                for metric, call, items in rungs:
                    lo, hi = (len(items) * i // 10
                              for i in (piece, piece + 1))
                    for item in items[lo:hi]:
                        begin = time.perf_counter()
                        call(item)
                        samples[metric].append(
                            time.perf_counter() - begin)
        conn.close()
        for metric, sample in samples.items():
            m[metric] = 1e3 * stats.percentile(sample, 50)

        before = scrape(port)["router"]
        _, ops = replay(port, phases["http_probe"].groups, sketches)
        after = scrape(port)["router"]
        m["serve.router_fanouts_per_query"] = (
            (after["fanouts"] - before["fanouts"]) / len(ops))
        m["serve.router_retry_share"] = after["retry_rate"]
        m["serve.router_ladder_restarts"] = after["ladder_restarts"]
        target = Served(port, sketches)
        topk_rows = phases["http_probe"].groups[:50]
        before = scrape(port)["router"]
        target.run("topk", [target.request("topk", group)
                            for group in topk_rows])
        after = scrape(port)["router"]
        m["serve.router_shard_requests_per_topk"] = (
            (after["shard_requests"] - before["shard_requests"])
            / len(topk_rows))

        # Writes, from one node's ack up to the quorum broadcast.  The
        # keys are put on every replica and taken off again, so the
        # cluster ends as it began.
        entries = [sketches.entry(row)
                   for row in run.write_rows[:-WRITE_LAG][:50]]
        mine = [e for e in entries if owning_shard(e[0], SHARDS) == shard]
        for replica, replica_port in sorted(run.node_ports.items()):
            if not replica.startswith(shard):
                continue
            node = ShardNodeClient("127.0.0.1", replica_port)
            try:
                m["serve.node_insert_ms"] = median_ms(
                    lambda e: node.insert([e]), mine)
                node.remove([e[0] for e in mine])
            finally:
                node.close()
        m["serve.router_write_broadcast_ms"] = median_ms(
            lambda e: router.insert(*e), entries)
        router.remove_keys([e[0] for e in entries])
        m["serve.repair_noop_s"] = seconds(router.repair)
    finally:
        remote.close()
        router.close()
    m["serve.router_fanout_self_ms"] = (m["serve.router_inproc_query_ms"]
                                        - m["serve.remote_query1_ms"])
    m["serve.router_front_self_ms"] = (m[TOP_RUNG["router"]]
                                       - m["serve.router_inproc_query_ms"])


# --------------------------------------------------------------------- #
# The traced run
# --------------------------------------------------------------------- #


def traced_run(run: Run, names) -> dict:
    """Set the workload up, measure it with spans on, then every layer.
    ``names`` are the per-layer metrics BENCHMARK.json declares."""
    plan = run.plan
    extra = [("plain", "query", plan.query // 2, 1),
             ("ladder", "query", LADDER, 1)]
    # The "ladder" rows are replayed by the in-process rungs and, at a
    # served depth, by the top rung — interleaved with the measured
    # phases, so it sees the server exactly as the query phase does.
    # Rungs that would find those rows in a node's cache, and the
    # replays bracketed by /stats scrapes, get slices of their own.
    if plan.depth == "serve":
        extra += [("http_probe", "query", LADDER // 2, 1),
                  ("table_probe", "query", plan.table // 4, plan.width)]
    if plan.depth == "router":
        extra += [("http_probe", "query", LADDER // 2, 1)] + [
            (name, "query", LADDER, 1) for name in (
                "ladder_node", "ladder_remote", "ladder_inproc")]
    run.set_up(extra)
    m = dict.fromkeys(names, 0.0)

    layer = OP_LAYER[plan.depth]
    counters: dict = {}

    def record_for(phase: str):
        if phase in ("plain", "ladder"):
            return None

        def record(op) -> None:
            if op.latency is not None:
                counters[phase] = counters.get(phase, 0) + 1
                run.tracer.add(layer, op.done - op.latency, op.done,
                               op="%s:%d" % (phase, counters[phase]))
        return record

    served = plan.depth in TOP_RUNG
    run.measure(record_for, also=("plain", "ladder") if served
                else ("plain",))
    if served:
        m[TOP_RUNG[plan.depth]] = stats.percentile(
            run.samples_ms["ladder"], 50)
    traced = run.metrics["query_p50_ms"]
    plain = stats.percentile(run.samples_ms["plain"], 50)
    m["trace.overhead_share"] = traced / plain - 1.0
    m["loadgen.p90_ms.query"] = stats.percentile(
        run.samples_ms["query"], 90)
    for phase in ("query", "table", "topk", "write", "mixed"):
        m["loadgen.p99_ms.%s" % phase] = stats.percentile(
            run.samples_ms[phase], 99)
    m["loadgen.write_lateness_p90_ms"] = stats.percentile(
        run.write_lateness_ms, 90)
    if run.depth.served:
        m["serve.write_p50_ms"] = stats.percentile(
            run.samples_ms["write"], 50)
    m["persistence.reopen_ms"] = 1e3 * stats.percentile(run.reopen_s, 50)

    # Served layers first: the library measurements below fill this
    # process with live objects, and a client that stops to collect
    # garbage books the pause as server latency.
    if plan.depth == "serve":
        serve_layers(run, m)
    if plan.depth == "router":
        router_layers(run, m)
    library_layers(run, m)
    if plan.depth == "serve":
        m["serve.http_self_ms"] = (m[TOP_RUNG["serve"]]
                                   - m["serve.engine_dispatch1_ms"]
                                   - m["serve.coalescer_window_ms"])
    print_ladder(plan.depth, m)
    print("  %-26s %9.3f   (interleaved, with spans on)"
          % ("query phase p50", traced))
    return m


def print_ladder(depth: str, m: dict) -> None:
    rungs = [("core (1-row query_batch)", "core.query_batch1_ms"),
             ("engine dispatch", "serve.engine_dispatch1_ms")]
    if depth == "serve":
        rungs.append(("single-box HTTP", TOP_RUNG["serve"]))
    if depth == "router":
        rungs += [("one shard node, HTTP", "serve.node_query_ms"),
                  ("remote executor", "serve.remote_query1_ms"),
                  ("router, in harness", "serve.router_inproc_query_ms"),
                  ("router HTTP", TOP_RUNG["router"])]
    print("depth ladder (median over one set of single queries, ms):")
    selves = stats.ladder_self_times([(name, m[name])
                                      for _, name in rungs])
    for (label, name), (_, self_time) in zip(rungs, selves):
        print("  %-26s %9.3f   self %9.3f" % (label, m[name], self_time))
    if depth == "router":
        # Which rung above one node owns what the router adds to a
        # single box.
        (label, _), (_, self_time) = max(
            zip(rungs[3:], selves[3:]), key=lambda pair: pair[1][1])
        print("  router - single-box HTTP = %.3f ms; largest share: %s "
              "(%.3f ms)" % (m[TOP_RUNG["router"]]
                             - m["serve.http_query_ms"], label, self_time))
