"""Command-line interface for domain search.

Build, persist, mutate, and query LSH Ensemble indexes from the shell::

    # corpus.json: {"domain-name": ["value", ...], ...}
    python -m repro.cli build corpus.json index.lshe --partitions 16
    python -m repro.cli query index.lshe --values a b c --threshold 0.6
    python -m repro.cli query index.lshe --query-file q.json --top-k 5
    python -m repro.cli query index.lshe --batch-file q.json --threshold 0.6
    python -m repro.cli insert index.lshe more.json
    python -m repro.cli remove index.lshe old-domain other-domain
    python -m repro.cli rebalance index.lshe --if-drift-above 0.3
    python -m repro.cli info  index.lshe
    python -m repro.cli serve index.lshe --port 8080 --max-batch 64
    python -m repro.cli router cluster.json --repair-interval 5
    python -m repro.cli orchestrate cluster.json --status
    python -m repro.cli loadtest index.lshe --profile mixed --rps 200
    python -m repro.cli lint src tests --format github

``--query-file`` answers each entry with an independent single query;
``--batch-file`` hashes all entries into one signature matrix and answers
them through the vectorised batch path (same results, much higher
throughput on many queries).

``insert`` and ``remove`` exercise the dynamic lifecycle: writes land in
the delta tier / tombstone set and the index is re-saved as a
generation-numbered manifest directory (an ``insert`` into a single-file
snapshot converts it in place).  ``rebalance`` compacts the write tiers
into a freshly partitioned base; ``info`` reports tier sizes and the
drift monitor's metrics alongside the static layout.

``serve`` fronts any saved index — a single-file v2 snapshot, a dynamic
manifest directory, or a sharded cluster directory — with the asyncio
HTTP server of :mod:`repro.serve`: concurrent requests are coalesced
into vectorised batch queries, results are cached under the index's
mutation epoch, and overload is shed with 503s.

``loadtest`` stands the same server up over the index, replays a
deterministic open-loop traffic profile against it (zipf-popular reads,
optionally an insert/remove stream with periodic rebalances), and
reports p50/p95/p99 latency, throughput, shed rate, and cache hit rate
per ramp phase — the SLO measurement substrate (see
:mod:`repro.loadgen`).  Exits non-zero if any request errored.

``lint`` runs the project's invariant linter (:mod:`repro.analysis`):
AST-based concurrency/determinism/IPC checks (lock discipline around
the mutation epoch and write tiers, blocking calls in the async
serving layer, unseeded randomness in measurement code, unpicklable
process-pool payloads).  Same flags as ``python -m repro.analysis``;
exits 1 on blocking findings.

The JSON corpus format is deliberately simple: one object whose keys are
domain names and whose values are arrays of (string or numeric) domain
values.  Duplicate values are collapsed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core.ensemble import LSHEnsemble
from repro.kernels import list_kernels
from repro.minhash.generator import MinHashGenerator, SignatureFactory
from repro.persistence import (
    FormatError,
    load_ensemble,
    read_header,
    save_ensemble,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LSH Ensemble domain search (VLDB 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="index a JSON corpus")
    p_build.add_argument("corpus", type=Path,
                         help="JSON file: {name: [values...]}")
    p_build.add_argument("index", type=Path, help="output index path")
    p_build.add_argument("--partitions", type=int, default=16)
    p_build.add_argument("--num-perm", type=int, default=256)
    p_build.add_argument("--threshold", type=float, default=0.8,
                         help="default containment threshold")
    p_build.add_argument("--bbit", type=int, default=None,
                         choices=(8, 16),
                         help="pack band bucket keys to 8 or 16 bits "
                              "(smaller tables, a few extra candidate "
                              "collisions; recorded in the index header)")

    def add_kernel_arg(p) -> None:
        p.add_argument("--kernel", default=None, choices=list_kernels(),
                       help="hot-loop kernel backend; default: "
                            "REPRO_KERNEL env, then the header-recorded "
                            "name on load, then numpy")

    add_kernel_arg(p_build)

    def add_executor_args(p) -> None:
        p.add_argument("--executor", choices=("thread", "process"),
                       default="thread",
                       help="answer queries in-process (thread, the "
                            "default) or on a pool of worker processes "
                            "sharing the snapshot via mmap (process)")
        p.add_argument("--workers", type=int, default=None,
                       help="process-pool size (default: cpu count; "
                            "--executor process only)")
        p.add_argument("--start-method",
                       choices=("fork", "spawn", "forkserver"),
                       default=None,
                       help="multiprocessing start method for the "
                            "worker pool (default: platform default)")

    p_query = sub.add_parser("query", help="search a built index")
    p_query.add_argument("index", type=Path)
    p_query.add_argument("--no-mmap", action="store_true",
                         help="read the signature matrix into memory "
                              "instead of memory-mapping it")
    add_kernel_arg(p_query)
    add_executor_args(p_query)
    group = p_query.add_mutually_exclusive_group(required=True)
    group.add_argument("--values", nargs="+",
                       help="query domain values inline")
    group.add_argument("--query-file", type=Path,
                       help="JSON array of values, or {name: [values...]}"
                            " (each entry queried separately)")
    group.add_argument("--batch-file", type=Path,
                       help="JSON object {name: [values...]}; all entries"
                            " answered in one vectorized batch query")
    p_query.add_argument("--threshold", type=float, default=None)
    p_query.add_argument("--top-k", type=int, default=None,
                         help="return the k best by estimated containment"
                              " instead of thresholding")

    p_insert = sub.add_parser(
        "insert", help="add domains from a JSON corpus to a built index")
    p_insert.add_argument("index", type=Path)
    p_insert.add_argument("corpus", type=Path,
                          help="JSON file: {name: [values...]} of new "
                               "domains (keys must not already be indexed)")
    p_insert.add_argument("--auto-rebalance-at", type=float, default=None,
                          metavar="SCORE",
                          help="rebalance automatically once the drift "
                               "score reaches SCORE (persisted with the "
                               "index)")

    p_remove = sub.add_parser(
        "remove", help="remove domains from a built index")
    p_remove.add_argument("index", type=Path)
    p_remove.add_argument("keys", nargs="+", metavar="KEY",
                          help="domain names to tombstone/remove")

    p_rebal = sub.add_parser(
        "rebalance",
        help="fold delta-tier writes and tombstones into a freshly "
             "partitioned base")
    p_rebal.add_argument("index", type=Path)
    p_rebal.add_argument("--if-drift-above", type=float, default=None,
                         metavar="SCORE",
                         help="only rebalance when the drift score is at "
                              "least SCORE (otherwise leave the index "
                              "untouched)")
    p_rebal.add_argument("--partitions", type=int, default=None,
                         help="new partition count (default: keep the "
                              "configured count)")

    p_info = sub.add_parser("info", help="describe a built index")
    p_info.add_argument("index", type=Path)

    p_serve = sub.add_parser(
        "serve",
        help="serve a saved index over HTTP with request coalescing "
             "and an epoch-keyed result cache")
    p_serve.add_argument("index", type=Path,
                         help="a v2 snapshot file, a dynamic manifest "
                              "directory, or a ShardedEnsemble directory")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080,
                         help="TCP port (0 picks a free one and prints it)")
    p_serve.add_argument("--max-batch", type=int, default=64,
                         help="dispatch a coalesced batch at this many "
                              "queries (1 disables coalescing)")
    p_serve.add_argument("--window-ms", type=float, default=2.0,
                         help="how long the first query of a batch waits "
                              "for company")
    p_serve.add_argument("--cache-size", type=int, default=4096,
                         help="result-cache capacity (0 disables caching)")
    p_serve.add_argument("--max-pending", type=int, default=1024,
                         help="shed requests beyond this many queued "
                              "queries (load-shed 503s)")
    p_serve.add_argument("--no-mmap", action="store_true",
                         help="read signature matrices into memory "
                              "instead of memory-mapping them")
    add_kernel_arg(p_serve)
    add_executor_args(p_serve)

    p_node = sub.add_parser(
        "shardnode",
        help="serve one shard of a cluster over HTTP (a QueryServer "
             "that also exposes /signatures and /snapshot for the "
             "router tier and replica bootstrap)")
    p_node.add_argument("index", type=Path,
                        help="the shard's saved index; with "
                             "--bootstrap-from, the directory to "
                             "unpack the fetched snapshot into")
    p_node.add_argument("--shard", default=None,
                        help="shard label surfaced in /healthz so the "
                             "router can verify placement")
    p_node.add_argument("--bootstrap-from", default=None,
                        metavar="HOST:PORT",
                        help="fetch GET /snapshot from a peer node and "
                             "serve the unpacked copy (replica "
                             "bootstrap)")
    p_node.add_argument("--host", default="127.0.0.1")
    p_node.add_argument("--port", type=int, default=0,
                        help="TCP port (0 picks a free one and prints it)")
    p_node.add_argument("--max-batch", type=int, default=64)
    p_node.add_argument("--window-ms", type=float, default=2.0)
    p_node.add_argument("--cache-size", type=int, default=4096)
    p_node.add_argument("--max-pending", type=int, default=1024)
    p_node.add_argument("--no-mmap", action="store_true")
    add_kernel_arg(p_node)
    add_executor_args(p_node)

    p_router = sub.add_parser(
        "router",
        help="serve a whole cluster through one endpoint: consistent-"
             "hash placement over shard nodes, per-shard timeouts, "
             "replica failover, and global top-k merging")
    p_router.add_argument("manifest", type=Path,
                          help="cluster manifest JSON: nodes, shards, "
                               "replication (see repro.serve.placement)")
    p_router.add_argument("--host", default="127.0.0.1")
    p_router.add_argument("--port", type=int, default=8080,
                          help="TCP port (0 picks a free one and "
                               "prints it)")
    p_router.add_argument("--timeout", type=float, default=10.0,
                          help="per-shard request timeout in seconds")
    p_router.add_argument("--partial", action="store_true",
                          help="answer degraded (with the reachable "
                               "shards) instead of 503 when a shard's "
                               "replicas are all down")
    p_router.add_argument("--write-quorum", type=int, default=None,
                          metavar="N",
                          help="replica acks required before a write "
                               "(/insert, /remove) is acknowledged "
                               "(default: per-shard majority)")
    p_router.add_argument("--repair-interval", type=float, default=0.0,
                          metavar="SECONDS",
                          help="run an anti-entropy repair sweep every "
                               "SECONDS in the background, re-syncing "
                               "drifted replicas by delta shipping "
                               "(0 disables the loop)")
    p_router.add_argument("--max-batch", type=int, default=64)
    p_router.add_argument("--window-ms", type=float, default=2.0)
    p_router.add_argument("--cache-size", type=int, default=0,
                          help="router result cache (default off: the "
                               "router cannot observe remote mutations "
                               "synchronously)")
    p_router.add_argument("--max-pending", type=int, default=1024)

    p_orch = sub.add_parser(
        "orchestrate",
        help="one-shot cluster operations against a manifest: health "
             "status, an anti-entropy repair sweep, node admission "
             "(wait-healthy + placement edit + repair), decommission")
    p_orch.add_argument("manifest", type=Path,
                        help="cluster manifest JSON (see "
                             "repro.serve.placement)")
    action = p_orch.add_mutually_exclusive_group(required=True)
    action.add_argument("--status", action="store_true",
                        help="report per-shard replica health (address, "
                             "mutation epoch, key count)")
    action.add_argument("--repair", action="store_true",
                        help="run one anti-entropy sweep and report what "
                             "was shipped")
    action.add_argument("--add-node", metavar="NAME=HOST:PORT",
                        default=None,
                        help="wait for the node to serve, admit it into "
                             "the placement, and repair the shards it "
                             "now replicates")
    action.add_argument("--decommission", metavar="NAME", default=None,
                        help="drain NAME out of the topology")
    p_orch.add_argument("--write-manifest", action="store_true",
                        help="rewrite the manifest file with the "
                             "post-operation topology")
    p_orch.add_argument("--timeout", type=float, default=10.0,
                        help="per-shard request timeout in seconds")
    p_orch.add_argument("--wait-timeout", type=float, default=30.0,
                        help="how long --add-node waits for the node's "
                             "/healthz before giving up")

    p_load = sub.add_parser(
        "loadtest",
        help="replay a deterministic mixed read/write traffic profile "
             "against a served index and report SLO metrics "
             "(p50/p95/p99, throughput, shed rate, cache hit rate)")
    p_load.add_argument("index", type=Path,
                        help="a v2 snapshot file, a dynamic manifest "
                             "directory, or a ShardedEnsemble directory")
    p_load.add_argument("--profile", default="read-heavy",
                        choices=("read-heavy", "mixed"),
                        help="read-heavy: pure zipf reads over an RPS "
                             "staircase; mixed: reads plus an "
                             "insert/remove stream and periodic "
                             "rebalances")
    p_load.add_argument("--rps", type=float, default=150.0,
                        help="peak read arrival rate (stages ramp up "
                             "to it)")
    p_load.add_argument("--seconds", type=float, default=12.0,
                        help="total run duration across all stages")
    p_load.add_argument("--mutation-rps", type=float, default=8.0,
                        help="insert/remove events per second "
                             "(mixed profile only)")
    p_load.add_argument("--seed", type=int, default=99,
                        help="schedule seed; same seed + profile => "
                             "identical request sequence")
    p_load.add_argument("--concurrency", type=int, default=None,
                        help="client worker threads (default: scaled "
                             "to cpu count)")
    p_load.add_argument("--max-batch", type=int, default=64)
    p_load.add_argument("--window-ms", type=float, default=2.0)
    p_load.add_argument("--cache-size", type=int, default=4096)
    p_load.add_argument("--max-pending", type=int, default=1024)
    p_load.add_argument("--json-out", type=Path, default=None,
                        help="also write the full metric set as JSON "
                             "(the BENCH_*.json trajectory format)")
    p_load.add_argument("--no-mmap", action="store_true")
    add_kernel_arg(p_load)
    add_executor_args(p_load)

    p_lint = sub.add_parser(
        "lint",
        help="run the repo's invariant linter (AST concurrency/"
             "determinism/IPC checks; see python -m repro.analysis "
             "--help for the flags)")
    p_lint.add_argument("lint_args", nargs=argparse.REMAINDER,
                        metavar="...",
                        help="arguments forwarded verbatim to "
                             "python -m repro.analysis")
    return parser


def _load_corpus(path: Path) -> dict[str, set]:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SystemExit("error: %s is not valid JSON (%s)" % (path, exc))
    if not isinstance(data, dict) or not data:
        raise SystemExit("error: corpus must be a non-empty JSON object")
    corpus = {}
    for name, values in data.items():
        if not isinstance(values, list) or not values:
            raise SystemExit(
                "error: domain %r must be a non-empty array" % name)
        corpus[name] = set(values)
    return corpus


def _cmd_build(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args.corpus)
    factory = SignatureFactory(num_perm=args.num_perm)
    index = LSHEnsemble(threshold=args.threshold, num_perm=args.num_perm,
                        num_partitions=args.partitions,
                        kernel=args.kernel, bbit=args.bbit)
    t0 = time.perf_counter()
    index.index(
        (name, factory.lean(values), len(values))
        for name, values in corpus.items()
    )
    save_ensemble(index, args.index)
    print("indexed %d domains (%d distinct values) in %.2fs -> %s"
          % (len(index), factory.cache_size(),
             time.perf_counter() - t0, args.index))
    return 0


def _run_one_query(index, name: str, values: set,
                   threshold: float | None, top_k: int | None) -> None:
    """``index`` is an LSHEnsemble or a PooledIndex (same query API)."""
    factory = SignatureFactory(num_perm=index.num_perm)
    sig = factory.lean(values)
    if top_k is not None:
        _print_ranked(name, index.query_top_k(sig, top_k, size=len(values)),
                      top_k)
    else:
        _print_hits(name,
                    index.query(sig, size=len(values), threshold=threshold),
                    threshold)


def _print_hits(name: str, found: set, threshold: float | None) -> None:
    print("%s: %d candidates%s" % (
        name, len(found),
        "" if threshold is None else " at t* >= %.2f" % threshold))
    for key in sorted(found, key=str):
        print("  %s" % (key,))


def _print_ranked(name: str, ranked: list, k: int) -> None:
    print("%s: top %d by estimated containment" % (name, k))
    for key, score in ranked:
        print("  %-40s ~t = %.3f" % (key, score))


def _run_batch_query(index, path: Path,
                     threshold: float | None, top_k: int | None) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict) or not data:
        raise SystemExit(
            "error: batch file must be a non-empty JSON object"
            " {name: [values...]}")
    queries = {name: set(values) for name, values in data.items()}
    generator = MinHashGenerator(num_perm=index.num_perm)
    t0 = time.perf_counter()
    batch = generator.bulk(queries)
    sizes = [len(queries[name]) for name in batch.keys]
    if top_k is not None:
        ranked_lists = index.query_top_k_batch(batch, top_k, sizes=sizes)
        elapsed = time.perf_counter() - t0
        for name, ranked in zip(batch.keys, ranked_lists):
            _print_ranked(name, ranked, top_k)
    else:
        results = index.query_batch(batch, sizes=sizes, threshold=threshold)
        elapsed = time.perf_counter() - t0
        for name, found in zip(batch.keys, results):
            _print_hits(name, found, threshold)
    print("[%d queries answered in %.3fs, %.1f queries/s; "
          "generation %d, mutation epoch %d]"
          % (len(batch), elapsed, len(batch) / elapsed if elapsed else 0.0,
             index.generation, index.mutation_epoch))


def _cmd_query(args: argparse.Namespace) -> int:
    index = load_ensemble(args.index, kernel=args.kernel,
                          mmap=not args.no_mmap)
    # Generation alone cannot distinguish two states of a live index
    # (it only moves on rebalance); the mutation epoch pins exactly
    # which contents these answers reflect.
    print("index generation %d, mutation epoch %d"
          % (index.generation, index.mutation_epoch))
    target = index
    if args.executor == "process":
        from repro.parallel.procpool import PooledIndex

        # PooledIndex reuses the loaded snapshot / manifest base
        # segment (index._base_source) automatically.
        target = PooledIndex(index, num_workers=args.workers,
                             start_method=args.start_method,
                             mmap=not args.no_mmap)
    try:
        if args.values is not None:
            _run_one_query(target, "query", set(args.values),
                           args.threshold, args.top_k)
            return 0
        if args.batch_file is not None:
            _run_batch_query(target, args.batch_file, args.threshold,
                             args.top_k)
            return 0
        data = json.loads(args.query_file.read_text(encoding="utf-8"))
        if isinstance(data, list):
            _run_one_query(target, str(args.query_file), set(data),
                           args.threshold, args.top_k)
        elif isinstance(data, dict):
            for name, values in data.items():
                _run_one_query(target, name, set(values), args.threshold,
                               args.top_k)
        else:
            raise SystemExit(
                "error: query file must be a JSON array or object")
        return 0
    finally:
        if target is not index:
            target.close()


def _cmd_insert(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args.corpus)
    index = load_ensemble(args.index)
    if args.auto_rebalance_at is not None:
        if not 0.0 < args.auto_rebalance_at <= 1.0:
            raise SystemExit("error: --auto-rebalance-at must be in (0, 1]")
        index.auto_rebalance_at = args.auto_rebalance_at
    factory = SignatureFactory(num_perm=index.num_perm)
    generation_before = index.generation
    t0 = time.perf_counter()
    for name, values in corpus.items():
        try:
            index.insert(name, factory.lean(values), len(values))
        except ValueError as exc:
            raise SystemExit("error: %s" % exc)
    save_ensemble(index, args.index)
    print("inserted %d domains in %.2fs -> %s"
          % (len(corpus), time.perf_counter() - t0, args.index))
    if index.generation > generation_before:
        print("drift threshold reached: auto-rebalanced to generation %d"
              % index.generation)
    _print_drift(index.drift_stats())
    return 0


def _cmd_remove(args: argparse.Namespace) -> int:
    index = load_ensemble(args.index)
    keys = list(dict.fromkeys(args.keys))  # repeated KEYs count once
    missing = [key for key in keys if key not in index]
    if missing:
        raise SystemExit("error: not in the index: %s"
                         % ", ".join(sorted(missing)))
    for key in keys:
        index.remove(key)
    if index.is_empty():
        raise SystemExit(
            "error: removing every domain would leave an unsaveable "
            "empty index")
    save_ensemble(index, args.index)
    print("removed %d domains -> %s" % (len(keys), args.index))
    _print_drift(index.drift_stats())
    return 0


def _cmd_rebalance(args: argparse.Namespace) -> int:
    index = load_ensemble(args.index)
    drift = index.drift_stats()
    if (args.if_drift_above is not None
            and drift["drift_score"] < args.if_drift_above):
        print("drift score %.3f is below %.3f; leaving generation %d "
              "untouched" % (drift["drift_score"], args.if_drift_above,
                             index.generation))
        return 0
    summary = index.rebalance(num_partitions=args.partitions)
    save_ensemble(index, args.index)
    folded = summary["folded"]
    print("rebalanced to generation %d in %.2fs: folded %d base + %d "
          "delta domains (%d tombstones reclaimed) into %d partitions"
          % (summary["generation"], summary["seconds"], folded["base"],
             folded["delta"], folded["tombstones"],
             summary["num_partitions"]))
    print("partition-depth cv %.3f -> %.3f, drift score %.3f -> %.3f"
          % (summary["depth_cv_before"], summary["depth_cv_after"],
             summary["drift_score_before"], summary["drift_score_after"]))
    return 0


def _load_serving_index(path: Path, mmap: bool, executor: str = "thread",
                        workers: int | None = None,
                        start_method: str | None = None,
                        kernel: str | None = None):
    """Load any saved index for serving: flat file, dynamic manifest
    directory, or ShardedEnsemble cluster directory.

    A sharded cluster adopts the requested executor itself (its fan-out
    owns the worker pool); flat indexes are wrapped at the serving
    layer instead.
    """
    if path.is_dir():
        manifest_path = path / "manifest.json"
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise SystemExit(
                "error: %s is not a saved index (no manifest.json)" % path)
        except json.JSONDecodeError as exc:
            raise SystemExit("error: corrupt manifest in %s: %s"
                             % (path, exc))
        if isinstance(manifest, dict) and "shards" in manifest:
            from repro.parallel.sharded import ShardedEnsemble

            return ShardedEnsemble.load(path, mmap=mmap,
                                        executor=executor,
                                        num_workers=workers,
                                        start_method=start_method,
                                        kernel=kernel)
    return load_ensemble(path, kernel=kernel, mmap=mmap)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import QueryServer

    index = _load_serving_index(args.index, mmap=not args.no_mmap,
                                executor=args.executor,
                                workers=args.workers,
                                start_method=args.start_method,
                                kernel=args.kernel)
    sharded = hasattr(index, "shards")
    server = QueryServer(
        index, host=args.host, port=args.port,
        max_batch=args.max_batch, window_ms=args.window_ms,
        cache_size=args.cache_size, max_pending=args.max_pending,
        executor="thread" if sharded else args.executor,
        workers=args.workers, start_method=args.start_method,
        mmap=not args.no_mmap)

    async def _main() -> None:
        await server.start()
        print("serving %s (%d domains, generation %d, mutation epoch %d, "
              "%s executor) on http://%s:%d"
              % (args.index, len(index), server.engine.generation,
                 server.engine.mutation_epoch, server.engine.executor.kind,
                 server.host, server.port),
              flush=True)
        print("endpoints: POST /query, POST /query_top_k, GET /healthz, "
              "GET /stats", flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.aclose()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_shardnode(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import QueryServer

    index_path = args.index
    if args.bootstrap_from is not None:
        from repro.serve.placement import parse_endpoint
        from repro.serve.remote import ShardNodeClient

        host, port = parse_endpoint(args.bootstrap_from)
        client = ShardNodeClient(host, port)
        try:
            index_path = client.snapshot(args.index)
        finally:
            client.close()
        print("bootstrapped snapshot from %s -> %s"
              % (args.bootstrap_from, index_path), flush=True)
    index = _load_serving_index(Path(index_path), mmap=not args.no_mmap,
                                executor=args.executor,
                                workers=args.workers,
                                start_method=args.start_method,
                                kernel=args.kernel)
    sharded = hasattr(index, "shards")
    server = QueryServer(
        index, host=args.host, port=args.port,
        max_batch=args.max_batch, window_ms=args.window_ms,
        cache_size=args.cache_size, max_pending=args.max_pending,
        executor="thread" if sharded else args.executor,
        workers=args.workers, start_method=args.start_method,
        mmap=not args.no_mmap, shard_label=args.shard)

    async def _main() -> None:
        await server.start()
        print("shard node %s serving %s (%d domains, mutation epoch %d) "
              "on http://%s:%d"
              % (args.shard or "(unlabelled)", index_path, len(index),
                 server.engine.mutation_epoch, server.host, server.port),
              flush=True)
        print("endpoints: POST /query, POST /query_top_k, "
              "POST /signatures, GET /snapshot, GET /healthz, GET /stats",
              flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.aclose()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_router(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.placement import load_manifest
    from repro.serve.router import RouterIndex, RouterServer

    try:
        manifest = load_manifest(args.manifest)
    except (OSError, ValueError) as exc:
        raise SystemExit("error: bad cluster manifest %s: %s"
                         % (args.manifest, exc))
    router = RouterIndex.from_manifest(manifest, timeout=args.timeout,
                                       partial=args.partial,
                                       write_quorum=args.write_quorum)
    orchestrator = None
    if args.repair_interval > 0:
        from repro.serve.orchestrator import Orchestrator

        orchestrator = Orchestrator(router,
                                    repair_interval=args.repair_interval)
    server = RouterServer(
        router, host=args.host, port=args.port,
        max_batch=args.max_batch, window_ms=args.window_ms,
        cache_size=args.cache_size, max_pending=args.max_pending)

    async def _main() -> None:
        await server.start()
        print("router serving %d shard(s) over %d node(s) "
              "(replication %d) on http://%s:%d"
              % (len(router.shard_names), len(manifest.nodes),
                 manifest.placement.replication, server.host,
                 server.port),
              flush=True)
        print("endpoints: POST /query, POST /query_top_k, POST /insert, "
              "POST /remove, GET /healthz, GET /stats", flush=True)
        if orchestrator is not None:
            orchestrator.start()
            print("anti-entropy repair sweep every %.1fs"
                  % args.repair_interval, flush=True)
        try:
            await server.serve_forever()
        finally:
            if orchestrator is not None:
                orchestrator.stop()
            await server.aclose()
            router.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0


def _write_cluster_manifest(path: Path, router) -> None:
    placement = router.placement
    if placement is None:
        raise SystemExit("error: router has no placement to persist")
    shards = sorted(router.shard_names)
    pinned = placement.pinned
    if pinned and set(pinned) != set(shards):
        raise SystemExit(
            "error: cannot persist a partially pinned placement "
            "(pin every shard or none)")
    manifest = {
        "nodes": dict(placement.nodes),
        "replication": placement.replication,
        "vnodes": placement.vnodes,
        "shards": ({shard: list(pinned[shard]) for shard in shards}
                   if pinned else shards),
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print("[manifest rewritten: %s]" % path, file=sys.stderr)


def _cmd_orchestrate(args: argparse.Namespace) -> int:
    from repro.serve.orchestrator import Orchestrator
    from repro.serve.placement import load_manifest
    from repro.serve.router import RouterIndex

    try:
        manifest = load_manifest(args.manifest)
    except (OSError, ValueError) as exc:
        raise SystemExit("error: bad cluster manifest %s: %s"
                         % (args.manifest, exc))
    # partial=True: orchestration must be able to inspect and repair a
    # cluster that is *currently* degraded — that is its whole job.
    router = RouterIndex.from_manifest(manifest, timeout=args.timeout,
                                       partial=True)
    orch = Orchestrator(router)
    try:
        if args.status:
            report = orch.status()
        elif args.repair:
            report = orch.repair()
        elif args.add_node is not None:
            name, sep, address = args.add_node.partition("=")
            if not sep or not name or not address:
                raise SystemExit(
                    "error: --add-node wants NAME=HOST:PORT")
            try:
                moved = orch.add_node(name, address,
                                      timeout=args.wait_timeout)
            except (TimeoutError, ValueError) as exc:
                raise SystemExit("error: %s" % exc)
            report = {"added": name, "address": address, "moved": moved,
                      "repair": orch.last_report}
        else:
            try:
                moved = orch.decommission(args.decommission)
            except (KeyError, ValueError) as exc:
                raise SystemExit("error: cannot decommission %r: %s"
                                 % (args.decommission, exc))
            report = {"decommissioned": args.decommission,
                      "moved": moved}
        if args.write_manifest:
            _write_cluster_manifest(args.manifest, router)
        print(json.dumps(report, indent=2, sort_keys=True))
    finally:
        router.close()
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from repro.loadgen import (
        format_report,
        mixed_mutating,
        read_heavy,
        run_against_index,
    )

    if args.profile == "read-heavy":
        profile = read_heavy(rps=args.rps, seconds=args.seconds,
                             seed=args.seed)
    else:
        profile = mixed_mutating(rps=args.rps, seconds=args.seconds,
                                 mutation_rps=args.mutation_rps,
                                 seed=args.seed)
    index = _load_serving_index(args.index, mmap=not args.no_mmap,
                                executor=args.executor,
                                workers=args.workers,
                                start_method=args.start_method,
                                kernel=args.kernel)
    print("loadtest %s: profile %s, %.0f peak rps over %.1fs, seed %d"
          % (args.index, profile.name, args.rps, args.seconds,
             args.seed), flush=True)
    try:
        report = run_against_index(
            index, profile, executor=args.executor,
            workers=args.workers, start_method=args.start_method,
            max_batch=args.max_batch, window_ms=args.window_ms,
            cache_size=args.cache_size, max_pending=args.max_pending,
            concurrency=args.concurrency, mmap=not args.no_mmap)
    finally:
        if hasattr(index, "close"):
            index.close()
    print(format_report(report))
    if args.json_out is not None:
        args.json_out.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print("[metrics written to %s]" % args.json_out)
    return 1 if report["errors"] else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.engine import main as lint_main

    return lint_main(args.lint_args)


def _print_drift(drift: dict) -> None:
    print("tiers:          base %d, delta %d, tombstones %d "
          "(generation %d, mutation epoch %d)"
          % (drift["base_keys"], drift["delta_keys"], drift["tombstones"],
             drift["generation"], drift["mutation_epoch"]))
    print("drift score:    %.3f (depth excess %.3f, churn %.3f, "
          "skew shift %.3f)"
          % (drift["drift_score"], drift["depth_excess"],
             drift["churn_ratio"], drift["skewness_shift"]))
    if drift["auto_rebalance_at"] is not None:
        print("auto-rebalance: at drift score >= %.2f"
              % drift["auto_rebalance_at"])


def _cmd_info(args: argparse.Namespace) -> int:
    header = read_header(args.index)
    print("format:         v%d%s" % (
        header["version"],
        " (dynamic manifest)" if header["version"] >= 3
        else " (zero-copy columnar)"))
    print("backend:        %s" % header.get("storage"))
    print("partitioner:    %s" % header.get("partitioner"))
    print("kernel:         %s%s"
          % (header.get("kernel") or "(unrecorded)",
             ", bbit %d band keys" % header["bbit"]
             if header.get("bbit") else ""))
    try:
        index = load_ensemble(args.index)
    except FormatError as exc:
        # Header metadata stays inspectable even when the index needs a
        # load-time override (unregistered partitioner) or names a
        # storage backend this build does not have.
        print("(not loadable without overrides: %s)" % exc)
        return 1
    sizes = sorted(index.size_of(k) for k in index.keys())
    print("domains:        %d" % len(index))
    _print_drift(index.drift_stats())
    print("num_perm:       %d" % index.num_perm)
    print("threshold:      %.2f (default)" % index.threshold)
    print("forest shape:   %d trees x depth %d"
          % (index.num_trees, index.max_depth))
    print("domain sizes:   min %d, median %d, max %d"
          % (sizes[0], sizes[len(sizes) // 2], sizes[-1]))
    partitions = index.stats()["partitions"]
    print("partitions (%d):" % len(partitions))
    for p in partitions:
        print("  [%8d, %8d)  %d domains"
              % (p["lower"], p["upper"], p["count"]))
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # Forward verbatim instead of parsing: argparse's REMAINDER
        # cannot capture a leading option (`repro lint --list-rules`),
        # and the linter owns its own flag set anyway.
        from repro.analysis.engine import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    handlers = {
        "build": _cmd_build,
        "query": _cmd_query,
        "insert": _cmd_insert,
        "remove": _cmd_remove,
        "rebalance": _cmd_rebalance,
        "info": _cmd_info,
        "serve": _cmd_serve,
        "shardnode": _cmd_shardnode,
        "router": _cmd_router,
        "orchestrate": _cmd_orchestrate,
        "loadtest": _cmd_loadtest,
        "lint": _cmd_lint,
    }
    try:
        return handlers[args.command](args)
    except (OSError, FormatError) as exc:
        # A missing or malformed corpus, query file or index is the
        # user's input, not a crash: one line instead of a traceback.
        # OSErrors that name no file (socket binds, closed pipes) are
        # not input errors and propagate.
        if isinstance(exc, FormatError):
            path, reason = args.index, exc
        elif exc.filename is not None:
            path, reason = exc.filename, exc.strerror
        else:
            raise
        print("error: %s: %s" % (path, reason), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
