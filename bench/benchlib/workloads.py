"""The four workloads: one phase program, four deployments.

Every workload takes the same inputs through the same life cycle —
ingest (sketch, index, save), reopen, then read and write phases of
fixed operation counts — against a different *depth* of the stack:

``build_reopen``    the library over a freshly re-opened (mmap) index,
                    after three full ingest cycles;
``inproc_batch``    the library over the index as built, big batches;
``serve_single``    one ``cli serve`` subprocess over HTTP;
``router_cluster``  ``cli router`` over 2 shards x 2 ``cli shardnode``
                    replicas, all subprocesses.

So every end-to-end metric has one definition, reported by every
workload, and a layer that is all of the time at one depth is a
rounding error at another — which is what lets a later change predict
"moves here, does not move there".
"""

from __future__ import annotations

import gc
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.ensemble import LSHEnsemble
from repro.exact.inverted import InvertedIndex
from repro.minhash.batch import SignatureBatch
from repro.minhash.generator import MinHashGenerator
from repro.persistence import load_ensemble, save_ensemble
from repro.serve.placement import owning_shard

from benchlib import client, stats
from benchlib.inputs import (MIN_THRESHOLD, NUM_PARTITIONS, NUM_PERM,
                             SIGNATURE_SEED, THRESHOLD, TOP_K, Inputs,
                             Scale, make_inputs)
from benchlib.procs import Children, peak_rss_mb
from benchlib.trace import Tracer

RUN_SECONDS = 10          # the --seconds every count below is sized for
FIRST_BATCH = 64          # the batch that follows every reopen
CHECK_QUERIES = 40        # queries per read phase compared to reference
WRITE_LAG = 20            # an inserted key is removed this many writes on
RATE_BLOCK = 4            # requests per client per block of a block-median rate
SKETCH_BLOCK = 500        # domains per timed sketching block
SLICES = 5                # stretches each read phase is measured in
SHARDS = ("shard_000", "shard_001")
REPLICAS = 2
PATHS = {"query": "/query", "topk": "/query_top_k"}


@dataclass(frozen=True)
class Plan:
    """Fixed operation counts of one workload (at ``--seconds 10``)."""
    name: str
    depth: str            # loaded | built | serve | router
    cycles: int           # full ingest cycles (the last index is used)
    query: int            # single-query requests, all distinct
    table: int            # multi-query requests ...
    width: int            # ... of this many queries each
    topk: int             # single-query top-k requests
    pairs: int            # inserts, each removed WRITE_LAG writes later
    write_rate: float     # served depths: writes per second


PLANS = {plan.name: plan for plan in (
    Plan("build_reopen", "loaded", cycles=3, query=1500, table=60,
         width=64, topk=800, pairs=500, write_rate=0.0),
    Plan("inproc_batch", "built", cycles=1, query=3000, table=80,
         width=256, topk=1600, pairs=800, write_rate=0.0),
    Plan("serve_single", "serve", cycles=1, query=1000, table=200,
         width=16, topk=700, pairs=250, write_rate=100.0),
    Plan("router_cluster", "router", cycles=1, query=600, table=120,
         width=16, topk=280, pairs=150, write_rate=60.0),
)}


class Failed(Exception):
    """The run cannot produce a result (set-up broke, not an op)."""


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def count(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)


# --------------------------------------------------------------------- #
# Sketches and the two kinds of depth
# --------------------------------------------------------------------- #


class Sketches:
    """Signatures of the corpus (rows in query order) then the writes."""

    def __init__(self, inputs: Inputs, corpus_batch: SignatureBatch,
                 write_batch: SignatureBatch) -> None:
        self.keys = list(inputs.order) + list(inputs.writes)
        self.matrix = np.vstack([corpus_batch.matrix, write_batch.matrix])
        self.sizes = ([len(inputs.domains[key]) for key in inputs.order]
                      + [len(values) for values in inputs.writes.values()])
        self.corpus = len(inputs.order)

    def batch(self, rows) -> tuple[SignatureBatch, list[int]]:
        rows = list(rows)
        return (SignatureBatch(None, self.matrix[rows],
                               seed=SIGNATURE_SEED),
                [self.sizes[row] for row in rows])

    def entry(self, row: int) -> tuple:
        batch, sizes = self.batch([row])
        return self.keys[row], batch[0], sizes[0]

    def json(self, row: int) -> str:
        """The wire form of one signature (shared by query bodies and
        insert entries)."""
        return ('"signature":[%s],"seed":%d,"size":%d'
                % (",".join(map(str, self.matrix[row].tolist())),
                   SIGNATURE_SEED, self.sizes[row]))


class Library:
    """Calls into an index in this process, one caller at a time."""
    clients = 1
    served = False

    def __init__(self, index: LSHEnsemble, sketches: Sketches) -> None:
        self.index = index
        self.sketches = sketches

    def request(self, kind: str, rows):
        return self.sketches.batch(rows)

    def send(self, kind: str, request):
        batch, sizes = request
        if kind == "query":
            return self.index.query_batch(batch, sizes=sizes,
                                          threshold=THRESHOLD)
        return self.index.query_top_k_batch(
            batch, TOP_K, sizes=sizes, min_threshold=MIN_THRESHOLD)

    def run(self, kind: str, requests, record=None, keep=None,
            offset: int = 0):
        """Same contract as :func:`client.closed_loop`, one caller.
        Dropping the replies nobody will check matters here: answer
        sets kept alive by the harness are objects the collector of
        this very process re-walks while the next operations are
        timed."""
        ops = []
        started = time.perf_counter()
        for index, request in enumerate(requests, offset):
            begin = time.perf_counter()
            reply = self.send(kind, request)
            done = time.perf_counter()
            if keep is not None and index not in keep:
                reply = None
            op = client.Op(index, done - begin, done, reply)
            ops.append(op)
            if record is not None:
                record(op)
        return ops, started

    @staticmethod
    def answers(kind: str, op) -> list:
        if kind == "query":
            return [sorted(found, key=str) for found in op.reply]
        return [[[key, float(score)] for key, score in ranked]
                for ranked in op.reply]

    def mixed(self, write_rows, reads, rate: float, keep):
        """One caller alternating insert, read, lagged remove."""
        inserts, removes, read_ops = [], [], []
        for i, row in enumerate(write_rows):
            key, signature, size = self.sketches.entry(row)
            begin = time.perf_counter()
            self.index.insert(key, signature, size)
            done = time.perf_counter()
            inserts.append(client.Op(i, done - begin, done, None))
            begin = done
            reply = self.send("query", reads[i])
            done = time.perf_counter()
            read_ops.append(client.Op(i, done - begin, done,
                                      reply if i in keep else None))
            if i >= WRITE_LAG:
                begin = done
                self.index.remove(self.sketches.keys[write_rows[i - WRITE_LAG]])
                done = time.perf_counter()
                removes.append(client.Op(i, done - begin, done, None))
        return inserts, removes, read_ops, [0.0]


class Served:
    """HTTP against a server subprocess, ``client.CLIENTS`` at a time."""
    clients = client.CLIENTS
    served = True

    def __init__(self, port: int, sketches: Sketches) -> None:
        self.port = port
        self.sketches = sketches

    def request(self, kind: str, rows) -> bytes:
        queries = ",".join("{%s}" % self.sketches.json(row)
                           for row in rows)
        if kind == "query":
            return ('{"queries":[%s],"threshold":%r}'
                    % (queries, THRESHOLD)).encode()
        return ('{"queries":[%s],"k":%d,"min_threshold":%r}'
                % (queries, TOP_K, MIN_THRESHOLD)).encode()

    def run(self, kind: str, requests, record=None, keep=None,
            offset: int = 0, clients=None, stop=None):
        return client.closed_loop(
            self.port, PATHS[kind], requests,
            clients=self.clients if clients is None else clients,
            stop=stop, record=record, keep=keep, offset=offset)

    @staticmethod
    def answers(kind: str, op) -> list:
        return json.loads(op.reply)["results"]

    def mixed(self, write_rows, reads, rate: float, keep):
        """A paced writer beside one closed-loop reader."""
        requests = []
        for i, row in enumerate(write_rows):
            requests.append(("/insert", (
                '{"entries":[{"key":%s,%s}]}'
                % (json.dumps(self.sketches.keys[row]),
                   self.sketches.json(row))).encode()))
            if i >= WRITE_LAG:
                requests.append(("/remove", json.dumps({"keys": [
                    self.sketches.keys[write_rows[i - WRITE_LAG]]
                ]}).encode()))
        stop = threading.Event()
        read_result = []
        reader = threading.Thread(target=lambda: read_result.append(
            self.run("query", reads, keep=keep, clients=1, stop=stop)))
        reader.start()
        try:
            ops, lateness = client.paced(self.port, requests, rate)
        finally:
            stop.set()
            reader.join()
        inserts = [op for op, (path, _) in zip(ops, requests)
                   if path == "/insert"]
        removes = [op for op, (path, _) in zip(ops, requests)
                   if path == "/remove"]
        # An ack that says "not applied" is a failed write, not a fast one.
        for batch, flag in ((inserts, "applied"), (removes, "removed")):
            for op in batch:
                if (op.latency is not None
                        and json.loads(op.reply)[flag] != [True]):
                    op.latency = None
        return inserts, removes, read_result[0][0], lateness


# --------------------------------------------------------------------- #
# Set-up: ingest, reopen, deploy
# --------------------------------------------------------------------- #


class Rows:
    """Hands out consecutive slices of the stratified query order.

    Served depths must never repeat a query outside the ``repeat``
    phase (a repeat is a cache hit), so running out is an error there;
    the library has no cache and may wrap around.
    """

    def __init__(self, first: int, total: int, wrap: bool) -> None:
        self._total = total
        self._wrap = wrap
        self._cursor = first

    def take(self, count: int) -> list[int]:
        if not self._wrap and self._cursor + count > self._total:
            raise Failed("the plan needs more distinct queries than the "
                         "corpus has domains")
        rows = [(self._cursor + i) % self._total for i in range(count)]
        self._cursor += count
        return rows


def build_index(entries, partitions=None) -> LSHEnsemble:
    index = LSHEnsemble(threshold=THRESHOLD, num_perm=NUM_PERM,
                        num_partitions=NUM_PARTITIONS)
    index.index(entries, partitions=partitions)
    return index


def ingest(inputs: Inputs, path: Path, tracer: Tracer):
    """One full offline ingest: sketch, index, save.  A fresh generator
    per cycle, so value hashing is paid every time.

    Sketching is three quarters of an ingest and memory-bound, which
    makes it the part a slow second of the machine distorts most; it is
    timed in blocks of ``SKETCH_BLOCK`` domains and charged at the
    median block's values-per-second.  Returns the index, the sketches
    and the ingest's duration so estimated.
    """
    generator = MinHashGenerator(num_perm=NUM_PERM, seed=SIGNATURE_SEED)
    order, domains = inputs.order, inputs.domains
    parts, rates, values = [], [], 0
    with tracer.span("minhash.bulk"):
        for lo in range(0, len(order), SKETCH_BLOCK):
            keys = order[lo:lo + SKETCH_BLOCK]
            block = [domains[key] for key in keys]
            count = sum(map(len, block))
            begin = time.perf_counter()
            parts.append(generator.bulk(block, keys=keys).matrix)
            rates.append(count / (time.perf_counter() - begin))
            values += count
    batch = SignatureBatch(order, np.vstack(parts), seed=SIGNATURE_SEED)
    begin = time.perf_counter()
    with tracer.span("core.index"):
        index = build_index(
            (key, batch[i], len(domains[key]))
            for i, key in enumerate(order))
    with tracer.span("persistence.save"):
        save_ensemble(index, path)
    seconds = (values / stats.median_rate(rates)
               + time.perf_counter() - begin)
    return index, batch, generator, seconds


def reopen_library(path: Path, first, tracer: Tracer):
    """Load the saved index and answer the first batch from it."""
    batch, sizes = first
    begin = time.perf_counter()
    with tracer.span("persistence.load"):
        loaded = load_ensemble(path, mmap=True)
    with tracer.span("core.first_batch"):
        answers = loaded.query_batch(batch, sizes=sizes,
                                     threshold=THRESHOLD)
    return loaded, answers, time.perf_counter() - begin


def deploy_serve(children: Children, path: Path):
    child = children.spawn("serve", "serve", path, "--port", 0)
    return children.wait_ready(child), {}


def deploy_router(children: Children, tmp: Path, shard_paths: dict):
    """Shard nodes first (all started, then all awaited), then the
    router over a manifest that pins each shard to its replicas."""
    nodes = {}
    for label in SHARDS:
        for replica in range(REPLICAS):
            name = "%s_r%d" % (label, replica)
            nodes[name] = children.spawn(
                name, "shardnode", shard_paths[label], "--shard", label,
                "--port", 0)
    for child in nodes.values():
        children.wait_ready(child)
    manifest = tmp / "cluster.json"
    manifest.write_text(json.dumps({
        "nodes": {name: "127.0.0.1:%d" % child.port
                  for name, child in nodes.items()},
        "shards": {label: [name for name in nodes
                           if name.startswith(label)]
                   for label in SHARDS},
        "replication": REPLICAS}))
    router = children.spawn("router", "router", manifest, "--port", 0)
    return children.wait_ready(router), {
        name: child.port for name, child in nodes.items()}


# --------------------------------------------------------------------- #
# The run
# --------------------------------------------------------------------- #


@dataclass
class Phase:
    kind: str             # query | topk
    groups: list          # the sketch rows of each request
    requests: list        # the same requests, encoded for the depth

    def sampled(self) -> set[int]:
        """The requests whose answers are compared to the reference:
        evenly spaced, about ``CHECK_QUERIES`` queries in all."""
        count = max(1, CHECK_QUERIES // len(self.groups[0]))
        stride = max(1, len(self.groups) // count)
        return set(range(0, len(self.groups), stride))


class Run:
    """State of one workload run: ``set_up`` then ``measure``."""

    def __init__(self, plan: Plan, seed: int, scale: Scale, tmp: Path,
                 src_dir: Path, started_at: float) -> None:
        self.plan = plan
        self.seed = seed
        self.scale = scale
        self.tmp = tmp
        self.started_at = started_at
        self.tracer = Tracer()
        self.tally = Tally()
        self.children = Children(src_dir, tmp)
        self.metrics: dict[str, float] = {}
        self.samples_ms: dict[str, list[float]] = {}
        self.node_ports: dict[str, int] = {}

    # ----------------------------- set-up ---------------------------- #

    def set_up(self, extra_phases=()) -> None:
        """Everything before the first measured operation.
        ``extra_phases`` are ``(name, kind, requests, width)`` read
        phases the traced run adds (its ladder and plain replays)."""
        plan, scale, tracer = self.plan, self.scale, self.tracer
        pairs = scale.ops(plan.pairs, WRITE_LAG + 5)
        with tracer.span("datagen.corpus"):
            self.inputs = inputs = make_inputs(self.seed, scale, pairs)
        # The corpus is millions of small objects that live to the end
        # of the run; frozen, the collector stops re-walking them every
        # time the program under test allocates.
        gc.collect()
        gc.freeze()
        self.index_path = path = self.tmp / "index.lshe"
        served = plan.depth in ("serve", "router")
        first_rows = list(range(FIRST_BATCH))
        self.ingest_s, self.reopen_s = [], []
        index = batch = generator = loaded = None
        for _ in range(plan.cycles):
            # The previous cycle's index goes before the next is built.
            del index, batch, generator, loaded
            index, batch, generator, seconds = ingest(inputs, path,
                                                      tracer)
            loaded = None
            self.ingest_s.append(seconds)
            if not served:
                first = (SignatureBatch(None, batch.matrix[first_rows],
                                        seed=SIGNATURE_SEED),
                         [len(inputs.domains[key])
                          for key in inputs.order[:FIRST_BATCH]])
                loaded, answers, seconds = reopen_library(path, first,
                                                          tracer)
                self.reopen_s.append(seconds)
                self.tally.count(
                    answers == index.query_batch(
                        first[0], sizes=first[1], threshold=THRESHOLD),
                    "re-opened index answers differ from the built one")
        self.index = index
        self.sketches = sketches = Sketches(
            inputs, batch, generator.bulk(inputs.writes))
        self.write_rows = list(range(sketches.corpus,
                                     sketches.corpus + pairs))
        self.write_keys = set(inputs.writes)
        # Rows 0 .. accuracy-1 are scored for accuracy (their head is
        # the first batch); phases slice what follows.
        rows = Rows(max(scale.accuracy, FIRST_BATCH), sketches.corpus,
                    wrap=not served)

        with tracer.span("exact.ground_truth"):
            exact = InvertedIndex.from_domains(inputs.domains)
            self.truth = [
                exact.query_containment(inputs.domains[key], THRESHOLD)
                for key in inputs.order[:scale.accuracy]]
            del exact

        if served:
            if plan.depth == "serve":
                begin = time.perf_counter()
                port, self.node_ports = deploy_serve(self.children, path)
            else:
                shard_paths = self._build_shards()
                begin = time.perf_counter()
                port, self.node_ports = deploy_router(
                    self.children, self.tmp, shard_paths)
            self.depth = depth = Served(port, sketches)
            first = Phase("query", [first_rows],
                          [depth.request("query", first_rows)])
            ops, _ = depth.run("query", first.requests, clients=1)
            self.reopen_s.append(time.perf_counter() - begin)
            self._check("reopen", first, ops)
            del ops
        else:
            self.depth = depth = Library(
                loaded if plan.depth == "loaded" else index, sketches)

        # Every request of every phase is encoded before anything is
        # timed.
        ops_of = scale.ops
        self.phases = {
            "query": self.phase("query", rows.take(
                ops_of(plan.query, 4 * SLICES)), 1),
            "table": self.phase("query", rows.take(
                ops_of(plan.table, 2 * SLICES) * plan.width), plan.width),
            "topk": self.phase("topk", rows.take(
                ops_of(plan.topk, 2 * SLICES)), 1),
            "accuracy": self.phase("query",
                                   list(range(scale.accuracy)), 16),
            "mixed": self.phase("query",
                                rows.take(self._mixed_reads(pairs)), 1),
        }
        for name, kind, count, width in extra_phases:
            self.phases[name] = self.phase(
                kind, rows.take(ops_of(count, 2 * SLICES) * width), width)

        # Warm-up: every kind of request a few times over.
        for warm in (self.phase("query", rows.take(16), 1),
                     self.phase("query", rows.take(2 * plan.width),
                                plan.width),
                     self.phase("topk", rows.take(8), 1)):
            depth.run(warm.kind, warm.requests)
        gc.collect()
        gc.freeze()

    def phase(self, kind: str, taken: list, width: int) -> Phase:
        groups = [taken[i:i + width] for i in range(0, len(taken), width)]
        return Phase(kind, groups, [self.depth.request(kind, group)
                                    for group in groups])

    def _mixed_reads(self, pairs: int) -> int:
        """Reads to prepare for the mixed phase: one per insert for the
        library; for a served depth as many as one reader could
        possibly finish while the writer runs (no served read beats 3
        ms: the coalescer's 2 ms window plus the query itself)."""
        if not self.depth.served:
            return pairs
        writes = 2 * pairs - WRITE_LAG
        return int(writes / self.plan.write_rate * 333)

    def _build_shards(self) -> dict:
        """Split the corpus by the router's own placement function and
        save one index per shard.  Shards take the flat index's
        partition bounds: the router's answers equal the flat index's
        only when every shard tunes against the same bounds, and that
        equality is what the run checks."""
        paths = {}
        with self.tracer.span("core.index_shards"):
            members = {label: [] for label in SHARDS}
            for row, key in enumerate(self.inputs.order):
                members[owning_shard(key, SHARDS)].append(row)
            for label, shard_rows in members.items():
                shard = build_index(
                    (self.sketches.entry(row) for row in shard_rows),
                    partitions=self.index.partitions)
                paths[label] = self.tmp / ("%s.lshe" % label)
                save_ensemble(shard, paths[label])
        return paths

    # ---------------------------- checking --------------------------- #

    def _reference(self, kind: str, row: int):
        """The answer of the flat, in-process index through its
        single-query API, in the served canonical form."""
        _, signature, size = self.sketches.entry(row)
        if kind == "query":
            found = self.index.query(signature, size=size,
                                     threshold=THRESHOLD)
            return sorted(found - self.write_keys, key=str)
        return [[key, float(score)] for key, score
                in self.index.query_top_k(signature, TOP_K, size=size,
                                          min_threshold=MIN_THRESHOLD)]

    def _check(self, name: str, phase: Phase, ops) -> None:
        """Count every operation of a phase; compare every answer that
        was kept with the reference, key for key (and score for score
        for top-k)."""
        for op in ops:
            if op.latency is None:
                self.tally.count(False, "%s request %d failed: %.200r"
                                 % (name, op.index, op.reply))
                continue
            ok = True
            if op.reply is not None:
                answers = self.depth.answers(phase.kind, op)
                if phase.kind == "query":
                    answers = [[key for key in found
                                if key not in self.write_keys]
                               for found in answers]
                ok = answers == [self._reference(phase.kind, row)
                                 for row in phase.groups[op.index]]
            self.tally.count(ok, "%s request %d: wrong answer"
                             % (name, op.index))

    # ---------------------------- measuring -------------------------- #

    def read_phases(self, names, record_for=None) -> dict:
        """Run read phases interleaved: each phase is cut into
        ``SLICES`` stretches and the stretches are dealt round-robin,
        so every phase samples the whole measured interval and a slow
        few seconds of the machine land on all of them alike instead of
        on whichever phase happened to be running.

        Returns ``{name: (latencies_ms, block_rates, ops)}``; block
        rates are in queries per second.
        """
        out = {name: ([], [], []) for name in names}
        for piece in range(SLICES):
            for name in names:
                phase = self.phases[name]
                lo, hi = (len(phase.requests) * i // SLICES
                          for i in (piece, piece + 1))
                ops, started = self.depth.run(
                    phase.kind, phase.requests[lo:hi],
                    record=record_for and record_for(name),
                    keep=phase.sampled(), offset=lo)
                latencies, rates, all_ops = out[name]
                all_ops.extend(ops)
                done = [op.done for op in ops if op.latency is not None]
                latencies.extend(op.latency * 1e3 for op in ops
                                 if op.latency is not None)
                rates.extend(stats.block_rates(
                    done, started,
                    min(RATE_BLOCK * self.depth.clients, hi - lo),
                    len(phase.groups[0])))
        for name, (latencies, rates, _) in out.items():
            if not latencies or not rates:
                raise Failed("no %s operation succeeded: %s"
                             % (name, self.tally.reasons))
            self.samples_ms[name] = latencies
        return out

    def measure(self, record_for=None, also=()) -> None:
        """The measured phases.  ``mixed`` comes last: it is the only
        one that changes the index.  The traced run passes
        ``record_for(phase_name)``, its span hook, and ``also``, extra
        read phases to interleave with the three measured ones."""
        metrics, plan = self.metrics, self.plan
        metrics["setup_s"] = time.time() - self.started_at
        reads = self.read_phases(("query", "table", "topk") + also,
                                 record_for)
        metrics["query_p50_ms"] = stats.percentile(reads["query"][0], 50)
        metrics["query_qps"] = stats.median_rate(reads["table"][1])
        metrics["topk_qps"] = stats.median_rate(reads["topk"][1])

        accuracy = self.phases["accuracy"]
        accuracy_ops, _ = self.depth.run("query", accuracy.requests)
        self._score_accuracy(accuracy_ops)

        mixed = self.phases["mixed"]
        inserts, removes, mixed_reads, lateness = self.depth.mixed(
            self.write_rows, mixed.requests, plan.write_rate,
            mixed.sampled())
        for name, ops in (("write", inserts), ("mixed", mixed_reads)):
            self.samples_ms[name] = [op.latency * 1e3 for op in ops
                                     if op.latency is not None]
            if not self.samples_ms[name]:
                raise Failed("no %s operation succeeded" % name)
        metrics["mixed_query_p50_ms"] = stats.percentile(
            self.samples_ms["mixed"], 50)
        self.write_lateness_ms = [late * 1e3 for late in lateness]

        metrics["ingest_domains_per_s"] = (
            len(self.inputs.order) / stats.percentile(self.ingest_s, 50))
        metrics["peak_rss_mb"] = (self.children.peak_rss_mb()
                                  if self.depth.served
                                  else peak_rss_mb("self"))
        for name, ops in (("insert", inserts), ("remove", removes)):
            for op in ops:
                self.tally.count(op.latency is not None,
                                 "%s %d not acknowledged: %.200r"
                                 % (name, op.index, op.reply))
        for name in ("query", "table", "topk"):
            self._check(name, self.phases[name], reads[name][2])
        self._check("accuracy", accuracy, accuracy_ops)
        self._check("mixed", mixed, mixed_reads)
        self._check_written()

    def _score_accuracy(self, ops) -> None:
        from repro.eval.metrics import precision, recall

        found = []
        for op in ops:
            if op.latency is None:
                raise Failed("accuracy request failed: %.200r" % op.reply)
            found.extend(set(keys) for keys
                         in self.depth.answers("query", op))
        self.metrics["recall"] = float(np.mean(
            [recall(f, t) for f, t in zip(found, self.truth)]))
        # The paper's convention: empty result sets are left out of the
        # precision average.
        self.metrics["precision"] = float(np.mean(
            [precision(f, t) for f, t in zip(found, self.truth) if f]))

    def _check_written(self) -> None:
        """The last WRITE_LAG written keys were never removed: each
        must be found by a query for its own signature.  On the router
        the replicas of a shard must also agree on epoch and key
        count."""
        rows = self.write_rows[-WRITE_LAG:]
        ops, _ = self.depth.run("query", [self.depth.request("query", [row])
                                          for row in rows])
        for op, row in zip(ops, rows):
            key = self.sketches.keys[row]
            self.tally.count(
                op.latency is not None
                and key in self.depth.answers("query", op)[0],
                "written key %r not findable" % (key,))
        for label in SHARDS if self.plan.depth == "router" else ():
            states = set()
            for name, port in self.node_ports.items():
                if name.startswith(label):
                    conn = client.Conn(port)
                    try:
                        health = json.loads(conn.call("GET", "/healthz")[1])
                    finally:
                        conn.close()
                    states.add((health["mutation_epoch"], health["keys"]))
            self.tally.count(len(states) == 1,
                             "replicas of %s disagree: %s"
                             % (label, sorted(states)))
