"""Shared fixtures: small deterministic corpora and signature sets."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.ensemble import LSHEnsemble
from repro.datagen.corpus import DomainCorpus, generate_corpus
from repro.minhash.generator import SignatureFactory
from repro.persistence import save_ensemble
from repro.serve.executor import InProcessExecutor
from repro.serve.router import RouterIndex

# Keep unit-test signatures small: statistical assertions use tolerances
# sized for this. Paper-scale (m=256) runs live in the benchmarks.
TEST_NUM_PERM = 128


def pytest_configure(config):
    # `procpool` selects the multiprocess suite (the CI matrix re-runs
    # it under both fork and spawn start methods); `timeout` is the
    # pytest-timeout marker, declared here so the suite stays
    # warning-free when the plugin is not installed locally.
    config.addinivalue_line(
        "markers",
        "procpool: multiprocess (process-pool executor) tests")
    config.addinivalue_line(
        "markers",
        "distributed: router + shard-node cluster tests (the"
        " tests/distributed battery; CI runs them as their own job)")
    config.addinivalue_line(
        "markers",
        "timeout(seconds): per-test timeout (enforced by pytest-timeout"
        " when installed)")
    config.addinivalue_line(
        "markers",
        "flaky(reruns=N): rerun-on-failure budget for tests whose"
        " subject is subprocess lifecycle (enforced by"
        " pytest-rerunfailures when installed; inert otherwise)."
        " Reserved for real-process churn — never mark an in-process"
        " test flaky, fix it")


@pytest.fixture(scope="session")
def small_corpus() -> DomainCorpus:
    """~300 domains with power-law sizes and planted containment."""
    return generate_corpus(num_domains=300, max_size=5_000, seed=101)


@pytest.fixture(scope="session")
def small_signatures(small_corpus):
    return small_corpus.signatures(num_perm=TEST_NUM_PERM, seed=1)


@pytest.fixture(scope="session")
def small_entries(small_corpus, small_signatures):
    return small_corpus.entries(small_signatures)


@pytest.fixture(scope="session")
def proc_pool():
    """One shared worker pool for the whole multiprocess suite.

    Spawn-mode workers cost ~a second each to start; sharing the pool
    keeps the suite fast under the CI spawn leg.  The pool is safe to
    share: sources are cached per PooledIndex, and crash tests leave it
    healthy (dead workers respawn).
    """
    from repro.parallel.procpool import ProcPool

    pool = ProcPool(num_workers=2)
    yield pool
    pool.close()


@pytest.fixture()
def factory() -> SignatureFactory:
    return SignatureFactory(num_perm=TEST_NUM_PERM, seed=1)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def make_overlapping_sets(overlap: int, only_a: int, only_b: int,
                          tag: str = "v") -> tuple[set, set]:
    """Two sets with an exact overlap size, for score assertions."""
    shared = {"%s_shared_%d" % (tag, i) for i in range(overlap)}
    a = shared | {"%s_a_%d" % (tag, i) for i in range(only_a)}
    b = shared | {"%s_b_%d" % (tag, i) for i in range(only_b)}
    return a, b


@pytest.fixture(scope="session")
def in_process_cluster():
    """Builder ``(entries, num_shards, make_index) -> (router, flat)``.

    ``make_index()`` returns an unbuilt
    :class:`~repro.core.ensemble.LSHEnsemble`.  ``flat`` holds every
    entry; shard ``i`` holds ``entries[i::num_shards]`` built with the
    flat index's partition bounds (the router == flat parity
    precondition), and ``router`` fans out over one
    :class:`~repro.serve.executor.InProcessExecutor` per shard.  Close
    the router (or use it in a ``with`` block).
    """
    def build(entries, num_shards, make_index):
        entries = list(entries)
        flat = make_index()
        flat.index(entries)
        executors = {}
        for i in range(min(num_shards, len(entries))):
            shard = make_index()
            shard.index(entries[i::num_shards], partitions=flat.partitions)
            executors["shard_%03d" % i] = InProcessExecutor(shard)
        return RouterIndex.from_executors(executors), flat

    return build


@pytest.fixture()
def retired_cluster_dir(tmp_path):
    """A directory in the retired sharded-cluster format: a
    ``manifest.json`` listing ``"shards"`` beside one v2 file per
    shard, the file names and manifest keys its writer produced."""
    factory = SignatureFactory(num_perm=32, seed=1)
    root = tmp_path / "cluster"
    root.mkdir()
    names = []
    for i in range(2):
        shard = LSHEnsemble(num_perm=32, num_partitions=2)
        shard.index([("s%d-k%d" % (i, j),
                      factory.lean({"v%d_%d" % (j, v) for v in range(8 + j)}),
                      8 + j) for j in range(6)])
        names.append("shard-000-%05d.lshe" % i)
        save_ensemble(shard, root / names[-1])
    manifest = {"num_shards": len(names), "parallel": True,
                "shards": names, "mutation_epoch": 0}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return root
