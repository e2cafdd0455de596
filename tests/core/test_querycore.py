"""The one query core stays one: structural guards.

``query_batch`` is the only read primitive; ``query``, ``query_top_k``
and the default ``query_top_k_batch`` are derived once in
:mod:`repro.core.querycore`.  These checks fail the moment a facade or
executor grows its own copy back.
"""

import re
from pathlib import Path

import repro
from repro.core.ensemble import LSHEnsemble
from repro.core.querycore import QuerySurface
from repro.kernels import list_kernels
from repro.parallel.procpool import PooledIndex
from repro.serve.executor import InProcessExecutor, ProcPoolExecutor
from repro.serve.remote import RemoteShardExecutor
from repro.serve.router import RouterIndex

SURFACES = (LSHEnsemble, PooledIndex, RouterIndex, InProcessExecutor,
            ProcPoolExecutor, RemoteShardExecutor)


def test_every_surface_derives_from_the_one_core():
    for cls in SURFACES:
        assert issubclass(cls, QuerySurface), cls.__name__
        assert "query_top_k" not in vars(cls), cls.__name__
        assert cls.query_top_k is QuerySurface.query_top_k, cls.__name__


def test_only_the_flat_index_keeps_its_own_scalar_query():
    # LSHEnsemble.query is the scalar probe: the reference the
    # batch == loop properties compare against, and the producer of
    # PartitionQueryReport.  Everyone else's query is a one-row batch.
    assert [cls.__name__ for cls in SURFACES if "query" in vars(cls)] \
        == ["LSHEnsemble"]


def test_sizes_normalisation_message_has_one_home():
    src = Path(repro.__file__).parent
    homes = [path.relative_to(src).as_posix()
             for path in sorted(src.rglob("*.py"))
             if "got %d sizes for %d signatures"
             in path.read_text(encoding="utf-8")]
    assert homes == ["core/querycore.py"]


def test_the_one_plug_seams_stay_retired():
    # One bucket layout, one single-file snapshot format, two kernels:
    # the storage-backend interface/registry, the v1 reader and the
    # numba backend each had exactly one plug and were removed; the
    # dict-of-sets tables, their lazy fill and the tests-only exports
    # went when the sorted per-depth arrays became the only buckets.
    # The in-process sharded cluster went too: the router is the one
    # facade that fans a query out to shards, so nothing may guess
    # whether an index is a cluster.
    retired = re.compile(r"\b(storage_factory|HashTableStorage|BandedStorage"
                         r"|_load_v1|numba_impl|from numba"
                         r"|DictHashTableStorage|insert_packed|merge_packed"
                         r"|_ensure_depth|_route_locked|JoinDiscovery"
                         r"|MinHashLSHForest|ShardedEnsemble)\b"
                         r"|hasattr\([^)]*[\"']shards[\"']")
    src = Path(repro.__file__).parent
    found = {(path.relative_to(src).as_posix(), match.group())
             for path in sorted(src.rglob("*.py"))
             for match in retired.finditer(
                 path.read_text(encoding="utf-8"))}
    assert found == set()
    assert list_kernels() == ["numpy", "python"]
