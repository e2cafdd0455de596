"""LSH Ensemble: Internet-Scale Domain Search — full reproduction.

Reproduces Zhu, Nargesian, Pu & Miller, *LSH Ensemble: Internet-Scale
Domain Search*, PVLDB 9(12), 2016.  The package implements the paper's
index (:class:`~repro.core.ensemble.LSHEnsemble`) and every substrate it
rests on: minwise hashing, classic and dynamic (forest) LSH, the
Asymmetric Minwise Hashing baseline, exact ground-truth search, synthetic
open-data corpora, and the evaluation harness regenerating each figure
and table of the paper.

Quickstart::

    from repro import LSHEnsemble, MinHash

    index = LSHEnsemble(threshold=0.5, num_partitions=16)
    index.index(
        (name, MinHash.from_values(values), len(values))
        for name, values in domains.items()
    )
    matches = index.query(MinHash.from_values(query), size=len(query))
"""

from repro.asym import AsymmetricMinHashLSH
from repro.core import (
    LSHEnsemble,
    Partition,
    blended_partitions,
    equi_depth_partitions,
    equi_width_partitions,
    estimate_containment,
    optimal_partitions,
    rank_candidates,
)
from repro.exact import InvertedIndex
from repro.forest import PrefixForest
from repro.lsh import MinHashLSH
from repro.minhash import (
    BottomKSketch,
    LeanMinHash,
    MinHash,
    MinHashGenerator,
    SignatureBatch,
    SignatureFactory,
)
from repro.parallel import PooledIndex, ProcPool
from repro.core.partitioner import register_partitioner
from repro.persistence import (
    FormatError,
    load_ensemble,
    read_header,
    save_ensemble,
)
from repro.serve import QueryServer, start_in_thread

__version__ = "1.0.0"

__all__ = [
    "LSHEnsemble",
    "MinHash",
    "LeanMinHash",
    "BottomKSketch",
    "SignatureFactory",
    "MinHashGenerator",
    "SignatureBatch",
    "MinHashLSH",
    "PrefixForest",
    "AsymmetricMinHashLSH",
    "InvertedIndex",
    "ProcPool",
    "PooledIndex",
    "Partition",
    "equi_depth_partitions",
    "equi_width_partitions",
    "blended_partitions",
    "optimal_partitions",
    "estimate_containment",
    "rank_candidates",
    "save_ensemble",
    "load_ensemble",
    "read_header",
    "FormatError",
    "register_partitioner",
    "QueryServer",
    "start_in_thread",
    "__version__",
]
