"""Seeded inputs: the corpus, the query order and the write stream.

The program under test receives only what this module generates.  The
workload's *shape* — domain sizes, topics and window offsets (the
power-law of the paper's Figure 1), which domains are queried in which
phase, which are written — is drawn once from ``SHAPE_SEED``.
``--seed`` salts every value, so every hash, signature, bucket and
candidate set differs between seeds while the exact containment
structure, and with it the work a correct answer takes, stays put.

The split is deliberate.  A truncated Pareto with alpha = 2 has a heavy
enough tail that redrawing sizes or query picks per seed moves total
values by several percent and mean answer size by more; that would be
read as run-to-run noise of the program when it is variance of the
generator, and recall, precision and top-k cost (which differ a lot
from query to query) would be means over a different sample every run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.datagen.corpus import generate_corpus

SHAPE_SEED = 42
NUM_PERM = 128
NUM_PARTITIONS = 16
THRESHOLD = 0.5
TOP_K = 10
MIN_THRESHOLD = 0.05
SIGNATURE_SEED = 1
# Strata of the size-sorted corpus the query order interleaves; any
# window of the order whose length is a multiple of this holds the same
# number of domains from every size stratum.
STRATA = 50


@dataclass(frozen=True)
class Scale:
    """Corpus size, how many queries are scored for accuracy, and the
    multiplier on every fixed operation count."""
    name: str
    domains: int
    accuracy: int
    work: float

    def ops(self, count: int, floor: int = 1) -> int:
        return max(floor, int(round(count * self.work)))


FULL = Scale("full", 10_000, 400, 1.0)
SMOKE = Scale("smoke", 800, 64, 0.05)


@dataclass(frozen=True)
class Inputs:
    seed: int
    domains: dict          # key -> frozenset of salted values
    order: list            # every key once: the stratified query order
    writes: dict           # new key -> frozenset (the mixed phase inserts)

    def digest(self) -> str:
        """Identity of the generated inputs (same seed, same digest)."""
        h = hashlib.sha1()
        for key in self.order:
            h.update(repr((key, sorted(self.domains[key]))).encode())
        for key, values in self.writes.items():
            h.update(repr((key, sorted(values))).encode())
        return h.hexdigest()


def stratified_order(sizes: dict, rng: np.random.Generator) -> list:
    """Every key once, size strata interleaved.

    Keys are sorted by size and cut into ``STRATA`` equal runs; each run
    is shuffled and the runs are dealt round-robin.  Phases take
    consecutive slices of this order, and every slice sees the corpus's
    size mix instead of whatever a plain shuffle's heavy tail dealt it.
    """
    ranked = sorted(sizes, key=lambda key: (sizes[key], key))
    strata = [list(chunk) for chunk in np.array_split(
        np.asarray(ranked, dtype=object), min(STRATA, len(ranked)))]
    for stratum in strata:
        rng.shuffle(stratum)
    order = []
    for i in range(max(len(s) for s in strata)):
        order.extend(s[i] for s in strata if i < len(s))
    return order


def make_inputs(seed: int, scale: Scale, num_writes: int) -> Inputs:
    corpus = generate_corpus(num_domains=scale.domains, alpha=2.0,
                             min_size=10, max_size=20_000,
                             seed=SHAPE_SEED)
    salt = "s%d/" % seed
    domains = {key: frozenset([salt + v for v in values])
               for key, values in corpus.items()}
    order = stratified_order(corpus.sizes,
                             np.random.default_rng(SHAPE_SEED))
    # Written domains reuse the shape of corpus domains (the tail of
    # the order) under their own salt: new keys, new values, same size
    # mix.
    writes = {
        "w%06d" % i: frozenset(["w" + v for v in domains[key]])
        for i, key in enumerate(order[len(order) - num_writes:])}
    return Inputs(seed, domains, order, writes)
