"""Traffic profiles: what a load run offers the server, declaratively.

A profile is a pure description — RPS ramp stages, the read mix
(threshold vs top-k), zipf query popularity, and the mutation stream
(insert/remove rates plus periodic rebalances).  Everything downstream
(:mod:`repro.loadgen.schedule`) derives deterministically from the
profile and its seed, so two machines running the same profile replay
the *identical* request sequence and their ``BENCH_*.json`` entries are
comparable (latencies aside).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["RampStage", "TrafficProfile", "read_heavy", "mixed_mutating"]


@dataclass(frozen=True)
class RampStage:
    """One open-loop arrival phase: ``rps`` held for ``seconds``."""

    name: str
    rps: float
    seconds: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("stage name must be non-empty")
        if self.rps <= 0:
            raise ValueError("stage rps must be positive")
        if self.seconds <= 0:
            raise ValueError("stage seconds must be positive")


@dataclass(frozen=True)
class TrafficProfile:
    """A full load scenario; see the module docstring.

    Parameters
    ----------
    name:
        Report / trajectory-file label.
    stages:
        Open-loop read-arrival phases, replayed in order.
    top_k_fraction:
        Fraction of reads answered via ``/query_top_k`` (the rest use
        ``/query`` with ``threshold``).
    threshold, k, min_threshold:
        Query parameters shared by the whole run (one coalescing group
        per kind, the realistic hot path).
    zipf_exponent, query_pool:
        Query popularity: each read picks one of ``query_pool`` sampled
        signatures with Zipfian rank frequencies — hot keys exercise
        the result cache exactly as production skew would.
    mutation_rps, remove_fraction:
        Poisson insert/remove stream mutating the index while it
        serves (exercising epoch invalidation); ``remove_fraction`` of
        mutation events remove a previously inserted key.
    rebalance_every_seconds:
        Periodic full compaction during the run (``0`` disables).
    seed:
        Drives every random draw in the derived schedule.
    """

    name: str
    stages: tuple[RampStage, ...]
    top_k_fraction: float = 0.0
    threshold: float = 0.5
    k: int = 5
    min_threshold: float = 0.05
    zipf_exponent: float = 1.1
    query_pool: int = 256
    mutation_rps: float = 0.0
    remove_fraction: float = 0.3
    rebalance_every_seconds: float = 0.0
    seed: int = 99

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("profile needs at least one stage")
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise ValueError("stage names must be distinct")
        if not 0.0 <= self.top_k_fraction <= 1.0:
            raise ValueError("top_k_fraction must be in [0, 1]")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.query_pool < 1:
            raise ValueError("query_pool must be >= 1")
        if self.mutation_rps < 0:
            raise ValueError("mutation_rps must be >= 0")
        if not 0.0 <= self.remove_fraction <= 1.0:
            raise ValueError("remove_fraction must be in [0, 1]")
        if self.rebalance_every_seconds < 0:
            raise ValueError("rebalance_every_seconds must be >= 0")

    @property
    def total_seconds(self) -> float:
        return sum(stage.seconds for stage in self.stages)

    def scaled(self, rps_scale: float = 1.0,
               duration_scale: float = 1.0) -> "TrafficProfile":
        """The same scenario, offered faster/slower or longer/shorter.

        Scaling preserves the *shape* (stage ratios, mix, skew), so a
        CI smoke run and a full soak are points on one curve.
        """
        if rps_scale <= 0 or duration_scale <= 0:
            raise ValueError("scale factors must be positive")
        stages = tuple(
            replace(stage, rps=stage.rps * rps_scale,
                    seconds=stage.seconds * duration_scale)
            for stage in self.stages)
        return replace(
            self, stages=stages,
            mutation_rps=self.mutation_rps * rps_scale)


def read_heavy(rps: float = 150.0, seconds: float = 12.0,
               seed: int = 99) -> TrafficProfile:
    """Pure read traffic with a warm/ramp/peak RPS staircase.

    The cache-friendly baseline: zipf-hot keys hit the result cache,
    the rest exercise the coalescer at sustained arrival rates.
    """
    return TrafficProfile(
        name="read_heavy",
        stages=(
            RampStage("warm", rps * 0.25, seconds * 0.25),
            RampStage("ramp", rps * 0.6, seconds * 0.25),
            RampStage("peak", rps, seconds * 0.5),
        ),
        top_k_fraction=0.25,
        seed=seed,
    )


def mixed_mutating(rps: float = 120.0, seconds: float = 12.0,
                   mutation_rps: float = 8.0,
                   seed: int = 99) -> TrafficProfile:
    """Reads under a sustained insert/remove stream plus rebalances.

    The scenario the dynamic tier was built for but no micro-bench
    drives: every answer races epoch bumps, the cache invalidates by
    construction, and mid-run rebalances force fresh spills / segment
    re-opens on process executors.
    """
    return TrafficProfile(
        name="mixed_mutating",
        stages=(
            RampStage("warm", rps * 0.25, seconds * 0.25),
            RampStage("churn", rps * 0.75, seconds * 0.375),
            RampStage("peak", rps, seconds * 0.375),
        ),
        top_k_fraction=0.25,
        mutation_rps=mutation_rps,
        rebalance_every_seconds=seconds / 3.0,
        seed=seed,
    )

