"""Workload definitions and the set-up and pass functions that run them.

Nothing here imports ``skillforge`` at module level: ``setup`` imports it,
so the import cost lands inside the timed set-up.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

# The task world is fixed, like a benchmark's task set; the run seed draws
# the fold partitions and the mock providers' randomness.
WORLD_SEED = 7
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    protocol: str  # "kfold" (run_kfold) or "evolve" (evolve_library + file writers)
    n_tasks: int
    noise_rate: float
    filter_ratio: float
    epochs: int
    strategy: str
    max_workers: int


WORKLOADS = {
    w.name: w
    for w in (
        # Read-heavy: 28,800 BM25 queries per pass against a library of about
        # 80 skills, while the equivalence index stays small.
        Workload("kfold-800", "kfold", 800, 0.5, 0.2, 3, "greedy", 1),
        # Write-heavy: every candidate and its junk tags join the library, so
        # the equivalence index is rebuilt over a growing tag set each epoch.
        Workload("evolve-tagchurn", "evolve", 300, 3.0, 1.0, 4, "greedy", 1),
        # Selection-heavy, and the only workload on which parallel_map starts
        # thread pools.
        Workload("kfold-lp-threaded", "kfold", 200, 0.5, 0.2, 3, "lp_round", 2),
    )
}


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass
class Setup:
    """Everything a pass needs, built once per process."""

    workload: Workload
    config: object  # skillforge.harness.RunConfig
    world: object  # skillforge.world.SyntheticWorld
    make_bundle: object  # run seed -> skillforge.harness.ProviderBundle
    setup_s: float
    generate_world_s: float


def setup(workload: Workload, seed: int) -> Setup:
    """Import the engine, warm its lazy imports, generate the world and build
    the providers. All of it is the workload's set-up time."""
    started = time.perf_counter()
    from skillforge.cover import CoverInstance, lp_round_select
    from skillforge.harness import RunConfig, mock_provider_factory
    from skillforge.world import WorldConfig, generate_world

    # lp_round_select imports scipy.optimize on its first call.
    lp_round_select(CoverInstance(target_classes={"a"}, skill_classes={"s": {"a"}}))
    config = RunConfig(
        epochs=workload.epochs,
        filter_ratio=workload.filter_ratio,
        strategy=workload.strategy,
        # k-fold run r uses seed + r, so step by the run count: distinct
        # benchmark seeds then share no run.
        seed=seed * RunConfig.runs,
        # Never more program threads than CPUs; RunConfig defaults to 4.
        max_workers=min(workload.max_workers, available_cpus()),
    )
    world_started = time.perf_counter()
    world = generate_world(WorldConfig(seed=WORLD_SEED, n_tasks=workload.n_tasks))
    generate_world_s = time.perf_counter() - world_started
    make_bundle = mock_provider_factory(noise_rate=workload.noise_rate)
    make_bundle(config.seed)
    return Setup(
        workload=workload,
        config=config,
        world=world,
        make_bundle=make_bundle,
        setup_s=time.perf_counter() - started,
        generate_world_s=generate_world_s,
    )


@dataclass
class PassOutput:
    report: dict  # EvolutionReport.to_dict()
    library_bytes: bytes | None  # library.jsonl written by the evolve protocol


def run_pass(s: Setup, make_bundle, out_dir: Path, save=None, emit=None) -> PassOutput:
    """One workload pass with the provider factory ``make_bundle``. ``save``
    and ``emit`` stand in for ``save_library`` and ``emit_report`` when the
    caller traces them."""
    from skillforge.harness import emit_report, evolve_library, run_kfold
    from skillforge.model import save_library
    from skillforge.scoring import write_score_csv

    if s.workload.protocol == "kfold":
        report = run_kfold(s.config, s.world, make_bundle)
        return PassOutput(report=report.to_dict(), library_bytes=None)
    out_dir.mkdir(parents=True, exist_ok=True)
    library, report, stats_list = evolve_library(s.config, s.world, make_bundle(s.config.seed))
    library_path = out_dir / "library.jsonl"
    (save or save_library)(library, library_path)
    (emit or emit_report)(report, out_dir / "report")
    for epoch, stats in enumerate(stats_list):
        if stats.score_rows:
            write_score_csv(stats.score_rows, out_dir / f"scores-epoch-{epoch}.csv")
    return PassOutput(report=report.to_dict(), library_bytes=library_path.read_bytes())
