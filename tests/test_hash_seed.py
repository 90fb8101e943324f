"""Reports must not depend on the interpreter's string hash seed.

Each run happens in a fresh interpreter under ``PYTHONHASHSEED`` 0-3, so any
set- or dict-order dependence (in the engine, in the per-run provider
session's memo, in the class bits of the evaluation judge, or in the indexes
that a cell grows from epoch to epoch) shows up as differing digests.
``lp_round`` is left out of that test: its LP linking rows iterate a set
(``cover.lp_round_select``), and making that order fixed moves a pinned
benchmark digest, so it waits for a re-pin. A strict xfail test keeps that
fault in view on the benchmark configuration where it shows.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import hashlib, json
from skillforge.harness import (
    RunConfig, evaluate_tasks, evolve_library, mock_provider_factory, run_kfold, strip_wall_clock,
)
from skillforge.providers.mock import MockEmbedder
from skillforge.world import WorldConfig, generate_world

def digest(obj):
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()

world = generate_world(WorldConfig(seed=7, n_tasks=40))
out = {}
for strategy in ("greedy", "primal_dual"):
    config = RunConfig(seed=7, strategy=strategy)
    report = run_kfold(config, world, mock_provider_factory(noise_rate=0.5))
    out[strategy] = digest(strip_wall_clock(report.to_dict()))
# folds=1 grows only the training indexes, across every epoch of a cell.
report = run_kfold(RunConfig(seed=7, folds=1), world, mock_provider_factory(noise_rate=0.5))
out["leaky"] = digest(strip_wall_clock(report.to_dict()))
config = RunConfig(seed=7)
library, report, _ = evolve_library(config, world, mock_provider_factory(noise_rate=3.0)(7))
out["evolve"] = digest(strip_wall_clock(report.to_dict()))
outcomes = evaluate_tasks(world.tasks, library, world, RunConfig(seed=7, delta=0.5), MockEmbedder())
failures = [pair for pair in outcomes if pair is not None]
assert failures and len(failures) < len(outcomes)
out["evaluate"] = digest([
    [pair.task.id, pair.trajectory.steps, pair.trajectory.final_output] for pair in failures
])
print(json.dumps(out))
"""


# kfold-lp-threaded's configuration at benchmark seed 12, on one worker.
LP_SCRIPT = """
import hashlib, json
from skillforge.harness import RunConfig, mock_provider_factory, run_kfold, strip_wall_clock
from skillforge.world import WorldConfig, generate_world

world = generate_world(WorldConfig(seed=7, n_tasks=200))
config = RunConfig(strategy="lp_round", epochs=3, filter_ratio=0.2, seed=12 * RunConfig.runs, max_workers=1)
report = run_kfold(config, world, mock_provider_factory(noise_rate=0.5))
text = json.dumps(strip_wall_clock(report.to_dict()), sort_keys=True)
print(json.dumps(hashlib.sha256(text.encode()).hexdigest()))
"""


def _outputs_under(script, hash_seeds):
    """The JSON each fresh interpreter prints running ``script``, one per hash seed."""
    procs = []
    for hash_seed in hash_seeds:
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC))
        procs.append(
            subprocess.Popen(
                [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, text=True
            )
        )
    outputs = []
    for proc in procs:
        stdout, _ = proc.communicate(timeout=300)
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, proc.args)
        outputs.append(json.loads(stdout))
    return outputs


def test_reports_are_equal_under_every_hash_seed():
    digests = _outputs_under(SCRIPT, range(4))
    assert set(digests[0]) == {"greedy", "primal_dual", "leaky", "evolve", "evaluate"}
    assert all(d == digests[0] for d in digests[1:])


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known fault 1: lp_round_select builds its LP linking rows in set order (ROADMAP item 11)",
)
def test_lp_round_kfold_report_is_equal_under_hash_seeds_0_and_2():
    first, second = _outputs_under(LP_SCRIPT, (0, 2))
    assert first == second
