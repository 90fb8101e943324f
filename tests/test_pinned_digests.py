"""The benchmark's pinned output digests, guarded by the unit tests.

One pass each of the kfold-800 and evolve-tagchurn workloads at benchmark
seed 3 runs through ``perfbench/workloads.py``, and ``perfbench/checks.py``
compares its report (and, for evolve-tagchurn, library) digests and its
per-epoch library invariants with what ``perfbench/expected.json`` pins. The
benchmark files are only read. kfold-lp-threaded is left out: its
``lp_round`` digests depend on the string hash seed until its LP rows are
built in a fixed order, which needs a re-pin.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 3


@pytest.mark.parametrize("name", ["kfold-800", "evolve-tagchurn"])
def test_a_benchmark_pass_matches_its_pinned_digests(name, tmp_path):
    setup = workloads.setup(workloads.WORKLOADS[name], SEED)
    expected = checks.pinned_digests(name, SEED, setup.config.max_workers)
    assert expected is not None
    checker = checks.EpochChecker(setup.config.filter_ratio)
    checker.install()
    try:
        out = workloads.run_pass(setup, setup.make_bundle, tmp_path)
    finally:
        checker.uninstall()
    digests = checks.output_digests(out.report, out.library_bytes)
    assert checks.pass_problems(digests, expected, out.library_bytes, checker.problems) == []
