"""Output checks applied to every pass.

A pass is correct when it did not raise, every ``run_epoch`` call kept the
library invariants, its written library has unique ids, and its output
digests equal the expected ones: the digests pinned in ``expected.json`` for
the workload's seed when there are any, otherwise those of the run's first
completed pass.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def output_digests(report: dict, library_bytes: bytes | None) -> dict[str, str]:
    """sha256 of the report without wall-clock fields and, for the evolve
    protocol, of the library.jsonl bytes."""
    from skillforge.harness import strip_wall_clock

    canonical = json.dumps(strip_wall_clock(report), sort_keys=True).encode("utf-8")
    digests = {"report": hashlib.sha256(canonical).hexdigest()}
    if library_bytes is not None:
        digests["library"] = hashlib.sha256(library_bytes).hexdigest()
    return digests


def pinned_digests(workload: str, seed: int, max_workers: int) -> dict[str, str] | None:
    """Digests pinned for this workload and seed, or None. The report echoes
    ``max_workers``, so a pin only applies at the worker count it was made with."""
    pinned = json.loads(EXPECTED_PATH.read_text(encoding="utf-8")).get(workload, {})
    entry = pinned.get(str(seed))
    if entry is None or entry["max_workers"] != max_workers:
        return None
    return entry["digests"]


def library_file_problems(library_bytes: bytes) -> list[str]:
    ids = [
        json.loads(line)["id"]
        for line in library_bytes.decode("utf-8").splitlines()[1:]
        if line.strip()
    ]
    if len(ids) != len(set(ids)):
        return ["library.jsonl repeats a skill id"]
    return []


class EpochChecker:
    """Wraps ``skillforge.harness.run_epoch`` to check, on each call, that the
    updated library has unique ids, grows by exactly the retained count, and
    that the retained count is ``retention_count(n_candidates, ratio)``."""

    def __init__(self, filter_ratio: float) -> None:
        self.filter_ratio = filter_ratio
        self.problems: list[str] = []
        self._original = None

    def install(self) -> None:
        import skillforge.harness as harness
        from skillforge.scoring import retention_count

        original = self._original = harness.run_epoch

        def run_epoch(library, *args, **kwargs):
            records, updated, stats = original(library, *args, **kwargs)
            ids = updated.ids()
            if len(ids) != len(set(ids)):
                self.problems.append(f"epoch {library.epoch}: duplicate skill ids")
            if stats.n_retained != retention_count(stats.n_candidates, self.filter_ratio):
                self.problems.append(
                    f"epoch {library.epoch}: retained {stats.n_retained} of "
                    f"{stats.n_candidates} candidates at ratio {self.filter_ratio}"
                )
            if len(updated) != len(library) + stats.n_retained:
                self.problems.append(
                    f"epoch {library.epoch}: library went from {len(library)} to "
                    f"{len(updated)} skills with {stats.n_retained} retained"
                )
            return records, updated, stats

        harness.run_epoch = run_epoch

    def uninstall(self) -> None:
        import skillforge.harness as harness

        harness.run_epoch = self._original


def pass_problems(
    digests: dict[str, str], expected: dict[str, str], library_bytes: bytes | None,
    epoch_problems: list[str],
) -> list[str]:
    problems = list(epoch_problems)
    if library_bytes is not None:
        problems += library_file_problems(library_bytes)
    for key, value in digests.items():
        if expected.get(key) != value:
            problems.append(f"{key} digest {value[:12]} differs from {expected.get(key, 'none')[:12]}")
    return problems
