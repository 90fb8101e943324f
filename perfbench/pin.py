"""Pin the output digests of the workloads at the given seeds.

    python3 perfbench/pin.py --seeds 7 1 2 3 [--workload kfold-800 ...]

Runs one plain pass per workload and seed, with neither the provider ledger,
the invariant checker nor the tracer installed, and merges the digests into
``expected.json``. Pin again only for a change that is meant to change the
engine's output.
"""

from __future__ import annotations

import argparse
import json

import run

run.import_engine()

from checks import EXPECTED_PATH, output_digests  # noqa: E402
from workloads import WORKLOADS, run_pass, setup  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS), default=sorted(WORKLOADS))
    args = parser.parse_args()
    pinned = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    for name in args.workload:
        for seed in args.seeds:
            s = setup(WORKLOADS[name], seed)
            out = run_pass(s, s.make_bundle, run.OUT / name)
            digests = output_digests(out.report, out.library_bytes)
            pinned.setdefault(name, {})[str(seed)] = {
                "max_workers": s.config.max_workers,
                "digests": digests,
            }
            print(name, seed, digests, flush=True)
    pinned = {name: dict(sorted(seeds.items(), key=lambda kv: int(kv[0]))) for name, seeds in sorted(pinned.items())}
    EXPECTED_PATH.write_text(json.dumps(pinned, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
