"""Write benchmarks/golden.json: output digests of every workload per seed.

    python3 benchmarks/golden.py

Run from the root of a checkout whose outputs are known to be right. Each
workload runs one pass for every seed from 0 to 99 at its default size,
and the whole table is rewritten. The digest covers the bytes the program
wrote (verify reports, the enforced trace and its edit report, every
scenario's leaks and enforced trace). ``run.py`` compares the first pass
of every run with the stored digest for its seed, so a change that alters
any output byte fails the benchmark's reference check.
"""

from __future__ import annotations

import json
import os
import sys

from run import GOLDEN, ROOT, timed_setup
from workloads import WORKLOADS

SEEDS = range(100)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    table: dict = {}
    for name, cls in WORKLOADS.items():
        for seed in SEEDS:
            workload = cls(ROOT, seed)
            timed_setup(workload)
            problems = workload.check_pass(workload.run_pass()) + workload.check_final()
            if problems:
                print(f"{name} seed {seed}: {problems[0]}", file=sys.stderr)
                return 1
            table.setdefault(name, {}).setdefault(workload.golden_key(), {})[str(seed)] = (
                workload.digest()
            )
        print(f"{name}: seeds {SEEDS[0]}..{SEEDS[-1]}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
