"""Self-check of the benchmark: counts derived from the program's outputs
must repeat exactly across two traced runs with the same seed.

    python3 perfbench/selfcheck.py

Each workload is run twice with ``--trace 1``, seed SEED, in fresh processes.
The derived counts below, and every ``.calls`` count, are compared for
equality; both runs must also pass the oracle.  Exits 1 on any difference.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
SEED = 1
SECONDS = 2
DERIVED_COUNTS = (
    "arith.factorize.rho_needed",
    "arith.factorize.bits_p50",
    "auxgraph.find_cycle.per_graph",
    "productset.member_ratio",
    "extremal.subsets_in_search",
    "polyseq.terms",
)


def traced_run(workload):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    ok = True
    for workload in WORKLOADS:
        first, second = traced_run(workload), traced_run(workload)
        names = [n for n in first["metrics"]
                 if n in DERIVED_COUNTS or n.endswith(".calls")]
        differ = [n for n in names
                  if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
        correct = first["correct"] and second["correct"]
        ok &= correct and not differ
        print(f"{workload}: {len(names)} counts compared, "
              f"{'all equal' if not differ else 'DIFFER: ' + ', '.join(differ)}; "
              f"oracle {'passed' if correct else 'FAILED'}")
        for n in DERIVED_COUNTS:
            print(f"  {n} = {first['metrics'][n]['value']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
