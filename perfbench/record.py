"""Record the expected outcomes in ``expected/`` from one untimed run.

Run once from the root of a checkout, at the commit whose outputs are the
reference:

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import outcomes
from workloads import ENTROPY_SUM_ARGS, WORKLOADS, entropy_sum_key


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import cellprobe.cli  # the package itself does not import its CLI

    with tempfile.TemporaryDirectory(dir=os.getcwd()) as work:
        for name, wl in WORKLOADS.items():
            if wl.seed_dependent:
                expected = {"entropy_sum": {
                    entropy_sum_key(args): outcomes.witness_fields(
                        cellprobe.entropy_sum_analysis_uniform(*args))
                    for args in ENTROPY_SUM_ARGS}}
            else:
                path = wl.setup(cellprobe, work, 0)
                expected = {call.label: outcomes.OUTCOME_OF[call.label](*call.run())
                            for call in wl.calls(cellprobe, path, {})}
            with open(os.path.join(outcomes.EXPECTED_DIR, f"{name}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(expected, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"recorded {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
