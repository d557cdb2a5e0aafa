"""Write reference.json: fixed-seed forward probabilities for each workload's shape.

    python3 perfbench/make_reference.py

Every benchmark run checks the program against these values within 1e-12.
Regenerate them only when a change is meant to alter forward values, and
say so in that change.
"""

import json

from run import bootstrap

if __name__ == "__main__":
    bootstrap()
    import workloads

    values = {name: workloads.reference_probabilities(cls())
              for name, cls in workloads.WORKLOADS.items()}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(values, f, indent=2, sort_keys=True)
        f.write("\n")
