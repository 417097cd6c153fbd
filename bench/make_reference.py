#!/usr/bin/env python3
"""Write bench/reference.json: the lower-bound rates of each workload's
reference campaign (seed REF_SEED), which every benchmark run checks.

    python3 bench/make_reference.py

Regenerate only when a change is meant to alter the lower bound, and say so
in the change's description; a kernel rewrite must pass against the stored
file as it is.
"""

import json
import sys

from run import REF_SEED, REFERENCE_PATH, WORKLOADS, run_experiment


def main():
    refs = {}
    for name, wl in WORKLOADS.items():
        result = run_experiment(wl.config(REF_SEED), wl.n_drops, wl.n_trials)
        refs[name] = {"seed": REF_SEED, "n_drops": wl.n_drops,
                      "n_trials": wl.n_trials,
                      "rate_lb_dl": result.rate_lb_dl.tolist(),
                      "rate_lb_ul": result.rate_lb_ul.tolist()}
    with open(REFERENCE_PATH, "w") as f:
        json.dump(refs, f, indent=1)
        f.write("\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
