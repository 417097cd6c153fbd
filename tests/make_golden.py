"""Write tests/golden.json: per-user LB and UB rates and UB standard errors
of short campaigns on five scenarios, the reference that test_golden.py
holds the pipeline to.

    python tests/make_golden.py

Regenerate it only for a change meant to move the rates, and say so where
the change is recorded.
"""

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from cfmimo.config import SystemConfig  # noqa: E402
from cfmimo.harness import simulate_drop  # noqa: E402

GOLDEN = HERE / "golden.json"
N_DROPS, N_TRIALS = 2, 10
CONFIGS = {
    "default": {},
    "uc_wfpc_dense": {"association_mode": "UC", "uc_cluster_size": 10,
                      "dl_policy": "WFPC", "n_gues": 96, "n_uavs": 24},
    "4x100_uc1_5w": {"n_aps": 4, "n_ap_antennas": 100,
                     "association_mode": "UC", "uc_cluster_size": 1,
                     "dl_power_budget": 5000.0},
    "ground_only": {"n_uavs": 0},
    "air_only": {"n_gues": 0},
}
FIELDS = ("se_lb_dl", "se_ub_dl", "se_lb_ul", "se_ub_ul",
          "ub_stderr_dl", "ub_stderr_ul")


def campaign(overrides):
    """{field: (N_DROPS, K) list} of the RateReports of a campaign on the
    scenario, each drop on its own stream spawned from the config's seed,
    as run_experiment draws them."""
    cfg = SystemConfig(**overrides)
    reports = [simulate_drop(cfg, np.random.default_rng(ss), N_TRIALS)
               for ss in np.random.SeedSequence(cfg.rng_seed).spawn(N_DROPS)]
    return {f: [getattr(r, f).tolist() for r in reports] for f in FIELDS}


def main():
    golden = {name: campaign(over) for name, over in CONFIGS.items()}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(GOLDEN)


if __name__ == "__main__":
    main()
