"""The paper's headline comparison at equal resources: the default cell-free
network (100 APs x 4 antennas, 200 mW each) against a multicell one (4 BSs
x 100 antennas, 5 W each, every user served by its strongest BS). Both
deployments have 400 antennas and 20 W of downlink power and run on the
same seeds. The BSs are placed uniformly at random, as the APs are.

Run: python3 demos/cf_vs_multicell.py
"""
from cfmimo.config import SystemConfig
from cfmimo.harness import percentile, run_experiment

N_DROPS = 20
SEED = 11

networks = {
    "cell-free": SystemConfig(rng_seed=SEED),
    "multicell": SystemConfig(n_aps=4, n_ap_antennas=100,
                              association_mode="UC", uc_cluster_size=1,
                              dl_power_budget=5000.0, rng_seed=SEED),
}
# Lower-bound rates only, so one fading trial per drop is enough.
results = {name: run_experiment(cfg, N_DROPS, 1)
           for name, cfg in networks.items()}

print(f"LB rates over {N_DROPS} drops, p05 / p50 in Mbit/s:")
print(" population  dir       cell-free        multicell")
for population in ("gue", "uav"):
    for direction in ("dl", "ul"):
        cells = []
        for res in results.values():
            s = res.samples(population, direction, "lb")
            cells.append(f"{percentile(s, 0.05) / 1e6:6.2f} / "
                         f"{percentile(s, 0.50) / 1e6:5.2f}")
        print(f"   {population:>5s}     {direction}   {cells[0]:>15s}"
              f"  {cells[1]:>15s}")
# No ordering is asserted: at 20 drops the GUE p05 is known only to tens
# of percent, so a claim that one network beats the other needs intervals
# over drops.
