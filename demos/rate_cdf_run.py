"""End-to-end mini campaign: a few network drops, per-user rate bounds,
CDF files on disk, and the percentile summary. The same thing the CLI does,
driven from Python.

Run: python3 demos/rate_cdf_run.py
"""
from cfmimo.config import SystemConfig
from cfmimo.harness import emit_cdf, percentile, run_experiment, summarize

# Scaled-down scenario so the demo finishes in seconds. Bump n_aps/users/
# drops toward the defaults for production-quality curves.
cfg = SystemConfig(area_side=500.0, n_aps=25, n_gues=12, n_uavs=4,
                   n_ap_antennas=2, tau_p=8, rng_seed=11)

res = run_experiment(cfg, n_drops=10, n_fading_trials=50)

out_dir = "demo_out"
files = emit_cdf(res, out_dir)
print("wrote:")
for f in files:
    print("  " + f)

print("\npercentile summary (rates in Mbit/s):")
print(" population  dir  bound   5th pct   median")
for row in summarize(out_dir):
    if int(row["n_samples"]) == 0:
        continue
    p05 = float(row["rate_p05_bps"]) / 1e6
    p50 = float(row["rate_p50_bps"]) / 1e6
    print(f"   {row['population']:>5s}     {row['direction']}   {row['bound']}"
          f"   {p05:8.2f}  {p50:8.2f}")

# The 95%-likely (5th percentile) rate is the usual headline number for
# cell-free systems; pull it straight from the samples as well.
s = res.samples("gue", "ul", "lb")
print(f"\nGUE UL 95%-likely rate: {percentile(s, 0.05) / 1e6:.2f} Mbit/s "
      f"over {s.size} samples")
