"""Channel estimation quality and the two spectral-efficiency bounds on a
small network: the closed-form lower bound should harden below the
Monte-Carlo upper bound, with the gap shrinking for pure-LOS links.

Run: python3 demos/estimation_and_bounds.py
"""
import numpy as np

from cfmimo.allocation import associate, dl_power_allocation, fpc
from cfmimo.bounds import se_lb, se_ub_mc, sinr_dl_lb, sinr_ul_lb, uatf_terms
from cfmimo.channel import build_links, sample_channels
from cfmimo.config import SystemConfig
from cfmimo.deployment import UAV, sample_drop
from cfmimo.estimation import build_estimators, simulate_training

cfg = SystemConfig(area_side=400.0, n_aps=12, n_gues=6, n_uavs=2,
                   n_ap_antennas=2, tau_p=4, tau_c=20, rng_seed=1)
rng = np.random.default_rng(cfg.rng_seed)
drop = sample_drop(cfg, rng)
links = build_links(drop, cfg, rng)
sigma2 = cfg.noise_power_mw
eta_tr = np.full(cfg.n_users, cfg.train_power)
est = build_estimators(links, drop.pilot_index, eta_tr, sigma2)

# Sanity-check the estimator statistics against simulated training: gamma
# is by construction the mean energy of the channel estimate.
n_mc = 20000
g = sample_channels(links.beta, links.rice_k, links.steering, rng, n_draws=n_mc)
y = simulate_training(g, drop.pilot_index, eta_tr, sigma2, cfg.tau_p, rng)
ghat = np.einsum("kanm,tkam->tkan", est.D, y)
mc_gamma = np.einsum("tkan->ka", np.abs(ghat) ** 2) / n_mc
rel = np.abs(mc_gamma - est.gamma) / est.gamma
print(f"gamma vs simulated estimate energy ({n_mc} blocks): "
      f"worst rel. dev. {rel.max():.3f}")

# Estimation quality per link, as the captured fraction gamma / (beta N).
frac = est.gamma / (links.beta * cfg.n_ap_antennas)
print(f"captured channel energy: median {np.median(frac):.3f}, "
      f"min {frac.min():.3f}")

# Bounds for one drop under the default policies.
assoc = associate(cfg.association_mode, links.beta, cfg.uc_cluster_size)
_, eta_dl = dl_power_allocation(cfg.dl_policy, est.gamma, assoc, sigma2,
                                cfg.dl_power_budget)
trace_G = np.real(np.einsum("kann->ka", est.G))
eta_ul = fpc(trace_G, assoc.serving, cfg.fpc_p0_mw, cfg.fpc_alpha,
             cfg.ul_max_power)

terms = uatf_terms(links, est, drop.pilot_index, assoc.serving)
f_dl, f_ul = cfg.tau_d / cfg.tau_c, cfg.tau_u / cfg.tau_c
lb_dl = se_lb(sinr_dl_lb(terms, eta_dl, assoc.serving, sigma2), f_dl)
lb_ul = se_lb(sinr_ul_lb(terms, eta_ul, assoc.serving, sigma2), f_ul)
ub_dl, e_dl, ub_ul, e_ul = se_ub_mc(
    links, est, drop.pilot_index, eta_dl, eta_ul, assoc.serving, sigma2,
    f_dl, f_ul, 2000, rng)

print("\nper-user SE, bits/s/Hz (LB <= UB):")
print(" user  kind   DL LB   DL UB   UL LB   UL UB")
for k in range(cfg.n_users):
    kind = "UAV" if drop.user_kind[k] == UAV else "GUE"
    print(f"  {k:3d}   {kind}  {lb_dl[k]:6.3f}  {ub_dl[k]:6.3f}"
          f"  {lb_ul[k]:6.3f}  {ub_ul[k]:6.3f}")
# The LB/UB gap reflects how much the coherent beamforming gain fluctuates;
# pure-LOS UAV links harden completely and the two bounds nearly meet.
