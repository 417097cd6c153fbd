"""Channel estimation quality and the two spectral-efficiency bounds on a
small network: the closed-form lower bound should harden below the
Monte-Carlo upper bound, with the gap shrinking for pure-LOS links.

Run: python3 demos/estimation_and_bounds.py
"""
import numpy as np

from cfmimo.allocation import associate, dl_power_allocation, fpc
from cfmimo.bounds import se_lb, se_ub_mc, sinr_dl_lb, sinr_ul_lb, uatf_terms
from cfmimo.channel import build_links
from cfmimo.config import SystemConfig
from cfmimo.deployment import UAV, sample_drop
from cfmimo.estimation import build_estimators

cfg = SystemConfig(area_side=400.0, n_aps=12, n_gues=6, n_uavs=2,
                   n_ap_antennas=2, tau_p=4, tau_c=20, rng_seed=1)
rng = np.random.default_rng(cfg.rng_seed)
drop = sample_drop(cfg, rng)
links = build_links(drop, cfg, rng)
sigma2 = cfg.noise_power_mw
eta_tr = np.full(cfg.n_users, cfg.train_power)
# Cell-free: every AP serves every user.
assoc = associate(cfg.association_mode, links.beta, cfg.uc_cluster_size)
est = build_estimators(links, drop.pilot_index, eta_tr, sigma2,
                       serving=assoc.serving)

# Sanity-check the estimator statistics against simulated training: gamma
# is by construction the mean energy of the channel estimate. Pilots are
# orthonormal, so de-spreading user k's pilot leaves the sum of the
# channels on it plus CN(0, sigma2 I) noise shared by those users. The
# drop's estimators hold what every coherence block reads of it (the
# channel draw's amplitudes and LOS links, the de-spreading matrix and the
# estimator's per-link factors); est.draw draws the channels with
# est.channels and then the training. The upper bound below runs the same
# est on every trial.
n_mc = 20000
_, y = est.draw(rng, n_mc)
ghat = est.estimate(y)
mc_gamma = np.einsum("tkan->ka", np.abs(ghat) ** 2) / n_mc
rel = np.abs(mc_gamma - est.gamma) / est.gamma
print(f"gamma vs simulated estimate energy ({n_mc} blocks): "
      f"worst rel. dev. {rel.max():.3f}")

# Estimation quality per link, as the captured fraction gamma / (beta N).
frac = est.gamma / (links.beta * cfg.n_ap_antennas)
print(f"captured channel energy: median {np.median(frac):.3f}, "
      f"min {frac.min():.3f}")

# Bounds for one drop under the default policies.
_, eta_dl = dl_power_allocation(cfg.dl_policy, est.gamma, assoc, sigma2,
                                cfg.dl_power_budget)
# FPC reads tr G = N beta: the steering entries have unit modulus.
eta_ul = fpc(cfg.n_ap_antennas * links.beta, assoc.serving, cfg.fpc_p0_mw,
             cfg.fpc_alpha, cfg.ul_max_power)

terms = uatf_terms(links, est)
frac = cfg.tau_d / cfg.tau_c            # equal downlink/uplink split
lb_dl = se_lb(sinr_dl_lb(terms, eta_dl, sigma2), frac)
lb_ul = se_lb(sinr_ul_lb(terms, eta_ul, sigma2), frac)
ub_dl, e_dl, ub_ul, e_ul = se_ub_mc(links, est, eta_dl, eta_ul, sigma2,
                                    frac, 2000, rng)

print("\nper-user SE, bits/s/Hz (LB <= UB):")
print(" user  kind   DL LB   DL UB   UL LB   UL UB")
for k in range(cfg.n_users):
    kind = "UAV" if drop.user_kind[k] == UAV else "GUE"
    print(f"  {k:3d}   {kind}  {lb_dl[k]:6.3f}  {ub_dl[k]:6.3f}"
          f"  {lb_ul[k]:6.3f}  {ub_ul[k]:6.3f}")
# The LB/UB gap reflects how much the coherent beamforming gain fluctuates;
# pure-LOS UAV links harden completely and the two bounds nearly meet.
