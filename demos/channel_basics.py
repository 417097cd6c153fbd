"""Walk through the link-level channel model: path loss for ground and
aerial users, LOS probability vs height, and the resulting Ricean channels.

Run: python3 demos/channel_basics.py
"""
import numpy as np

from cfmimo.channel import (build_links, los_probability,
                            three_slope_path_loss_db, uav_path_loss_db)
from cfmimo.config import SystemConfig
from cfmimo.deployment import UAV, sample_drop

cfg = SystemConfig()

# Ground links follow a three-slope law: steep (-35 dB/decade) far out,
# free-space-ish in the middle, flat very close to the AP.
print("ground path gain (no shadowing):")
for d in (5, 20, 50, 100, 300, 1000):
    d3 = np.hypot(d, cfg.ap_height - cfg.gue_height)
    print(f"  d = {d:5d} m   gain = {three_slope_path_loss_db(d3, cfg):7.1f} dB")

# Aerial links use a height-dependent urban model. Note how much stronger
# a UAV link is than a ground link at the same horizontal distance.
print("\naerial vs ground at 300 m horizontal:")
for h in (22.5, 100.0, 300.0):
    d3 = np.hypot(300.0, h - cfg.ap_height)
    pl = uav_path_loss_db(d3, h, cfg.carrier_freq, los=True)
    print(f"  UAV at h = {h:6.1f} m  gain = {-pl:7.1f} dB")
gue_gain = three_slope_path_loss_db(np.hypot(300.0, 13.35), cfg)
print(f"  GUE                 gain = {gue_gain:7.1f} dB")

# LOS probability grows quickly with height; above 100 m it saturates at 1.
# It is also the share of a UAV link's power in the LOS ray, so there the
# channel degenerates to a pure LOS ray.
print("\nLOS probability at 200 m horizontal distance:")
for h in (22.5, 40.0, 80.0, 120.0):
    print(f"  h = {h:6.1f} m   p_LOS = {los_probability(200.0, h):.3f}")

# Put it together: one random drop, then look at the large-scale state.
rng = np.random.default_rng(7)
drop = sample_drop(cfg, rng)
links = build_links(drop, cfg, rng)
uav = drop.user_kind == UAV
print("\none drop at full scale:")
print(f"  median beta, GUE links: {np.median(links.beta[~uav]):.3e}")
print(f"  median beta, UAV links: {np.median(links.beta[uav]):.3e}")
print(f"  UAV links in pure LOS:  "
      f"{(links.los_frac[uav] == 1).mean() * 100:.0f}%")
