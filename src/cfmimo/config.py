"""Scenario configuration.

All powers are kept in mW internally; dB/dBm quantities are converted at the
boundary (config ingestion) and never mixed into the linear-domain code paths.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict, fields
from numbers import Integral, Real

SPEED_OF_LIGHT = 299792458.0
THERMAL_NOISE_DBM_PER_HZ = -174.0


def dbm_to_mw(x_dbm):
    return 10.0 ** (x_dbm / 10.0)


_TYPE_NAMES = {"int": "an integer", "float": "a number", "str": "a string",
               "tuple": "a pair of numbers"}


def _has_type(value, kind):
    """Whether a config value has its field's declared kind, the annotation
    as written ("int", "float", "str" or "tuple"; annotations stay strings
    in this module). Bools count as neither integers nor numbers."""
    if kind == "tuple":
        return (isinstance(value, (tuple, list)) and len(value) == 2
                and all(_has_type(x, "float") for x in value))
    cls = {"int": Integral, "float": Real, "str": str}[kind]
    return isinstance(value, cls) and not isinstance(value, bool)


@dataclass
class SystemConfig:
    """All scenario constants for one simulation campaign.

    Defaults reproduce the reference urban scenario: 1 km^2 wrap-around
    square, 100 four-antenna APs, 48 ground users, 12 UAVs.
    """

    area_side: float = 1000.0            # m
    n_aps: int = 100
    n_gues: int = 48
    n_uavs: int = 12
    n_ap_antennas: int = 4
    antenna_spacing: float = 0.5         # carrier wavelengths
    ap_height: float = 15.0              # m
    gue_height: float = 1.65             # m
    uav_height_range: tuple = (22.5, 300.0)
    carrier_freq: float = 1.9e9          # Hz
    bandwidth: float = 20e6              # Hz
    tau_c: int = 200
    tau_p: int = 32
    noise_figure: float = 9.0            # dB
    train_power_per_sample: float = 100.0  # mW, per-sample training power
    dl_power_budget: float = 200.0       # mW per AP
    ul_max_power: float = 100.0          # mW
    fpc_p0: float = -35.0                # dBm
    fpc_alpha: float = 0.5
    association_mode: str = "CF"         # "CF" or "UC"
    uc_cluster_size: int = 10            # A_k, used only in UC mode
    dl_policy: str = "PPA"               # "PPA" or "WFPC"
    shadowing_std: float = 8.0           # dB; 0 disables shadowing
    rng_seed: int = 0

    # Three-slope path-loss breakpoints (m) for ground links.
    three_slope_d0: float = 10.0
    three_slope_d1: float = 50.0

    # Correlated-shadowing model: z = sqrt(delta)*a_ap + sqrt(1-delta)*b_user,
    # with a/b fields correlated as exp(-d/decorr).
    shadow_delta: float = 0.5
    shadow_decorr: float = 100.0         # m

    def __post_init__(self):
        self.validate()

    def validate(self):
        from .channel import AERIAL_H_MAX, AERIAL_H_MIN
        from .errors import ConfigurationError

        for f in fields(self):
            if not _has_type(getattr(self, f.name), f.type):
                raise ConfigurationError(
                    f"{f.name} must be {_TYPE_NAMES[f.type]}, "
                    f"got {getattr(self, f.name)!r}")
        if not 0 < self.area_side < math.inf:
            raise ConfigurationError("area_side must be positive and finite")
        if self.n_aps <= 0 or self.n_ap_antennas <= 0:
            raise ConfigurationError("need at least one AP with one antenna")
        if self.n_gues < 0 or self.n_uavs < 0 or self.n_gues + self.n_uavs == 0:
            raise ConfigurationError("need at least one user")
        if self.tau_p < 1:
            raise ConfigurationError("tau_p must be >= 1")
        if not self.tau_p < self.tau_c:
            raise ConfigurationError("tau_p must be < tau_c")
        if (self.tau_c - self.tau_p) % 2 != 0:
            raise ConfigurationError(
                "tau_c - tau_p must be even (equal downlink/uplink split)")
        low, high = self.uav_height_range
        if not 0 < low <= high:
            raise ConfigurationError("invalid uav_height_range")
        # Only drawn UAV heights meet the aerial path loss, which holds on
        # [AERIAL_H_MIN, AERIAL_H_MAX]; a ground-only config ignores the range.
        if self.n_uavs > 0 and not AERIAL_H_MIN <= low <= high <= AERIAL_H_MAX:
            raise ConfigurationError(
                f"uav_height_range must be ordered within the aerial "
                f"model's [{AERIAL_H_MIN}, {AERIAL_H_MAX}] m")
        for name in ("carrier_freq", "bandwidth", "train_power_per_sample",
                     "dl_power_budget", "ul_max_power", "ap_height",
                     "gue_height", "antenna_spacing", "shadow_decorr",
                     "three_slope_d0", "three_slope_d1"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be positive and finite")
        if not self.three_slope_d0 <= self.three_slope_d1:
            raise ConfigurationError(
                "three_slope_d0 must not exceed three_slope_d1")
        for name in ("noise_figure", "fpc_p0", "fpc_alpha", "shadowing_std"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite")
        for name, mw in (("noise_figure", "noise_power_mw"),
                         ("fpc_p0", "fpc_p0_mw")):
            try:
                getattr(self, mw)
            except OverflowError:
                raise ConfigurationError(f"{name} overflows in mW") from None
        if self.noise_power_mw == 0:
            raise ConfigurationError("noise_figure underflows the noise power")
        if not 0 <= self.shadow_delta <= 1:
            raise ConfigurationError("shadow_delta must be in [0, 1]")
        if self.association_mode not in ("CF", "UC"):
            raise ConfigurationError("association_mode must be 'CF' or 'UC'")
        if self.association_mode == "UC":
            if not 1 <= self.uc_cluster_size <= self.n_aps:
                raise ConfigurationError("uc_cluster_size must be in [1, n_aps]")
        if self.dl_policy not in ("PPA", "WFPC"):
            raise ConfigurationError("dl_policy must be 'PPA' or 'WFPC'")
        if self.shadowing_std < 0:
            raise ConfigurationError("shadowing_std must be >= 0")
        if self.rng_seed < 0:
            raise ConfigurationError("rng_seed must be >= 0")

    # -- derived quantities -------------------------------------------------

    @property
    def n_users(self):
        return self.n_gues + self.n_uavs

    @property
    def wavelength(self):
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def tau_d(self):
        return (self.tau_c - self.tau_p) // 2

    @property
    def train_power(self):
        """Total training energy per user over the pilot phase (mW)."""
        return self.tau_p * self.train_power_per_sample

    @property
    def noise_power_mw(self):
        """Thermal noise power over the system bandwidth, incl. noise figure."""
        return dbm_to_mw(THERMAL_NOISE_DBM_PER_HZ
                         + 10.0 * math.log10(self.bandwidth)
                         + self.noise_figure)

    @property
    def fpc_p0_mw(self):
        return dbm_to_mw(self.fpc_p0)

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        d = asdict(self)
        d["uav_height_range"] = list(self.uav_height_range)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "SystemConfig":
        from .errors import ConfigurationError

        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        if isinstance(data.get("uav_height_range"), list):
            data = dict(data, uav_height_range=tuple(data["uav_height_range"]))
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "SystemConfig":
        from .errors import ConfigurationError

        # JSON is UTF-8 (RFC 8259), whatever the locale.
        with open(path, encoding="utf-8") as f:
            try:
                data = json.load(f)
            except (json.JSONDecodeError, UnicodeDecodeError) as e:
                raise ConfigurationError(f"malformed config file {path}: {e}")
        if not isinstance(data, dict):
            raise ConfigurationError("config file must contain a JSON object")
        return cls.from_dict(data)

    def to_json(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
