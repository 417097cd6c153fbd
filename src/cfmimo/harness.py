"""Experiment driver: drop loop, rate-CDF assembly, CSV emission.

A master seed spawns one independent random stream per drop, so results are
invariant to execution order. One drop = geometry + large-scale state +
association + estimation statistics + power control + LB closed forms +
UB Monte-Carlo over fast-fading blocks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .allocation import associate, dl_power_allocation, fpc
from .bounds import RateReport, se_lb, se_ub_mc, sinr_dl_lb, sinr_ul_lb, uatf_terms
from .channel import build_links
from .config import SystemConfig
from .deployment import GUE, UAV, sample_drop
from .errors import CfmimoError, NumericalError
from .estimation import build_estimators

POPULATIONS = {"gue": GUE, "uav": UAV}
DIRECTIONS = ("dl", "ul")
BOUNDS = ("lb", "ub")


def simulate_drop(cfg: SystemConfig, rng: np.random.Generator,
                  n_fading_trials: int) -> RateReport:
    """Run the full per-drop pipeline and return per-user SE bounds."""
    sigma2 = cfg.noise_power_mw        # same noise figure at APs and users
    drop = sample_drop(cfg, rng)
    links = build_links(drop, cfg, rng)

    assoc = associate(cfg.association_mode, links.beta,
                      cfg.uc_cluster_size)
    est = build_estimators(links, drop.pilot_index, cfg.train_power, sigma2,
                           serving=assoc.serving)

    _, eta_dl = dl_power_allocation(cfg.dl_policy, est.gamma, assoc,
                                    sigma2, cfg.dl_power_budget)
    eta_ul = fpc(cfg.n_ap_antennas * links.beta, assoc.serving,
                 cfg.fpc_p0_mw, cfg.fpc_alpha, cfg.ul_max_power)

    terms = uatf_terms(links, est)
    # Downlink and uplink split the data part of the block equally.
    frac = cfg.tau_d / cfg.tau_c
    sdl = sinr_dl_lb(terms, eta_dl, sigma2)
    sul = sinr_ul_lb(terms, eta_ul, sigma2)

    ub_dl, err_dl, ub_ul, err_ul = se_ub_mc(
        links, est, eta_dl, eta_ul, sigma2, frac, n_fading_trials, rng)

    rep = RateReport(
        se_lb_dl=se_lb(sdl, frac), se_ub_dl=ub_dl,
        se_lb_ul=se_lb(sul, frac), se_ub_ul=ub_ul,
        ub_stderr_dl=err_dl, ub_stderr_ul=err_ul)
    if not np.all(np.isfinite([rep.se_lb_dl, rep.se_ub_dl, rep.se_lb_ul,
                               rep.se_ub_ul, err_dl, err_ul])):
        raise NumericalError("non-finite SE bound or UB standard error")
    return rep


@dataclass
class ExperimentResult:
    """Aggregated per-user rates (bits/s), shape (n_drops, n_users) each."""
    cfg: SystemConfig
    user_kind: np.ndarray
    rate_lb_dl: np.ndarray
    rate_ub_dl: np.ndarray
    rate_lb_ul: np.ndarray
    rate_ub_ul: np.ndarray

    def _array(self, direction, bound):
        return getattr(self, f"rate_{bound}_{direction}")

    def samples(self, population: str, direction: str, bound: str):
        """Sorted per-user rate samples for one (population, direction,
        bound) cell of the report."""
        kind = POPULATIONS[population]
        arr = self._array(direction, bound)[:, self.user_kind == kind]
        return np.sort(arr.ravel())


def run_experiment(cfg: SystemConfig, n_drops: int,
                   n_fading_trials: int) -> ExperimentResult:
    """Monte-Carlo campaign over independent network drops.

    Deterministic given (cfg.rng_seed, cfg, counts): each drop runs on its
    own spawned stream, so results do not depend on execution order.
    """
    if n_drops < 1 or n_fading_trials < 1:
        raise CfmimoError("n_drops and n_fading_trials must be >= 1")
    cfg.validate()

    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(n_drops)
    K = cfg.n_users
    out = {name: np.empty((n_drops, K))
           for name in ("rate_lb_dl", "rate_ub_dl", "rate_lb_ul", "rate_ub_ul")}
    for i, ss in enumerate(seeds):
        try:
            rep = simulate_drop(cfg, np.random.default_rng(ss),
                                n_fading_trials)
        except CfmimoError as e:
            raise type(e)(f"drop {i}: {e}") from e
        out["rate_lb_dl"][i] = rep.se_lb_dl * cfg.bandwidth
        out["rate_ub_dl"][i] = rep.se_ub_dl * cfg.bandwidth
        out["rate_lb_ul"][i] = rep.se_lb_ul * cfg.bandwidth
        out["rate_ub_ul"][i] = rep.se_ub_ul * cfg.bandwidth

    kind = np.concatenate([np.full(cfg.n_gues, GUE, dtype=int),
                           np.full(cfg.n_uavs, UAV, dtype=int)])
    return ExperimentResult(cfg=cfg, user_kind=kind, **out)


def percentile(samples, q: float):
    """Linear-interpolation empirical quantile, q in [0, 1]."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise CfmimoError("percentile of empty sample set")
    if not 0.0 <= q <= 1.0:
        raise CfmimoError("quantile must be in [0, 1]")
    return float(np.quantile(samples, q, method="linear"))


def _fmt(x):
    return format(float(x), ".12g")


def emit_cdf(result: ExperimentResult, out_dir):
    """Write one CSV per (population, direction, bound) plus a percentile
    summary. Empty populations are skipped and noted in the summary."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    summary_rows = []
    for pop in POPULATIONS:
        for direction in DIRECTIONS:
            for bound in BOUNDS:
                s = result.samples(pop, direction, bound)
                if s.size == 0:
                    summary_rows.append((pop, direction, bound, 0, "", ""))
                    continue
                path = os.path.join(out_dir, f"{pop}_{direction}_{bound}.csv")
                n = s.size
                with open(path, "w") as f:
                    f.write("rate_bps,cdf\n")
                    for i, r in enumerate(s, start=1):
                        f.write(f"{_fmt(r)},{_fmt(i / n)}\n")
                written.append(path)
                summary_rows.append((pop, direction, bound, n,
                                     _fmt(percentile(s, 0.05)),
                                     _fmt(percentile(s, 0.50))))
    summary = os.path.join(out_dir, "summary.csv")
    with open(summary, "w") as f:
        f.write("population,direction,bound,n_samples,rate_p05_bps,rate_p50_bps\n")
        for row in summary_rows:
            f.write(",".join(str(x) for x in row) + "\n")
    written.append(summary)
    return written


def summarize(out_dir):
    """Load summary.csv and return its rows as a list of dicts."""
    path = os.path.join(out_dir, "summary.csv")
    rows = []
    with open(path) as f:
        header = f.readline().strip().split(",")
        for line in f:
            vals = line.strip().split(",")
            rows.append(dict(zip(header, vals)))
    return rows
