"""Experiment driver: drop loop, rate-CDF assembly, CSV emission.

A master seed spawns one independent random stream per drop, so results are
invariant to execution order. One drop = geometry + large-scale state +
association + estimation statistics + power control + LB closed forms +
UB Monte-Carlo over fast-fading blocks.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass

import numpy as np

from .allocation import associate, dl_power_allocation, fpc
from .bounds import RateReport, se_lb, se_ub_mc, sinr_dl_lb, sinr_ul_lb, uatf_terms
from .channel import build_links
from .config import SystemConfig
from .deployment import GUE, UAV, sample_drop, user_kinds
from .errors import CfmimoError, NumericalError
from .estimation import build_estimators

POPULATIONS = {"gue": GUE, "uav": UAV}
DIRECTIONS = ("dl", "ul")
BOUNDS = ("lb", "ub")
SUMMARY_COLUMNS = ("population", "direction", "bound", "n_samples",
                   "rate_p05_bps", "rate_p50_bps")


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
    del terms                          # not held through the upper bound

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
    own spawned stream, so results do not depend on execution order. Each
    count must be an integer >= 1, numpy's included and bool not, else
    CfmimoError.
    """
    for name, n in (("n_drops", n_drops),
                    ("n_fading_trials", n_fading_trials)):
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise CfmimoError(f"{name} must be an integer >= 1, got {n!r}")
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

    return ExperimentResult(cfg=cfg, user_kind=user_kinds(cfg), **out)


def percentile(samples, q):
    """Linear-interpolation empirical quantile, q in [0, 1]; for a sequence
    of q, a tuple of quantiles taken in one np.quantile call."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise CfmimoError("percentile of empty sample set")
    qs = np.asarray(q, dtype=float)
    if not np.all((qs >= 0.0) & (qs <= 1.0)):
        raise CfmimoError("quantile must be in [0, 1]")
    out = np.quantile(samples, qs, method="linear")
    return float(out) if out.ndim == 0 else tuple(out.tolist())


_FLOAT_FORMAT = ".12g"    # every float the CSVs hold


def emit_cdf(result: ExperimentResult, out_dir):
    """Write one CSV per (population, direction, bound) plus a percentile
    summary. Empty populations are skipped and noted in the summary; an
    earlier run's CSV of an empty cell is removed, so none is left to
    contradict the summary. Each file is written with one write call."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    summary_rows = []
    for pop in POPULATIONS:
        for direction in DIRECTIONS:
            for bound in BOUNDS:
                s = result.samples(pop, direction, bound)
                path = os.path.join(out_dir, f"{pop}_{direction}_{bound}.csv")
                if s.size == 0:
                    if os.path.exists(path):
                        os.remove(path)
                    summary_rows.append((pop, direction, bound, 0, "", ""))
                    continue
                n = s.size
                rows = [f"{r:{_FLOAT_FORMAT}},{i / n:{_FLOAT_FORMAT}}\n"
                        for i, r in enumerate(s.tolist(), start=1)]
                with open(path, "w") as f:
                    f.write("rate_bps,cdf\n" + "".join(rows))
                written.append(path)
                p05, p50 = percentile(s, (0.05, 0.50))
                summary_rows.append((pop, direction, bound, n,
                                     f"{p05:{_FLOAT_FORMAT}}",
                                     f"{p50:{_FLOAT_FORMAT}}"))
    summary = os.path.join(out_dir, "summary.csv")
    lines = [",".join(SUMMARY_COLUMNS)]
    lines += [",".join(str(x) for x in row) for row in summary_rows]
    with open(summary, "w") as f:
        f.write("\n".join(lines) + "\n")
    written.append(summary)
    return written


def summarize(out_dir):
    """Load summary.csv and return its rows as a list of dicts.

    The file is read as UTF-8 (emit_cdf writes ASCII). A file that is not
    UTF-8 text, or whose header names none of SUMMARY_COLUMNS, raises
    CfmimoError.
    """
    path = os.path.join(out_dir, "summary.csv")
    try:
        with open(path, encoding="utf-8") as f:
            header = f.readline().strip().split(",")
            rows = [dict(zip(header, line.strip().split(","))) for line in f]
    except UnicodeDecodeError as e:
        raise CfmimoError(f"malformed summary file {path}: {e}") from None
    if not set(header) & set(SUMMARY_COLUMNS):
        raise CfmimoError(f"malformed summary file {path}: its header names "
                          f"none of {', '.join(SUMMARY_COLUMNS)}")
    return rows
