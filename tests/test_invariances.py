"""Metamorphic relations of the per-drop stages, on the first drop of each
golden config (tests/make_golden.py), through the stage API that
simulate_drop chains. Each holds on any scenario and any stream, so none
needs stored numbers:

- scaling every beta and both noise powers by one factor leaves the LB
  SINRs and the UB (same stream) unchanged, the UL powers held fixed;
- permuting the users (their links, pilots and UL powers) permutes the LB
  SINRs with them;
- relabelling the pilots leaves the LB SINRs unchanged.

A bug that breaks one of these symmetries, such as a slot term read by
absolute AP index or a pilot-pair term read by position, fails here; an
equivariant one, such as owner and user swapped throughout, does not.
"""

import dataclasses

import numpy as np
import pytest

from cfmimo.allocation import associate, dl_power_allocation, fpc
from cfmimo.bounds import se_ub_mc, sinr_dl_lb, sinr_ul_lb, uatf_terms
from cfmimo.channel import build_links
from cfmimo.config import SystemConfig
from cfmimo.deployment import sample_drop
from cfmimo.estimation import build_estimators

from make_golden import CONFIGS

RTOL = 1e-10
CFG_NAMES = pytest.mark.parametrize("name", sorted(CONFIGS))


def _drop(name):
    """(cfg, links, pilot_index, eta_ul) of the config's first drop, drawn
    as run_experiment draws it; eta_ul is the drop's FPC powers."""
    cfg = SystemConfig(**CONFIGS[name])
    rng = np.random.default_rng(
        np.random.SeedSequence(cfg.rng_seed).spawn(1)[0])
    drop = sample_drop(cfg, rng)
    links = build_links(drop, cfg, rng)
    assoc = associate(cfg.association_mode, links.beta, cfg.uc_cluster_size)
    eta_ul = fpc(cfg.n_ap_antennas * links.beta, assoc.serving,
                 cfg.fpc_p0_mw, cfg.fpc_alpha, cfg.ul_max_power)
    return cfg, links, drop.pilot_index, eta_ul


def _bounds(cfg, links, pilot_index, eta_ul, sigma2, n_trials=0):
    """The LB SINRs (DL, UL) of the drop, as simulate_drop forms them with
    noise power sigma2 at the APs and the users, and with n_trials the UB's
    (se_dl, stderr_dl, se_ul, stderr_ul) on the stream of seed 8."""
    assoc = associate(cfg.association_mode, links.beta, cfg.uc_cluster_size)
    est = build_estimators(links, pilot_index, cfg.train_power, sigma2,
                           serving=assoc.serving)
    _, eta_dl = dl_power_allocation(cfg.dl_policy, est.gamma, assoc, sigma2,
                                    cfg.dl_power_budget)
    terms = uatf_terms(links, est)
    out = [sinr_dl_lb(terms, eta_dl, sigma2),
           sinr_ul_lb(terms, eta_ul, sigma2)]
    if n_trials:
        out += se_ub_mc(links, est, eta_dl, eta_ul, sigma2,
                        cfg.tau_d / cfg.tau_c, n_trials,
                        np.random.default_rng(8))
    return out


def _assert_all_close(got, want):
    for g, w in zip(got, want, strict=True):
        np.testing.assert_allclose(g, w, rtol=RTOL, atol=0)


@CFG_NAMES
def test_scaling_gains_and_noise_leaves_the_bounds(name):
    # Every gain and the noise scaled by 1e-3: the estimates and gamma
    # scale by it, the DL powers P / gamma by its inverse, and every SINR
    # term by the same power of it. The UB draws the same normals.
    cfg, links, pilot_index, eta_ul = _drop(name)
    sigma2 = cfg.noise_power_mw
    scaled = dataclasses.replace(links, beta=links.beta * 1e-3)
    _assert_all_close(
        _bounds(cfg, scaled, pilot_index, eta_ul, sigma2 * 1e-3, 10),
        _bounds(cfg, links, pilot_index, eta_ul, sigma2, 10))


@CFG_NAMES
def test_permuting_users_permutes_the_lb(name):
    cfg, links, pilot_index, eta_ul = _drop(name)
    perm = np.random.default_rng(9).permutation(len(pilot_index))
    permuted = dataclasses.replace(links, beta=links.beta[perm],
                                   los_frac=links.los_frac[perm],
                                   steering=links.steering[perm])
    want = _bounds(cfg, links, pilot_index, eta_ul, cfg.noise_power_mw)
    _assert_all_close(
        _bounds(cfg, permuted, pilot_index[perm], eta_ul[perm],
                cfg.noise_power_mw),
        [w[perm] for w in want])


@CFG_NAMES
def test_relabelling_pilots_leaves_the_lb(name):
    cfg, links, pilot_index, eta_ul = _drop(name)
    relabel = np.random.default_rng(10).permutation(cfg.tau_p)
    assert np.any(relabel[pilot_index] != pilot_index)
    _assert_all_close(
        _bounds(cfg, links, relabel[pilot_index], eta_ul,
                cfg.noise_power_mw),
        _bounds(cfg, links, pilot_index, eta_ul, cfg.noise_power_mw))
