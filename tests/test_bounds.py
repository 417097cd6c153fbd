import tracemalloc

import numpy as np
import pytest

from cfmimo import harness
from cfmimo.allocation import (AssociationMap, associate,
                               dl_power_allocation)
from cfmimo.bounds import (delta_dl, se_lb, se_ub_mc, sinr_dl_lb, sinr_ul_lb,
                           uatf_terms)
from cfmimo.channel import PURE_LOS, _ricean_amplitudes
from cfmimo.config import SystemConfig
from cfmimo.estimation import build_estimators, lmmse_filter_D

from conftest import random_links


def unit_steer(rng, n):
    a = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    a[0] = 1.0
    return a


def delta_oracle(beta, k, a, D):
    """Independently coded evaluator of the fourth-moment coefficient:
    scalar forms pulled out of the printed trace expressions term by term."""
    c = beta / (k + 1.0)
    trD = np.trace(D)
    aDa = np.conj(a) @ D @ a
    aDHa = np.conj(a) @ D.conj().T @ a
    term1 = c ** 2 * (trD * np.conj(trD)).real
    term2 = c ** 2 * k * ((aDa * np.trace(D.conj().T))
                          + (aDHa * np.trace(D))).real
    return term1 + term2


class TestDelta:
    def test_rayleigh_reduces_to_trace_squared(self):
        rng = np.random.default_rng(0)
        a = unit_steer(rng, 3)
        D = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        beta = 1.7
        expected = beta ** 2 * np.abs(np.trace(D)) ** 2
        assert delta_dl(beta, 0.0, a, D) == pytest.approx(expected)

    def test_identity_filter(self):
        rng = np.random.default_rng(1)
        n = 4
        a = unit_steer(rng, n)
        beta, k = 2.0, 1.5
        c = beta / (k + 1)
        expected = c ** 2 * (n ** 2 + 2 * k * n ** 2)
        assert delta_dl(beta, k, a, np.eye(n)) == pytest.approx(expected)

    def test_zero_filter(self):
        rng = np.random.default_rng(2)
        a = unit_steer(rng, 3)
        assert delta_dl(1.0, 2.0, a, np.zeros((3, 3))) == 0.0

    def test_pure_los_vanishes(self):
        rng = np.random.default_rng(3)
        a = unit_steer(rng, 3)
        D = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert delta_dl(1.5, PURE_LOS, a, D) == 0.0

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = rng.integers(2, 5)
            a = unit_steer(rng, n)
            D = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            beta = rng.uniform(0.1, 3.0)
            k = rng.uniform(0.0, 5.0)
            assert delta_dl(beta, k, a, D) == pytest.approx(
                delta_oracle(beta, k, a, D), rel=1e-10)


class TestSeLb:
    def test_zero_sinr(self):
        assert se_lb(0.0, 0.42) == 0.0

    def test_unit_sinr_gives_fraction(self):
        assert se_lb(1.0, 84 / 200) == pytest.approx(0.42)

    def test_log2(self):
        assert se_lb(3.0, 0.5) == pytest.approx(1.0)

    def test_sinr_below_epsilon_keeps_its_rate(self):
        # log2(1 + 1e-20) rounds to exactly 0; the rate must not.
        assert se_lb(1e-20, 1.0) == pytest.approx(1e-20 / np.log(2),
                                                  rel=1e-12)


def _dl_setup(small_instance, rng):
    links, pilots, eta_tr, sw2, est = small_instance
    eta_dl = rng.uniform(0.1, 1.0, links.beta.shape)
    mask = np.ones(links.beta.shape, dtype=bool)
    terms = uatf_terms(links, est, pilots, mask)
    return links, pilots, est, terms, eta_dl, mask, sw2


class TestSinrClosedForms:
    def test_zero_dl_power_zero_sinr(self, small_instance):
        rng = np.random.default_rng(5)
        links, pilots, est, terms, eta_dl, mask, sw2 = _dl_setup(
            small_instance, rng)
        sinr = sinr_dl_lb(terms, np.zeros_like(eta_dl), mask, 0.25)
        assert np.allclose(sinr, 0.0)

    def test_zero_ul_power_zero_sinr(self, small_instance):
        rng = np.random.default_rng(6)
        links, pilots, est, terms, eta_dl, mask, sw2 = _dl_setup(
            small_instance, rng)
        sinr = sinr_ul_lb(terms, np.zeros(3), mask, sw2)
        assert np.allclose(sinr, 0.0)

    def test_uncontaminated_user_has_no_contamination_term(self, small_instance):
        rng = np.random.default_rng(7)
        links, pilots, est, terms, eta_dl, mask, sw2 = _dl_setup(
            small_instance, rng)
        _, parts = sinr_dl_lb(terms, eta_dl, mask, 0.25, return_parts=True)
        # user 2 is alone on its pilot
        assert parts["contamination"][2] == 0.0
        assert parts["contamination"][0] > 0.0

    def test_dl_homogeneity(self, small_instance):
        # scaling DL powers and user noise by c leaves the SINR unchanged
        rng = np.random.default_rng(8)
        links, pilots, est, terms, eta_dl, mask, sw2 = _dl_setup(
            small_instance, rng)
        s1 = sinr_dl_lb(terms, eta_dl, mask, 0.25)
        s2 = sinr_dl_lb(terms, 7.0 * eta_dl, mask, 7.0 * 0.25)
        assert np.allclose(s1, s2, rtol=1e-12)

    def test_ul_single_user_single_ap_rayleigh_reduction(self):
        # no contamination, K = 0: SINR must reduce to the scalar cell-free
        # expression built from gamma
        rng = np.random.default_rng(9)
        links = random_links(rng, 1, 1, 3, rice_max=0.0)
        beta = float(links.beta[0, 0])
        eta_tr = np.array([2.0])
        sw2 = 0.4
        est = build_estimators(links, [0], eta_tr, sw2)
        terms = uatf_terms(links, est, [0], np.ones((1, 1), bool))
        eta_ul = np.array([0.7])
        sinr = sinr_ul_lb(terms, eta_ul, np.ones((1, 1), bool), sw2)

        n = 3
        gamma = n * eta_tr[0] * beta ** 2 / (eta_tr[0] * beta + sw2)
        # bu vanishes for Rayleigh with scalar filter:
        # eta*delta - gamma^2 = eta*beta^2 tr(D)^2 - gamma^2 = 0
        # remaining denominator: eta_ul sqrt(eta) tr(G D^H G) + sw2 gamma
        d_scal = np.sqrt(eta_tr[0]) * beta / (eta_tr[0] * beta + sw2)
        cross = eta_ul[0] * np.sqrt(eta_tr[0]) * n * beta ** 2 * d_scal
        expected = eta_ul[0] * gamma ** 2 / (cross + sw2 * gamma)
        assert sinr[0] == pytest.approx(expected, rel=1e-10)

    def test_denominators_positive(self, small_instance):
        rng = np.random.default_rng(10)
        links, pilots, est, terms, eta_dl, mask, sw2 = _dl_setup(
            small_instance, rng)
        _, pdl = sinr_dl_lb(terms, eta_dl, mask, 0.25, return_parts=True)
        _, pul = sinr_ul_lb(terms, np.full(3, 0.5), mask, sw2,
                            return_parts=True)
        assert np.all(pdl["bu"] + pdl["cross"] + pdl["noise"]
                      + pdl["contamination"] > 0)
        assert np.all(pul["bu"] + pul["cross"] + pul["noise"]
                      + pul["contamination"] > 0)


class TestUpperBound:
    def test_deterministic_channel_degenerate_expectation(self):
        # single pure-LOS user, no interference, no training noise:
        # every trial sees the same SINR
        rng = np.random.default_rng(11)
        links = random_links(rng, 1, 1, 2)
        links.rice_k[:] = PURE_LOS
        est = build_estimators(links, [0], [1.0], 1e-8)
        se, err, se_u, err_u = se_ub_mc(
            links, est, [0], np.ones((1, 1)), np.ones(1),
            np.ones((1, 1), bool), 0.5, 0.42, 0.42, 64,
            np.random.default_rng(12))
        beta = links.beta[0, 0]
        snr = (beta * 2) ** 2 / 0.5   # |g^H g_hat|^2 / sigma_z^2, no fading
        assert err[0] < 1e-3
        assert se[0] == pytest.approx(0.42 * np.log2(1 + snr), rel=1e-3)

    def test_lb_below_ub(self, small_instance):
        rng = np.random.default_rng(13)
        links, pilots, est, terms, eta_dl, mask, sw2 = _dl_setup(
            small_instance, rng)
        eta_ul = np.full(3, 0.5)
        frac = 0.42
        lb_dl = se_lb(sinr_dl_lb(terms, eta_dl, mask, sw2), frac)
        lb_ul = se_lb(sinr_ul_lb(terms, eta_ul, mask, sw2), frac)
        ub_dl, e_dl, ub_ul, e_ul = se_ub_mc(
            links, est, pilots, eta_dl, eta_ul, mask, sw2, frac, frac,
            2000, np.random.default_rng(14))
        assert np.all(lb_dl <= ub_dl + 3 * e_dl)
        assert np.all(lb_ul <= ub_ul + 3 * e_ul)

    def test_convergence_with_more_trials(self, small_instance):
        rng = np.random.default_rng(15)
        links, pilots, est, terms, eta_dl, mask, sw2 = _dl_setup(
            small_instance, rng)
        eta_ul = np.full(3, 0.5)
        args = (links, est, pilots, eta_dl, eta_ul, mask, sw2, 0.42, 0.42)
        ub1, e1, _, _ = se_ub_mc(*args, 2000, np.random.default_rng(16))
        ub2, e2, _, _ = se_ub_mc(*args, 4000, np.random.default_rng(17))
        assert np.all(np.abs(ub1 - ub2) < 3 * np.hypot(e1, e2))


def _se_ub_mc_einsum(links, est, pilot_index, eta_dl, eta_ul, serving_mask,
                     sigma_z2, frac_dl, frac_ul, n_trials, rng, batch=64):
    """Oracle: the per-pilot-loop, 3-operand-einsum formulation of se_ub_mc,
    with the channel draw written out, on the same draw sequence."""
    K, A = links.beta.shape
    N = links.steering.shape[-1]
    eta_dl = np.asarray(eta_dl, dtype=float) * serving_mask
    eta_ul = np.asarray(eta_ul, dtype=float)
    mask = np.asarray(serving_mask, dtype=float)
    amp = np.sqrt(est.train_powers)
    wdl = np.sqrt(eta_dl)
    sigma_w2 = est.sigma_w2
    pilot_index = np.asarray(pilot_index)
    los_amp, scatter_amp = _ricean_amplitudes(links.beta, links.rice_k)

    sums = np.zeros((2, K))
    sq = np.zeros((2, K))
    done = 0
    while done < n_trials:
        T = min(batch, n_trials - done)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=(T, K, A))
        h = (rng.standard_normal((T, K, A, N))
             + 1j * rng.standard_normal((T, K, A, N))) / np.sqrt(2.0)
        g = (los_amp[..., None] * np.exp(1j * theta)[..., None]
             * links.steering + scatter_amp[..., None] * h)
        ysig = np.zeros((T, int(pilot_index.max()) + 1, A, N), dtype=complex)
        for p in np.unique(pilot_index):
            users = np.nonzero(pilot_index == p)[0]
            ysig[:, p] = np.einsum("u,tuan->tan", amp[users], g[:, users])
        wn = (rng.standard_normal(ysig.shape)
              + 1j * rng.standard_normal(ysig.shape)) * np.sqrt(sigma_w2 / 2)
        y_hat = (ysig + wn)[:, pilot_index]
        ghat = np.einsum("kanm,tkam->tkan", est.D, y_hat)

        Mdl = np.einsum("tkan,ja,tjan->tkj", np.conj(g), wdl, ghat)
        p_dl = np.abs(Mdl) ** 2
        sig = np.einsum("tkk->tk", p_dl)
        sinr_dl = sig / (p_dl.sum(axis=2) - sig + sigma_z2)

        Mul = np.einsum("tkan,ka,tjan->tkj", np.conj(ghat), mask, g)
        p_ul = np.abs(Mul) ** 2
        sig = np.einsum("k,tkk->tk", eta_ul, p_ul)
        interf = np.einsum("j,tkj->tk", eta_ul, p_ul) - sig
        noise = sigma_w2 * np.einsum("ka,tkan->tk", mask, np.abs(ghat) ** 2)
        sinr_ul = sig / (interf + noise)

        for i, (frac, sinr) in enumerate(((frac_dl, sinr_dl),
                                          (frac_ul, sinr_ul))):
            se = se_lb(sinr, frac)
            sums[i] += se.sum(axis=0)
            sq[i] += (se ** 2).sum(axis=0)
        done += T

    mean = sums / n_trials
    var = np.maximum(sq / n_trials - mean ** 2, 0.0)
    stderr = np.sqrt(var / n_trials)
    return mean[0], stderr[0], mean[1], stderr[1]


def _mixed_instance(rng, n_ant=3):
    """5 GUEs (Rayleigh) and 3 UAVs (Ricean, with pure-LOS links) on 5 APs,
    4 pilots shared by up to three users."""
    links = random_links(rng, 8, 5, n_ant)
    links.rice_k[:5] = 0.0
    links.rice_k[5:] = rng.uniform(2.0, 30.0, (3, 5))
    links.rice_k[5, :3] = PURE_LOS
    links.rice_k[7, 1:] = PURE_LOS
    links.beta[5:] *= 10.0
    pilots = np.array([0, 1, 2, 3, 0, 1, 2, 0])
    est = build_estimators(links, pilots, rng.uniform(0.5, 2.0, 8), 0.3)
    return links, pilots, est


class TestUatfTerms:
    def test_matches_per_link_traces(self):
        # Every pairwise trace against its definition, link by link, on an
        # instance with Rayleigh, Ricean and pure-LOS links.
        rng = np.random.default_rng(27)
        links, pilots, est = _mixed_instance(rng)
        K, A = links.beta.shape
        terms = uatf_terms(links, est, pilots, np.ones((K, A), bool))
        G, D = est.G, est.D
        np.testing.assert_array_equal(terms.ap, np.tile(np.arange(A), (K, 1)))
        t = np.empty((K, A, K), complex)
        cross = np.empty((K, A, K))
        delta = np.empty((K, A, K))
        for j in range(K):
            for k in range(K):
                for a in range(A):
                    t[j, a, k] = np.trace(D[j, a] @ G[k, a])
                    cross[j, a, k] = np.trace(
                        G[j, a] @ D[j, a].conj().T @ G[k, a]).real
                    delta[j, a, k] = delta_dl(
                        links.beta[k, a], links.rice_k[k, a],
                        links.steering[k, a], D[j, a])
        for got, want in ((terms.t, t), (terms.cross, cross),
                          (terms.delta, delta)):
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-12 * np.abs(want).max())


def _dense_terms(links, est, pilot_index):
    """Oracle: the dense (J, K, A) closed-form terms over every (filter
    owner, user, AP) triple, as uatf_terms built them before the
    serving-set slots."""
    G, D = est.G, est.D
    beta, k = links.beta, links.rice_k
    pure = np.isinf(k)
    ksafe = np.where(pure, 0.0, k)
    c = np.where(pure, 0.0, beta / (ksafe + 1.0))
    c2, c2k = c * c, c * c * ksafe
    trace_D = np.einsum("kann->ka", D).real
    a = links.steering
    aDa = np.einsum("kan,janm,kam->jka", np.conj(a), D, a)
    delta = (c2[:, None, :] * trace_D[None, :, :] ** 2
             + 2.0 * c2k[:, None, :] * trace_D[None, :, :]
             * np.transpose(aDa.real, (1, 0, 2)))
    t = np.einsum("janm,kamn->jka", D, G)
    GDH = np.einsum("janm,japm->janp", G, np.conj(D))
    cross = np.einsum("janp,kapn->jka", GDH, G).real
    pilot_index = np.asarray(pilot_index)
    collide = pilot_index[:, None] == pilot_index[None, :]
    return dict(t=t, cross=cross, delta=delta, collide=collide,
                gamma=est.gamma, eta=est.train_powers)


def _dense_contamination(terms, power_w, t_slice):
    sqrt_w = np.sqrt(power_w)
    coherent = np.abs(np.einsum("ja,jka->jk", sqrt_w, t_slice)) ** 2
    diagonal = np.einsum("ja,jka->jk", power_w, np.abs(t_slice) ** 2)
    dterm = np.einsum("ja,kja->jk", power_w, terms["delta"])
    return dterm + coherent - diagonal


def _dense_sinr_dl(terms, eta_dl, serving_mask, sigma_z2):
    eta_dl = np.asarray(eta_dl, dtype=float) * serving_mask
    gamma, eta = terms["gamma"], terms["eta"]
    K = len(eta)
    num = np.einsum("ka,ka->k", np.sqrt(eta_dl), gamma) ** 2
    self_delta = terms["delta"][np.arange(K), np.arange(K), :]
    bu = np.einsum("ka,ka->k", eta_dl, eta[:, None] * self_delta - gamma ** 2)
    cross = np.einsum("j,ja,jka->k", np.sqrt(eta), eta_dl, terms["cross"])
    cont_jk = _dense_contamination(terms, eta_dl, terms["t"])
    cont_w = terms["collide"] & ~np.eye(K, dtype=bool)
    contamination = eta * np.einsum("jk,jk->k", cont_w, cont_jk)
    return num / (bu + cross + sigma_z2 + contamination)


def _dense_sinr_ul(terms, eta_ul, serving_mask, sigma_w2):
    mask = np.asarray(serving_mask, dtype=float)
    gamma, eta = terms["gamma"], terms["eta"]
    K = len(eta)
    gsum = np.einsum("ka,ka->k", mask, gamma)
    num = eta_ul * gsum ** 2
    self_delta = terms["delta"][np.arange(K), np.arange(K), :]
    bu = eta_ul * np.einsum("ka,ka->k", mask,
                            eta[:, None] * self_delta - gamma ** 2)
    cross = np.sqrt(eta) * np.einsum("j,ka,kja->k", eta_ul, mask,
                                     terms["cross"])
    noise = sigma_w2 * gsum
    t_kj = np.transpose(terms["t"], (1, 0, 2))
    w = np.broadcast_to(mask[None, :, :], t_kj.shape) * 1.0
    coherent = np.abs(np.einsum("jka,jka->jk", w, t_kj)) ** 2
    diagonal = np.einsum("jka,jka->jk", w, np.abs(t_kj) ** 2)
    dterm = np.einsum("ka,jka->jk", mask, terms["delta"])
    cont_jk = dterm + coherent - diagonal
    cont_w = terms["collide"] & ~np.eye(K, dtype=bool)
    contamination = np.einsum("j,j,jk,jk->k", eta_ul, eta, cont_w, cont_jk)
    return num / (bu + cross + noise + contamination)


class TestServingSlots:
    """The slot closed forms against the dense (J, K, A) oracle on a ragged
    mask: a single-AP row, padded slots and a WFPC user with no DL power."""

    def _instance(self):
        rng = np.random.default_rng(30)
        links, pilots, est = _mixed_instance(rng)
        links.beta[0] *= 1e-3              # too weak to get any DL power
        est = build_estimators(links, pilots, est.train_powers, 0.3)
        mask = rng.random(links.beta.shape) < 0.6
        mask[:, 4] = True
        mask[3] = [False, True, False, False, False]
        mask[6] = True
        assoc = AssociationMap(mask)
        _, eta_dl = dl_power_allocation("WFPC", est.gamma, assoc, 0.25, 1.0)
        assert np.any(eta_dl.sum(axis=1) == 0)
        return links, pilots, est, mask, eta_dl, rng.uniform(0.2, 1.0, 8)

    def test_slot_layout(self):
        links, pilots, est, mask, _, _ = self._instance()
        terms = uatf_terms(links, est, pilots, mask)
        K, A = mask.shape
        counts = mask.sum(axis=1)
        assert terms.ap.shape == (K, counts.max())
        dense = _dense_terms(links, est, pilots)
        for j in range(K):
            served = terms.ap[j, :counts[j]]
            np.testing.assert_array_equal(served, np.nonzero(mask[j])[0])
            assert not mask[j, terms.ap[j, counts[j]:]].any()
            for c, a in enumerate(terms.ap[j]):
                for name, got in (("t", terms.t), ("cross", terms.cross)):
                    want = dense[name][j, :, a]
                    np.testing.assert_allclose(got[j, c], want, rtol=1e-12,
                                               atol=0)
                want = dense["delta"][:, j, a]
                np.testing.assert_allclose(
                    terms.delta[j, c], want, rtol=0,
                    atol=1e-12 * np.abs(dense["delta"]).max())

    def test_sinrs_match_dense_oracle(self):
        links, pilots, est, mask, eta_dl, eta_ul = self._instance()
        terms = uatf_terms(links, est, pilots, mask)
        dense = _dense_terms(links, est, pilots)
        got_dl = sinr_dl_lb(terms, eta_dl, mask, 0.25)
        got_ul = sinr_ul_lb(terms, eta_ul, mask, 0.3)
        np.testing.assert_allclose(
            got_dl, _dense_sinr_dl(dense, eta_dl, mask, 0.25),
            rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            got_ul, _dense_sinr_ul(dense, eta_ul, mask, 0.3),
            rtol=1e-12, atol=0)
        assert np.all(got_dl[eta_dl.sum(axis=1) == 0] == 0.0)

    def test_other_serving_mask_rejected(self):
        links, pilots, est, mask, eta_dl, eta_ul = self._instance()
        terms = uatf_terms(links, est, pilots, mask)
        other = mask.copy()
        other[2, np.argmin(mask[2])] ^= True
        with pytest.raises(ValueError):
            sinr_dl_lb(terms, eta_dl, other, 0.25)
        with pytest.raises(ValueError):
            sinr_ul_lb(terms, eta_ul, other, 0.3)
        with pytest.raises(ValueError):
            sinr_ul_lb(terms, eta_ul, np.ones(mask.shape, bool), 0.3)


class TestUpperBoundKernel:
    """se_ub_mc against the einsum oracle on the same draws: only the
    order of floating-point operations may differ."""

    def _check(self, args, n_trials, seed):
        got = se_ub_mc(*args, n_trials, np.random.default_rng(seed))
        want = _se_ub_mc_einsum(*args, n_trials, np.random.default_rng(seed))
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-10, atol=0)
        return got

    def test_mixed_population_with_pure_los_links(self):
        rng = np.random.default_rng(20)
        links, pilots, est = _mixed_instance(rng)
        mask = np.ones(links.beta.shape, bool)
        args = (links, est, pilots, rng.uniform(0.1, 1.0, links.beta.shape),
                rng.uniform(0.2, 1.0, 8), mask, 0.25, 0.42, 0.42)
        self._check(args, 40, 21)

    def test_sparse_serving_mask_with_waterfilling(self):
        rng = np.random.default_rng(22)
        links, pilots, est = _mixed_instance(rng, n_ant=2)
        links.beta[0] *= 1e-3              # too weak to get any DL power
        est = build_estimators(links, pilots, est.train_powers, 0.3)
        assoc = associate("UC", links.beta, 2)
        _, eta_dl = dl_power_allocation("WFPC", est.gamma, assoc, 0.25, 1.0)
        assert np.any(eta_dl.sum(axis=1) == 0)
        assert not assoc.serving.all()
        args = (links, est, pilots, eta_dl, rng.uniform(0.2, 1.0, 8),
                assoc.serving, 0.25, 0.42, 0.42)
        se_dl = self._check(args, 40, 23)[0]
        assert np.all(se_dl[eta_dl.sum(axis=1) == 0] == 0.0)

    def test_tail_batch(self):
        # 70 trials: one full batch of 64 and a tail of 6
        rng = np.random.default_rng(24)
        links, pilots, est = _mixed_instance(rng)
        mask = rng.random(links.beta.shape) < 0.7
        mask[:, 0] = True
        args = (links, est, pilots, rng.uniform(0.1, 1.0, links.beta.shape),
                rng.uniform(0.2, 1.0, 8), mask, 0.25, 0.42, 0.42)
        self._check(args, 70, 25)

    def test_peak_memory_of_one_default_batch(self, monkeypatch):
        # One 64-trial call at the default scale may peak at 4.5 channel
        # draws (64, K, A, N) of complex128; numpy reports its buffers to
        # tracemalloc.
        cfg = SystemConfig()
        peaks = []

        def traced(*args, **kwargs):
            tracemalloc.start()
            try:
                out = se_ub_mc(*args, **kwargs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return out

        monkeypatch.setattr(harness, "se_ub_mc", traced)
        harness.simulate_drop(cfg, np.random.default_rng(26), 64)
        draw = 64 * cfg.n_users * cfg.n_aps * cfg.n_ap_antennas * 16
        assert len(peaks) == 1
        assert peaks[0] <= 4.5 * draw, peaks[0] / draw
