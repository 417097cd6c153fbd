import dataclasses
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfmimo import bounds, harness
from cfmimo.allocation import (AssociationMap, associate,
                               dl_power_allocation)
from cfmimo.bounds import (se_lb, se_ub_mc, sinr_dl_lb, sinr_ul_lb,
                           uatf_terms)
from cfmimo.channel import LinkSet, build_links
from cfmimo.config import SystemConfig
from cfmimo.deployment import sample_drop
from cfmimo.estimation import build_estimators, lmmse_estimate

from conftest import (covariance_G, explicit_block, lmmse_filters,
                      random_links)


def unit_steer(rng, n):
    a = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    a[0] = 1.0
    return a


def delta_oracle(beta, kappa, a, D):
    """Independently coded evaluator of the fourth-moment coefficient:
    scalar forms pulled out of the printed trace expressions term by term,
    with scattered power c = beta (1 - kappa) and LOS power beta kappa.
    It vanishes in the pure-LOS limit kappa = 1."""
    c = beta * (1.0 - kappa)
    trD = np.trace(D)
    aDa = np.conj(a) @ D @ a
    aDHa = np.conj(a) @ D.conj().T @ a
    term1 = c ** 2 * (trD * np.conj(trD)).real
    term2 = c * beta * kappa * ((aDa * np.trace(D.conj().T))
                                + (aDHa * np.trace(D))).real
    return term1 + term2


def uatf_delta(beta, kappa, a, eta, sigma_w2):
    """delta of one link (gain beta, LOS power fraction kappa, steering a)
    against its own LMMSE filter, as uatf_terms forms it on a one-user,
    one-AP drop with training power eta and noise sigma_w2, and that
    filter D from the dense oracle."""
    shape = (1, 1)
    links = LinkSet(beta=np.full(shape, beta),
                    los_frac=np.full(shape, kappa), steering=a[None, None])
    est = build_estimators(links, [0], [eta], sigma_w2)
    return uatf_terms(links, est).delta[0, 0], lmmse_filters(links, est)[0, 0]


class TestDelta:
    """The fourth-moment coefficient delta in uatf_terms."""

    def test_rayleigh_reduces_to_trace_squared(self):
        rng = np.random.default_rng(0)
        a = unit_steer(rng, 3)
        beta = 1.7
        delta, D = uatf_delta(beta, 0.0, a, 1.3, 0.4)
        expected = beta ** 2 * np.abs(np.trace(D)) ** 2
        assert delta == pytest.approx(expected)

    def test_identity_filter(self):
        # Without training noise and at unit training power a lone user's
        # filter is G G^{-1} = I.
        rng = np.random.default_rng(1)
        n = 4
        a = unit_steer(rng, n)
        beta, k = 2.0, 1.5
        c = beta / (k + 1)
        expected = c ** 2 * (n ** 2 + 2 * k * n ** 2)
        delta, D = uatf_delta(beta, k / (k + 1), a, 1.0, 0.0)
        np.testing.assert_allclose(D, np.eye(n), rtol=0, atol=1e-12)
        assert delta == pytest.approx(expected)

    def test_zero_filter(self):
        # Zero training power gives the zero filter.
        rng = np.random.default_rng(2)
        a = unit_steer(rng, 3)
        delta, D = uatf_delta(1.0, 2.0 / 3.0, a, 0.0, 0.5)
        assert np.all(D == 0)
        assert delta == 0.0

    def test_pure_los_vanishes(self):
        rng = np.random.default_rng(3)
        a = unit_steer(rng, 3)
        assert uatf_delta(1.5, 1.0, a, 1.2, 0.3)[0] == 0.0

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = rng.integers(2, 5)
            a = unit_steer(rng, n)
            beta = rng.uniform(0.1, 3.0)
            k = rng.uniform(0.0, 5.0)
            kappa = k / (k + 1.0)
            delta, D = uatf_delta(beta, kappa, a, rng.uniform(0.5, 2.0),
                                  rng.uniform(0.1, 1.0))
            assert delta == pytest.approx(
                delta_oracle(beta, kappa, a, D), rel=1e-10)


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


class TestLosEndpoints:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), K=st.integers(1, 5),
           A=st.integers(1, 3), N=st.integers(1, 4),
           endpoint=st.sampled_from([0.0, 1.0]))
    def test_near_endpoint_converges(self, seed, K, A, N, endpoint):
        # A LOS fraction 1e-9 from pure LOS or from Rayleigh gives gamma and
        # both closed-form SINRs within 1e-6 of the endpoint itself, on a
        # random subset of the links of a random drop.
        rng = np.random.default_rng(seed)
        links = random_links(rng, K, A, N)
        pilots = rng.integers(0, max(K - 1, 1), K)
        eta_tr = rng.uniform(0.5, 2.0, K)
        eta_dl = rng.uniform(0.1, 1.0, (K, A))
        eta_ul = rng.uniform(0.1, 1.0, K)
        moved = rng.random((K, A)) < 0.6
        near = endpoint + (1e-9 if endpoint == 0.0 else -1e-9)
        out = []
        for kappa in (endpoint, near):
            links.los_frac[moved] = kappa
            est = build_estimators(links, pilots, eta_tr, 0.3)
            terms = uatf_terms(links, est)
            out.append((est.gamma, sinr_dl_lb(terms, eta_dl, 0.3),
                        sinr_ul_lb(terms, eta_ul, 0.3)))
        for want, got in zip(*out):
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=0)


class TestRelabelling:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), K=st.integers(1, 6),
           A=st.integers(1, 4), N=st.integers(1, 3))
    def test_sinrs_follow_ap_and_user_permutations(self, seed, K, A, N):
        # Relabelling the APs leaves every closed-form SINR unchanged;
        # relabelling the users permutes them, with pilots, training and
        # DL/UL powers and the serving mask moving with the users. The drop
        # mixes Rayleigh, Ricean and pure-LOS links under a random mask.
        rng = np.random.default_rng(seed)
        links = random_links(rng, K, A, N)
        kind = rng.integers(0, 3, (K, A))
        links.los_frac[kind == 0] = 0.0
        links.los_frac[kind == 2] = 1.0
        pilots = rng.integers(0, max(K - 1, 1), K)
        eta_tr = rng.uniform(0.5, 2.0, K)
        eta_dl = rng.uniform(0.1, 1.0, (K, A))
        eta_ul = rng.uniform(0.1, 1.0, K)
        mask = rng.random((K, A)) < 0.6
        mask[np.arange(K), rng.integers(0, A, K)] = True
        users, aps = rng.permutation(K), rng.permutation(A)

        def sinrs(users, aps):
            at = np.ix_(users, aps)
            moved = LinkSet(beta=links.beta[at], los_frac=links.los_frac[at],
                            steering=links.steering[at])
            est = build_estimators(moved, pilots[users], eta_tr[users], 0.3,
                                   serving=mask[at])
            terms = uatf_terms(moved, est)
            return (sinr_dl_lb(terms, eta_dl[at], 0.3),
                    sinr_ul_lb(terms, eta_ul[users], 0.3))

        want = sinrs(np.arange(K), np.arange(A))
        for got, w in zip(sinrs(np.arange(K), aps), want):
            np.testing.assert_allclose(got, w, rtol=1e-12, atol=0)
        for got, w in zip(sinrs(users, np.arange(A)), want):
            np.testing.assert_allclose(got, w[users], rtol=1e-12, atol=0)


class TestScaleInvariance:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), K=st.integers(1, 6),
           A=st.integers(1, 4), N=st.integers(1, 3),
           log_s=st.floats(-3.0, 3.0))
    def test_sinrs_unchanged_when_powers_and_noise_scale(self, seed, K, A,
                                                         N, log_s):
        # Scaling the training, DL and UL powers and both noise powers by
        # one factor s leaves both closed-form SINRs unchanged: gamma is
        # invariant, the filters scale as 1 / sqrt(s) and every numerator
        # and denominator term as s. The drop mixes Rayleigh, Ricean and
        # pure-LOS links under a random mask.
        rng = np.random.default_rng(seed)
        links = random_links(rng, K, A, N)
        kind = rng.integers(0, 3, (K, A))
        links.los_frac[kind == 0] = 0.0
        links.los_frac[kind == 2] = 1.0
        pilots = rng.integers(0, max(K - 1, 1), K)
        eta_tr = rng.uniform(0.5, 2.0, K)
        eta_dl = rng.uniform(0.1, 1.0, (K, A))
        eta_ul = rng.uniform(0.1, 1.0, K)
        mask = rng.random((K, A)) < 0.6
        mask[np.arange(K), rng.integers(0, A, K)] = True

        def sinrs(s):
            est = build_estimators(links, pilots, s * eta_tr, s * 0.3,
                                   serving=mask)
            terms = uatf_terms(links, est)
            return (sinr_dl_lb(terms, s * eta_dl, s * 0.25),
                    sinr_ul_lb(terms, s * eta_ul, s * 0.3))

        for got, want in zip(sinrs(10.0 ** log_s), sinrs(1.0)):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


class TestUcOfEveryApIsCellFree:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), K=st.integers(1, 6),
           A=st.integers(1, 4), N=st.integers(1, 3),
           policy=st.sampled_from(["PPA", "WFPC"]))
    def test_same_rates_as_cell_free(self, seed, K, A, N, policy):
        # A user-centric cluster of every AP serves every link, so gamma,
        # both closed-form SINRs and the UB on one fixed stream equal the
        # cell-free ones exactly. The drop mixes Rayleigh, Ricean and
        # pure-LOS links.
        rng = np.random.default_rng(seed)
        links = random_links(rng, K, A, N)
        kind = rng.integers(0, 3, (K, A))
        links.los_frac[kind == 0] = 0.0
        links.los_frac[kind == 2] = 1.0
        pilots = rng.integers(0, max(K - 1, 1), K)
        eta_tr = rng.uniform(0.5, 2.0, K)
        eta_ul = rng.uniform(0.1, 1.0, K)

        def rates(assoc):
            est = build_estimators(links, pilots, eta_tr, 0.3,
                                   serving=assoc.serving)
            _, eta_dl = dl_power_allocation(policy, est.gamma, assoc, 0.25,
                                            1.0)
            terms = uatf_terms(links, est)
            return (est.gamma, sinr_dl_lb(terms, eta_dl, 0.25),
                    sinr_ul_lb(terms, eta_ul, 0.3),
                    *se_ub_mc(links, est, eta_dl, eta_ul, 0.25, 0.42, 8,
                              np.random.default_rng(seed)))

        for got, want in zip(rates(associate("UC", links.beta, A)),
                             rates(associate("CF", links.beta))):
            np.testing.assert_array_equal(got, want)


def _dl_setup(small_instance, rng):
    links, pilots, eta_tr, sw2, est = small_instance
    eta_dl = rng.uniform(0.1, 1.0, links.beta.shape)
    terms = uatf_terms(links, est)
    return links, pilots, est, terms, eta_dl, sw2


class TestSinrClosedForms:
    def test_zero_dl_power_zero_sinr(self, small_instance):
        rng = np.random.default_rng(5)
        links, pilots, est, terms, eta_dl, sw2 = _dl_setup(
            small_instance, rng)
        sinr = sinr_dl_lb(terms, np.zeros_like(eta_dl), 0.25)
        assert np.allclose(sinr, 0.0)

    def test_zero_ul_power_zero_sinr(self, small_instance):
        rng = np.random.default_rng(6)
        links, pilots, est, terms, eta_dl, sw2 = _dl_setup(
            small_instance, rng)
        sinr = sinr_ul_lb(terms, np.zeros(3), sw2)
        assert np.allclose(sinr, 0.0)

    def test_uncontaminated_user_has_no_contamination_term(self, small_instance):
        rng = np.random.default_rng(7)
        links, pilots, est, terms, eta_dl, sw2 = _dl_setup(
            small_instance, rng)
        _, parts = sinr_dl_lb(terms, eta_dl, 0.25, return_parts=True)
        # user 2 is alone on its pilot
        assert parts["contamination"][2] == 0.0
        assert parts["contamination"][0] > 0.0

    def test_dl_homogeneity(self, small_instance):
        # scaling DL powers and user noise by c leaves the SINR unchanged
        rng = np.random.default_rng(8)
        links, pilots, est, terms, eta_dl, sw2 = _dl_setup(
            small_instance, rng)
        s1 = sinr_dl_lb(terms, eta_dl, 0.25)
        s2 = sinr_dl_lb(terms, 7.0 * eta_dl, 7.0 * 0.25)
        assert np.allclose(s1, s2, rtol=1e-12)

    def test_ul_single_user_single_ap_rayleigh_reduction(self):
        # no contamination, Rayleigh: SINR must reduce to the scalar
        # cell-free expression built from gamma
        rng = np.random.default_rng(9)
        links = random_links(rng, 1, 1, 3, rice_max=0.0)
        beta = float(links.beta[0, 0])
        eta_tr = np.array([2.0])
        sw2 = 0.4
        est = build_estimators(links, [0], eta_tr, sw2)
        terms = uatf_terms(links, est)
        eta_ul = np.array([0.7])
        sinr = sinr_ul_lb(terms, eta_ul, sw2)

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
        links, pilots, est, terms, eta_dl, sw2 = _dl_setup(
            small_instance, rng)
        _, pdl = sinr_dl_lb(terms, eta_dl, 0.25, return_parts=True)
        _, pul = sinr_ul_lb(terms, np.full(3, 0.5), sw2, return_parts=True)
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
        links.los_frac[:] = 1.0
        est = build_estimators(links, [0], [1.0], 1e-8)
        se, err, se_u, err_u = se_ub_mc(
            links, est, np.ones((1, 1)), np.ones(1), 0.5, 0.42, 64,
            np.random.default_rng(12))
        beta = links.beta[0, 0]
        snr = (beta * 2) ** 2 / 0.5   # |g^H g_hat|^2 / sigma_z^2, no fading
        assert err[0] < 1e-3
        assert se[0] == pytest.approx(0.42 * np.log2(1 + snr), rel=1e-3)

    def test_lb_below_ub(self, small_instance):
        rng = np.random.default_rng(13)
        links, pilots, est, terms, eta_dl, sw2 = _dl_setup(
            small_instance, rng)
        eta_ul = np.full(3, 0.5)
        frac = 0.42
        lb_dl = se_lb(sinr_dl_lb(terms, eta_dl, sw2), frac)
        lb_ul = se_lb(sinr_ul_lb(terms, eta_ul, sw2), frac)
        ub_dl, e_dl, ub_ul, e_ul = se_ub_mc(
            links, est, eta_dl, eta_ul, sw2, frac, 2000,
            np.random.default_rng(14))
        assert np.all(lb_dl <= ub_dl + 3 * e_dl)
        assert np.all(lb_ul <= ub_ul + 3 * e_ul)

    def test_convergence_with_more_trials(self, small_instance):
        rng = np.random.default_rng(15)
        links, pilots, est, terms, eta_dl, sw2 = _dl_setup(
            small_instance, rng)
        eta_ul = np.full(3, 0.5)
        args = (links, est, eta_dl, eta_ul, sw2, 0.42)
        ub1, e1, _, _ = se_ub_mc(*args, 2000, np.random.default_rng(16))
        ub2, e2, _, _ = se_ub_mc(*args, 4000, np.random.default_rng(17))
        assert np.all(np.abs(ub1 - ub2) < 3 * np.hypot(e1, e2))


def _se_ub_mc_einsum(links, est, eta_dl, eta_ul, sigma_z2, frac, n_trials,
                     rng):
    """Oracle: the 3-operand-einsum formulation of se_ub_mc on the same
    draws, each batch's blocks written out by explicit_block: the fewest
    batches whose (T, K, A, N) complex128 draw fits in UB_BATCH_BYTES (at
    least one trial each, at least two batches from 2 trials on), sizes as
    np.array_split makes them, batch b drawn from an SFC64 generator on the
    b-th SeedSequence spawned from rng's. The standard error is np.std of
    every trial's SE over sqrt(n_trials)."""
    K, A = links.beta.shape
    N = links.steering.shape[-1]
    eta_dl = np.asarray(eta_dl, dtype=float) * est.served
    eta_ul = np.asarray(eta_ul, dtype=float)
    mask = est.served.astype(float)
    wdl = np.sqrt(eta_dl)
    sigma_w2 = est.sigma_w2

    per_trial = [[], []]
    per_batch = max(1, bounds.UB_BATCH_BYTES // (16 * K * A * N))
    n_batches = max(int(np.ceil(n_trials / per_batch)), min(n_trials, 2))
    sizes = [len(b) for b in np.array_split(np.arange(n_trials), n_batches)]
    seeds = rng.bit_generator.seed_seq.spawn(n_batches)
    for seed, T in zip(seeds, sizes):
        g, y = explicit_block(links, est,
                              np.random.Generator(np.random.SFC64(seed)), T)
        ghat = lmmse_estimate(links, est, y)

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

        for i, sinr in enumerate((sinr_dl, sinr_ul)):
            per_trial[i].append(se_lb(sinr, frac))

    se = [np.concatenate(x) for x in per_trial]
    stderr = [np.std(x, axis=0) / np.sqrt(n_trials) for x in se]
    return se[0].mean(axis=0), stderr[0], se[1].mean(axis=0), stderr[1]


def _mixed_instance(rng, n_ant=3):
    """5 GUEs (Rayleigh) and 3 UAVs (Ricean, with pure-LOS links) on 5 APs,
    4 pilots shared by up to three users, every link served."""
    links = random_links(rng, 8, 5, n_ant)
    k = rng.uniform(2.0, 30.0, (3, 5))
    links.los_frac[:5] = 0.0
    links.los_frac[5:] = k / (k + 1.0)
    links.los_frac[5, :3] = 1.0
    links.los_frac[7, 1:] = 1.0
    links.beta[5:] *= 10.0
    pilots = np.array([0, 1, 2, 3, 0, 1, 2, 0])
    est = build_estimators(links, pilots, rng.uniform(0.5, 2.0, 8), 0.3)
    return links, pilots, est


def _sharing_pairs(pilots):
    """Oracle: the (owner, user) pairs on one pilot, self-pairs included, in
    row-major order."""
    K = len(pilots)
    return [(j, k) for j in range(K) for k in range(K)
            if pilots[j] == pilots[k]]


class TestUatfTerms:
    @pytest.mark.parametrize("kappa", [None, 0.0, 1.0],
                             ids=["mixed", "rayleigh", "pure_los"])
    def test_matches_per_link_traces(self, kappa):
        # Every pairwise trace against its definition, link by link, on an
        # instance with Rayleigh, Ricean and pure-LOS links, and on the same
        # drop with every link Rayleigh (no user with a LOS component) or
        # every link pure LOS.
        rng = np.random.default_rng(27)
        links, pilots, est = _mixed_instance(rng)
        if kappa is not None:
            links.los_frac[:] = kappa
            est = build_estimators(links, pilots, est.train_powers, 0.3)
        K, A = links.beta.shape
        terms = uatf_terms(links, est)
        G = covariance_G(links.beta, links.los_frac, links.steering)
        D = lmmse_filters(links, est)
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
                    delta[j, a, k] = delta_oracle(
                        links.beta[k, a], links.los_frac[k, a],
                        links.steering[k, a], D[j, a])
        # t and delta are formed on the pilot-sharing pairs only.
        np.testing.assert_array_equal(np.column_stack([terms.pj, terms.pk]),
                                      _sharing_pairs(pilots))
        on_pairs = (terms.pj, slice(None), terms.pk)
        for got, want, at in ((terms.t, t, on_pairs), (terms.cross, cross, ...),
                              (terms.delta, delta, on_pairs)):
            np.testing.assert_allclose(got, want[at], rtol=0,
                                       atol=1e-12 * np.abs(want).max())


    @staticmethod
    def _traced_peak(n_ant, seed):
        """Traced peak of build_estimators + uatf_terms on a drop of 4 APs
        x n_ant antennas, each user served by its strongest AP."""
        cfg = SystemConfig(n_aps=4, n_ap_antennas=n_ant,
                           association_mode="UC", uc_cluster_size=1)
        rng = np.random.default_rng(seed)
        drop = sample_drop(cfg, rng)
        links = build_links(drop, cfg, rng)
        serving = associate("UC", links.beta, 1).serving
        tracemalloc.start()
        try:
            est = build_estimators(links, drop.pilot_index, cfg.train_power,
                                   cfg.noise_power_mw, serving=serving)
            uatf_terms(links, est)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_of_a_100_antenna_drop(self):
        # The estimators and the closed-form terms together peak at
        # 1.0-1.1 MB over seeds 3-5. The dense LOS grams and their
        # (A, 2N^2, L) outer products peaked at 15-17 MB, and the dense
        # per-link filters before them at 75-81 MB, on the same drops.
        peak = self._traced_peak(100, 3)
        assert peak <= 25e6, peak / 1e6

    def test_peak_memory_of_a_256_antenna_drop(self):
        # 2.4-2.7 MB over seeds 3-5 with the thin factors of the LOS
        # grams; the dense (G, N, N) grams and (A, 2N^2, L) outer products
        # peaked at 97-107 MB on the same drops.
        peak = self._traced_peak(256, 3)
        assert peak <= 25e6, peak / 1e6


def _dense_terms(links, est):
    """Oracle: the dense (J, K, A) closed-form terms over every (filter
    owner, user, AP) triple, as uatf_terms built them before the
    serving-set slots."""
    G = covariance_G(links.beta, links.los_frac, links.steering)
    D = lmmse_filters(links, est)
    beta, kappa = links.beta, links.los_frac
    c = beta * (1.0 - kappa)
    c2, c2k = c * c, c * beta * kappa
    trace_D = np.trace(D, axis1=-2, axis2=-1).real
    a = links.steering
    aDa = np.einsum("kan,janm,kam->jka", np.conj(a), D, a)
    delta = (c2[:, None, :] * trace_D[None, :, :] ** 2
             + 2.0 * c2k[:, None, :] * trace_D[None, :, :]
             * np.transpose(aDa.real, (1, 0, 2)))
    t = np.einsum("janm,kamn->jka", D, G)
    GDH = np.einsum("janm,japm->janp", G, np.conj(D))
    cross = np.einsum("janp,kapn->jka", GDH, G).real
    collide = est.pilot_index[:, None] == est.pilot_index[None, :]
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


# Pilot assignments of the 8 users of _mixed_instance: its own mix (None),
# one pilot for every user (every pair contaminates) and all pilots
# distinct (only self-pairs).
PILOT_CASES = pytest.mark.parametrize(
    "pilots", [None, (0,) * 8, tuple(range(8))],
    ids=["mix", "shared", "distinct"])


class TestServingSlots:
    """The slot closed forms against the dense (J, K, A) oracle on a ragged
    mask: a single-AP row, padded slots and a WFPC user with no DL power."""

    def _instance(self, pilots=None):
        rng = np.random.default_rng(30)
        links, mixed, est = _mixed_instance(rng)
        pilots = mixed if pilots is None else np.array(pilots)
        links.beta[0] *= 1e-3              # too weak to get any DL power
        mask = rng.random(links.beta.shape) < 0.6
        mask[:, 4] = True
        mask[3] = [False, True, False, False, False]
        mask[6] = True
        est = build_estimators(links, pilots, est.train_powers, 0.3,
                               serving=mask)
        assoc = AssociationMap(mask)
        _, eta_dl = dl_power_allocation("WFPC", est.gamma, assoc, 0.25, 1.0)
        assert np.any(eta_dl.sum(axis=1) == 0)
        return links, pilots, est, mask, eta_dl, rng.uniform(0.2, 1.0, 8)

    @PILOT_CASES
    def test_slot_layout(self, pilots):
        links, pilots, est, mask, _, _ = self._instance(pilots)
        terms = uatf_terms(links, est)
        K, A = mask.shape
        counts = mask.sum(axis=1)
        assert terms.ap.shape == (K, counts.max())
        np.testing.assert_array_equal(np.column_stack([terms.pj, terms.pk]),
                                      _sharing_pairs(pilots))
        dense = _dense_terms(links, est)
        for j in range(K):
            served = terms.ap[j, :counts[j]]
            np.testing.assert_array_equal(served, np.nonzero(mask[j])[0])
            assert not mask[j, terms.ap[j, counts[j]:]].any()
            mine = terms.pj == j
            users = terms.pk[mine]
            for c, a in enumerate(terms.ap[j]):
                np.testing.assert_allclose(terms.cross[j, c],
                                           dense["cross"][j, :, a],
                                           rtol=1e-12, atol=0)
                np.testing.assert_allclose(terms.t[mine, c],
                                           dense["t"][j, users, a],
                                           rtol=1e-12, atol=0)
                want = dense["delta"][users, j, a]
                np.testing.assert_allclose(
                    terms.delta[mine, c], want, rtol=0,
                    atol=1e-12 * np.abs(dense["delta"]).max())

    @PILOT_CASES
    def test_sinrs_match_dense_oracle(self, pilots):
        links, pilots, est, mask, eta_dl, eta_ul = self._instance(pilots)
        terms = uatf_terms(links, est)
        dense = _dense_terms(links, est)
        got_dl, pdl = sinr_dl_lb(terms, eta_dl, 0.25, return_parts=True)
        got_ul, pul = sinr_ul_lb(terms, eta_ul, 0.3, return_parts=True)
        np.testing.assert_allclose(
            got_dl, _dense_sinr_dl(dense, eta_dl, mask, 0.25),
            rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            got_ul, _dense_sinr_ul(dense, eta_ul, mask, 0.3),
            rtol=1e-12, atol=0)
        assert np.all(got_dl[eta_dl.sum(axis=1) == 0] == 0.0)
        if len(set(pilots)) == len(pilots):
            assert np.all(pdl["contamination"] == 0.0)
            assert np.all(pul["contamination"] == 0.0)

    def test_served_link_estimators_give_the_same_rates(self):
        # Filters solved on the serving set only: the SINRs and the UB
        # outputs equal those from the all-links filters on the same
        # serving set bit for bit, so no unserved filter is read.
        links, pilots, est, mask, eta_dl, eta_ul = self._instance()
        full = build_estimators(links, pilots, est.train_powers, 0.3)
        assert np.any(full.gamma[~mask] != 0)
        for e in (dataclasses.replace(full, served=mask), est):
            terms = uatf_terms(links, e)
            got = (sinr_dl_lb(terms, eta_dl, 0.25),
                   sinr_ul_lb(terms, eta_ul, 0.3),
                   *se_ub_mc(links, e, eta_dl, eta_ul, 0.25, 0.42, 10,
                             np.random.default_rng(32)))
            if e is not est:
                want = got
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


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
        args = (links, est, rng.uniform(0.1, 1.0, links.beta.shape),
                rng.uniform(0.2, 1.0, 8), 0.25, 0.42)
        self._check(args, 40, 21)

    def test_sparse_serving_mask_with_waterfilling(self):
        rng = np.random.default_rng(22)
        links, pilots, est = _mixed_instance(rng, n_ant=2)
        links.beta[0] *= 1e-3              # too weak to get any DL power
        assoc = associate("UC", links.beta, 2)
        est = build_estimators(links, pilots, est.train_powers, 0.3,
                               serving=assoc.serving)
        _, eta_dl = dl_power_allocation("WFPC", est.gamma, assoc, 0.25, 1.0)
        assert np.any(eta_dl.sum(axis=1) == 0)
        assert not assoc.serving.all()
        args = (links, est, eta_dl, rng.uniform(0.2, 1.0, 8), 0.25, 0.42)
        se_dl = self._check(args, 40, 23)[0]
        assert np.all(se_dl[eta_dl.sum(axis=1) == 0] == 0.0)

    def test_tail_batch(self, monkeypatch):
        # 70 trials: an uneven split into three batches of 24, 23 and 23,
        # the last two in buffers sized for 24 trials.
        trial_bytes = 16 * 8 * 5 * 3                 # (K, A, N) complex128
        monkeypatch.setattr(bounds, "UB_BATCH_BYTES", 24 * trial_bytes)
        assert bounds._ub_batches(70, trial_bytes) == [24, 23, 23]
        rng = np.random.default_rng(24)
        links, pilots, est = _mixed_instance(rng)
        mask = rng.random(links.beta.shape) < 0.7
        mask[:, 0] = True
        est = build_estimators(links, pilots, est.train_powers, 0.3,
                               serving=mask)
        args = (links, est, rng.uniform(0.1, 1.0, links.beta.shape),
                rng.uniform(0.2, 1.0, 8), 0.25, 0.42)
        self._check(args, 70, 25)

    def test_more_pilot_rows_than_users(self, monkeypatch):
        # 3 users on pilots 0, 31 and 0: the observation has 32 pilot rows,
        # more than the 3 user rows of the reused channel and estimate
        # buffers. Batches of 3 trials make each thread reuse its buffers.
        trial_bytes = 16 * 3 * 4 * 2                 # (K, A, N) complex128
        monkeypatch.setattr(bounds, "UB_BATCH_BYTES", 3 * trial_bytes)
        assert bounds._ub_batches(20, trial_bytes) == [3] * 6 + [2]
        rng = np.random.default_rng(46)
        links = random_links(rng, 3, 4, 2)
        links.los_frac[0] = 0.0
        links.los_frac[1, :2] = 1.0
        est = build_estimators(links, [0, 31, 0], rng.uniform(0.5, 2.0, 3),
                               0.3)
        args = (links, est, rng.uniform(0.1, 1.0, links.beta.shape),
                rng.uniform(0.2, 1.0, 3), 0.25, 0.42)
        self._check(args, 20, 47)

    def test_stderr_of_a_barely_varying_user(self, monkeypatch):
        # One pure-LOS user on 2 APs x 2 antennas, trained 1e6 above the
        # noise: its per-trial UL SE varies by ~1e-7 of its mean, where a
        # one-pass sq / n - mean^2 variance cancels to rounding noise. The
        # 70 trials are batches of 24, 23 and 23; the kernel's own per-trial
        # SEs are read from its one se_lb call per direction, made on the
        # caller's thread over the batches' SINRs in batch order.
        trial_bytes = 16 * 1 * 2 * 2                 # (K, A, N) complex128
        monkeypatch.setattr(bounds, "UB_BATCH_BYTES", 24 * trial_bytes)
        assert bounds._ub_batches(70, trial_bytes) == [24, 23, 23]
        links = random_links(np.random.default_rng(44), 1, 2, 2)
        links.los_frac[:] = 1.0
        est = build_estimators(links, [0], [1e6], 1.0)
        per_trial = []
        monkeypatch.setattr(bounds, "se_lb", lambda *args: (
            per_trial.append(se_lb(*args)) or per_trial[-1]))
        _, _, se_ul, err_ul = se_ub_mc(
            links, est, np.full((1, 2), 0.5), np.ones(1), 1.0, 0.42, 70,
            np.random.default_rng(45))
        ul = np.concatenate(per_trial[1::2])            # DL, UL per batch
        assert ul.shape == (70, 1)
        np.testing.assert_allclose(se_ul, ul.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(err_ul, np.std(ul, axis=0) / np.sqrt(70),
                                   rtol=1e-6)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_moments_are_numpys_of_the_per_trial_se(self, monkeypatch, cpus):
        # A default drop's 100 trials in 10 batches, serial or pooled: the
        # mean and standard error are np.mean and np.std / sqrt(n) of the
        # per-trial SEs the kernel passes through se_lb, bit for bit.
        monkeypatch.setattr(bounds, "_cpus", lambda: cpus)
        per_trial, got = [], []
        monkeypatch.setattr(bounds, "se_lb", lambda *args: (
            per_trial.append(se_lb(*args)) or per_trial[-1]))

        def kept(*args, **kwargs):
            got.extend(se_ub_mc(*args, **kwargs))
            return tuple(got)

        monkeypatch.setattr(harness, "se_ub_mc", kept)
        cfg = SystemConfig()
        harness.simulate_drop(cfg, np.random.default_rng(5), 100)
        assert bounds._ub_batches(100, 16 * cfg.n_users * cfg.n_aps
                                  * cfg.n_ap_antennas) == [10] * 10
        se = [np.concatenate(per_trial[i::2]) for i in (0, 1)]  # DL, UL
        assert se[0].shape == se[1].shape == (100, cfg.n_users)
        want = []
        for x in se:
            want += [np.mean(x, axis=0), np.std(x, axis=0) / np.sqrt(100)]
        for g, w in zip(got, want, strict=True):
            np.testing.assert_array_equal(g, w)

    @staticmethod
    def _traced_peak(monkeypatch, cfg, seed, n_trials):
        """Traced peak of the one se_ub_mc call of a drop; numpy reports
        its buffers to tracemalloc."""
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
        harness.simulate_drop(cfg, np.random.default_rng(seed), n_trials)
        assert len(peaks) == 1
        return peaks[0]

    def test_peak_memory_of_one_default_batch(self, monkeypatch):
        # One 64-trial call at the default scale may peak at 4.5 channel
        # draws (64, K, A, N) of complex128.
        cfg = SystemConfig()
        peak = self._traced_peak(monkeypatch, cfg, 26, 64)
        draw = 64 * cfg.n_users * cfg.n_aps * cfg.n_ap_antennas * 16
        assert peak <= 4.5 * draw, peak / draw

    def test_peak_memory_is_bounded_by_the_batch_budget(self, monkeypatch):
        # 64 trials on 4 APs x 256 antennas, each user served by its
        # strongest AP, on one thread: 16 batches of 4 trials in two reused
        # buffers peak at 12.0 MB, where two fresh batches of 32 trials
        # peaked at 81.8 MB.
        monkeypatch.setattr(bounds, "_cpus", lambda: 1)
        cfg = SystemConfig(n_aps=4, n_ap_antennas=256,
                           association_mode="UC", uc_cluster_size=1)
        peak = self._traced_peak(monkeypatch, cfg, 3, 64)
        assert peak <= 4 * bounds.UB_BATCH_BYTES, peak / 1e6


class TestUbBatches:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(n=st.integers(1, 5000),
           trial_bytes=st.one_of(st.integers(1, 4096),
                                 st.integers(1, 2 * bounds.UB_BATCH_BYTES)))
    def test_fewest_even_batches_within_the_budget(self, n, trial_bytes):
        sizes = bounds._ub_batches(n, trial_bytes)
        cap = max(1, bounds.UB_BATCH_BYTES // trial_bytes)
        assert sum(sizes) == n
        assert max(sizes) <= cap
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)     # np.array_split's
        # At least two from 2 trials on, and one batch fewer would either
        # overflow the cap or break that rule.
        assert len(sizes) >= min(n, 2)
        fewer = len(sizes) - 1
        assert fewer * cap < n or fewer < min(n, 2)
        for cpus in (1, 2, 64):
            with mock.patch.object(bounds, "_cpus", lambda: cpus):
                assert bounds._ub_batches(n, trial_bytes) == sizes


class TestUpperBoundThreads:
    """se_ub_mc's batches on a pool of threads, with OpenBLAS pinned to one
    thread while more than one runs; the thread count is set through the
    kernel's CPU count."""

    CONFIGS = {
        "default_cf": SystemConfig(rng_seed=5),
        "uc_wfpc_dense": SystemConfig(association_mode="UC",
                                      uc_cluster_size=10, dl_policy="WFPC",
                                      n_gues=96, n_uavs=24, rng_seed=5),
        "4x100_uc1": SystemConfig(n_aps=4, n_ap_antennas=100,
                                  association_mode="UC", uc_cluster_size=1,
                                  dl_power_budget=5000.0, rng_seed=5),
    }

    @staticmethod
    def _campaign(monkeypatch, cfg, cpus, threads=None):
        """Rates of a 2-drop x 20-trial campaign on `cpus` CPUs; the names
        of the threads that ran UB batches are added to `threads`."""
        monkeypatch.setattr(bounds, "_cpus", lambda: cpus)
        if threads is not None:
            def spy(*args, **kw):
                threads.add(threading.current_thread().name)
                return lmmse_estimate(*args, **kw)
            monkeypatch.setattr(bounds, "lmmse_estimate", spy)
        res = harness.run_experiment(cfg, 2, 20)
        monkeypatch.undo()
        return [getattr(res, f) for f in ("rate_lb_dl", "rate_ub_dl",
                                          "rate_lb_ul", "rate_ub_ul")]

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_same_bits_on_one_and_two_workers(self, monkeypatch, name):
        cfg = self.CONFIGS[name]
        threads = set()
        pooled = self._campaign(monkeypatch, cfg, 2, threads)
        serial = self._campaign(monkeypatch, cfg, 1)
        for got, want in zip(pooled, serial):
            np.testing.assert_array_equal(got, want)
        if bounds._openblas_threads() is not None:
            assert threads and all(t.startswith("cfmimo-ub") for t in threads)

    def test_blas_count_restored(self, monkeypatch):
        blas = bounds._openblas_threads()
        if blas is None:
            pytest.skip("numpy did not load an OpenBLAS with a thread setter")
        get, put = blas
        before = get()
        rng = np.random.default_rng(30)
        links, pilots, est = _mixed_instance(rng)
        args = (links, est, rng.uniform(0.1, 1.0, links.beta.shape),
                rng.uniform(0.2, 1.0, 8), 0.25, 0.42, 100)
        monkeypatch.setattr(bounds, "_cpus", lambda: 2)
        seen, fail_at = [], None            # BLAS count inside each batch

        def spy(*a, **kw):
            seen.append(get())
            if len(seen) == fail_at:
                raise RuntimeError("batch failed")
            return lmmse_estimate(*a, **kw)

        monkeypatch.setattr(bounds, "lmmse_estimate", spy)
        put(2)
        try:
            se_ub_mc(*args, np.random.default_rng(31))
            assert seen == [1] * 2 and get() == 2
            seen, fail_at = [], 2
            with pytest.raises(RuntimeError, match="batch failed"):
                se_ub_mc(*args, np.random.default_rng(31))
            assert get() == 2
        finally:
            put(before)

    def test_threads_keep_their_own_buffers(self, monkeypatch):
        # More threads than cores, each reusing its buffers over batches
        # of 3 trials, with a short switch interval: the rates equal the
        # serial ones bit for bit, which a buffer that two threads write
        # would break.
        if bounds._openblas_threads() is None:
            pytest.skip("numpy did not load an OpenBLAS with a thread setter")
        rng = np.random.default_rng(34)
        links, pilots, est = _mixed_instance(rng)
        args = (links, est, rng.uniform(0.1, 1.0, links.beta.shape),
                rng.uniform(0.2, 1.0, 8), 0.25, 0.42, 60)
        monkeypatch.setattr(bounds, "UB_BATCH_BYTES", 3 * 16 * 8 * 5 * 3)
        monkeypatch.setattr(bounds, "_cpus", lambda: 1)
        serial = se_ub_mc(*args, np.random.default_rng(35))
        monkeypatch.setattr(bounds, "_cpus", lambda: 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = se_ub_mc(*args, np.random.default_rng(35))
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(pooled, serial):
            np.testing.assert_array_equal(got, want)

    def test_serial_without_blas_symbol(self, monkeypatch):
        rng = np.random.default_rng(32)
        links, pilots, est = _mixed_instance(rng)
        args = (links, est, rng.uniform(0.1, 1.0, links.beta.shape),
                rng.uniform(0.2, 1.0, 8), 0.25, 0.42, 70)
        monkeypatch.setattr(bounds, "_cpus", lambda: 2)
        pooled = se_ub_mc(*args, np.random.default_rng(33))
        monkeypatch.setattr(bounds, "_openblas_threads", lambda: None)
        threads = set()

        def spy(*a, **kw):
            threads.add(threading.current_thread())
            return lmmse_estimate(*a, **kw)

        monkeypatch.setattr(bounds, "lmmse_estimate", spy)
        serial = se_ub_mc(*args, np.random.default_rng(33))
        assert threads == {threading.current_thread()}
        for got, want in zip(serial, pooled):
            np.testing.assert_array_equal(got, want)


class TestLbBelowUb:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), K=st.integers(1, 6),
           A=st.integers(1, 4), N=st.integers(1, 3),
           mode=st.sampled_from(["CF", "UC"]),
           policy=st.sampled_from(["PPA", "WFPC"]))
    def test_lb_within_three_stderr_of_ub(self, seed, K, A, N, mode, policy):
        # The closed-form lower bound never exceeds the Monte-Carlo upper
        # bound by more than 3 standard errors, in either direction, on a
        # drop of Rayleigh, Ricean and pure-LOS links with shared pilots.
        rng = np.random.default_rng(seed)
        links = random_links(rng, K, A, N)
        kind = rng.integers(0, 3, (K, A))
        links.los_frac[kind == 0] = 0.0
        links.los_frac[kind == 2] = 1.0
        pilots = rng.integers(0, max(K - 1, 1), K)
        assoc = associate(mode, links.beta, int(rng.integers(1, A + 1)))
        est = build_estimators(links, pilots, rng.uniform(0.5, 2.0, K), 0.3,
                               serving=assoc.serving)
        _, eta_dl = dl_power_allocation(policy, est.gamma, assoc, 0.25, 1.0)
        eta_ul = rng.uniform(0.1, 1.0, K)
        terms = uatf_terms(links, est)
        lb_dl = se_lb(sinr_dl_lb(terms, eta_dl, 0.25), 0.42)
        lb_ul = se_lb(sinr_ul_lb(terms, eta_ul, 0.3), 0.42)
        ub_dl, err_dl, ub_ul, err_ul = se_ub_mc(
            links, est, eta_dl, eta_ul, 0.25, 0.42, 200,
            np.random.default_rng(seed + 1))
        assert np.all(lb_dl <= ub_dl + 3 * err_dl)
        assert np.all(lb_ul <= ub_ul + 3 * err_ul)
