import itertools

import numpy as np
import pytest

from cfmimo.allocation import (AssociationMap, associate,
                               dl_power_allocation, fpc, ppa,
                               waterfill_level, wfpc)
from cfmimo.errors import ConfigurationError


# Each check that rejects a bad argument, with its message: a case fails
# if its check is deleted, also where a later check would raise the same
# type. ONE and SERVED are one AP's gammas and serving mask.
ONE, SERVED = np.ones(2), np.ones(2, dtype=bool)
BUDGET = "DL budget must be positive"


@pytest.mark.parametrize("call, match", [
    (lambda: associate("XX", np.ones((2, 3)), 1), "unknown association mode"),
    (lambda: ppa(ONE, SERVED, 0.0), BUDGET),
    (lambda: ppa(ONE, SERVED, -1.0), BUDGET),
    (lambda: wfpc(ONE, SERVED, 0.1, 0.0), BUDGET),
    (lambda: wfpc(ONE, SERVED, 0.1, -1.0), BUDGET),
    (lambda: dl_power_allocation("XX", ONE[:, None],
                                 AssociationMap(SERVED[:, None]), 0.1, 1.0),
     "unknown DL policy"),
], ids=["associate_mode", "ppa_zero_budget", "ppa_negative_budget",
        "wfpc_zero_budget", "wfpc_negative_budget", "dl_policy"])
def test_bad_argument_is_a_configuration_error(call, match):
    with pytest.raises(ConfigurationError, match=match):
        call()


class TestAssociate:
    def test_cf_serves_everyone(self):
        beta = np.random.default_rng(0).uniform(size=(5, 100))
        assoc = associate("CF", beta)
        assert assoc.serving.all()
        assert assoc.serving[0].sum() == 100

    def test_uc_full_cluster_equals_cf(self):
        beta = np.random.default_rng(1).uniform(size=(4, 7))
        assert associate("UC", beta, 7).serving.all()

    def test_uc_matches_sort_oracle(self):
        rng = np.random.default_rng(2)
        beta = rng.uniform(size=(20, 30))
        assoc = associate("UC", beta, 10)
        for k in range(20):
            expected = set(np.argsort(-beta[k], kind="stable")[:10])
            assert set(np.nonzero(assoc.serving[k])[0]) == expected
            assert assoc.serving[k].sum() == 10

    def test_uc_tie_breaks_to_lower_index(self):
        beta = np.array([[1.0, 2.0, 2.0, 0.5]])
        assoc = associate("UC", beta, 2)
        assert list(np.nonzero(assoc.serving[0])[0]) == [1, 2]
        beta = np.array([[2.0, 2.0, 2.0, 0.5]])
        assert list(np.nonzero(associate("UC", beta, 2).serving[0])[0]) \
            == [0, 1]

    def test_top_selection_maximizes_beta_sum(self):
        # brute force over all subsets on a small AP set
        rng = np.random.default_rng(4)
        beta = rng.uniform(size=(3, 6))
        assoc = associate("UC", beta, 2)
        for k in range(3):
            best = max(sum(beta[k, list(s)])
                       for s in itertools.combinations(range(6), 2))
            chosen = beta[k, assoc.serving[k]].sum()
            assert chosen == pytest.approx(best)

    def test_invalid_cluster_size(self):
        beta = np.ones((2, 3))
        with pytest.raises(ConfigurationError):
            associate("UC", beta, 0)
        with pytest.raises(ConfigurationError):
            associate("UC", beta, 4)


class TestPpa:
    def test_proportional_split(self):
        p = ppa(np.array([1.0, 3.0]), np.array([True, True]), 200.0)
        assert np.allclose(p, [50.0, 150.0])

    def test_single_user_full_budget(self):
        p = ppa(np.array([0.7]), np.array([True]), 200.0)
        assert p[0] == pytest.approx(200.0)

    def test_equal_gammas(self):
        p = ppa(np.full(5, 2.0), np.ones(5, bool), 200.0)
        assert np.allclose(p, 40.0)

    def test_unserved_get_zero(self):
        p = ppa(np.array([1.0, 1.0, 1.0]), np.array([True, False, True]), 90.0)
        assert p[1] == 0.0 and p.sum() == pytest.approx(90.0)

    def test_all_zero_gamma_transmits_nothing(self):
        p = ppa(np.zeros(3), np.ones(3, bool), 200.0)
        assert np.all(p == 0.0)


class TestWfpc:
    def test_two_user_closed_form_high_budget(self):
        p = wfpc(np.array([1.0, 1.0 / 3.0]), np.ones(2, bool), 1.0, 4.0)
        # levels L = (1, 3), budget 4 -> nu = 4, P = (3, 1)
        assert np.allclose(p, [3.0, 1.0])

    def test_two_user_closed_form_low_budget(self):
        p = wfpc(np.array([1.0, 1.0 / 3.0]), np.ones(2, bool), 1.0, 1.0)
        # nu = 2: second user below water
        assert np.allclose(p, [1.0, 0.0])

    def test_zero_gamma_excluded(self):
        p = wfpc(np.array([1.0, 0.0]), np.ones(2, bool), 1.0, 5.0)
        assert p[1] == 0.0 and p[0] == pytest.approx(5.0)

    def _bisect_level(self, levels, budget):
        lo, hi = levels.min(), levels.max() + budget
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.maximum(mid - levels, 0).sum() > budget:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            levels = rng.uniform(0.1, 10.0, 20)
            budget = rng.uniform(0.5, 50.0)
            nu = waterfill_level(levels, budget)
            assert nu == pytest.approx(self._bisect_level(levels, budget),
                                       abs=1e-9)

    def test_budget_exact_and_kkt(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = rng.integers(1, 12)
            gamma = rng.uniform(0.01, 5.0, n)
            served = rng.random(n) < 0.8
            if not served.any():
                served[0] = True
            budget = rng.uniform(0.1, 100.0)
            sz2 = rng.uniform(0.01, 2.0)
            p = wfpc(gamma, served, sz2, budget)
            assert p[~served].sum() == 0.0
            assert p.sum() == pytest.approx(budget, rel=1e-12)
            L = sz2 / gamma[served]
            nu = waterfill_level(L, budget)
            act = p[served] > 0
            assert np.allclose(p[served][act] + L[act], nu)
            assert np.all(L[~act] >= nu - 1e-12)
            # dry users are exactly those at or above the water level
            assert np.array_equal(act, L < nu)

    @pytest.mark.parametrize("budget", [1e-6, 1.0, 200.0])
    def test_tiny_gammas_do_not_absorb_the_budget(self, budget):
        # Levels L = 1 / gamma of 1e21..1e23: each AP's budget goes to its
        # lowest-level user alone, and is not lost in the rounding of L.
        rng = np.random.default_rng(47)
        gamma = 10.0 ** rng.uniform(-23, -21, (12, 8))
        P = wfpc(gamma, np.ones((12, 8), bool), 1.0, budget)
        np.testing.assert_allclose(P.sum(axis=0), budget, rtol=1e-12)
        np.testing.assert_array_equal(P > 0, gamma == gamma.max(axis=0))


class TestFpc:
    def test_reference_arithmetic(self):
        # zeta = 1, P0 = -35 dBm, alpha = 0.5 -> 10^-3.5 mW, below the cap
        eta = fpc(np.array([[0.5]]), np.array([[True]]) * 0 + 1,
                  10 ** -3.5, 0.5, 100.0)
        # zeta = sqrt(0.5^2) = 0.5 -> eta = P0 * 0.5^-0.5
        assert eta[0] == pytest.approx(10 ** -3.5 * 0.5 ** -0.5)
        eta1 = fpc(np.array([[1.0]]), np.ones((1, 1)), 10 ** -3.5, 0.5, 100.0)
        assert eta1[0] == pytest.approx(10 ** -3.5)

    def test_clamp_branch(self):
        # zeta = 1e-13 -> P0 * zeta^-0.5 = 10^3 mW, above the 100 mW cap
        eta = fpc(np.array([[1e-13]]), np.ones((1, 1)), 10 ** -3.5, 0.5, 100.0)
        assert eta[0] == 100.0

    def test_zero_channel_clamps(self):
        eta = fpc(np.array([[0.0]]), np.ones((1, 1)), 10 ** -3.5, 0.5, 100.0)
        assert eta[0] == 100.0

    def test_single_ap_trace_identity(self):
        # with one serving AP, zeta equals tr(G) = beta * N
        beta, n = 0.3, 4
        eta = fpc(np.array([[beta * n]]), np.ones((1, 1)), 1.0, 0.5, 1e9)
        assert eta[0] == pytest.approx((beta * n) ** -0.5)

    def test_monotone_nonincreasing_and_capped(self):
        zetas = np.logspace(-8, 4, 60)
        etas = np.array([fpc(np.array([[z]]), np.ones((1, 1)),
                             10 ** -3.5, 0.5, 100.0)[0] for z in zetas])
        assert np.all(np.diff(etas) <= 1e-15)
        assert np.all(etas <= 100.0)


class TestDlPowerAllocation:
    def test_budgets_met_for_both_policies(self):
        rng = np.random.default_rng(7)
        gamma = rng.uniform(0.01, 2.0, (8, 5))
        from cfmimo.allocation import associate
        assoc = associate("UC", rng.uniform(size=(8, 5)), 3)
        for policy in ("PPA", "WFPC"):
            P, eta_dl = dl_power_allocation(policy, gamma, assoc, 0.2, 200.0)
            assert np.allclose(P.sum(axis=0), 200.0, rtol=1e-12)
            assert np.allclose(P, eta_dl * gamma)
            assert np.all(P[~assoc.serving] == 0.0)


def _per_ap_oracle(policy, gamma, serving, sigma_z2, budget):
    """The per-AP loop the vectorized policies replaced, kept as oracle."""
    P = np.zeros(gamma.shape)
    for a in range(gamma.shape[1]):
        g, served = gamma[:, a], serving[:, a]
        if not served.any():
            continue
        if policy == "PPA":
            tot = g[served].sum()
            if tot > 0:
                P[served, a] = budget * g[served] / tot
            continue
        active = served & (g > 0)
        if not active.any():
            continue
        L = sigma_z2 / g[active]
        Ls = np.sort(L)
        csum = np.cumsum(Ls)
        for m in range(len(Ls), 0, -1):
            nu = (budget + csum[m - 1]) / m
            if nu > Ls[m - 1]:
                break
        P[active, a] = np.maximum(nu - L, 0.0)
    return P


def _random_drops():
    """(gamma, serving, sigma_z2, budget) of 60 drops: CF and UC masks over
    1..140 users (past numpy's 128-term pairwise summation block), with
    zero gammas, APs that serve nobody, APs whose served users all have
    gamma 0 and all-zero gamma drops (every 7th)."""
    rng = np.random.default_rng(44)
    for trial in range(60):
        K, A = int(rng.integers(1, 141)), int(rng.integers(1, 30))
        gamma = (rng.uniform(size=(K, A))
                 * 10.0 ** rng.uniform(-14, -6, (K, A)))
        gamma[rng.random((K, A)) < 0.1] = 0.0
        if trial % 2:
            serving = np.ones((K, A), bool)
        else:
            serving = associate("UC", rng.uniform(size=(K, A)),
                                int(rng.integers(1, A + 1))).serving
            serving[:, 0] = False                   # serves nobody
            gamma[:, min(1, A - 1)] = 0.0           # served, all dry
        if trial % 7 == 0:
            gamma[:] = 0.0
        yield gamma, serving, 10.0 ** rng.uniform(-12, -8), \
            rng.uniform(0.1, 300.0)


POLICIES = pytest.mark.parametrize("policy", ["PPA", "WFPC"])


class TestVectorizedPolicies:
    @POLICIES
    def test_match_per_ap_loop_bit_for_bit(self, policy):
        # The name is kept for the node id: this test no longer asserts bit
        # equality with the loop. The column sums (PPA) and the water level
        # solved relative to each AP's lowest level (WFPC) round differently
        # from the loop's, by at most ~1e-13 relative; which links get
        # power does not change.
        for gamma, serving, sz2, budget in _random_drops():
            P, eta_dl = dl_power_allocation(policy, gamma,
                                            AssociationMap(serving), sz2,
                                            budget)
            want = _per_ap_oracle(policy, gamma, serving, sz2, budget)
            np.testing.assert_array_equal(P > 0, want > 0)
            np.testing.assert_allclose(P, want, rtol=1e-12, atol=0)
            if not gamma.any():
                assert np.all(P == 0) and np.all(eta_dl == 0)

    @POLICIES
    def test_permuting_users_and_aps_permutes_the_powers(self, policy):
        rng = np.random.default_rng(46)
        for gamma, serving, sz2, budget in _random_drops():
            K, A = gamma.shape
            P = dl_power_allocation(policy, gamma, AssociationMap(serving),
                                    sz2, budget)[0]
            for rows, cols in ((rng.permutation(K), slice(None)),
                               (slice(None), rng.permutation(A))):
                got = dl_power_allocation(
                    policy, gamma[rows][:, cols],
                    AssociationMap(serving[rows][:, cols]), sz2, budget)[0]
                want = P[rows][:, cols]
                np.testing.assert_array_equal(got > 0, want > 0)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_waterfill_level_per_column(self):
        # +inf levels sit outside the pool; each column matches a 1-D call.
        rng = np.random.default_rng(45)
        L = rng.uniform(0.1, 10.0, (9, 6))
        L[rng.random((9, 6)) < 0.4] = np.inf
        L[0] = rng.uniform(0.1, 10.0, 6)
        nu = waterfill_level(L, 3.0)
        assert nu.shape == (6,)
        for a in range(6):
            assert nu[a] == waterfill_level(L[np.isfinite(L[:, a]), a], 3.0)
        with pytest.raises(ConfigurationError):
            waterfill_level(np.full((3, 2), np.inf), 3.0)
