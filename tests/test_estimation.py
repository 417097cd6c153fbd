import numpy as np
import pytest

from cfmimo.channel import sample_channels
from cfmimo import estimation
from cfmimo.errors import NumericalError
from cfmimo.estimation import COND_LIMIT, build_estimators

from conftest import (covariance_G, lmmse_filter_D, random_links,
                      simulate_training)


def unit_steer(rng, n):
    a = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    a[0] = 1.0
    return a


class TestCovarianceG:
    def test_rayleigh_is_scaled_identity(self):
        rng = np.random.default_rng(0)
        a = unit_steer(rng, 4)
        assert np.allclose(covariance_G(2.0, 0.0, a), 2.0 * np.eye(4))

    def test_k1_substitution(self):
        rng = np.random.default_rng(1)
        a = unit_steer(rng, 3)
        G = covariance_G(2.0, 0.5, a)                   # K = 1
        assert np.allclose(G, np.outer(a, np.conj(a)) + np.eye(3))

    def test_trace_is_beta_times_n(self):
        rng = np.random.default_rng(2)
        a = unit_steer(rng, 4)
        for kappa in (0.0, 0.5 / 1.5, 3.0 / 4.0, 100.0 / 101.0, 1.0):
            G = covariance_G(1.7, kappa, a)
            assert np.trace(G).real == pytest.approx(1.7 * 4)
            # Hermitian PSD
            assert np.allclose(G, G.conj().T)
            assert np.min(np.linalg.eigvalsh(G)) >= -1e-12

    def test_pure_los(self):
        rng = np.random.default_rng(3)
        a = unit_steer(rng, 4)
        assert np.allclose(covariance_G(2.0, 1.0, a),
                           2.0 * np.outer(a, np.conj(a)))


def pilot_gram_B(links, pilot_index, train_powers, sigma_w2):
    """Each user's pilot gram (K, A, N, N), as build_estimators forms it."""
    grams, row = estimation._pilot_grams(links, pilot_index, train_powers,
                                         sigma_w2)
    return grams[row]


class TestPilotGramB:
    def test_single_user_no_contamination(self):
        rng = np.random.default_rng(4)
        links = random_links(rng, 1, 2, 3)
        G = covariance_G(links.beta, links.los_frac, links.steering)
        B = pilot_gram_B(links, [0], [2.0], 0.5)
        assert np.allclose(B[0], 2.0 * G[0] + 0.5 * np.eye(3))

    def test_shared_pilot_two_term_sum(self):
        rng = np.random.default_rng(5)
        links = random_links(rng, 3, 1, 2)
        G = covariance_G(links.beta, links.los_frac, links.steering)
        eta = np.array([1.0, 2.0, 3.0])
        B = pilot_gram_B(links, [0, 0, 1], eta, 0.5)
        assert np.allclose(B[0], 1.0 * G[0] + 2.0 * G[1] + 0.5 * np.eye(2))
        assert np.allclose(B[0], B[1])
        assert np.allclose(B[2], 3.0 * G[2] + 0.5 * np.eye(2))

    def test_matches_sample_covariance_of_despread_observation(self):
        links, pilots, eta, sw2, est = _small(seed=7)
        B = pilot_gram_B(links, pilots, eta, sw2)
        rng = np.random.default_rng(8)
        n_draws, acc = 200000, 0
        cov = np.zeros((3, 2, 2, 2), dtype=complex)  # (K, A, N, N)
        for _ in range(10):
            g = sample_channels(links.beta, links.los_frac, links.steering,
                                rng, n_draws=n_draws // 10)
            y, _ = simulate_training(g, pilots, eta, sw2, 2, rng)
            cov += np.einsum("tkan,tkam->kanm", y, np.conj(y))
        cov /= n_draws
        rel = np.linalg.norm(cov - B) / np.linalg.norm(B)
        assert rel < 0.01


def _small(seed):
    rng = np.random.default_rng(seed)
    links = random_links(rng, 3, 2, 2)
    pilots = np.array([0, 0, 1])
    eta = np.array([1.5, 0.8, 1.2])
    sw2 = 0.3
    est = build_estimators(links, pilots, eta, sw2)
    return links, pilots, eta, sw2, est


def _one_link(beta, los_frac, n, seed=0):
    """One user on one AP with n antennas."""
    links = random_links(np.random.default_rng(seed), 1, 1, n)
    links.beta[:] = beta
    links.los_frac[:] = los_frac
    return links


class TestLmmseFilter:
    """The filters build_estimators solves."""

    def test_rayleigh_single_user_scalar_form(self):
        beta, eta, sw2, n = 1.7, 2.0, 0.4, 3
        D = build_estimators(_one_link(beta, 0.0, n), [0], [eta], sw2).D
        expected = np.sqrt(eta) * beta / (eta * beta + sw2) * np.eye(n)
        assert np.allclose(D[0, 0], expected)

    def test_vanishes_with_noise(self):
        D = build_estimators(_one_link(1.5, 0.0, 2), [0], [1.0], 1e12).D
        assert np.linalg.norm(D) < 1e-10

    def test_singular_gram_rejected(self):
        with pytest.raises(NumericalError):
            estimation._check_conditioned(np.diag([1.0, 1e-15]))
        # A pure-LOS link 1e15 above the noise: cond(B) = 1 + 2e15.
        with pytest.raises(NumericalError, match="pilot gram"):
            build_estimators(_one_link(1.0, 1.0, 2), [0], [1.0], 1e-15)

    def test_matches_dense_oracle(self):
        # D and gamma on Rayleigh, Ricean and pure-LOS links, users 0, 1
        # and 3 on one pilot, against the dense sqrt(eta) G B^{-1}.
        rng = np.random.default_rng(38)
        links = random_links(rng, 4, 3, 3)
        links.los_frac[1, :2] = 1.0
        links.los_frac[2] = 0.0
        links.beta[1] *= 30.0
        pilots, eta, sw2 = np.array([0, 0, 1, 0]), rng.uniform(0.5, 2, 4), 0.2
        est = build_estimators(links, pilots, eta, sw2)
        G = covariance_G(links.beta, links.los_frac, links.steering)
        same = (pilots[:, None] == pilots).astype(float)
        B = np.einsum("ku,u,uanm->kanm", same, eta, G) + sw2 * np.eye(3)
        D = lmmse_filter_D(G, B, eta[:, None])
        np.testing.assert_allclose(est.D, D, rtol=0,
                                   atol=1e-12 * np.abs(D).max())
        gamma = np.sqrt(eta)[:, None] * np.einsum("kanm,kamn->ka", G, D)
        np.testing.assert_allclose(est.gamma, gamma.real, rtol=1e-12)

    def test_orthogonality_principle(self):
        # E[(g - g_hat) y_hat^H] -> 0
        links, pilots, eta, sw2, est = _small(seed=9)
        rng = np.random.default_rng(10)
        n_draws = 200000
        acc = np.zeros((3, 2, 2, 2), dtype=complex)
        for _ in range(10):
            g = sample_channels(links.beta, links.los_frac, links.steering,
                                rng, n_draws=n_draws // 10)
            y, _ = simulate_training(g, pilots, eta, sw2, 2, rng)
            ghat = np.einsum("kanm,tkam->tkan", est.D, y)
            acc += np.einsum("tkan,tkam->kanm", g - ghat, np.conj(y))
        resid = np.linalg.norm(acc / n_draws)
        assert resid < 0.02


class TestBuildEstimators:
    def test_one_singular_pilot_gram_rejected(self):
        # A pure-LOS link 1e13 times above the training noise leaves its
        # pilot's gram at that AP rank-one up to the noise floor, with a
        # condition number past COND_LIMIT; every other gram is benign.
        rng = np.random.default_rng(31)
        links = random_links(rng, 4, 3, 2)
        pilots = np.array([0, 0, 1, 2])
        links.los_frac[1, 2] = 1.0
        build_estimators(links, pilots, np.ones(4), 1.0)
        links.beta[1, 2] = 1e13
        with pytest.raises(NumericalError, match="pilot gram"):
            build_estimators(links, pilots, np.ones(4), 1.0)


    def test_served_links_match_the_all_links_build(self):
        # A ragged user-centric mask: a row with one AP, a full row and an
        # AP that serves nobody.
        rng = np.random.default_rng(34)
        links = random_links(rng, 6, 5, 3)
        links.los_frac[4, 1:3] = 1.0
        pilots = np.array([0, 1, 0, 2, 1, 0])
        eta = rng.uniform(0.5, 2.0, 6)
        mask = rng.random((6, 5)) < 0.5
        mask[:, 3] = False
        mask[0] = [False, False, True, False, False]
        mask[5] = [True, True, True, False, True]
        full = build_estimators(links, pilots, eta, 0.3)
        part = build_estimators(links, pilots, eta, 0.3, serving=mask)
        assert full.served.all()
        np.testing.assert_array_equal(part.served, mask)
        for name in ("pilot_index", "train_powers"):
            np.testing.assert_array_equal(getattr(part, name),
                                          getattr(full, name))
        for name in ("D", "gamma"):
            got, want = getattr(part, name), getattr(full, name)
            np.testing.assert_array_equal(got[mask], want[mask])
            assert np.all(got[~mask] == 0)
        # An all-ones mask is the same build as serving=None.
        every = build_estimators(links, pilots, eta, 0.3,
                                 serving=np.ones((6, 5), bool))
        np.testing.assert_array_equal(every.D, full.D)
        np.testing.assert_array_equal(every.gamma, full.gamma)


def _grams_of_condition(rng, ratios, n=4, sigma_w2=0.7):
    """Hermitian grams sigma_w^2 I + c u u^H (a pure-LOS pilot gram), one
    per ratio, with condition number ratio * COND_LIMIT, so that their
    bound tr(B)/sigma_w^2 sits just above it."""
    grams = []
    for r in ratios:
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u /= np.linalg.norm(u)
        c = (r * COND_LIMIT - 1.0) * sigma_w2
        grams.append(sigma_w2 * np.eye(n) + c * np.outer(u, u.conj()))
    return np.array(grams)


class TestGramBound:
    """_check_grams screens grams with cond <= tr(B)/sigma_w^2 and must raise
    exactly when the full eigvalsh check does."""

    @staticmethod
    def _raises(check, *args):
        try:
            check(*args)
        except NumericalError:
            return True
        return False

    @pytest.mark.parametrize("ratio", [0.4, 0.6, 2.0])
    def test_same_verdict_as_eigvalsh(self, ratio, monkeypatch):
        rng = np.random.default_rng(35)
        grams = _grams_of_condition(rng, [ratio])
        ew = np.linalg.eigvalsh(grams)
        assert ew[0, -1] / ew[0, 0] == pytest.approx(ratio * COND_LIMIT,
                                                     rel=1e-3)
        checked = []
        full = estimation._check_conditioned
        monkeypatch.setattr(estimation, "_check_conditioned",
                            lambda B: (checked.append(len(B)), full(B)))
        want = self._raises(full, grams)
        assert want == (ratio > 1)
        assert self._raises(estimation._check_grams, grams, 0.7) == want
        # Only the 0.4x gram is cleared by its bound, without eigvalsh.
        assert checked[-1] == (0 if ratio < 0.5 else 1)

    def test_mixed_batch_and_zero_noise(self):
        rng = np.random.default_rng(36)
        ok = _grams_of_condition(rng, [0.4, 0.6, 1e-9])
        bad = _grams_of_condition(rng, [0.4, 2.0, 0.6])
        estimation._check_grams(ok, 0.7)
        with pytest.raises(NumericalError):
            estimation._check_grams(bad, 0.7)
        # With sigma_w^2 = 0 the bound is void and every gram is checked:
        # a singular PSD sum must still raise.
        singular = ok - 0.7 * np.eye(4)
        assert self._raises(estimation._check_conditioned, singular)
        with pytest.raises(NumericalError):
            estimation._check_grams(singular, 0.0)

    def test_through_build_estimators_at_zero_noise(self):
        # Pure-LOS links with sigma_w^2 = 0 leave every gram singular.
        rng = np.random.default_rng(37)
        links = random_links(rng, 2, 2, 3)
        links.los_frac[:] = 1.0
        with pytest.raises(NumericalError, match="pilot gram"):
            build_estimators(links, [0, 1], np.ones(2), 0.0)


class TestSimulateTraining:
    """The training oracle the Monte-Carlo checks above draw from."""

    def test_noise_free_single_user(self):
        rng = np.random.default_rng(11)
        links = random_links(rng, 1, 2, 3)
        g = sample_channels(links.beta, links.los_frac, links.steering, rng)
        y, _ = simulate_training(g, [0], [4.0], 0.0, 2, rng)
        assert np.allclose(y[0], 2.0 * g[0])

    def test_orthogonal_pilots_no_cross_term(self):
        rng = np.random.default_rng(12)
        links = random_links(rng, 2, 1, 2)
        g = sample_channels(links.beta, links.los_frac, links.steering, rng)
        y, _ = simulate_training(g, [0, 1], [1.0, 1.0], 0.0, 2, rng)
        assert np.allclose(y[0], g[0])
        assert np.allclose(y[1], g[1])

    def test_despread_equals_Y_times_pilot(self):
        rng = np.random.default_rng(13)
        links = random_links(rng, 3, 2, 2)
        g = sample_channels(links.beta, links.los_frac, links.steering, rng)
        pilots = np.array([0, 1, 0])
        eta = np.array([1.0, 2.0, 3.0])
        y, Y = simulate_training(g, pilots, eta, 0.2, 4, rng)
        # Users 0 and 2 share pilot 0: both observe the sum of their
        # channels and the same noise; pilots 2 and 3 carry noise only.
        both = np.sqrt(eta[0]) * g[0] + np.sqrt(eta[2]) * g[2]
        np.testing.assert_allclose(y[0], Y[..., 0])
        np.testing.assert_allclose(y[2], Y[..., 0])
        np.testing.assert_allclose(y[1], Y[..., 1])
        noise = np.stack([y[0] - both, y[1] - np.sqrt(eta[1]) * g[1],
                          Y[..., 2], Y[..., 3]])
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(0.2, rel=0.75)

    def test_despread_noise_shared_within_pilot(self):
        rng = np.random.default_rng(14)
        y, _ = simulate_training(np.zeros((3, 2, 3)), [0, 0, 1],
                                 np.ones(3), 0.5, 2, rng)
        assert np.array_equal(y[0], y[1])
        assert not np.array_equal(y[0], y[2])


class TestGammaCoeff:
    """gamma = sqrt(eta) tr(G D) = E[||g_hat||^2] from build_estimators."""

    def test_rayleigh_single_user_closed_form(self):
        beta, eta, sw2, n = 1.3, 2.5, 0.7, 4
        links = _one_link(beta, 0.0, n)
        G = covariance_G(links.beta, links.los_frac, links.steering)[0, 0]
        D = lmmse_filter_D(G, eta * G + sw2 * np.eye(n), eta)
        want = n * eta * beta ** 2 / (eta * beta + sw2)
        assert np.sqrt(eta) * np.trace(G @ D).real == pytest.approx(
            want, rel=1e-12)
        gamma = build_estimators(links, [0], [eta], sw2).gamma[0, 0]
        assert gamma == pytest.approx(want, rel=1e-12)

    def test_vanishes_with_noise(self):
        est = build_estimators(_one_link(1.0, 0.0, 3), [0], [1.0], 1e12)
        assert est.gamma[0, 0] < 1e-10

    def test_matches_mean_estimate_norm(self):
        links, pilots, eta, sw2, est = _small(seed=15)
        rng = np.random.default_rng(16)
        n_draws = 200000
        acc = np.zeros((3, 2))
        for _ in range(10):
            g = sample_channels(links.beta, links.los_frac, links.steering,
                                rng, n_draws=n_draws // 10)
            y, _ = simulate_training(g, pilots, eta, sw2, 2, rng)
            ghat = np.einsum("kanm,tkam->tkan", est.D, y)
            acc += np.einsum("tkan->ka", np.abs(ghat) ** 2)
        assert np.allclose(acc / n_draws, est.gamma, rtol=0.01)

    def test_monotone_in_training_power(self):
        rng = np.random.default_rng(17)
        links = random_links(rng, 1, 1, 3)
        prev = -1.0
        for eta in (0.1, 0.5, 1.0, 5.0, 20.0):
            est = build_estimators(links, [0], [eta], 0.3)
            g = float(est.gamma[0, 0])
            assert g >= prev
            prev = g
