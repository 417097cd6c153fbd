import numpy as np
import pytest

from cfmimo.channel import PURE_LOS, sample_channels
from cfmimo.errors import NumericalError
from cfmimo.estimation import (build_estimators, covariance_G, despread_noise,
                               gamma_coeff, lmmse_filter_D, pilot_gram_B,
                               simulate_training)

from conftest import random_links


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
        G = covariance_G(2.0, 1.0, a)
        assert np.allclose(G, np.outer(a, np.conj(a)) + np.eye(3))

    def test_trace_is_beta_times_n(self):
        rng = np.random.default_rng(2)
        a = unit_steer(rng, 4)
        for k in (0.0, 0.5, 3.0, 100.0, PURE_LOS):
            G = covariance_G(1.7, k, a)
            assert np.trace(G).real == pytest.approx(1.7 * 4)
            # Hermitian PSD
            assert np.allclose(G, G.conj().T)
            assert np.min(np.linalg.eigvalsh(G)) >= -1e-12

    def test_pure_los(self):
        rng = np.random.default_rng(3)
        a = unit_steer(rng, 4)
        assert np.allclose(covariance_G(2.0, PURE_LOS, a),
                           2.0 * np.outer(a, np.conj(a)))


class TestPilotGramB:
    def test_single_user_no_contamination(self):
        rng = np.random.default_rng(4)
        links = random_links(rng, 1, 2, 3)
        G = covariance_G(links.beta, links.rice_k, links.steering)
        B = pilot_gram_B(G, [0], [2.0], 0.5)
        assert np.allclose(B[0], 2.0 * G[0] + 0.5 * np.eye(3))

    def test_shared_pilot_two_term_sum(self):
        rng = np.random.default_rng(5)
        links = random_links(rng, 3, 1, 2)
        G = covariance_G(links.beta, links.rice_k, links.steering)
        eta = np.array([1.0, 2.0, 3.0])
        B = pilot_gram_B(G, [0, 0, 1], eta, 0.5)
        assert np.allclose(B[0], 1.0 * G[0] + 2.0 * G[1] + 0.5 * np.eye(2))
        assert np.allclose(B[0], B[1])
        assert np.allclose(B[2], 3.0 * G[2] + 0.5 * np.eye(2))

    def test_beta_weighted_adds_beta_factor(self):
        rng = np.random.default_rng(6)
        links = random_links(rng, 2, 1, 2)
        G = covariance_G(links.beta, links.rice_k, links.steering)
        eta = np.array([1.0, 2.0])
        B = pilot_gram_B(G, [0, 0], eta, 0.5, beta=links.beta,
                         beta_weighted=True)
        expected = (eta[0] * links.beta[0, 0] * G[0]
                    + eta[1] * links.beta[1, 0] * G[1] + 0.5 * np.eye(2))
        assert np.allclose(B[0, 0], expected)

    def test_matches_sample_covariance_of_despread_observation(self):
        links, pilots, eta, sw2, est = _small(seed=7)
        rng = np.random.default_rng(8)
        n_draws, acc = 200000, 0
        cov = np.zeros((3, 2, 2, 2), dtype=complex)  # (K, A, N, N)
        for _ in range(10):
            g = sample_channels(links.beta, links.rice_k, links.steering,
                                rng, n_draws=n_draws // 10)
            y = simulate_training(g, pilots, eta, sw2, 2, rng)
            cov += np.einsum("tkan,tkam->kanm", y, np.conj(y))
        cov /= n_draws
        rel = np.linalg.norm(cov - est.B) / np.linalg.norm(est.B)
        assert rel < 0.01


def _small(seed):
    rng = np.random.default_rng(seed)
    links = random_links(rng, 3, 2, 2)
    pilots = np.array([0, 0, 1])
    eta = np.array([1.5, 0.8, 1.2])
    sw2 = 0.3
    est = build_estimators(links, pilots, eta, sw2)
    return links, pilots, eta, sw2, est


class TestLmmseFilter:
    def test_rayleigh_single_user_scalar_form(self):
        beta, eta, sw2, n = 1.7, 2.0, 0.4, 3
        G = beta * np.eye(n)
        B = eta * G + sw2 * np.eye(n)
        D = lmmse_filter_D(G, B, eta)
        expected = np.sqrt(eta) * beta / (eta * beta + sw2) * np.eye(n)
        assert np.allclose(D, expected)

    def test_vanishes_with_noise(self):
        G = 1.5 * np.eye(2)
        D = lmmse_filter_D(G, 1.0 * G + 1e12 * np.eye(2), 1.0)
        assert np.linalg.norm(D) < 1e-10

    def test_singular_gram_rejected(self):
        G = np.eye(2)
        B = np.diag([1.0, 1e-15])
        with pytest.raises(NumericalError):
            lmmse_filter_D(G, B, 1.0)

    def test_orthogonality_principle(self):
        # E[(g - g_hat) y_hat^H] -> 0
        links, pilots, eta, sw2, est = _small(seed=9)
        rng = np.random.default_rng(10)
        n_draws = 200000
        acc = np.zeros((3, 2, 2, 2), dtype=complex)
        for _ in range(10):
            g = sample_channels(links.beta, links.rice_k, links.steering,
                                rng, n_draws=n_draws // 10)
            y = simulate_training(g, pilots, eta, sw2, 2, rng)
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
        links.rice_k[1, 2] = PURE_LOS
        build_estimators(links, pilots, np.ones(4), 1.0)
        links.beta[1, 2] = 1e13
        with pytest.raises(NumericalError, match="pilot gram"):
            build_estimators(links, pilots, np.ones(4), 1.0)


class TestSimulateTraining:
    def test_noise_free_single_user(self):
        rng = np.random.default_rng(11)
        links = random_links(rng, 1, 2, 3)
        g = sample_channels(links.beta, links.rice_k, links.steering, rng)
        y = simulate_training(g, [0], [4.0], 0.0, 2, rng)
        assert np.allclose(y[0], 2.0 * g[0])

    def test_orthogonal_pilots_no_cross_term(self):
        rng = np.random.default_rng(12)
        links = random_links(rng, 2, 1, 2)
        g = sample_channels(links.beta, links.rice_k, links.steering, rng)
        y = simulate_training(g, [0, 1], [1.0, 1.0], 0.0, 2, rng)
        assert np.allclose(y[0], g[0])
        assert np.allclose(y[1], g[1])

    def test_despread_equals_Y_times_pilot(self):
        rng = np.random.default_rng(13)
        links = random_links(rng, 3, 2, 2)
        g = sample_channels(links.beta, links.rice_k, links.steering, rng)
        pilots = np.array([0, 1, 0])
        y, Y = simulate_training(g, pilots, [1.0, 2.0, 3.0], 0.2, 4, rng,
                                 return_Y=True)
        phi = np.eye(4)
        for k in range(3):
            assert np.allclose(y[k], Y @ phi[:, pilots[k]])

    def test_despread_noise_shared_within_pilot(self):
        rng = np.random.default_rng(14)
        w = despread_noise([0, 0, 1], 2, 3, 0.5, rng)
        assert np.array_equal(w[0], w[1])
        assert not np.array_equal(w[0], w[2])


class TestGammaCoeff:
    def test_rayleigh_single_user_closed_form(self):
        beta, eta, sw2, n = 1.3, 2.5, 0.7, 4
        G = beta * np.eye(n)
        B = eta * G + sw2 * np.eye(n)
        D = lmmse_filter_D(G, B, eta)
        gamma = gamma_coeff(G, D, eta)
        assert gamma == pytest.approx(n * eta * beta ** 2 / (eta * beta + sw2),
                                      rel=1e-12)

    def test_vanishes_with_noise(self):
        G = np.eye(3)
        D = lmmse_filter_D(G, G + 1e12 * np.eye(3), 1.0)
        assert gamma_coeff(G, D, 1.0) < 1e-10

    def test_matches_mean_estimate_norm(self):
        links, pilots, eta, sw2, est = _small(seed=15)
        rng = np.random.default_rng(16)
        n_draws = 200000
        acc = np.zeros((3, 2))
        for _ in range(10):
            g = sample_channels(links.beta, links.rice_k, links.steering,
                                rng, n_draws=n_draws // 10)
            y = simulate_training(g, pilots, eta, sw2, 2, rng)
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
