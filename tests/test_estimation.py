import dataclasses

import numpy as np
import pytest

from cfmimo.channel import covariance_coeffs
from cfmimo import estimation
from cfmimo.errors import NumericalError
from cfmimo.estimation import COND_LIMIT, build_estimators

from conftest import (applied_filters, channel_block, covariance_G,
                      explicit_block, lmmse_filter_D, lmmse_filters,
                      random_links, simulate_training)


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
    """Each user's pilot gram (K, A, N, N), inverted back from the
    B^{-1} = (I - U M U^H) / alpha that build_estimators holds per gram as
    its thin factors (alpha, conj(U), U M)."""
    est = build_estimators(links, pilot_index, train_powers, sigma_w2)
    A, N = links.steering.shape[1:]
    inv = np.tile(np.eye(N, dtype=complex), (est.alpha.size, 1, 1))
    inv[est.los_gram] -= est.UM @ np.swapaxes(est.U_conj, 1, 2)
    inv /= est.alpha.reshape(-1, 1, 1)
    return np.linalg.inv(inv[est.pilot_index[:, None] * A + np.arange(A)])


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

    @pytest.mark.parametrize("training", ["simulate_training", "block_draw"])
    def test_matches_sample_covariance_of_despread_observation(self,
                                                               training):
        # The pilot-matrix oracle and the library's draw give each user's
        # de-spread observation the covariance of its pilot gram.
        links, pilots, eta, sw2, est = _small(seed=7)
        B = pilot_gram_B(links, pilots, eta, sw2)
        rng = np.random.default_rng(8)
        n_draws = 200000
        cov = np.zeros((3, 2, 2, 2), dtype=complex)  # (K, A, N, N)
        for _ in range(10):
            if training == "block_draw":
                _, y = est.draw(rng, n_draws // 10)
                y = y[:, pilots]
            else:
                g = est.channels(rng, n_draws // 10)
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


def _filters(links, pilots, eta, sw2, serving=None):
    """The filters EstimatorSet.estimate applies for the estimators of a
    drop."""
    est = build_estimators(links, pilots, eta, sw2, serving=serving)
    return applied_filters(links, est)


def _per_pilot(Y):
    """The de-spread observation of every pilot (..., tau_p, A, N) from the
    received matrices Y (..., A, N, tau_p) of simulate_training."""
    return np.ascontiguousarray(np.moveaxis(Y, -1, -3))


class TestLmmseFilter:
    """The filters that EstimatorSet.estimate applies with the estimators
    build_estimators solves."""

    def test_rayleigh_single_user_scalar_form(self):
        beta, eta, sw2, n = 1.7, 2.0, 0.4, 3
        D = _filters(_one_link(beta, 0.0, n), [0], [eta], sw2)
        expected = np.sqrt(eta) * beta / (eta * beta + sw2) * np.eye(n)
        assert np.allclose(D[0, 0], expected)

    def test_vanishes_with_noise(self):
        D = _filters(_one_link(1.5, 0.0, 2), [0], [1.0], 1e12)
        assert np.linalg.norm(D) < 1e-10

    def test_singular_gram_rejected(self):
        # B = diag(1 + 1e-15, 1e-15): alpha = 1e-15 and one LOS user on
        # the first antenna.
        with pytest.raises(NumericalError):
            estimation._check_grams(*_factors(
                np.array([1e-15]), np.array([[[1.0], [0.0]]]),
                np.array([[1.0]])), 0.0)
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
        np.testing.assert_allclose(applied_filters(links, est), D, rtol=0,
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
            g = est.channels(rng, n_draws // 10)
            y, Y = simulate_training(g, pilots, eta, sw2, 2, rng)
            ghat = est.estimate(_per_pilot(Y))
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

    @pytest.mark.parametrize("pilots", [[-1, 0, 0], [0, 0.5, 1], [0, 1],
                                        [[0, 1, 0]]],
                             ids=["negative", "fractional", "too_short",
                                  "two_dimensional"])
    def test_bad_pilot_index_rejected(self, pilots):
        # Flat gram indices pilot * A + a would wrap a negative pilot onto
        # other grams instead of failing.
        links = random_links(np.random.default_rng(32), 3, 2, 2)
        with pytest.raises(ValueError, match="pilot_index"):
            build_estimators(links, pilots, np.ones(3), 1.0)
        est = build_estimators(links, [0, 31, 0], np.ones(3), 1.0)
        assert est.alpha.shape == (32, 2)

    @pytest.mark.parametrize("eta, sw2, match", [
        ([1.0, np.nan, 1.0, 1.0], 0.3, "train_powers"),
        ([1.0, np.inf, 1.0, 1.0], 0.3, "train_powers"),
        ([1.0, -1.0, 1.0, 1.0], 0.3, "train_powers"),
        (np.ones(4), np.nan, "sigma_w2"),
        (np.ones(4), np.inf, "sigma_w2"),
    ], ids=["nan_power", "inf_power", "negative_power", "nan_noise",
            "inf_noise"])
    def test_bad_powers_rejected(self, eta, sw2, match):
        # Unchecked, each gives a NaN gamma, a raw RuntimeWarning or a
        # misnamed singular gram.
        links = random_links(np.random.default_rng(33), 4, 3, 2)
        with pytest.raises(ValueError, match=match):
            build_estimators(links, [0, 1, 0, 2], eta, sw2)

    @pytest.mark.parametrize("field, value, match", [
        ("serving", np.ones(2, dtype=bool), "serving"),
        ("serving", np.ones((2, 3), dtype=bool), "serving"),
        ("beta", -1.0, "beta"),
        ("beta", np.nan, "beta"),
        ("beta", np.inf, "beta"),
        ("los_frac", 1.5, "los_frac"),
        ("los_frac", -0.5, "los_frac"),
        ("los_frac", np.nan, "los_frac"),
    ], ids=["serving_per_ap", "serving_transposed", "negative_beta",
            "nan_beta", "inf_beta", "los_frac_above_one",
            "negative_los_frac", "nan_los_frac"])
    def test_malformed_links_or_mask_rejected(self, field, value, match):
        # Unchecked, a mask of the wrong shape raises a raw IndexError; the
        # bad link values pass silently, leave a NaN gamma or fail later as
        # a misnamed singular gram or downlink SINR.
        links = random_links(np.random.default_rng(35), 3, 2, 2)
        serving = value if field == "serving" else None
        if field != "serving":
            getattr(links, field)[1, 0] = value
        with pytest.raises(ValueError, match=match):
            build_estimators(links, [0, 1, 0], np.ones(3), 1.0,
                             serving=serving)

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
        for got, want in ((applied_filters(links, part),
                           applied_filters(links, full)),
                          (part.gamma, full.gamma)):
            np.testing.assert_array_equal(got[mask], want[mask])
            assert np.all(got[~mask] == 0)
        # An all-ones mask is the same build as serving=None.
        every = build_estimators(links, pilots, eta, 0.3,
                                 serving=np.ones((6, 5), bool))
        np.testing.assert_array_equal(applied_filters(links, every),
                                      applied_filters(links, full))
        np.testing.assert_array_equal(every.gamma, full.gamma)

    def test_a_set_given_another_mask_is_rejected(self):
        # Nothing downstream re-applies the mask, so a set whose gamma or
        # scale is nonzero off it is refused when it is made.
        rng = np.random.default_rng(35)
        links = random_links(rng, 4, 3, 2)
        pilots, eta = np.array([0, 1, 0, 1]), rng.uniform(0.5, 2.0, 4)
        mask = rng.random((4, 3)) < 0.5
        mask[:, 0] = True
        full = build_estimators(links, pilots, eta, 0.3)
        part = build_estimators(links, pilots, eta, 0.3, serving=mask)
        assert not mask.all()
        for base, kw in ((full, dict(served=mask)),
                         (part, dict(gamma=full.gamma)),
                         (part, dict(scale=full.scale))):
            with pytest.raises(ValueError, match="off the serving mask"):
                dataclasses.replace(base, **kw)


def _factors(alpha, U, w):
    """_check_grams' arguments (alpha, U^H U, w, N) for the grams
    B = alpha I + U diag(w) U^H, alpha (G,), U (G, N, r), w (G, r)."""
    return alpha, np.conj(np.swapaxes(U, 1, 2)) @ U, w, U.shape[1]


def _dense_grams(alpha, U, w):
    """Oracle: the grams alpha I + U diag(w) U^H as (G, N, N) matrices."""
    return (alpha[:, None, None] * np.eye(U.shape[1])
            + (U * w[:, None, :]) @ np.conj(np.swapaxes(U, 1, 2)))


def _eigvalsh_rejects(alpha, U, w):
    """Oracle: whether the dense check rejects any of the grams."""
    ew = np.linalg.eigvalsh(_dense_grams(alpha, U, w))
    return bool(np.any(ew[:, 0] <= 0)
                or np.any(ew[:, -1] / ew[:, 0] > COND_LIMIT))


def _grams_of_condition(rng, ratios, n=4, sigma_w2=0.7):
    """Pure-LOS pilot grams sigma_w^2 I + c u u^H with unit u, one per
    ratio, as factors (alpha, U, w), with condition number
    ratio * COND_LIMIT, so that their bound tr(B)/sigma_w^2 sits just
    above it."""
    U, w = [], []
    for r in ratios:
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u /= np.linalg.norm(u)
        U.append(u[:, None])
        w.append([(r * COND_LIMIT - 1.0) * sigma_w2])
    return np.full(len(ratios), sigma_w2), np.array(U), np.array(w)


class TestGramBound:
    """_check_grams screens grams with cond <= tr(B)/sigma_w^2 and must raise
    exactly when the full eigvalsh check of the dense gram does."""

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
        ew = np.linalg.eigvalsh(_dense_grams(*grams))
        assert ew[0, -1] / ew[0, 0] == pytest.approx(ratio * COND_LIMIT,
                                                     rel=1e-3)
        want = _eigvalsh_rejects(*grams)
        assert want == (ratio > 1)
        checked = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda S: (checked.append(len(S)), eigvalsh(S))[1])
        # sigma_w^2 = 0 voids the bound: the full check.
        assert self._raises(estimation._check_grams, *_factors(*grams),
                            0.0) == want
        assert self._raises(estimation._check_grams, *_factors(*grams),
                            0.7) == want
        # Only the 0.4x gram is cleared by its bound, without eigvalsh.
        assert checked[-1] == (0 if ratio < 0.5 else 1)

    def test_mixed_batch_and_zero_noise(self):
        rng = np.random.default_rng(36)
        ok = _grams_of_condition(rng, [0.4, 0.6, 1e-9])
        bad = _grams_of_condition(rng, [0.4, 2.0, 0.6])
        estimation._check_grams(*_factors(*ok), 0.7)
        with pytest.raises(NumericalError):
            estimation._check_grams(*_factors(*bad), 0.7)
        # With sigma_w^2 = 0 the bound is void and every gram is checked:
        # a singular PSD sum must still raise.
        singular = (ok[0] - 0.7,) + ok[1:]
        assert _eigvalsh_rejects(*singular)
        with pytest.raises(NumericalError):
            estimation._check_grams(*_factors(*singular), 0.0)

    @pytest.mark.parametrize("ratio", [0.4, 0.6, 2.0])
    def test_more_los_users_than_antennas(self, ratio):
        # 6 LOS users and a zero-weight slot at N = 4 (r > N): one user
        # sets cond(B) near ratio * COND_LIMIT, five weak ones fill the
        # other directions of B.
        rng = np.random.default_rng(41)
        n, sigma_w2 = 4, 0.7
        U = (rng.standard_normal((1, n, 7))
             + 1j * rng.standard_normal((1, n, 7)))
        U[..., 6] = 0.0
        w = np.zeros((1, 7))
        w[0, 0] = (ratio * COND_LIMIT - 1.0) * sigma_w2 / np.sum(
            np.abs(U[0, :, 0]) ** 2)
        w[0, 1:6] = 1e-6 * sigma_w2
        grams = (np.array([sigma_w2]), U, w)
        want = _eigvalsh_rejects(*grams)
        assert want == (ratio > 1)
        assert self._raises(estimation._check_grams, *_factors(*grams),
                            sigma_w2) == want

    def test_random_factors_match_eigvalsh(self):
        # Grams with N <= 4 and up to 6 LOS users, zero-weight slots among
        # them, and conditions spread around COND_LIMIT: the factor check
        # gives each the dense eigvalsh verdict.
        rng = np.random.default_rng(43)
        verdicts = []
        for _ in range(300):
            n, r = rng.integers(1, 5), rng.integers(1, 7)
            U = rng.standard_normal((1, n, r)) + 1j * rng.standard_normal(
                (1, n, r))
            alpha = rng.uniform(0.5, 2.0, 1)
            w = alpha * 10.0 ** rng.uniform(-3.0, 14.0, (1, r))
            pad = rng.random(r) < 0.3
            U[..., pad], w[:, pad] = 0.0, 0.0
            want = _eigvalsh_rejects(alpha, U, w)
            got = self._raises(estimation._check_grams,
                               *_factors(alpha, U, w), 0.0)
            assert got == want
            verdicts.append(want)
        assert 0 < sum(verdicts) < len(verdicts)

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
        g = channel_block(links).channels(rng, 1)[0]
        y, _ = simulate_training(g, [0], [4.0], 0.0, 2, rng)
        assert np.allclose(y[0], 2.0 * g[0])

    def test_orthogonal_pilots_no_cross_term(self):
        rng = np.random.default_rng(12)
        links = random_links(rng, 2, 1, 2)
        g = channel_block(links).channels(rng, 1)[0]
        y, _ = simulate_training(g, [0, 1], [1.0, 1.0], 0.0, 2, rng)
        assert np.allclose(y[0], g[0])
        assert np.allclose(y[1], g[1])

    def test_despread_equals_Y_times_pilot(self):
        rng = np.random.default_rng(13)
        links = random_links(rng, 3, 2, 2)
        g = channel_block(links).channels(rng, 1)[0]
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
            g = est.channels(rng, n_draws // 10)
            _, Y = simulate_training(g, pilots, eta, sw2, 2, rng)
            ghat = est.estimate(_per_pilot(Y))
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


class TestLmmseEstimate:
    def test_matches_dense_filters_on_observations(self):
        # Rayleigh, Ricean and pure-LOS links, three users on one pilot, a
        # pilot row that no user takes and a ragged mask: the estimates
        # equal the dense oracle filters applied to the same observations.
        rng = np.random.default_rng(39)
        links = random_links(rng, 6, 4, 3)
        links.los_frac[0] = 0.0
        links.los_frac[1, :2] = 1.0
        links.los_frac[4] = 0.0
        links.beta[1] *= 30.0
        pilots = np.array([0, 0, 2, 3, 0, 2])
        mask = rng.random((6, 4)) < 0.6
        mask[:, 1] = True
        est = build_estimators(links, pilots, rng.uniform(0.5, 2, 6), 0.2,
                               serving=mask)
        y = (rng.standard_normal((5, 4, 4, 3))
             + 1j * rng.standard_normal((5, 4, 4, 3)))
        want = np.einsum("kanm,tkam->tkan", lmmse_filters(links, est),
                         y[:, pilots])
        got = est.estimate(y.copy())
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())
        assert np.all(got[:, ~mask] == 0)

    def test_out_buffer_matches_the_allocating_call(self):
        # A caller's buffer, filled with stale values, receives the same
        # bits as a new array; the observation has more pilot rows (5) than
        # there are users on them.
        rng = np.random.default_rng(47)
        links = random_links(rng, 4, 3, 2)
        links.los_frac[0] = 0.0
        links.los_frac[2, 1] = 1.0
        est = build_estimators(links, [0, 4, 0, 2], rng.uniform(0.5, 2, 4),
                               0.3)
        y = (rng.standard_normal((3, 5, 3, 2))
             + 1j * rng.standard_normal((3, 5, 3, 2)))
        want = est.estimate(y.copy())
        buf = np.full(want.shape, np.nan + 1j, dtype=complex)
        got = est.estimate(y.copy(), out=buf)
        assert got is buf
        np.testing.assert_array_equal(got, want)

    def test_too_few_pilot_rows_rejected(self):
        rng = np.random.default_rng(48)
        links = random_links(rng, 2, 2, 2)
        est = build_estimators(links, [0, 3], [1.0, 1.0], 0.3)
        with pytest.raises(ValueError, match="pilot rows"):
            est.estimate(np.ones((1, 3, 2, 2), dtype=complex))


def _mixed_links():
    """Rayleigh (user 0), Ricean (users 1 and 3) and pure-LOS (user 2)
    links on 3 APs with 2 antennas, and a link with beta = 0."""
    links = random_links(np.random.default_rng(53), 4, 3, 2)
    links.los_frac[0] = 0.0
    links.los_frac[2] = 1.0
    links.beta[3, 0] = 0.0
    return links


class TestDrawBlock:
    """EstimatorSet.draw, the one definition of a coherence block's
    draws."""

    @pytest.mark.parametrize("n_draws", [1, 7])
    def test_channels_are_the_draws_channel_step(self, n_draws):
        # From equal-seed streams, the channels EstimatorSet.draw returns
        # are EstimatorSet.channels', bit for bit.
        links = _mixed_links()
        est = build_estimators(links, [0, 1, 0, 1], [0.5, 1.0, 1.5, 2.0],
                               0.3)
        g, _ = est.draw(np.random.default_rng(54), n_draws)
        np.testing.assert_array_equal(
            g, est.channels(np.random.default_rng(54), n_draws))

    def test_zero_power_block_draws_the_estimators_channels(self):
        # The test helper's estimators, from one pilot and zero training
        # power, draw what real estimators on the same links draw.
        links = _mixed_links()
        est = build_estimators(links, [0, 1, 0, 1], [0.5, 1.0, 1.5, 2.0],
                               0.3)
        np.testing.assert_array_equal(
            channel_block(links).channels(np.random.default_rng(55), 7),
            est.channels(np.random.default_rng(55), 7))

    def test_matches_the_explicit_block(self):
        # Rayleigh, Ricean and pure-LOS links, two users on one pilot and
        # a pilot row that no user takes: the channels and the observation
        # equal the written-out block on the same stream, which pins the
        # draw order.
        rng = np.random.default_rng(49)
        links = random_links(rng, 5, 3, 2)
        links.los_frac[0] = 0.0
        links.los_frac[1, :2] = 1.0
        est = build_estimators(links, [0, 3, 0, 1, 3],
                               rng.uniform(0.5, 2.0, 5), 0.3)
        got = est.draw(np.random.Generator(np.random.SFC64(50)), 7)
        want = explicit_block(links, est,
                              np.random.Generator(np.random.SFC64(50)), 7)
        assert got[1].shape == (7, 4, 3, 2)
        for x, w in zip(got, want):
            np.testing.assert_allclose(x, w, rtol=1e-12)

    @pytest.mark.parametrize("mode", ["CF", "UC"])
    @pytest.mark.parametrize("los", [True, False],
                             ids=["with_los_user", "rayleigh_only"])
    def test_one_trial_trainings_read_the_draws_stream(self, mode, los):
        # The upper bound's order: the channel draws of T blocks in one
        # call, then each block formed and trained alone, from a fresh copy
        # of the same SFC64 stream, gives what draw gives, bit for bit, and
        # leaves the stream where draw leaves it. UC serves each user from
        # its 2 strongest of 4 APs; 6 users share 3 pilots.
        links = random_links(np.random.default_rng(56), 6, 4, 3)
        if not los:
            links.los_frac[:] = 0.0
        links.los_frac[0] = 0.0
        serving = None
        if mode == "UC":
            top = np.argsort(-links.beta, axis=1)[:, :2]
            serving = np.zeros(links.beta.shape, dtype=bool)
            np.put_along_axis(serving, top, True, axis=1)
        est = build_estimators(links, [0, 1, 2, 0, 1, 2],
                               np.linspace(0.5, 2.0, 6), 0.3, serving=serving)
        assert np.any(est.los_amp > 0) == los
        want_rng = np.random.Generator(np.random.SFC64(57))
        g_want, y_want = est.draw(want_rng, 5)
        rng = np.random.Generator(np.random.SFC64(57))
        phasor, g = est.channel_draws(rng, 5)
        y = np.concatenate([
            est.train(rng, est.form_channels(phasor[t:t + 1], g[t:t + 1]))
            for t in range(5)])
        np.testing.assert_array_equal(g, g_want)
        np.testing.assert_array_equal(y, y_want)
        assert rng.random() == want_rng.random()

    def test_out_buffer_matches_the_allocating_call(self):
        # A channel buffer filled with stale values, and more pilot rows
        # (32) than users (3).
        rng = np.random.default_rng(51)
        links = random_links(rng, 3, 4, 2)
        est = build_estimators(links, [0, 31, 0], rng.uniform(0.5, 2.0, 3),
                               0.3)
        g_want, y_want = est.draw(np.random.default_rng(52), 6)
        buf = np.full((6, 3, 4, 2), np.nan + 1j, dtype=complex)
        g, y = est.draw(np.random.default_rng(52), 6, g=buf)
        assert g is buf
        assert y.shape == (6, 32, 4, 2)
        np.testing.assert_array_equal(g, g_want)
        np.testing.assert_array_equal(y, y_want)


def _dft(n, r):
    """r orthogonal steering vectors of n antennas, the first r DFT columns,
    as rows (r, n)."""
    return np.exp(2j * np.pi * np.outer(np.arange(r), np.arange(n)) / n)


def _gamma_one_pilot(n, cond, ground, rng, r=1):
    """gamma of the users on one pilot at one AP against its closed form.

    r LOS users (pure LOS alone, Ricean when `ground`) share the pilot with a
    Rayleigh user when `ground`; with r > 1 their steering vectors are
    orthogonal DFT columns. LOS user i has weight w_i = eta_i c_los,i with
    (alpha + w_i n) / alpha = cond^((i + 1) / r), so B has the eigenvalues
    alpha + w_i n and n - r copies of alpha, and tr B^{-1} = (n - r) / alpha
    + sum_i 1 / (alpha + w_i n) and q_i = a_i^H B^{-1} a_i = n / (alpha +
    w_i n) hold exactly; the oracle reads (c_los, c_eye) as the estimators
    do.
    """
    users = r + 1 if ground else r
    links = random_links(rng, users, 1, n)
    if r > 1:
        links.steering[:r, 0] = _dft(n, r)
    sw2, eta = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0, users)
    scatter = rng.uniform(0.5, 2.0, users) if ground else np.zeros(users)
    alpha = sw2 + eta @ scatter
    c_los = (cond ** ((np.arange(r) + 1) / r) - 1.0) * alpha / (n * eta[:r])
    links.beta[:, 0] = scatter
    links.beta[:r, 0] += c_los
    links.los_frac[:] = 0.0
    links.los_frac[:r, 0] = c_los / links.beta[:r, 0]
    est = build_estimators(links, [0] * users, eta, sw2)
    cl, ce = covariance_coeffs(links.beta[:, 0], links.los_frac[:, 0])
    alpha = sw2 + eta @ ce
    w = eta[:r] * cl[:r]
    tr_inv = (n - r) / alpha + np.sum(1.0 / (alpha + w * n))
    q = n / (alpha + w * n)
    want = eta * ce ** 2 * tr_inv
    want[:r] += eta[:r] * (2 * ce[:r] + n * cl[:r]) * cl[:r] * q
    return est.gamma[:, 0], want


GROUND = pytest.mark.parametrize("ground", [False, True],
                                 ids=["pure_los_alone", "ricean_with_ground"])


class TestGammaPrecision:
    """gamma against the exact values of grams with one, two or n LOS
    users, for condition numbers from 10 to 1e11."""

    @GROUND
    def test_one_los_user_closed_form(self, ground):
        rng = np.random.default_rng(40)
        for cond in np.logspace(1, 11, 41):
            for n in (2, 4, 16):
                got, want = _gamma_one_pilot(n, cond, ground, rng)
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @GROUND
    @pytest.mark.parametrize("los_users", ["two", "every_antenna"])
    def test_orthogonal_los_users_closed_form(self, ground, los_users):
        rng = np.random.default_rng(42)
        for cond in np.logspace(1, 11, 41):
            for n in (2, 4, 16):
                r = 2 if los_users == "two" else n
                got, want = _gamma_one_pilot(n, cond, ground, rng, r)
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
