import numpy as np
import pytest

from cfmimo.channel import LinkSet, covariance_coeffs
from cfmimo.estimation import build_estimators


def random_links(rng, n_users, n_aps, n_ant, rice_max=3.0):
    """Synthetic link state with random gains, LOS power fractions
    K/(K+1) for Ricean K-factors uniform on [0, rice_max], and unit-modulus
    steering vectors (first entry 1), bypassing geometry."""
    beta = rng.uniform(0.5, 2.0, (n_users, n_aps))
    rice = rng.uniform(0.0, rice_max, (n_users, n_aps))
    phase = rng.uniform(0, 2 * np.pi, (n_users, n_aps, n_ant))
    phase[..., 0] = 0.0
    steer = np.exp(1j * phase)
    return LinkSet(beta=beta, los_frac=rice / (rice + 1.0), steering=steer)


def covariance_G(beta, los_frac, steering):
    """Oracle: the dense channel covariance G = beta (kappa a a^H +
    (1 - kappa) I), kappa the LOS power fraction; pure LOS (kappa = 1)
    gives beta a a^H exactly.

    beta, los_frac : (...,)   steering : (..., N)   ->   (..., N, N)
    """
    a = np.asarray(steering)
    n = a.shape[-1]
    c_los, c_eye = covariance_coeffs(beta, los_frac)
    outer = a[..., :, None] * np.conj(a)[..., None, :]
    return (c_los[..., None, None] * outer
            + c_eye[..., None, None] * np.eye(n))


def lmmse_filter_D(G, B, train_powers):
    """Oracle: the LMMSE filter D = sqrt(eta) G B^{-1}, by explicit inverse.

    G, B : (..., N, N)   train_powers : broadcastable to leading dims
    """
    eta = np.asarray(train_powers, dtype=float)
    return np.sqrt(eta)[..., None, None] * (G @ np.linalg.inv(B))


def lmmse_filters(links, est):
    """Oracle: the dense LMMSE filter D = sqrt(eta) G B^{-1} (K, A, N, N) of
    every link, with each pilot gram summed from the dense covariances of the
    users on the pilot; 0 off the serving set.
    """
    G = covariance_G(links.beta, links.los_frac, links.steering)
    p = est.pilot_index
    same = (p[:, None] == p).astype(float)
    B = (np.einsum("ku,u,uanm->kanm", same, est.train_powers, G)
         + est.sigma_w2 * np.eye(G.shape[-1]))
    D = lmmse_filter_D(G, B, est.train_powers[:, None])
    return D * est.served[..., None, None]


def applied_filters(links, est):
    """The filters est.estimate applies (K, A, N, N): its estimates from
    the unit observations e_m, on every pilot and AP, are the columns D e_m.
    """
    A, N = links.steering.shape[1:]
    P = est.pilot_index.max() + 1
    y = np.tile(np.eye(N, dtype=complex)[:, None, None, :], (1, P, A, 1))
    return np.moveaxis(est.estimate(y), 0, -1)


def channel_block(links):
    """An EstimatorSet that draws the channels of bare links: its channels
    method reads no estimator statistic, so one pilot and zero training
    power serve."""
    K = links.beta.shape[0]
    return build_estimators(links, np.zeros(K, dtype=int), np.zeros(K), 1.0)


def simulate_training(g, pilot_index, train_powers, sigma_w2, tau_p, rng):
    """Oracle: one uplink training phase with canonical-basis pilots phi_p.

    g : (..., K, A, N) channel draws, one coherence block per leading index.
    Returns (y_hat, Y): the received matrices Y (..., A, N, tau_p) =
    sum_k sqrt(eta_k) g_k phi_k^T + W, with W i.i.d. CN(0, sigma_w^2), and
    each user's de-spread observation y_hat_k = Y phi_k, (..., K, A, N).
    """
    phi = np.eye(tau_p)[:, np.asarray(pilot_index)]            # (tau_p, K)
    amp = np.sqrt(np.asarray(train_powers, dtype=float))
    Y = np.einsum("...kan,k,pk->...anp", np.asarray(g), amp, phi)
    Y = Y + (rng.standard_normal(Y.shape)
             + 1j * rng.standard_normal(Y.shape)) * np.sqrt(sigma_w2 / 2.0)
    return np.einsum("...anp,pk->...kan", Y, phi), Y


def explicit_block(links, est, rng, n_draws):
    """Oracle: n_draws coherence blocks written out, (g, y) as
    EstimatorSet.draw returns them and from the same draws: the phases
    theta (T, K, A), then the channels' scattered part and then the
    training noise, each one standard_normal call with real and imaginary
    parts interleaved; the de-spread observation y (T, P, A, N) sums each
    pilot's users' channels, scaled by sqrt(eta), and adds the noise."""
    K, A = links.beta.shape
    N = links.steering.shape[-1]
    T = n_draws
    pilot_index = est.pilot_index
    amp = np.sqrt(est.train_powers)
    los_amp, scatter_amp = map(np.sqrt, covariance_coeffs(links.beta,
                                                          links.los_frac))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(T, K, A))
    h = rng.standard_normal((T, K, A, N, 2)) / np.sqrt(2.0)
    g = (los_amp[..., None] * np.exp(1j * theta)[..., None] * links.steering
         + scatter_amp[..., None] * (h[..., 0] + 1j * h[..., 1]))
    ysig = np.zeros((T, int(pilot_index.max()) + 1, A, N), dtype=complex)
    for p in np.unique(pilot_index):
        users = np.nonzero(pilot_index == p)[0]
        ysig[:, p] = np.einsum("u,tuan->tan", amp[users], g[:, users])
    wn = (rng.standard_normal(ysig.shape + (2,)).view(complex)[..., 0]
          * np.sqrt(est.sigma_w2 / 2))
    return g, ysig + wn


@pytest.fixture
def small_instance():
    """3 APs, 2 antennas, 3 users; users 0 and 1 share a pilot."""
    rng = np.random.default_rng(7)
    links = random_links(rng, 3, 3, 2)
    links.los_frac[0] = 0.0
    pilots = np.array([0, 0, 1])
    eta_tr = np.array([1.5, 0.8, 1.2])
    sigma_w2 = 0.3
    est = build_estimators(links, pilots, eta_tr, sigma_w2)
    return links, pilots, eta_tr, sigma_w2, est


def expand_cross(terms):
    """Oracle view: the cross trace a UatfTerms holds in factors, expanded
    to the dense (J, C, K) array cross[j, c, k] =
    sqrt(eta_j) tr(G_j D_j^H G_k): gamma[j, c] times c_eye[k, ap[j, c]],
    plus the cross_los columns on the users terms.los with a LOS
    component."""
    cross = terms.gamma[..., None] * terms.c_eye.T[terms.ap]
    cross[..., terms.los] += terms.cross_los
    return cross
