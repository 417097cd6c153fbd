import numpy as np
import pytest

from cfmimo.channel import LinkSet
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


def lmmse_filter_D(G, B, train_powers):
    """Oracle: the LMMSE filter D = sqrt(eta) G B^{-1}, by explicit inverse.

    G, B : (..., N, N)   train_powers : broadcastable to leading dims
    """
    eta = np.asarray(train_powers, dtype=float)
    return np.sqrt(eta)[..., None, None] * (G @ np.linalg.inv(B))


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
