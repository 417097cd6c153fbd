"""Uplink training and LMMSE channel estimation.

Per (user k, AP a) the estimator is characterized by three matrices and one
scalar:

    G = channel covariance  E[g g^H]
    B = covariance of the de-spread training observation y_hat
    D = LMMSE filter, g_hat = D y_hat
    gamma = E[||g_hat||^2]

The pilot gram B is built from the LMMSE derivation, B = sum_i eta_i G_i
|phi_i^H phi_k|^2 + sigma_w^2 I; the `beta_weighted` switch adds an extra
slow-fading factor per contributing user, a variant kept for comparison
even though it breaks the orthogonality principle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LinkSet
from .errors import NumericalError

COND_LIMIT = 1e12


def covariance_coeffs(beta, rice_k):
    """(c_los, c_eye) with G = c_los a a^H + c_eye I: beta K/(K+1) and
    beta/(K+1), and beta and 0 in the pure-LOS limit K = inf."""
    beta = np.asarray(beta, dtype=float)
    k = np.asarray(rice_k, dtype=float)
    pure = np.isinf(k)
    ksafe = np.where(pure, 0.0, k)
    c_eye = np.where(pure, 0.0, beta / (ksafe + 1.0))
    c_los = np.where(pure, beta, beta * ksafe / (ksafe + 1.0))
    return c_los, c_eye


def covariance_G(beta, rice_k, steering):
    """Channel covariance G = beta/(K+1) (K a a^H + I); pure LOS (K = inf)
    gives beta a a^H exactly.

    beta, rice_k : (...,)   steering : (..., N)   ->   (..., N, N)
    """
    a = np.asarray(steering)
    n = a.shape[-1]
    c_los, c_eye = covariance_coeffs(beta, rice_k)
    outer = a[..., :, None] * np.conj(a)[..., None, :]
    return (c_los[..., None, None] * outer
            + c_eye[..., None, None] * np.eye(n))


def _pilot_grams(G, pilot_index, train_powers, sigma_w2, beta,
                 beta_weighted):
    """One gram per pilot in use: (grams (P', A, N, N), row (K,)), where
    user k's gram is grams[row[k]]."""
    G = np.asarray(G)
    eta = np.asarray(train_powers, dtype=float)
    n = G.shape[-1]
    pilots, row = np.unique(np.asarray(pilot_index), return_inverse=True)
    grams = np.empty((len(pilots),) + G.shape[1:], dtype=G.dtype)
    for i in range(len(pilots)):
        users = np.nonzero(row == i)[0]
        if beta_weighted:
            w = eta[users, None] * np.asarray(beta)[users]          # (u, A)
            acc = np.einsum("ua,uanm->anm", w, G[users])
        else:
            acc = np.einsum("u,uanm->anm", eta[users], G[users])
        grams[i] = acc + sigma_w2 * np.eye(n)
    return grams, row


def pilot_gram_B(G, pilot_index, train_powers, sigma_w2, beta=None,
                 beta_weighted=False):
    """Covariance of the de-spread training observation, per pilot sequence.

    G            : (K, A, N, N) channel covariances
    pilot_index  : (K,) assigned pilot per user
    train_powers : (K,) training energies eta_k
    Returns (K, A, N, N): B for user k is shared by all users on k's pilot.
    """
    grams, row = _pilot_grams(G, pilot_index, train_powers, sigma_w2, beta,
                              beta_weighted)
    return grams[row]


def _check_conditioned(B):
    """Raise NumericalError unless every Hermitian gram in B (..., N, N) is
    positive definite with condition number at most COND_LIMIT."""
    ew = np.linalg.eigvalsh(B)
    if np.any(ew[..., 0] <= 0) or np.any(ew[..., -1] / ew[..., 0] > COND_LIMIT):
        raise NumericalError("pilot gram is numerically singular")


def _solve_filter(G, B, train_powers):
    """D = sqrt(eta) G B^{-1} for Hermitian B, without a conditioning check."""
    eta = np.asarray(train_powers, dtype=float)
    # G B^{-1} = (B^{-1} G^H)^H for Hermitian B.
    GH = np.conj(np.swapaxes(G, -1, -2))
    D = np.conj(np.swapaxes(np.linalg.solve(B, GH), -1, -2))
    return np.sqrt(eta)[..., None, None] * D


def lmmse_filter_D(G, B, train_powers):
    """LMMSE filter D = sqrt(eta) G B^{-1}, via Hermitian solves.

    G, B : (..., N, N)   train_powers : broadcastable to leading dims
    """
    G = np.asarray(G)
    B = np.asarray(B)
    _check_conditioned(B)
    return _solve_filter(G, B, train_powers)


def gamma_coeff(G, D, train_powers):
    """gamma = sqrt(eta) tr(G D) = E[||g_hat||^2], real and non-negative."""
    G = np.asarray(G)
    D = np.asarray(D)
    eta = np.asarray(train_powers, dtype=float)
    tr = np.einsum("...nm,...mn->...", G, D)
    gamma = np.sqrt(eta) * tr
    scale = np.maximum(np.abs(gamma), 1e-300)
    if np.any(np.abs(gamma.imag) > 1e-8 * scale) or np.any(gamma.real < -1e-8 * scale):
        raise NumericalError("gamma is not real non-negative; inconsistent inputs")
    return np.maximum(gamma.real, 0.0)


def simulate_training(g, pilot_index, train_powers, sigma_w2, tau_p,
                      rng: np.random.Generator, return_Y=False):
    """One training phase: de-spread observations for every (user, AP).

    g : (..., K, A, N) channel draws, one coherence block per leading index.
    Returns y_hat (..., K, A, N); with return_Y also the raw received
    matrices (..., A, N, tau_p) (pilots are canonical basis columns, so
    Y[..., p] collects pilot p).
    """
    g = np.asarray(g)
    pilot_index = np.asarray(pilot_index)
    eta = np.asarray(train_powers, dtype=float)
    lead = g.shape[:-3]
    n_aps, n = g.shape[-2:]

    Y = np.zeros(lead + (n_aps, n, tau_p), dtype=complex)
    amp = np.sqrt(eta)
    for p in range(tau_p):
        users = np.nonzero(pilot_index == p)[0]
        if users.size:
            Y[..., p] = np.einsum("u,...uan->...an", amp[users],
                                  g[..., users, :, :])
    noise = (rng.standard_normal(Y.shape) + 1j * rng.standard_normal(Y.shape)) \
        * np.sqrt(sigma_w2 / 2.0)
    Y = Y + noise

    y_hat = np.moveaxis(Y, -1, -3)[..., pilot_index, :, :]   # (..., K, A, N)
    if return_Y:
        return y_hat, Y
    return y_hat


def despread_noise(pilot_index, n_aps, n_ant, sigma_w2, rng):
    """De-spread noise vectors W phi_k: i.i.d. CN(0, sigma_w^2 I) per pilot,
    shared by users on the same pilot. Cheaper than materializing Y when
    only y_hat is needed (upper-bound Monte-Carlo inner loop)."""
    pilot_index = np.asarray(pilot_index)
    n_pilots = int(pilot_index.max()) + 1
    w = (rng.standard_normal((n_pilots, n_aps, n_ant))
         + 1j * rng.standard_normal((n_pilots, n_aps, n_ant))) \
        * np.sqrt(sigma_w2 / 2.0)
    return w[pilot_index]


@dataclass
class EstimatorSet:
    """Estimation statistics for all (user, AP) pairs of a drop.

    G, B, D : (K, A, N, N); gamma : (K, A); train_powers : (K,)
    """
    G: np.ndarray
    B: np.ndarray
    D: np.ndarray
    gamma: np.ndarray
    train_powers: np.ndarray
    sigma_w2: float


def build_estimators(links: LinkSet, pilot_index, train_powers, sigma_w2,
                     beta_weighted=False) -> EstimatorSet:
    """Assemble G/B/D/gamma for every (user, AP) pair of a drop."""
    eta = np.broadcast_to(np.asarray(train_powers, dtype=float),
                          (links.beta.shape[0],)).copy()
    G = covariance_G(links.beta, links.rice_k, links.steering)
    grams, row = _pilot_grams(G, pilot_index, eta, sigma_w2, links.beta,
                              beta_weighted)
    # Users on one pilot share its gram: check each distinct gram once.
    _check_conditioned(grams)
    B = grams[row]
    D = _solve_filter(G, B, eta[:, None])
    gamma = gamma_coeff(G, D, eta[:, None])
    return EstimatorSet(G=G, B=B, D=D, gamma=gamma, train_powers=eta,
                        sigma_w2=float(sigma_w2))
