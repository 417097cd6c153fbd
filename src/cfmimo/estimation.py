"""Uplink training and LMMSE channel estimation.

Per (user k, AP a) the estimator is characterized by two matrices and one
scalar:

    G = channel covariance  E[g g^H]
    D = LMMSE filter, g_hat = D y_hat, with y_hat the de-spread training
        observation, whose covariance (the pilot gram) is
        B = sum_i eta_i G_i |phi_i^H phi_k|^2 + sigma_w^2 I
    gamma = E[||g_hat||^2]
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LinkSet, covariance_coeffs
from .errors import NumericalError

COND_LIMIT = 1e12


def covariance_G(beta, los_frac, steering):
    """Channel covariance G = beta (kappa a a^H + (1 - kappa) I), kappa the
    LOS power fraction; pure LOS (kappa = 1) gives beta a a^H exactly.

    beta, los_frac : (...,)   steering : (..., N)   ->   (..., N, N)
    """
    a = np.asarray(steering)
    n = a.shape[-1]
    c_los, c_eye = covariance_coeffs(beta, los_frac)
    outer = a[..., :, None] * np.conj(a)[..., None, :]
    return (c_los[..., None, None] * outer
            + c_eye[..., None, None] * np.eye(n))


def _pilot_grams(G, pilot_index, train_powers, sigma_w2):
    """One gram per pilot in use: (grams (P', A, N, N), row (K,)), where
    user k's gram is grams[row[k]]."""
    G = np.asarray(G)
    eta = np.asarray(train_powers, dtype=float)
    n = G.shape[-1]
    pilots, row = np.unique(np.asarray(pilot_index), return_inverse=True)
    grams = np.empty((len(pilots),) + G.shape[1:], dtype=G.dtype)
    for i in range(len(pilots)):
        users = np.nonzero(row == i)[0]
        acc = np.einsum("u,uanm->anm", eta[users], G[users])
        grams[i] = acc + sigma_w2 * np.eye(n)
    return grams, row


def _check_conditioned(B):
    """Raise NumericalError unless every Hermitian gram in B (..., N, N) is
    positive definite with condition number at most COND_LIMIT."""
    ew = np.linalg.eigvalsh(B)
    if np.any(ew[..., 0] <= 0) or np.any(ew[..., -1] / ew[..., 0] > COND_LIMIT):
        raise NumericalError("pilot gram is numerically singular")


def _check_grams(grams, sigma_w2):
    """_check_conditioned on the pilot grams, skipping those that cannot fail.

    Each gram is sigma_w^2 I plus a sum of PSD covariances weighted by
    non-negative training powers, so its eigenvalues lie in
    [sigma_w^2, tr(B)] and cond(B) <= tr(B) / sigma_w^2. Only grams
    whose bound exceeds COND_LIMIT / 2 (the factor absorbs rounding in the
    eigenvalues) go to eigvalsh; with sigma_w^2 <= 0 every gram does.
    """
    if sigma_w2 > 0:
        bound = np.einsum("...nn->...", grams).real / sigma_w2
        grams = grams[~(bound <= COND_LIMIT / 2)]
    _check_conditioned(grams)


def _solve_filter(G, B, train_powers):
    """D = sqrt(eta) G B^{-1} for Hermitian B, without a conditioning check."""
    eta = np.asarray(train_powers, dtype=float)
    # G B^{-1} = (B^{-1} G^H)^H for Hermitian B.
    GH = np.conj(np.swapaxes(G, -1, -2))
    D = np.conj(np.swapaxes(np.linalg.solve(B, GH), -1, -2))
    return np.sqrt(eta)[..., None, None] * D


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


@dataclass
class EstimatorSet:
    """Estimation statistics for the (user, AP) links of a drop.

    G : (K, A, N, N) for every link. D : (K, A, N, N) and gamma : (K, A)
    are solved only on the links in `served` and are exactly 0 elsewhere.
    served : (K, A) bool, the drop's serving mask; pilot_index : (K,);
    train_powers : (K,)
    """
    G: np.ndarray
    D: np.ndarray
    gamma: np.ndarray
    served: np.ndarray
    pilot_index: np.ndarray
    train_powers: np.ndarray
    sigma_w2: float


def build_estimators(links: LinkSet, pilot_index, train_powers, sigma_w2,
                     serving=None) -> EstimatorSet:
    """Assemble G for every (user, AP) link of a drop and D/gamma for the
    links in `serving` (K, A) bool; None, as in cell-free mode, serves
    every link. The set carries the serving mask and the pilot assignment
    to every later stage of the drop."""
    K, A = links.beta.shape
    eta = np.broadcast_to(np.asarray(train_powers, dtype=float), (K,)).copy()
    G = covariance_G(links.beta, links.los_frac, links.steering)
    grams, row = _pilot_grams(G, pilot_index, eta, sigma_w2)
    # Users on one pilot share its gram: check each distinct gram once.
    _check_grams(grams, sigma_w2)
    if serving is None:
        served = np.ones((K, A), dtype=bool)
    else:
        served = np.array(serving, dtype=bool)
    k, a = np.nonzero(served)
    G_s = G[k, a]
    D_s = _solve_filter(G_s, grams[row[k], a], eta[k])
    D = np.zeros_like(G)
    D[k, a] = D_s
    gamma = np.zeros((K, A))
    gamma[k, a] = gamma_coeff(G_s, D_s, eta[k])
    return EstimatorSet(G=G, D=D, gamma=gamma, served=served,
                        pilot_index=np.asarray(pilot_index), train_powers=eta,
                        sigma_w2=float(sigma_w2))
