"""Uplink training and LMMSE channel estimation.

A link's covariance G = E[g g^H] = c_los a a^H + c_eye I is held as
(c_los, c_eye) = covariance_coeffs(beta, kappa) and its steering vector a,
never as a matrix. Per link the estimator is characterized by

    D = sqrt(eta) G B^{-1}, the LMMSE filter: g_hat = D y_hat, with y_hat the
        de-spread training observation, whose covariance (the pilot gram)
        B = (sigma_w^2 + sum_i eta_i c_eye,i) I + sum_i eta_i c_los,i a_i a_i^H
        the users i on the pilot share at the AP
    gamma = E[||g_hat||^2] = sqrt(eta) (c_los a^H D a + c_eye tr D)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LinkSet, covariance_coeffs
from .errors import NumericalError

COND_LIMIT = 1e12


def _pilot_grams(links: LinkSet, pilot_index, train_powers, sigma_w2):
    """One gram per pilot in use: (grams (P', A, N, N), row (K,)), where
    user k's gram is grams[row[k]]; only users with a LOS component add a
    rank-one term."""
    c_los, c_eye = covariance_coeffs(links.beta, links.los_frac)
    eta = np.asarray(train_powers, dtype=float)[:, None]
    pilots, row = np.unique(np.asarray(pilot_index), return_inverse=True)
    alpha = np.full((len(pilots), c_eye.shape[1]), float(sigma_w2))
    np.add.at(alpha, row, eta * c_eye)
    grams = alpha[..., None, None] * np.eye(links.steering.shape[-1],
                                            dtype=complex)
    los = np.flatnonzero(np.any(c_los > 0, axis=1))
    a = links.steering[los]
    np.add.at(grams, row[los], (eta[los] * c_los[los])[..., None, None]
              * a[..., :, None] * np.conj(a)[..., None, :])
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


@dataclass
class EstimatorSet:
    """Estimation statistics for the (user, AP) links of a drop.

    D : (K, A, N, N) and gamma : (K, A) are solved only on the links in
    `served` and are exactly 0 elsewhere.
    served : (K, A) bool, the drop's serving mask; pilot_index : (K,);
    train_powers : (K,)
    """
    D: np.ndarray
    gamma: np.ndarray
    served: np.ndarray
    pilot_index: np.ndarray
    train_powers: np.ndarray
    sigma_w2: float


def build_estimators(links: LinkSet, pilot_index, train_powers, sigma_w2,
                     serving=None) -> EstimatorSet:
    """Solve D and gamma on the links in `serving` (K, A) bool; None, as in
    cell-free mode, serves every link. The set carries the serving mask and
    the pilot assignment to every later stage of the drop."""
    K, A, N = links.steering.shape
    eta = np.broadcast_to(np.asarray(train_powers, dtype=float), (K,)).copy()
    grams, row = _pilot_grams(links, pilot_index, eta, sigma_w2)
    # Users on one pilot share its gram: check each distinct gram once.
    _check_grams(grams, sigma_w2)
    if serving is None:
        served = np.ones((K, A), dtype=bool)
    else:
        served = np.array(serving, dtype=bool)
    k, a = np.nonzero(served)
    c_los, c_eye = covariance_coeffs(links.beta[k, a], links.los_frac[k, a])
    steer = links.steering[k, a]                                # (S, N)
    root_eta = np.sqrt(eta[k])
    # D = sqrt(eta) (B^{-1} G)^H = sqrt(eta) (c_eye B^{-H} + c_los a z^H).
    # Links on one pilot at one AP share B: invert it once. z = B^{-1} a is
    # solved: the product with B^{-1} loses digits on ill-conditioned grams.
    used, link_gram = np.unique(row[k] * A + a, return_inverse=True)
    B_inv = np.linalg.inv(grams.reshape(-1, N, N)[used])
    D_s = np.conj(np.swapaxes(B_inv, 1, 2))[link_gram]
    D_s *= (root_eta * c_eye)[:, None, None]
    los = np.flatnonzero(c_los > 0)
    z = np.linalg.solve(grams[row[k[los]], a[los]], steer[los, :, None])
    D_s[los] += ((root_eta * c_los)[los, None, None] * steer[los, :, None]
                 * np.conj(np.swapaxes(z, 1, 2)))
    gamma_s = root_eta * (
        c_los * np.einsum("sn,snm,sm->s", np.conj(steer), D_s, steer)
        + c_eye * np.einsum("snn->s", D_s))
    scale = np.maximum(np.abs(gamma_s), 1e-300)
    if np.any(np.abs(gamma_s.imag) > 1e-8 * scale) or np.any(gamma_s.real < -1e-8 * scale):
        raise NumericalError("gamma is not real non-negative; inconsistent inputs")
    D = np.zeros((K, A, N, N), dtype=complex)
    D[k, a] = D_s
    gamma = np.zeros((K, A))
    gamma[k, a] = np.maximum(gamma_s.real, 0.0)
    return EstimatorSet(D=D, gamma=gamma, served=served,
                        pilot_index=np.asarray(pilot_index), train_powers=eta,
                        sigma_w2=float(sigma_w2))
