"""User-AP association and power control.

Downlink policies (per AP, over its served users):
  PPA  - budget split proportionally to the estimated channel strengths gamma
  WFPC - waterfilling against noise levels L = sigma_z^2 / gamma

Uplink: fractional power control from the slow-fading statistics.
Powers here are actual transmit powers P (mW); the normalized coefficients
used by the SE formulas are eta_{k,a}^DL = P_{k,a} / gamma_{k,a}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass
class AssociationMap:
    """serving[k, a] is True when AP a serves user k. A_k are the rows,
    K_a the columns."""
    serving: np.ndarray


def associate(mode: str, beta, cluster_size=None) -> AssociationMap:
    """CF: every AP serves every user. UC: user k keeps its cluster_size
    APs with the largest slow-fading coefficients (ties to lower AP index).
    """
    beta = np.asarray(beta, dtype=float)
    n_users, n_aps = beta.shape
    if mode == "CF":
        return AssociationMap(np.ones((n_users, n_aps), dtype=bool))
    if mode != "UC":
        raise ConfigurationError(f"unknown association mode {mode!r}")
    if cluster_size is None or not 1 <= cluster_size <= n_aps:
        raise ConfigurationError("UC cluster size must be in [1, n_aps]")
    serving = np.zeros((n_users, n_aps), dtype=bool)
    # stable sort on -beta: equal coefficients keep ascending AP index
    order = np.argsort(-beta, axis=1, kind="stable")
    rows = np.repeat(np.arange(n_users), cluster_size)
    cols = order[:, :cluster_size].ravel()
    serving[rows, cols] = True
    return AssociationMap(serving)


def _columns(x):
    """x (K,) or (K, A) as a (K, A') float array."""
    x = np.asarray(x, dtype=float)
    return x.reshape(len(x), -1)


def _served_sums(x, served):
    """Per column of x (K, A), the sum of its served entries, equal bit for
    bit to np.sum of that column's served entries: the served entries move
    to the top of their column in order, and the columns with n of them are
    summed as the rows of one (columns, n) array, which takes the same
    pairwise summation as a 1-D sum of n numbers."""
    order = np.argsort(~served, axis=0, kind="stable")
    top = np.take_along_axis(x, order, axis=0).T              # (A, K)
    count = served.sum(axis=0)
    tot = np.zeros(x.shape[1])
    for n in np.unique(count[count > 0]):
        cols = count == n
        tot[cols] = top[cols, :n].sum(axis=1)
    return tot


def ppa(gamma, served, budget):
    """Proportional split of each AP's budget over its served users:
    P_k = budget * gamma_k / sum of the served gammas.

    gamma, served : (K,) for one AP, or (K, A) with one AP per column. An
    AP whose served users all have gamma 0 transmits nothing.
    """
    if budget <= 0:
        raise ConfigurationError("DL budget must be positive")
    g = _columns(gamma)
    served = np.asarray(served, dtype=bool).reshape(g.shape)
    tot = _served_sums(g, served)
    on = served & (tot > 0)
    p = np.where(on, budget * g / np.where(tot > 0, tot, 1.0), 0.0)
    return p.reshape(np.shape(gamma))


def waterfill_level(levels, budget):
    """Water level nu with sum (nu - L)^+ = budget, by exact solution of
    the piecewise-linear equation on sorted levels.

    levels : (K,) for one AP, or (K, A) with one AP per column, where +inf
    marks a user outside the pool; every column needs a finite level.
    Returns nu, a scalar or (A,).
    """
    levels = np.asarray(levels, dtype=float)
    L = np.sort(_columns(levels), axis=0)
    m = np.arange(1, len(L) + 1)[:, None]
    # With m lowest levels active: nu = (budget + sum_{i<m} L_i) / m.
    # Pick the largest m for which nu still exceeds L_{m-1}.
    nu = (budget + np.cumsum(L, axis=0)) / m
    valid = nu > L
    if not np.all(valid.any(axis=0)):
        raise ConfigurationError("waterfilling needs a positive budget")
    last = len(L) - 1 - np.argmax(valid[::-1], axis=0)
    return nu[last, np.arange(L.shape[1])].reshape(levels.shape[1:])[()]


def wfpc(gamma, served, sigma_z2, budget):
    """Waterfilling over each AP's served users: P_k = (nu - sigma_z^2/gamma_k)^+
    with nu matching the budget exactly. Users with gamma 0 sit at infinite
    noise level and get nothing.

    gamma, served : (K,) for one AP, or (K, A) with one AP per column.
    """
    if budget <= 0:
        raise ConfigurationError("DL budget must be positive")
    g = _columns(gamma)
    active = np.asarray(served, dtype=bool).reshape(g.shape) & (g > 0)
    with np.errstate(divide="ignore"):
        L = np.where(active, sigma_z2 / g, np.inf)
    p = np.zeros_like(g)
    live = active.any(axis=0)
    L = L[:, live]
    p[:, live] = np.maximum(waterfill_level(L, budget) - L, 0.0)
    return p.reshape(np.shape(gamma))


def dl_power_allocation(policy, gamma, assoc: AssociationMap, sigma_z2, budget):
    """Per-AP downlink powers P (K, A) under PPA or WFPC, plus the
    normalized coefficients eta_dl = P / gamma (zero where gamma is zero)."""
    gamma = np.asarray(gamma, dtype=float)
    if policy == "PPA":
        P = ppa(gamma, assoc.serving, budget)
    elif policy == "WFPC":
        P = wfpc(gamma, assoc.serving, sigma_z2, budget)
    else:
        raise ConfigurationError(f"unknown DL policy {policy!r}")
    return P, np.divide(P, gamma, out=np.zeros_like(P), where=gamma > 0)


def fpc(channel_gain, serving_mask, p0_mw, alpha, p_max):
    """Fractional uplink power control for every user:

        zeta_k = sqrt(sum_{a in A_k} tr^2(G_{k,a}))
        eta_k  = min(P_max, P0 * zeta_k^{-alpha})

    channel_gain : (K, A) tr(G_{k,a}) = N beta_{k,a} (unit-modulus steering).
    """
    zeta = np.sqrt(np.einsum("ka,ka->k", serving_mask,
                             np.asarray(channel_gain, dtype=float) ** 2))
    eta = np.full_like(zeta, float(p_max))
    ok = zeta > 0
    eta[ok] = np.minimum(p_max, p0_mw * zeta[ok] ** (-alpha))
    return eta
