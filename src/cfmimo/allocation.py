"""User-AP association and power control.

Downlink policies (per AP, over its served users):
  PPA  - budget split proportionally to the estimated channel strengths gamma
  WFPC - waterfilling against noise levels L = sigma_z^2 / gamma
Each takes (K,) arrays for one AP or (K, A) with one AP per column: every
per-AP sum, sort and minimum runs along axis 0, so both shapes share one
path. The water level is solved relative to each AP's lowest level L_min,
as x = nu - L_min, so a positive budget is never lost in the rounding of a
large L_min (gamma ~ 1e-21 against sigma_z^2 ~ 1 gives L ~ 1e21).

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


def ppa(gamma, served, budget):
    """Proportional split of each AP's budget over its served users:
    P_k = budget * gamma_k / sum of the served gammas. An AP whose served
    users all have gamma 0 transmits nothing."""
    if budget <= 0:
        raise ConfigurationError("DL budget must be positive")
    g, served = np.asarray(gamma, dtype=float), np.asarray(served, dtype=bool)
    tot = np.where(served, g, 0.0).sum(axis=0)
    return np.where(served & (tot > 0),
                    budget * g / np.where(tot > 0, tot, 1.0), 0.0)


def _fill(levels, budget):
    """Per column: L_min, rel = L - L_min and x = nu - L_min (all +inf for a
    column with no finite level). With the m lowest levels active,
    x_m = (budget + sum_{i<m} rel_i) / m; every x_m >= x, with equality at
    the active count, so x = min_m x_m, and x_1 = budget > 0."""
    if budget <= 0:
        raise ConfigurationError("DL budget must be positive")
    L = np.asarray(levels, dtype=float)
    lo = L.min(axis=0)
    rel = L - np.where(np.isfinite(lo), lo, 0.0)
    s = np.sort(rel, axis=0)
    m = np.arange(1, len(s) + 1).reshape((-1,) + (1,) * (s.ndim - 1))
    return lo, rel, ((budget + np.cumsum(s, axis=0)) / m).min(axis=0)


def waterfill_level(levels, budget):
    """Water level nu = L_min + x with sum (nu - L)^+ = budget (see _fill).

    levels : (K,) or (K, A), where +inf marks a user outside the pool;
    every column needs a finite level. Returns nu, a scalar or (A,).
    """
    lo, _, x = _fill(levels, budget)
    if not np.all(np.isfinite(lo)):
        raise ConfigurationError("waterfilling needs a finite level")
    return (lo + x)[()]


def wfpc(gamma, served, sigma_z2, budget):
    """Waterfilling over each AP's served users: P_k = (nu - sigma_z^2/gamma_k)^+
    = (x - rel_k)^+ (see _fill), with nu matching the budget exactly. Users
    with gamma 0 sit at infinite noise level and get nothing."""
    g = np.asarray(gamma, dtype=float)
    active = np.asarray(served, dtype=bool) & (g > 0)
    L = np.divide(sigma_z2, g, out=np.full_like(g, np.inf), where=active)
    _, rel, x = _fill(L, budget)
    p = np.subtract(x, rel, out=np.zeros_like(g), where=active)
    return np.maximum(p, 0.0, out=p)


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
