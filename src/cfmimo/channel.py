"""Per-link large-scale state: path gains, LOS fractions, steering vectors.

Each (user, AP) link carries a slow-fading gain beta, a LOS power fraction
kappa in [0, 1] (the share of beta in the LOS ray; kappa = K/(K+1) for a
Ricean K-factor K), and a far-field-free steering vector built from exact
element-to-user path lengths. Its fast fading, drawn by
estimation.EstimatorSet.channels, follows the Ricean model

    g = sqrt(beta) * ( sqrt(kappa) e^{j theta} a + sqrt(1 - kappa) h ),
    h ~ CN(0, I),

with theta redrawn uniformly per coherence block. kappa = 1 is pure LOS
and kappa = 0 is Rayleigh fading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .deployment import (Drop, GUE, UAV, hypot3, toroidal_distance,
                         wrapped_delta)
from .errors import GeometryError, OutOfModelError

# ---------------------------------------------------------------------------
# Steering vectors
# ---------------------------------------------------------------------------

def _element_distances(elements, user):
    """Exact path length from every antenna element to the user.

    elements : (..., N, 3) antenna coordinates
    user     : (..., 3) user coordinates (same frame as elements, unwrapped)

    Returns (..., N); GeometryError where the user sits on an element.
    """
    elements = np.asarray(elements, dtype=float)
    user = np.asarray(user, dtype=float)
    r = hypot3(*(elements[..., i] - user[..., None, i] for i in range(3)))
    if np.any(r <= 0):
        raise GeometryError("user coincides with an antenna element")
    return r


def steering_vector(elements, user, wavelength):
    """Array response from exact per-element path lengths.

    elements : (..., N, 3) antenna coordinates, element 0 is the reference
    user     : (..., 3) user coordinates (same frame as elements, unwrapped)

    Entry ell is exp(-j 2 pi (r_0 - r_ell) / lambda); entry 0 is 1.
    """
    if wavelength <= 0:
        raise GeometryError("wavelength must be positive")
    r = _element_distances(elements, user)
    phase = -2.0 * np.pi * (r[..., :1] - r) / wavelength
    return np.exp(1j * phase)


# ---------------------------------------------------------------------------
# Ground-link large-scale model (three-slope + correlated shadowing)
# ---------------------------------------------------------------------------

def cost231_constant(carrier_freq, ap_height, user_height):
    """Fixed Hata-COST231 term of the three-slope model (dB, positive)."""
    f_mhz = carrier_freq / 1e6
    return (46.3 + 33.9 * np.log10(f_mhz)
            - 13.82 * np.log10(ap_height)
            - (1.1 * np.log10(f_mhz) - 0.7) * user_height
            + (1.56 * np.log10(f_mhz) - 0.8))


def _check_distance(d):
    """GeometryError unless every link distance in d is positive (NaN is
    not)."""
    if not np.all(d > 0):
        raise GeometryError("non-positive link distance")


def three_slope_path_loss_db(distance_3d, cfg: SystemConfig):
    """Ground-link path gain in dB (negative): -35 dB/decade beyond d1,
    -20 dB/decade between d0 and d1, flat inside d0."""
    d = np.asarray(distance_3d, dtype=float)
    _check_distance(d)
    L = cost231_constant(cfg.carrier_freq, cfg.ap_height, cfg.gue_height)
    d0_km = cfg.three_slope_d0 / 1000.0
    d1_km = cfg.three_slope_d1 / 1000.0
    d_km = d / 1000.0
    pl_far = -L - 35.0 * np.log10(d_km)
    pl_mid = -L - 15.0 * np.log10(d1_km) - 20.0 * np.log10(d_km)
    pl_near = -L - 15.0 * np.log10(d1_km) - 20.0 * np.log10(d0_km)
    return np.where(d > cfg.three_slope_d1, pl_far,
                    np.where(d > cfg.three_slope_d0, pl_mid, pl_near))


def _field_factor(cov):
    """A factor F with F F^T the correlation matrix a field is drawn with.
    Where cov (n, n), unit-diagonal, is positive definite, F is its
    Cholesky factor (with a 1e-10 ridge). exp(-d/decorr) on the torus need
    not be, for long decorr or close nodes: there F F^T is the eigenvalue-
    clipped correlation matrix, cov with its negative eigenvalues set to 0
    and rescaled to unit diagonal (the projection step of Higham's
    nearest correlation matrix, IMA J. Numer. Anal. 22 (2002) 329-343)."""
    try:
        return np.linalg.cholesky(cov + 1e-10 * np.eye(len(cov)))
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(cov)
        f = v * np.sqrt(np.maximum(w, 0.0))
        # Clipping only adds to the diagonal (it drops negative terms of
        # sum_j w_j v_ij^2 = 1), so every row norm is at least 1.
        return f / np.linalg.norm(f, axis=1, keepdims=True)


def _correlated_field(positions, area_side, decorr, rng):
    """Sample a zero-mean unit-variance Gaussian field over the given nodes
    with covariance exp(-d/decorr) (toroidal horizontal distance), or the
    nearest valid correlation matrix where that is not positive definite
    (_field_factor); either way from n standard normals."""
    n = positions.shape[0]
    p = np.column_stack([positions[:, :2], np.zeros(n)])
    dist = toroidal_distance(p[:, None, :], p[None, :, :], area_side)
    return _field_factor(np.exp(-dist / decorr)) @ rng.standard_normal(n)


def sample_shadowing(ap_positions, user_positions, cfg: SystemConfig,
                     rng: np.random.Generator):
    """Correlated log-normal shadowing exponents z_{k,a} (unit variance):
    z = sqrt(delta)*a_ap + sqrt(1-delta)*b_user, both fields spatially
    correlated as exp(-d/decorr)."""
    a = _correlated_field(np.asarray(ap_positions, float), cfg.area_side,
                          cfg.shadow_decorr, rng)
    b = _correlated_field(np.asarray(user_positions, float), cfg.area_side,
                          cfg.shadow_decorr, rng)
    delta = cfg.shadow_delta
    return np.sqrt(delta) * a[None, :] + np.sqrt(1.0 - delta) * b[:, None]


def gue_large_scale(distance_3d, shadow_z, cfg: SystemConfig):
    """Slow-fading gain for a ground link: three-slope path loss with
    shadowing applied only in the outermost (-35 dB/decade) region."""
    d = np.asarray(distance_3d, dtype=float)
    pl_db = three_slope_path_loss_db(d, cfg)
    sh_db = cfg.shadowing_std * np.asarray(shadow_z) * (d > cfg.three_slope_d1)
    return 10.0 ** ((pl_db + sh_db) / 10.0)


# ---------------------------------------------------------------------------
# Aerial-link large-scale model (urban-micro aerial tables)
# ---------------------------------------------------------------------------

AERIAL_H_MIN = 22.5
AERIAL_H_MAX = 300.0


def _check_aerial_height(h):
    """OutOfModelError unless every height in h is in the aerial tables
    (NaN is not)."""
    if not np.all((h >= AERIAL_H_MIN) & (h <= AERIAL_H_MAX)):
        raise OutOfModelError(f"UAV height outside [{AERIAL_H_MIN:g}, "
                              f"{AERIAL_H_MAX:g}] m")


def los_probability(distance_2d, uav_height):
    """LOS probability for an aerial user in the urban-micro scenario, from
    the aerial table, which holds for heights in [22.5, 300] m as the aerial
    path loss does.
    """
    d = np.asarray(distance_2d, dtype=float)
    h = np.asarray(uav_height, dtype=float)
    _check_aerial_height(h)
    d = np.maximum(d, 1e-12)

    logh = np.log10(h)
    p1 = 233.98 * logh - 0.95
    d1 = np.maximum(294.05 * logh - 432.94, 18.0)
    # above 100 m the urban clutter is cleared and the table pins LOS
    p = np.where(h > 100.0, 1.0,
                 np.where(d <= d1, 1.0,
                          d1 / d + np.exp(-d / p1) * (1.0 - d1 / d)))
    return np.clip(p, 0.0, 1.0)


def uav_path_loss_db(distance_3d, uav_height, carrier_freq, los):
    """Aerial urban-micro path loss (dB, positive) for the requested
    LOS/NLOS state. Valid for heights in [22.5, 300] m."""
    d = np.asarray(distance_3d, dtype=float)
    h = np.asarray(uav_height, dtype=float)
    _check_aerial_height(h)
    _check_distance(d)
    f_ghz = carrier_freq / 1e9
    pl_los = (30.9 + (22.25 - 0.5 * np.log10(h)) * np.log10(d)
              + 20.0 * np.log10(f_ghz))
    pl_nlos = np.maximum(pl_los,
                         32.4 + (43.2 - 7.6 * np.log10(h)) * np.log10(d)
                         + 20.0 * np.log10(f_ghz))
    return np.where(los, pl_los, pl_nlos)


def uav_large_scale(distance_3d, uav_height, carrier_freq, los):
    """Slow-fading gain for an aerial link (no shadowing term)."""
    pl = uav_path_loss_db(distance_3d, uav_height, carrier_freq, los)
    return 10.0 ** (-pl / 10.0)


# ---------------------------------------------------------------------------
# Link-state assembly
# ---------------------------------------------------------------------------

@dataclass
class LinkSet:
    """Vectorized large-scale state for all (user, AP) pairs of a drop.

    beta, los_frac : (n_users, n_aps); los_frac is the share of beta in the
                     LOS ray, 1 on pure-LOS links and 0 on Rayleigh ones
    steering       : (n_users, n_aps, n_ap_antennas), the steering vectors
                     of the users with los_frac > 0 on some link, held on
                     every link of their rows; exactly 0 on the rows of the
                     users with no LOS link, which read none
    """
    beta: np.ndarray
    los_frac: np.ndarray
    steering: np.ndarray


def build_links(drop: Drop, cfg: SystemConfig, rng: np.random.Generator) -> LinkSet:
    """Compute large-scale state for every (user, AP) pair of a drop.

    UAV links draw one Bernoulli LOS state per drop, used consistently for
    the LOS/NLOS path-loss branch; their LOS power fraction is the LOS
    probability itself. Ground links are Rayleigh (fraction 0).

    Steering vectors are formed only on the rows that LinkSet.steering
    holds, chosen by los_frac, not by kind; a user of any kind that sits
    on an antenna element raises GeometryError.
    """
    side = cfg.area_side
    ap_ref = drop.ap_positions
    users = drop.user_positions
    n_users, n_aps = drop.n_users, drop.n_aps

    # Nearest wrap-around image of each user as seen from each AP; all
    # element-level geometry uses this image so distances and steering
    # vectors are mutually consistent.
    delta = wrapped_delta(ap_ref[None, :, :], users[:, None, :], side)
    user_img = ap_ref[None, :, :] + delta                       # (K, A, 3)
    dx, dy, dz = np.moveaxis(delta, -1, 0)
    dist3d = hypot3(dx, dy, dz)
    dist2d = np.sqrt(dx * dx + dy * dy)
    if np.any(dist3d <= 0):
        raise GeometryError("user coincides with an AP")

    beta = np.empty((n_users, n_aps))
    los_frac = np.zeros((n_users, n_aps))

    is_gue = drop.user_kind == GUE
    is_uav = drop.user_kind == UAV

    if np.any(is_gue):
        if cfg.shadowing_std > 0:
            z = sample_shadowing(ap_ref, users[is_gue], cfg, rng)
        else:
            z = np.zeros((int(is_gue.sum()), n_aps))
        beta[is_gue] = gue_large_scale(dist3d[is_gue], z, cfg)

    if np.any(is_uav):
        h = users[is_uav, 2][:, None]
        p_los = los_probability(dist2d[is_uav], h)
        los = rng.random(p_los.shape) < p_los
        beta[is_uav] = uav_large_scale(dist3d[is_uav], h, cfg.carrier_freq, los)
        los_frac[is_uav] = p_los

    rows = np.any(los_frac > 0, axis=1)
    steer = np.zeros((n_users, n_aps, drop.ap_elements.shape[1]),
                     dtype=complex)
    steer[rows] = steering_vector(drop.ap_elements[None, :, :, :],
                                  user_img[rows], cfg.wavelength)
    # The other users are checked on the links where one could sit on an
    # element: no farther from the AP's reference element than its farthest
    # element. Both distances are taken alike from the reference, so an
    # image equal to an element is never skipped.
    offset = drop.ap_elements - ap_ref[:, None, :]              # (A, N, 3)
    reach = hypot3(*np.moveaxis(offset, -1, 0)).max(axis=1)
    near = hypot3(*np.moveaxis(user_img - ap_ref, -1, 0)) <= reach
    k, a = np.nonzero(near & ~rows[:, None])
    _element_distances(drop.ap_elements[a], user_img[k, a])
    return LinkSet(beta=beta, los_frac=los_frac, steering=steer)


def covariance_coeffs(beta, los_frac):
    """(c_los, c_eye) with G = c_los a a^H + c_eye I: beta kappa and
    beta (1 - kappa), the powers of a link's LOS and scattered components."""
    beta = np.asarray(beta, dtype=float)
    kappa = np.asarray(los_frac, dtype=float)
    return beta * kappa, beta * (1.0 - kappa)
