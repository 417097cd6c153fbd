"""Per-link large-scale state and fast-fading channel generation.

Each (user, AP) link carries a slow-fading gain beta, a LOS power fraction
kappa in [0, 1] (the share of beta in the LOS ray; kappa = K/(K+1) for a
Ricean K-factor K), and a far-field-free steering vector built from exact
element-to-user path lengths. Fast fading draws follow the Ricean model

    g = sqrt(beta) * ( sqrt(kappa) e^{j theta} a + sqrt(1 - kappa) h ),
    h ~ CN(0, I),

with theta redrawn uniformly per coherence block. kappa = 1 is pure LOS
and kappa = 0 is Rayleigh fading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .deployment import Drop, GUE, UAV, toroidal_distance, wrapped_delta
from .errors import ConfigurationError, GeometryError, OutOfModelError

# ---------------------------------------------------------------------------
# Steering vectors
# ---------------------------------------------------------------------------

def steering_vector(elements, user, wavelength):
    """Array response from exact per-element path lengths.

    elements : (..., N, 3) antenna coordinates, element 0 is the reference
    user     : (..., 3) user coordinates (same frame as elements, unwrapped)

    Entry ell is exp(-j 2 pi (r_0 - r_ell) / lambda); entry 0 is 1.
    """
    if wavelength <= 0:
        raise GeometryError("wavelength must be positive")
    elements = np.asarray(elements, dtype=float)
    user = np.asarray(user, dtype=float)
    diff = elements - user[..., None, :]
    r = np.sqrt(np.sum(diff * diff, axis=-1))
    if np.any(r <= 0):
        raise GeometryError("user coincides with an antenna element")
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


def three_slope_path_loss_db(distance_3d, cfg: SystemConfig):
    """Ground-link path gain in dB (negative): -35 dB/decade beyond d1,
    -20 dB/decade between d0 and d1, flat inside d0."""
    d = np.asarray(distance_3d, dtype=float)
    if np.any(d <= 0):
        raise GeometryError("non-positive link distance")
    L = cost231_constant(cfg.carrier_freq, cfg.ap_height, cfg.gue_height)
    d0_km = cfg.three_slope_d0 / 1000.0
    d1_km = cfg.three_slope_d1 / 1000.0
    d_km = d / 1000.0
    pl_far = -L - 35.0 * np.log10(d_km)
    pl_mid = -L - 15.0 * np.log10(d1_km) - 20.0 * np.log10(d_km)
    pl_near = -L - 15.0 * np.log10(d1_km) - 20.0 * np.log10(d0_km)
    return np.where(d > cfg.three_slope_d1, pl_far,
                    np.where(d > cfg.three_slope_d0, pl_mid, pl_near))


def _correlated_field(positions, area_side, decorr, rng):
    """Sample a zero-mean unit-variance Gaussian field over the given nodes
    with covariance exp(-d/decorr) (toroidal horizontal distance), which
    need not be positive definite for long decorr on the torus."""
    n = positions.shape[0]
    p = np.column_stack([positions[:, :2], np.zeros(n)])
    dist = toroidal_distance(p[:, None, :], p[None, :, :], area_side)
    cov = np.exp(-dist / decorr)
    try:
        chol = np.linalg.cholesky(cov + 1e-10 * np.eye(n))
    except np.linalg.LinAlgError:
        raise ConfigurationError(f"shadow_decorr = {decorr:g} m is too long "
                                 "for this drop's positions") from None
    return chol @ rng.standard_normal(n)


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


def los_probability(distance_2d, uav_height):
    """LOS probability for an aerial user in the urban-micro scenario, from
    the aerial table, which holds for heights in [22.5, 300] m as the aerial
    path loss does.
    """
    d = np.asarray(distance_2d, dtype=float)
    h = np.asarray(uav_height, dtype=float)
    if np.any(h < AERIAL_H_MIN) or np.any(h > AERIAL_H_MAX):
        raise OutOfModelError("UAV height outside [22.5, 300] m")
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
    if np.any(h < AERIAL_H_MIN) or np.any(h > AERIAL_H_MAX):
        raise OutOfModelError("UAV height outside [22.5, 300] m")
    if np.any(d <= 0):
        raise GeometryError("non-positive link distance")
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
# Link-state assembly and fading draws
# ---------------------------------------------------------------------------

@dataclass
class LinkSet:
    """Vectorized large-scale state for all (user, AP) pairs of a drop.

    beta, los_frac : (n_users, n_aps); los_frac is the share of beta in the
                     LOS ray, 1 on pure-LOS links and 0 on Rayleigh ones
    steering       : (n_users, n_aps, n_ap_antennas)
    """
    beta: np.ndarray
    los_frac: np.ndarray
    steering: np.ndarray


def build_links(drop: Drop, cfg: SystemConfig, rng: np.random.Generator) -> LinkSet:
    """Compute large-scale state for every (user, AP) pair of a drop.

    UAV links draw one Bernoulli LOS state per drop, used consistently for
    the LOS/NLOS path-loss branch; their LOS power fraction is the LOS
    probability itself. Ground links are Rayleigh (fraction 0).
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
    dist3d = np.sqrt(np.sum(delta * delta, axis=-1))
    dist2d = np.sqrt(np.sum(delta[..., :2] ** 2, axis=-1))
    if np.any(dist3d <= 0):
        raise GeometryError("user coincides with an AP")

    steer = steering_vector(drop.ap_elements[None, :, :, :], user_img,
                            cfg.wavelength)

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

    return LinkSet(beta=beta, los_frac=los_frac, steering=steer)


def covariance_coeffs(beta, los_frac):
    """(c_los, c_eye) with G = c_los a a^H + c_eye I: beta kappa and
    beta (1 - kappa), the powers of a link's LOS and scattered components."""
    beta = np.asarray(beta, dtype=float)
    kappa = np.asarray(los_frac, dtype=float)
    return beta * kappa, beta * (1.0 - kappa)


def sample_channels(beta, los_frac, steering, rng: np.random.Generator,
                    n_draws=None):
    """Draw fast-fading channel vectors for the given links.

    beta, los_frac : (...,) broadcastable link arrays
    steering       : (..., N)
    Returns (..., N), or (n_draws, ..., N) when n_draws is given. Phase
    rotations are redrawn per call (one call == one coherence block).
    """
    steering = np.asarray(steering)
    los_amp, scatter_amp = map(np.sqrt, covariance_coeffs(beta, los_frac))
    shape = np.broadcast_shapes(los_amp.shape, steering.shape[:-1])
    n = steering.shape[-1]
    lead = () if n_draws is None else (n_draws,)
    full = lead + shape

    theta = rng.uniform(0.0, 2.0 * np.pi, size=full)
    # Scattered part CN(0, scatter_amp^2): real then imaginary normals,
    # scaled into g in place.
    g = np.empty(full + (n,), dtype=complex)
    scale = (scatter_amp / np.sqrt(2.0))[..., None]
    part = rng.standard_normal(full + (n,))
    np.multiply(part, scale, out=g.real)
    rng.standard_normal(out=part)
    np.multiply(part, scale, out=g.imag)
    del part
    # LOS part, formed only on the links that have one (every link still
    # draws its phase, so the draw stream does not depend on los_frac).
    los_amp = np.broadcast_to(los_amp, shape).reshape(-1)
    los = np.flatnonzero(los_amp > 0)
    phase = np.exp(1j * theta.reshape(lead + (-1,))[..., los])
    a = np.broadcast_to(steering, shape + (n,)).reshape(-1, n)[los]
    g_los = g.reshape(lead + (-1, n))
    g_los[..., los, :] += (los_amp[los] * phase)[..., None] * a
    return g
