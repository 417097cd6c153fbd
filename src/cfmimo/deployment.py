"""Network drops: AP/user placement on a wrap-around square and pilot assignment.

The square is wrapped around at the edges (horizontal coordinates only) to
emulate an infinite plane of access points; heights never wrap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig

GUE = 0
UAV = 1


@dataclass
class Drop:
    """One random realization of all node positions and pilot assignments.

    ap_positions      : (n_aps, 3) reference-element coordinates
    ap_elements       : (n_aps, n_ap_antennas, 3) per-antenna coordinates
    user_positions    : (n_users, 3)
    user_kind         : (n_users,) GUE=0 / UAV=1
    pilot_index       : (n_users,) in [0, tau_p)
    """

    ap_positions: np.ndarray
    ap_elements: np.ndarray
    user_positions: np.ndarray
    user_kind: np.ndarray
    pilot_index: np.ndarray

    @property
    def n_aps(self):
        return self.ap_positions.shape[0]

    @property
    def n_users(self):
        return self.user_positions.shape[0]


def user_kinds(cfg: SystemConfig):
    """The user layout of every drop, (n_users,): the n_gues GUEs first,
    then the n_uavs UAVs."""
    return np.concatenate([np.full(cfg.n_gues, GUE, dtype=int),
                           np.full(cfg.n_uavs, UAV, dtype=int)])


def assign_pilots(cfg: SystemConfig, n_users: int, rng: np.random.Generator):
    """Random pilot assignment: each user draws uniformly from the tau_p
    orthogonal sequences, independently. Collisions (pilot contamination)
    are allowed and expected when n_users > tau_p."""
    return rng.integers(0, cfg.tau_p, size=n_users)


def sample_drop(cfg: SystemConfig, rng: np.random.Generator) -> Drop:
    """Sample one network drop.

    AP and user horizontal positions are i.i.d. uniform over the square;
    GUEs sit at the fixed ground-user height, UAV heights are uniform over
    the configured range. Each AP carries a uniform linear array laid out
    along a uniformly random horizontal azimuth. cfg must be valid.
    """
    side = cfg.area_side
    n_a, n_g, n_u = cfg.n_aps, cfg.n_gues, cfg.n_uavs
    n_users = n_g + n_u

    ap_xy = rng.uniform(0.0, side, size=(n_a, 2))
    ap_positions = np.column_stack([ap_xy, np.full(n_a, cfg.ap_height)])
    ap_azimuths = rng.uniform(0.0, 2.0 * np.pi, size=n_a)

    spacing = cfg.antenna_spacing * cfg.wavelength
    ell = np.arange(cfg.n_ap_antennas)
    direction = np.stack([np.cos(ap_azimuths), np.sin(ap_azimuths),
                          np.zeros(n_a)], axis=1)
    # Element ell sits at ref + ell*spacing*direction; horizontal coords are
    # NOT re-wrapped: the array is a rigid body around its reference element.
    ap_elements = (ap_positions[:, None, :]
                   + ell[None, :, None] * spacing * direction[:, None, :])

    user_xy = rng.uniform(0.0, side, size=(n_users, 2))
    heights = np.empty(n_users)
    heights[:n_g] = cfg.gue_height
    heights[n_g:] = rng.uniform(cfg.uav_height_range[0],
                                cfg.uav_height_range[1], size=n_u)
    user_positions = np.column_stack([user_xy, heights])

    pilot_index = assign_pilots(cfg, n_users, rng)

    return Drop(ap_positions=ap_positions, ap_elements=ap_elements,
                user_positions=user_positions, user_kind=user_kinds(cfg),
                pilot_index=pilot_index)


def wrapped_delta(p, q, area_side: float) -> np.ndarray:
    """Signed displacement q - p with horizontal components wrapped to the
    nearest image, i.e. into [-side/2, side/2). Heights are absolute."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = q - p
    for i in (0, 1):                 # each horizontal view, wrapped in place
        v = d[..., i]
        v -= area_side * np.round(v / area_side)
    return d


def hypot3(x, y, z):
    """Euclidean length sqrt(x*x + y*y + z*z) from the three coordinate
    arrays, summed left to right (np.sum's order over a length-3 axis)."""
    return np.sqrt(x * x + y * y + z * z)


def toroidal_distance(p, q, area_side: float):
    """3D distance on the wrap-around square (z never wraps)."""
    return hypot3(*np.moveaxis(wrapped_delta(p, q, area_side), -1, 0))
