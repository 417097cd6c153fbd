import numpy as np
import pytest
from scipy import stats

from cfmimo.config import SystemConfig
from cfmimo.deployment import assign_pilots, sample_drop, toroidal_distance
from cfmimo.deployment import GUE, UAV
from cfmimo.errors import ConfigurationError


def make_cfg(**kw):
    defaults = dict(n_aps=20, n_gues=48, n_uavs=12, tau_p=32,
                    n_ap_antennas=4)
    defaults.update(kw)
    return SystemConfig(**defaults)


class TestSampleDrop:
    def test_population_counts_and_heights(self):
        cfg = make_cfg()
        drop = sample_drop(cfg, np.random.default_rng(0))
        assert drop.n_users == 60
        uav_z = drop.user_positions[drop.user_kind == UAV, 2]
        assert uav_z.shape == (12,)
        assert np.all((uav_z >= 22.5) & (uav_z <= 300.0))
        gue_z = drop.user_positions[drop.user_kind == GUE, 2]
        assert np.allclose(gue_z, cfg.gue_height)

    def test_deterministic_given_seed(self):
        cfg = make_cfg()
        d1 = sample_drop(cfg, np.random.default_rng(123))
        d2 = sample_drop(cfg, np.random.default_rng(123))
        assert np.array_equal(d1.user_positions, d2.user_positions)
        assert np.array_equal(d1.ap_elements, d2.ap_elements)
        assert np.array_equal(d1.pilot_index, d2.pilot_index)

    def test_no_uavs_degenerate(self):
        cfg = make_cfg(n_gues=10, n_uavs=0)
        drop = sample_drop(cfg, np.random.default_rng(1))
        assert np.allclose(drop.user_positions[:, 2], cfg.gue_height)

    def test_horizontal_in_bounds(self):
        cfg = make_cfg()
        drop = sample_drop(cfg, np.random.default_rng(2))
        for arr in (drop.ap_positions, drop.user_positions):
            assert np.all(arr[:, :2] >= 0) and np.all(arr[:, :2] < cfg.area_side)

    def test_ula_spacing(self):
        cfg = make_cfg()
        drop = sample_drop(cfg, np.random.default_rng(3))
        d = np.linalg.norm(np.diff(drop.ap_elements, axis=1), axis=-1)
        assert np.allclose(d, cfg.antenna_spacing * cfg.wavelength)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            make_cfg(n_gues=0, n_uavs=0)
        with pytest.raises(ConfigurationError):
            make_cfg(area_side=-1.0)
        with pytest.raises(ConfigurationError):
            make_cfg(tau_p=200, tau_c=200)

    def test_position_uniformity_chi_square(self):
        # pooled user positions over many drops on a 10x10 grid
        cfg = make_cfg(n_gues=100, n_uavs=0, tau_p=32)
        rng = np.random.default_rng(4)
        xs, ys = [], []
        for _ in range(100):
            d = sample_drop(cfg, rng)
            xs.append(d.user_positions[:, 0])
            ys.append(d.user_positions[:, 1])
        h, *_ = np.histogram2d(np.concatenate(xs), np.concatenate(ys),
                               bins=10, range=[[0, 1000], [0, 1000]])
        _, p = stats.chisquare(h.ravel())
        assert p > 0.01


class TestAssignPilots:
    def test_marginal_uniform_chi_square(self):
        cfg = make_cfg(tau_p=8)
        rng = np.random.default_rng(5)
        draws = assign_pilots(cfg, 100000, rng)
        counts = np.bincount(draws, minlength=8)
        _, p = stats.chisquare(counts)
        assert p > 0.01

    def test_pigeonhole_collisions(self):
        cfg = make_cfg(tau_p=32)
        draws = assign_pilots(cfg, 60, np.random.default_rng(6))
        n_collisions = 60 - len(np.unique(draws))
        assert n_collisions >= 60 - 32

    def test_single_pilot(self):
        cfg = make_cfg(tau_p=1, tau_c=201)
        draws = assign_pilots(cfg, 10, np.random.default_rng(7))
        assert np.all(draws == 0)

    def test_all_distinct_probability(self):
        # tau_p = 60, 60 users: P(all distinct) = 60!/60^60, astronomically
        # small; over a handful of draws a collision must appear.
        from math import factorial
        p_distinct = factorial(60) / 60.0 ** 60
        assert p_distinct < 1e-24
        cfg = make_cfg(tau_p=60, tau_c=260)
        rng = np.random.default_rng(8)
        collided = any(
            len(np.unique(assign_pilots(cfg, 60, rng))) < 60
            for _ in range(20))
        assert collided


class TestToroidalDistance:
    def test_wrap_by_one_unit(self):
        assert toroidal_distance((0, 0, 0), (999, 0, 0), 1000) == pytest.approx(1.0)

    def test_identical_points(self):
        assert toroidal_distance((3, 4, 5), (3, 4, 5), 1000) == 0.0

    def test_direct_arithmetic(self):
        expected = np.sqrt(500**2 + 500**2 + 135**2)
        assert toroidal_distance((0, 0, 15), (500, 500, 150), 1000) \
            == pytest.approx(expected)

    def test_metric_properties(self):
        rng = np.random.default_rng(9)
        side = 100.0
        for _ in range(200):
            p, q, r = rng.uniform(0, side, (3, 3))
            dpq = toroidal_distance(p, q, side)
            dqp = toroidal_distance(q, p, side)
            assert dpq == pytest.approx(dqp)
            # triangle inequality on the torus
            assert dpq <= toroidal_distance(p, r, side) \
                + toroidal_distance(r, q, side) + 1e-9
            # never exceeds the unwrapped distance
            assert dpq <= np.linalg.norm(p - q) + 1e-12
