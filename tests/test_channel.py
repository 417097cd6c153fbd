import numpy as np
import pytest

from cfmimo import channel
from cfmimo.channel import (LinkSet, build_links, cost231_constant,
                            gue_large_scale, los_probability,
                            steering_vector, three_slope_path_loss_db,
                            uav_path_loss_db, uav_large_scale)
from cfmimo.config import SystemConfig
from cfmimo.deployment import (GUE, UAV, sample_drop, toroidal_distance,
                               wrapped_delta)
from cfmimo.errors import GeometryError, OutOfModelError
from cfmimo.harness import run_experiment

from conftest import channel_block, covariance_G

CFG = SystemConfig()
LAM = CFG.wavelength


def ula_elements(n, spacing):
    return np.stack([np.arange(n) * spacing,
                     np.zeros(n), np.zeros(n)], axis=1)


class TestSteeringVector:
    def test_broadside_equidistant_user(self):
        # ULA along x; user on the perpendicular bisector plane of a
        # two-element array is equidistant from both elements.
        el = ula_elements(2, LAM / 2)
        user = np.array([LAM / 4, 50.0, 0.0])
        a = steering_vector(el, user, LAM)
        assert np.allclose(a, 1.0)

    def test_reference_entry_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            el = ula_elements(4, LAM / 2) + rng.normal(size=3)
            user = rng.uniform(-100, 100, 3)
            a = steering_vector(el, user, LAM)
            assert a[0] == pytest.approx(1.0)
            assert np.allclose(np.abs(a), 1.0)

    def test_endfire_far_user(self):
        # user far away along the array axis: path differences approach
        # whole element spacings -> phases ~ (0, pi, 2pi, 3pi) at lambda/2
        el = ula_elements(4, LAM / 2)
        user = np.array([1e7, 0.0, 0.0])
        a = steering_vector(el, user, LAM)
        # independent exact-distance computation
        r = np.linalg.norm(el - user, axis=1)
        expected = np.exp(-2j * np.pi * (r[0] - r) / LAM)
        assert np.allclose(a, expected)
        assert np.allclose(a, np.exp(1j * np.pi * np.arange(4)), atol=1e-5)

    def test_user_on_element_rejected(self):
        el = ula_elements(2, LAM / 2)
        with pytest.raises(GeometryError):
            steering_vector(el, el[0], LAM)


def _user_on_an_ap():
    cfg = SystemConfig(n_aps=3, n_gues=2, n_uavs=0)
    drop = sample_drop(cfg, np.random.default_rng(0))
    drop.user_positions[1] = drop.ap_positions[2]
    return build_links(drop, cfg, np.random.default_rng(1))


def _ground_user_on_an_element(element):
    # A Rayleigh user gets no steering vector, but is still checked against
    # every element, the farthest from the reference (3) included. Binary
    # fractions keep the user's image exact.
    cfg = SystemConfig(n_aps=3, n_gues=2, n_uavs=0)
    drop = sample_drop(cfg, np.random.default_rng(0))
    drop.ap_positions[2] = [100.0, 200.0, cfg.ap_height]
    drop.ap_elements[2] = drop.ap_positions[2] + [[0.0, 0.0, 0.0],
                                                  [0.0625, 0.0, 0.0],
                                                  [0.125, 0.0, 0.0],
                                                  [0.1875, 0.0, 0.0]]
    drop.user_positions[1] = drop.ap_elements[2, element]
    return build_links(drop, cfg, np.random.default_rng(1))


# Each geometry check, with its message: a case fails if its check is
# deleted, also where a later check would raise the same type.
@pytest.mark.parametrize("call, match", [
    (lambda: steering_vector(ula_elements(2, LAM / 2), [0.0, 10.0, 0.0], 0.0),
     "wavelength must be positive"),
    (lambda: steering_vector(ula_elements(2, LAM / 2), [0.0, 10.0, 0.0], -LAM),
     "wavelength must be positive"),
    (lambda: three_slope_path_loss_db([10.0, 0.0], CFG),
     "non-positive link distance"),
    (lambda: three_slope_path_loss_db(-5.0, CFG),
     "non-positive link distance"),
    (lambda: uav_path_loss_db(0.0, 50.0, CFG.carrier_freq, True),
     "non-positive link distance"),
    (lambda: uav_path_loss_db([30.0, -1.0], 50.0, CFG.carrier_freq, False),
     "non-positive link distance"),
    (_user_on_an_ap, "user coincides with an AP"),
    (lambda: _ground_user_on_an_element(1),
     "user coincides with an antenna element"),
    (lambda: _ground_user_on_an_element(3),
     "user coincides with an antenna element"),
], ids=["zero_wavelength", "negative_wavelength", "three_slope_zero",
        "three_slope_negative", "aerial_zero", "aerial_negative",
        "user_on_an_ap", "ground_user_on_element_1",
        "ground_user_on_element_3"])
def test_degenerate_geometry_is_a_geometry_error(call, match):
    with pytest.raises(GeometryError, match=match):
        call()


@pytest.mark.parametrize("call, error, match", [
    (lambda: three_slope_path_loss_db(np.nan, CFG), GeometryError,
     r"^non-positive link distance$"),
    (lambda: los_probability(100.0, np.nan), OutOfModelError,
     r"^UAV height outside \[22\.5, 300\] m$"),
    (lambda: uav_path_loss_db(np.nan, 50.0, 1.9e9, True), GeometryError,
     r"^non-positive link distance$"),
], ids=["three_slope_distance", "los_probability_height",
        "aerial_distance"])
def test_nan_fails_the_model_limit_checks(call, error, match):
    # NaN compares false both ways, so each check asks that every value is
    # inside its limits rather than that none is outside them.
    with pytest.raises(error, match=match):
        call()


class TestThreeSlope:
    def test_outer_slope_35db_per_decade(self):
        b1 = 10 ** (three_slope_path_loss_db(100.0, CFG) / 10)
        b2 = 10 ** (three_slope_path_loss_db(1000.0, CFG) / 10)
        assert b2 / b1 == pytest.approx(10 ** -3.5)

    def test_middle_slope_20db_per_decade(self):
        # keep both distances in (d0, d1] = (10, 50]
        p1 = three_slope_path_loss_db(11.0, CFG)
        p2 = three_slope_path_loss_db(44.0, CFG)
        assert p1 - p2 == pytest.approx(20 * np.log10(4.0))

    def test_flat_inside_d0(self):
        assert three_slope_path_loss_db(2.0, CFG) \
            == pytest.approx(three_slope_path_loss_db(9.0, CFG))

    def test_continuous_at_breakpoints(self):
        for d in (CFG.three_slope_d0, CFG.three_slope_d1):
            lo = three_slope_path_loss_db(d * (1 - 1e-9), CFG)
            hi = three_slope_path_loss_db(d * (1 + 1e-9), CFG)
            assert lo == pytest.approx(hi, abs=1e-5)

    def test_cost231_reference_value(self):
        # independent transcription of the Hata-COST231 constant
        f, hap, hu = 1900.0, 15.0, 1.65
        L = (46.3 + 33.9 * np.log10(f) - 13.82 * np.log10(hap)
             - (1.1 * np.log10(f) - 0.7) * hu + 1.56 * np.log10(f) - 0.8)
        assert cost231_constant(1.9e9, 15.0, 1.65) == pytest.approx(L)

    def test_shadowing_mean_recovers_path_loss(self):
        rng = np.random.default_rng(1)
        d = 300.0
        z = rng.standard_normal(100000)
        beta = gue_large_scale(np.full(z.shape, d), z, CFG)
        mean_db = np.mean(10 * np.log10(beta))
        assert mean_db == pytest.approx(three_slope_path_loss_db(d, CFG),
                                        abs=0.1)

    def test_no_shadowing_inside_d1(self):
        beta = gue_large_scale(30.0, 5.0, CFG)   # large z must be ignored
        assert 10 * np.log10(beta) == pytest.approx(
            three_slope_path_loss_db(30.0, CFG))


def _field_cov(seed):
    """exp(-d/decorr) over 20 uniform nodes of a 100 m square, decorr 100 m,
    on toroidal distances, as channel._correlated_field forms it."""
    p = np.random.default_rng(seed).uniform(0.0, 100.0, (20, 3))
    p[:, 2] = 0.0
    return np.exp(-toroidal_distance(p[:, None], p[None], 100.0) / 100.0)


class TestCorrelatedField:
    def test_cholesky_factor_kept_where_it_exists(self):
        # Positive definite: the factor is the Cholesky factor, bit for
        # bit, so every stream that drew with it is unchanged.
        cov = _field_cov(0)
        np.testing.assert_array_equal(
            channel._field_factor(cov),
            np.linalg.cholesky(cov + 1e-10 * np.eye(20)))

    def test_fallback_factor_gives_the_clipped_target(self):
        # Not positive definite (smallest eigenvalue -0.0067): F F^T is cov
        # with its negative eigenvalues set to 0, rescaled to unit diagonal.
        cov = _field_cov(1)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(cov + 1e-10 * np.eye(20))
        w, v = np.linalg.eigh(cov)
        clipped = (v * np.maximum(w, 0.0)) @ v.T
        d = 1.0 / np.sqrt(np.diag(clipped))
        target = d[:, None] * clipped * d
        F = channel._field_factor(cov)
        np.testing.assert_allclose(F @ F.T, target, rtol=0, atol=1e-10)
        assert np.linalg.eigvalsh(target).min() > -1e-12

    def test_small_square_runs_on_every_seed(self):
        # 20 APs on a 100 m square at the default 100 m decorrelation:
        # exp(-d/decorr) is not positive definite on seeds 1, 4 and 9,
        # whose drops once failed. Every seed gives finite rates.
        for seed in range(10):
            cfg = SystemConfig(area_side=100.0, n_aps=20, n_gues=10,
                               n_uavs=2, rng_seed=seed)
            res = run_experiment(cfg, 1, 1)
            for name in ("lb_dl", "ub_dl", "lb_ul", "ub_ul"):
                assert np.all(np.isfinite(getattr(res, f"rate_{name}")))


def los_probability_oracle(d2d, h):
    # independent transcription of the aerial urban-micro LOS table
    import math
    if h < 22.5:
        raise ValueError
    if h > 100.0:
        return 1.0
    d1 = max(294.05 * math.log10(h) - 432.94, 18.0)
    p1 = 233.98 * math.log10(h) - 0.95
    if d2d <= d1:
        return 1.0
    return d1 / d2d + math.exp(-d2d / p1) * (1 - d1 / d2d)


def uav_pl_oracle(d3d, h, f_ghz, los):
    import math
    pl_los = 30.9 + (22.25 - 0.5 * math.log10(h)) * math.log10(d3d) \
        + 20 * math.log10(f_ghz)
    if los:
        return pl_los
    pl_n = 32.4 + (43.2 - 7.6 * math.log10(h)) * math.log10(d3d) \
        + 20 * math.log10(f_ghz)
    return max(pl_los, pl_n)


class TestAerialModel:
    def test_los_probability_limits_and_range(self):
        assert los_probability(0.0, 50.0) == pytest.approx(1.0)
        rng = np.random.default_rng(2)
        d = rng.uniform(0, 5000, 10000)
        h = rng.uniform(22.5, 300, 10000)
        p = los_probability(d, h)
        assert np.all((p >= 0) & (p <= 1))

    def test_los_probability_monotonicity(self):
        d = np.linspace(1, 3000, 500)
        p = los_probability(d, 100.0)
        assert np.all(np.diff(p) <= 1e-12)
        h = np.linspace(23, 300, 200)
        p = los_probability(800.0, h)
        assert np.all(np.diff(p) >= -1e-12)

    def test_los_probability_spot_values(self):
        for d, h in [(100, 30), (500, 100), (500, 101), (1500, 250),
                     (10, 25)]:
            assert los_probability(d, h) == pytest.approx(
                los_probability_oracle(d, h), rel=1e-12)

    def test_los_probability_out_of_model(self):
        with pytest.raises(OutOfModelError,
                           match=r"^UAV height outside \[22\.5, 300\] m$"):
            los_probability(100.0, 400.0)
        with pytest.raises(OutOfModelError):
            los_probability(100.0, 1.0)
        # Below the aerial table's 22.5 m, as for the aerial path loss.
        with pytest.raises(OutOfModelError):
            los_probability(100.0, 10.0)

    def test_path_loss_spot_values(self):
        for d, h, los in [(100, 30, True), (100, 30, False),
                          (800, 120, True), (2000, 299, False)]:
            assert uav_path_loss_db(d, h, 1.9e9, los) == pytest.approx(
                uav_pl_oracle(d, h, 1.9, los), rel=1e-12)

    def test_path_loss_monotone_along_ray(self):
        h = 100.0
        d = np.linspace(h + 1, 5000, 300)
        for los in (True, False):
            beta = uav_large_scale(d, h, 1.9e9, los)
            assert np.all(np.diff(beta) < 0)

    def test_identical_inputs_identical_beta(self):
        b1 = uav_large_scale(500.0, 80.0, 1.9e9, True)
        b2 = uav_large_scale(500.0, 80.0, 1.9e9, True)
        assert b1 == b2

    def test_height_out_of_model(self):
        with pytest.raises(OutOfModelError,
                           match=r"^UAV height outside \[22\.5, 300\] m$"):
            uav_path_loss_db(100.0, 10.0, 1.9e9, True)


class TestBuildLinks:
    def test_los_frac_is_los_probability(self):
        # A UAV link's LOS power fraction is its LOS probability; ground
        # links are Rayleigh.
        cfg = SystemConfig(area_side=400.0, n_aps=8, n_gues=5, n_uavs=6)
        drop = sample_drop(cfg, np.random.default_rng(50))
        links = build_links(drop, cfg, np.random.default_rng(51))
        uav = drop.user_kind == UAV
        delta = wrapped_delta(drop.ap_positions[None, :, :],
                              drop.user_positions[:, None, :], cfg.area_side)
        dist2d = np.sqrt(np.sum(delta[..., :2] ** 2, axis=-1))
        p_los = los_probability(dist2d[uav], drop.user_positions[uav, 2:])
        assert np.any(p_los < 1.0) and np.any(p_los == 1.0)
        np.testing.assert_array_equal(links.los_frac[uav], p_los)
        np.testing.assert_array_equal(links.los_frac[~uav], 0.0)

    def test_steering_only_on_rows_with_a_los_link(self, monkeypatch):
        # The rows are chosen by los_frac, not by kind: a UAV whose every
        # link has LOS probability 0 gets none; one with a single LOS link
        # gets its whole row. Those rows equal steering_vector on the
        # user's image at each AP; every other row is exactly 0.
        real = channel.los_probability

        def los_probability(d, h):
            p = real(d, h)
            p[0] = 0.0
            p[1, 1:] = 0.0
            return p
        monkeypatch.setattr(channel, "los_probability", los_probability)
        cfg = SystemConfig(n_aps=10, n_gues=4, n_uavs=5)
        drop = sample_drop(cfg, np.random.default_rng(54))
        links = build_links(drop, cfg, np.random.default_rng(55))
        rows = np.any(links.los_frac > 0, axis=1)
        np.testing.assert_array_equal(rows, [0, 0, 0, 0, 0, 1, 1, 1, 1])
        assert np.all(links.steering[~rows] == 0)
        image = drop.ap_positions[None] + wrapped_delta(
            drop.ap_positions[None], drop.user_positions[:, None],
            cfg.area_side)
        np.testing.assert_array_equal(
            links.steering[rows],
            steering_vector(drop.ap_elements[None], image[rows],
                            cfg.wavelength))
        np.testing.assert_allclose(np.abs(links.steering[rows]), 1.0,
                                   rtol=1e-12)

    def test_no_shadowing_gives_the_bare_three_slope_law(self):
        # shadowing_std = 0 draws no shadowing field: every GUE link,
        # inside and beyond d1, gets the three-slope path gain alone.
        cfg = SystemConfig(n_aps=20, n_gues=30, n_uavs=4, shadowing_std=0.0)
        drop = sample_drop(cfg, np.random.default_rng(52))
        links = build_links(drop, cfg, np.random.default_rng(53))
        gue = drop.user_kind == GUE
        d = toroidal_distance(drop.ap_positions[None, :, :],
                              drop.user_positions[gue, None, :], cfg.area_side)
        far = d > cfg.three_slope_d1
        assert np.any(far) and np.any(~far)
        np.testing.assert_allclose(
            links.beta[gue], 10.0 ** (three_slope_path_loss_db(d, cfg) / 10.0),
            rtol=1e-14, atol=0)


def _dense_los_channels(beta, los_frac, steering, rng, n_draws):
    """EstimatorSet.channels with the LOS term formed on every link,
    los_frac = 0 included, as the simulator first did: the reference for
    the LOS skip."""
    los_amp = np.sqrt(beta * los_frac)
    scatter_amp = np.sqrt(beta * (1.0 - los_frac))
    full = (n_draws,) + beta.shape
    theta = rng.uniform(0.0, 2.0 * np.pi, size=full)
    scale = (scatter_amp / np.sqrt(2.0))[..., None]
    h = rng.standard_normal(full + (steering.shape[-1], 2))  # real, imaginary
    g = h[..., 0] * scale + 1j * (h[..., 1] * scale)
    return g + (los_amp * np.exp(1j * theta))[..., None] * steering


def _one_link(beta, los_frac, steer):
    """One user on one AP, whose draws (T, 1, 1, N) are read as (T, N)."""
    return LinkSet(beta=np.full((1, 1), beta),
                   los_frac=np.full((1, 1), los_frac),
                   steering=steer[None, None])


class TestSampleChannels:
    """EstimatorSet.channels, the channel draw of a drop's links."""

    @pytest.mark.parametrize("n_draws", [1, 7])
    def test_los_skip_matches_dense_formula(self, n_draws):
        # Rayleigh, Ricean and pure-LOS links in one array, plus a link
        # with beta = 0; the draw stream and every bit must be unchanged.
        rng = np.random.default_rng(40)
        beta = rng.uniform(0.5, 2.0, (4, 3))
        kappa = np.zeros((4, 3))
        k = rng.uniform(0.1, 10.0, 3)
        kappa[1] = k / (k + 1.0)
        kappa[2] = [1.0, 0.75, 1.0]
        kappa[3, 2] = 1.0
        beta[3, 0] = 0.0
        steer = np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 3, 5)))
        got = channel_block(LinkSet(beta, kappa, steer)).channels(
            np.random.default_rng(41), n_draws)
        want = _dense_los_channels(beta, kappa, steer,
                                   np.random.default_rng(41), n_draws)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n_draws", [1, 7])
    def test_out_buffer_matches_the_allocating_call(self, n_draws):
        # A caller's buffer, filled with stale values, receives the same
        # bits as a new array, and the stream advances the same way.
        rng = np.random.default_rng(44)
        beta = rng.uniform(0.5, 2.0, (4, 3))
        kappa = rng.uniform(0.0, 1.0, (4, 3))
        kappa[0] = 0.0
        kappa[1, 1] = 1.0
        steer = np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 3, 5)))
        block = channel_block(LinkSet(beta, kappa, steer))
        rngs = np.random.default_rng(45), np.random.default_rng(45)
        want = block.channels(rngs[0], n_draws)
        buf = np.full(want.shape, np.nan + 1j, dtype=complex)
        got = block.channels(rngs[1], n_draws, out=buf)
        assert got is buf
        np.testing.assert_array_equal(got, want)
        assert rngs[0].random() == rngs[1].random()

    def test_out_buffer_of_the_wrong_shape_rejected(self):
        links = LinkSet(np.ones((2, 3)), np.full((2, 3), 0.5),
                        np.ones((2, 3, 4)))
        with pytest.raises(ValueError, match="shape"):
            channel_block(links).channels(
                np.random.default_rng(0), 2,
                out=np.empty((2, 2, 3, 5), dtype=complex))

    def test_rayleigh_sample_covariance(self):
        rng = np.random.default_rng(3)
        beta, n = 2.0, 4
        steer = np.exp(1j * rng.uniform(0, 2 * np.pi, n)); steer[0] = 1
        block = channel_block(_one_link(beta, 0.0, steer))
        g = block.channels(rng, 200000)[:, 0, 0]
        cov = np.einsum("tn,tm->nm", g, np.conj(g)) / len(g)
        assert np.linalg.norm(cov - beta * np.eye(n)) \
            < 0.02 * np.linalg.norm(beta * np.eye(n))

    def test_pure_los_norm_exact(self):
        rng = np.random.default_rng(4)
        steer = np.exp(1j * rng.uniform(0, 2 * np.pi, 4)); steer[0] = 1
        block = channel_block(_one_link(3.0, 1.0, steer))
        g = block.channels(rng, 50)[:, 0, 0]
        assert np.allclose(np.sum(np.abs(g) ** 2, axis=-1), 3.0 * 4)

    def test_sample_covariance_matches_covariance_G(self):
        rng = np.random.default_rng(5)
        beta, kappa, n = 1.7, 2.5 / 3.5, 4
        steer = np.exp(1j * rng.uniform(0, 2 * np.pi, n)); steer[0] = 1
        G = covariance_G(beta, kappa, steer)
        block = channel_block(_one_link(beta, kappa, steer))
        g = block.channels(rng, 300000)[:, 0, 0]
        cov = np.einsum("tn,tm->nm", g, np.conj(g)) / len(g)
        assert np.linalg.norm(cov - G) < 0.01 * np.linalg.norm(G)

    def test_zero_mean_over_phase(self):
        rng = np.random.default_rng(6)
        steer = np.exp(1j * rng.uniform(0, 2 * np.pi, 4)); steer[0] = 1
        block = channel_block(_one_link(1.0, 5.0 / 6.0, steer))
        g = block.channels(rng, 200000)[:, 0, 0]
        assert np.all(np.abs(g.mean(axis=0)) < 0.01)
