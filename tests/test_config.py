import json

import numpy as np
import pytest

from cfmimo.config import SystemConfig, dbm_to_mw
from cfmimo.errors import ConfigurationError


class TestUnitHelpers:
    def test_dbm(self):
        assert dbm_to_mw(0.0) == pytest.approx(1.0)
        assert dbm_to_mw(-35.0) == pytest.approx(10 ** -3.5)
        assert dbm_to_mw(20.0) == pytest.approx(100.0)


class TestDerived:
    def test_counts_and_split(self):
        cfg = SystemConfig()
        assert cfg.n_users == 60
        # Downlink and uplink each take tau_d samples of the data part.
        assert cfg.tau_d == 84
        assert 2 * cfg.tau_d + cfg.tau_p == cfg.tau_c

    def test_wavelength(self):
        cfg = SystemConfig()
        assert cfg.wavelength == pytest.approx(299792458.0 / 1.9e9)

    def test_noise_power(self):
        # -174 dBm/Hz + 10 log10(20 MHz) + 9 dB = -91.99 dBm
        cfg = SystemConfig()
        expected_dbm = -174.0 + 10 * np.log10(20e6) + 9.0
        assert cfg.noise_power_mw == pytest.approx(dbm_to_mw(expected_dbm))

    def test_train_energy(self):
        cfg = SystemConfig()
        assert cfg.train_power == pytest.approx(32 * 100.0)

    def test_fpc_target(self):
        assert SystemConfig().fpc_p0_mw == pytest.approx(10 ** -3.5)


class TestValidation:
    def test_defaults_valid(self):
        SystemConfig().validate()

    def test_pilot_length_vs_block(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(tau_p=200, tau_c=200)
        with pytest.raises(ConfigurationError):
            SystemConfig(tau_c=201)   # odd data part

    def test_no_users(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(n_gues=0, n_uavs=0)

    def test_bad_modes(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(association_mode="XX")
        with pytest.raises(ConfigurationError):
            SystemConfig(dl_policy="MAXMIN")
        with pytest.raises(ConfigurationError):
            SystemConfig(association_mode="UC", uc_cluster_size=101)

    def test_bad_heights(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(uav_height_range=(300.0, 22.5))

    @pytest.mark.parametrize("heights", [(5.0, 20.0), (22.0, 100.0),
                                         (50.0, 301.0)])
    def test_heights_outside_aerial_model(self, heights):
        # The aerial path loss holds for [22.5, 300] m only; outside it
        # every drop would fail with OutOfModelError.
        with pytest.raises(ConfigurationError, match="uav_height_range"):
            SystemConfig(uav_height_range=heights)
        SystemConfig(uav_height_range=(22.5, 22.5))

    def test_ground_only_config_ignores_aerial_range(self):
        # No UAV height is drawn, so the aerial model's range does not apply;
        # the ordering and positivity checks still do.
        SystemConfig(n_uavs=0, uav_height_range=(5.0, 20.0))
        for heights in [(20.0, 5.0), (0.0, 20.0)]:
            with pytest.raises(ConfigurationError, match="uav_height_range"):
                SystemConfig(n_uavs=0, uav_height_range=heights)

    @pytest.mark.parametrize("delta", [-0.1, 1.5, float("nan")])
    def test_shadow_delta_outside_unit_interval(self, delta):
        with pytest.raises(ConfigurationError, match="shadow_delta"):
            SystemConfig(shadow_delta=delta)
        SystemConfig(shadow_delta=0.0)
        SystemConfig(shadow_delta=1.0)

    @pytest.mark.parametrize("side", [float("nan"), float("inf")])
    def test_non_finite_area_side(self, side):
        with pytest.raises(ConfigurationError, match="area_side"):
            SystemConfig(area_side=side)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_fpc_alpha(self, alpha):
        with pytest.raises(ConfigurationError, match="fpc_alpha"):
            SystemConfig(fpc_alpha=alpha)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf")])
    def test_non_finite_dl_power_budget(self, budget):
        with pytest.raises(ConfigurationError, match="dl_power_budget"):
            SystemConfig(dl_power_budget=budget)

    # Each of these used to reach the drop loop: a LinAlgError from the
    # shadowing or estimation stages, a NumericalError at drop 0, or a
    # silent run on an inverted or negative breakpoint. The +-4000 dB values
    # overflow or underflow once converted to mW.
    @pytest.mark.parametrize("field, value", [
        ("noise_figure", float("nan")), ("noise_figure", float("inf")),
        ("noise_figure", float("-inf")),
        ("noise_figure", 4000.0), ("noise_figure", -4000.0),
        ("fpc_p0", float("nan")), ("fpc_p0", float("inf")),
        ("fpc_p0", float("-inf")), ("fpc_p0", 4000.0),
        ("shadowing_std", float("nan")), ("shadowing_std", float("inf")),
        ("shadow_decorr", float("nan")), ("shadow_decorr", 0.0),
        ("shadow_decorr", -5.0), ("shadow_decorr", float("inf")),
        ("three_slope_d0", 0.0), ("three_slope_d0", -1.0),
        ("three_slope_d0", float("nan")), ("three_slope_d0", 80.0),
        ("three_slope_d1", float("nan")), ("three_slope_d1", -3.0),
        ("three_slope_d1", float("inf"))])
    def test_bad_scenario_field(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SystemConfig(**{field: value})

    # Checks that no other test reaches, each with its own message.
    @pytest.mark.parametrize("field, value, match", [
        ("n_ap_antennas", 0, "need at least one AP with one antenna"),
        ("tau_p", 0, "tau_p must be >= 1"),
        ("shadowing_std", -1.0, "shadowing_std must be >= 0"),
    ])
    def test_out_of_range_field(self, field, value, match):
        with pytest.raises(ConfigurationError, match=match):
            SystemConfig(**{field: value})

    def test_three_slope_breakpoints_may_coincide(self):
        SystemConfig(three_slope_d0=50.0, three_slope_d1=50.0)

    # Values as they arrive from a JSON config file.

    @pytest.mark.parametrize("data", [{"n_aps": "5"}, {"n_aps": 5.5},
                                      {"n_aps": 5.0},
                                      {"tau_p": True, "tau_c": 3}])
    def test_int_field_of_another_type(self, data):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            SystemConfig.from_dict(data)

    @pytest.mark.parametrize("value", ["20e6", True, None, [20e6]])
    def test_float_field_of_another_type(self, value):
        with pytest.raises(ConfigurationError,
                           match="bandwidth must be a number"):
            SystemConfig.from_dict({"bandwidth": value})
        # An integer is a number.
        assert SystemConfig.from_dict({"bandwidth": 20_000_000}).bandwidth \
            == 20e6

    @pytest.mark.parametrize("value", [300.0, "22.5-300", [22.5],
                                       [22.5, 100.0, 300.0], [22.5, "300"],
                                       [True, 300.0]])
    def test_height_range_not_a_pair_of_numbers(self, value):
        with pytest.raises(ConfigurationError,
                           match="uav_height_range must be a pair"):
            SystemConfig.from_dict({"uav_height_range": value})

    def test_negative_seed_rejected(self):
        # numpy's SeedSequence takes non-negative integers only.
        with pytest.raises(ConfigurationError, match="rng_seed"):
            SystemConfig(rng_seed=-1)
        SystemConfig(rng_seed=0)

    def test_removed_pilot_gram_switch_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="beta_weighted_pilot_gram"):
            SystemConfig.from_dict({"beta_weighted_pilot_gram": False})


class TestSerialization:
    def test_round_trip(self, tmp_path):
        cfg = SystemConfig(n_aps=7, association_mode="UC", uc_cluster_size=3,
                           dl_policy="WFPC", rng_seed=42)
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        back = SystemConfig.from_json(path)
        assert back == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig.from_dict({"n_apps": 5})

    def test_partial_dict_uses_defaults(self):
        cfg = SystemConfig.from_dict({"n_gues": 5, "n_uavs": 1})
        assert cfg.n_users == 6
        assert cfg.n_aps == 100

    def test_malformed_json(self, tmp_path):
        # Bad JSON, and bytes that are not UTF-8 (RFC 8259's encoding).
        path = tmp_path / "bad.json"
        for raw in (b"{not json", b"\xff\xfe"):
            path.write_bytes(raw)
            with pytest.raises(ConfigurationError,
                               match="malformed config file"):
                SystemConfig.from_json(path)

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([1, 2]))
        with pytest.raises(ConfigurationError):
            SystemConfig.from_json(path)
