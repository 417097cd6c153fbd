import os
import subprocess
import sys

import numpy as np
import pytest

import cfmimo
from cfmimo import cli, harness
from cfmimo.config import SystemConfig
from cfmimo.errors import CfmimoError, ConfigurationError, NumericalError
from cfmimo.harness import (emit_cdf, percentile, run_experiment,
                            simulate_drop, summarize)


def tiny_cfg(**over):
    base = dict(area_side=300.0, n_aps=4, n_gues=3, n_uavs=2,
                n_ap_antennas=2, tau_c=20, tau_p=4, rng_seed=3)
    base.update(over)
    return SystemConfig(**base)


class TestPercentile:
    def test_median(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_endpoints(self):
        s = np.arange(10.0)
        assert percentile(s, 0.0) == 0.0
        assert percentile(s, 1.0) == 9.0

    def test_interpolates(self):
        assert percentile([0.0, 1.0], 0.25) == pytest.approx(0.25)

    def test_empty_rejected(self):
        with pytest.raises(CfmimoError):
            percentile([], 0.5)

    def test_out_of_range_q(self):
        with pytest.raises(CfmimoError):
            percentile([1.0], 1.5)


class TestSimulateDrop:
    def test_report_shapes_and_sanity(self):
        cfg = tiny_cfg()
        rep = simulate_drop(cfg, np.random.default_rng(0), 8)
        for arr in (rep.se_lb_dl, rep.se_ub_dl, rep.se_lb_ul, rep.se_ub_ul):
            assert arr.shape == (5,)
            assert np.all(np.isfinite(arr)) and np.all(arr >= 0)

    def test_uc_cluster_of_every_ap_is_cell_free(self):
        # A user-centric cluster of all APs is the cell-free serving set, so
        # a default-scale drop must give the same LB and UB rates bit for bit.
        cf = SystemConfig()
        uc = SystemConfig(association_mode="UC", uc_cluster_size=cf.n_aps)
        a = simulate_drop(cf, np.random.default_rng(40), 4)
        b = simulate_drop(uc, np.random.default_rng(40), 4)
        for name in ("se_lb_dl", "se_ub_dl", "se_lb_ul", "se_ub_ul",
                     "ub_stderr_dl", "ub_stderr_ul"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("field", [0, 1, 2, 3])
    def test_non_finite_output_rejected(self, monkeypatch, field):
        # One NaN in any UB output (SE or stderr) stops the campaign with
        # the drop's index; a NaN UL UB power feeds NaN into the LB too.
        real = harness.se_ub_mc

        def nan_stage(*args, **kwargs):
            out = [x.copy() for x in real(*args, **kwargs)]
            out[field][1] = np.nan
            return tuple(out)

        monkeypatch.setattr(harness, "se_ub_mc", nan_stage)
        with pytest.raises(NumericalError, match="^drop 0: non-finite"):
            run_experiment(tiny_cfg(), 2, 4)

    def test_non_finite_lower_bound_rejected(self, monkeypatch):
        real = harness.fpc
        monkeypatch.setattr(harness, "fpc",
                            lambda *a, **k: real(*a, **k) * np.nan)
        with pytest.raises(NumericalError, match="^drop 0: non-finite"):
            run_experiment(tiny_cfg(), 1, 4)


class TestRunExperiment:
    def test_shapes_and_populations(self):
        cfg = tiny_cfg()
        res = run_experiment(cfg, n_drops=2, n_fading_trials=4)
        assert res.rate_lb_dl.shape == (2, 5)
        assert res.samples("gue", "dl", "lb").size == 2 * 3
        assert res.samples("uav", "ul", "ub").size == 2 * 2
        for pop in ("gue", "uav"):
            s = res.samples(pop, "dl", "lb")
            assert np.all(np.diff(s) >= 0)

    def test_deterministic_given_seed(self):
        cfg = tiny_cfg()
        r1 = run_experiment(cfg, 2, 4)
        r2 = run_experiment(tiny_cfg(), 2, 4)
        assert np.array_equal(r1.rate_lb_dl, r2.rate_lb_dl)
        assert np.array_equal(r1.rate_ub_ul, r2.rate_ub_ul)

    def test_seed_changes_output(self):
        r1 = run_experiment(tiny_cfg(), 2, 4)
        r2 = run_experiment(tiny_cfg(rng_seed=4), 2, 4)
        assert not np.array_equal(r1.rate_lb_dl, r2.rate_lb_dl)

    def test_rates_are_se_times_bandwidth(self):
        # A one-drop campaign runs its drop on the first stream spawned
        # from the config's seed.
        cfg = tiny_cfg()
        res = run_experiment(cfg, 1, 4)
        rng = np.random.default_rng(
            np.random.SeedSequence(cfg.rng_seed).spawn(1)[0])
        rep = simulate_drop(cfg, rng, 4)
        for name in ("lb_dl", "ub_dl", "lb_ul", "ub_ul"):
            np.testing.assert_array_equal(
                getattr(res, f"rate_{name}"),
                [getattr(rep, f"se_{name}") * cfg.bandwidth])

    def test_long_shadow_decorr_is_a_config_error(self):
        # exp(-d/decorr) over toroidal distances is not positive definite
        # here; which values fail depends on the drawn positions.
        cfg = SystemConfig(n_aps=20, n_gues=10, n_uavs=4, shadow_decorr=1e6)
        with pytest.raises(ConfigurationError,
                           match="drop 0: shadow_decorr = 1e\\+06 m"):
            run_experiment(cfg, 1, 1)

    def test_invalid_counts(self):
        with pytest.raises(CfmimoError):
            run_experiment(tiny_cfg(), 0, 4)
        with pytest.raises(CfmimoError):
            run_experiment(tiny_cfg(), 1, 0)


class TestEmitCdf:
    def test_files_and_round_trip(self, tmp_path):
        res = run_experiment(tiny_cfg(), 2, 4)
        files = emit_cdf(res, tmp_path)
        assert len(files) == 8 + 1   # 2 pops x 2 dirs x 2 bounds + summary
        path = tmp_path / "gue_dl_lb.csv"
        assert path.read_text().startswith("rate_bps,cdf\n")
        rates, cdf = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
        assert rates.size == 6
        assert np.all(np.diff(rates) >= 0)
        assert np.all(np.diff(cdf) > 0)
        assert cdf[-1] == 1.0
        # CSV keeps 12 significant digits
        assert np.allclose(rates, res.samples("gue", "dl", "lb"), rtol=1e-11)

    def test_summary_rows(self, tmp_path):
        res = run_experiment(tiny_cfg(), 2, 4)
        emit_cdf(res, tmp_path)
        rows = summarize(tmp_path)
        assert len(rows) == 8
        row = [r for r in rows if r["population"] == "uav"
               and r["direction"] == "ul" and r["bound"] == "lb"][0]
        assert int(row["n_samples"]) == 4
        s = res.samples("uav", "ul", "lb")
        assert float(row["rate_p50_bps"]) == pytest.approx(percentile(s, 0.5))

    def test_empty_population_noted(self, tmp_path):
        res = run_experiment(tiny_cfg(n_uavs=0, n_gues=4), 1, 4)
        emit_cdf(res, tmp_path)
        rows = summarize(tmp_path)
        uav_rows = [r for r in rows if r["population"] == "uav"]
        assert all(int(r["n_samples"]) == 0 for r in uav_rows)
        assert not (tmp_path / "uav_dl_lb.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        emit_cdf(run_experiment(tiny_cfg(), 2, 4), d1)
        emit_cdf(run_experiment(tiny_cfg(), 2, 4), d2)
        for name in ("gue_dl_lb.csv", "uav_ul_ub.csv", "summary.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def run_cli(*args):
    # The child imports the same cfmimo as the tests, wherever it lives.
    src = os.path.dirname(os.path.dirname(cfmimo.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "cfmimo.cli", *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


class TestCli:
    def test_run_and_summarize(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        tiny_cfg().to_json(cfg_path)
        out = tmp_path / "out"
        r = run_cli("run", "--config", str(cfg_path), "--drops", "1",
                    "--fading-trials", "4", "--seed", "9", "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert (out / "summary.csv").exists()
        s = run_cli("summarize", "--in", str(out))
        assert s.returncode == 0
        assert "rate_p50_bps" in s.stdout
        assert "uav" in s.stdout

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        tiny_cfg().to_json(cfg_path)
        outs = []
        for seed in ("5", "6"):
            out = tmp_path / seed
            r = run_cli("run", "--config", str(cfg_path), "--drops", "1",
                        "--fading-trials", "4", "--seed", seed,
                        "--out", str(out))
            assert r.returncode == 0, r.stderr
            outs.append((out / "gue_dl_lb.csv").read_bytes())
        assert outs[0] != outs[1]

    def test_bad_config_exits_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"n_apps": 5}')
        r = run_cli("run", "--config", str(cfg_path), "--out",
                    str(tmp_path / "o"))
        assert r.returncode == 2
        assert r.stderr.startswith("ERROR ConfigurationError:")

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b"\xff\xfe")
        code = cli.main(["run", "--config", str(cfg_path), "--out",
                         str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            f"ERROR ConfigurationError: malformed config file {cfg_path}:")

    def test_missing_config_exits_3(self, tmp_path):
        r = run_cli("run", "--config", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "o"))
        assert r.returncode == 3
        assert r.stderr.startswith("ERROR IOError:")

    def test_summarize_missing_dir_exits_3(self, tmp_path):
        r = run_cli("summarize", "--in", str(tmp_path / "nope"))
        assert r.returncode == 3
        assert r.stderr.startswith("ERROR IOError:")

    def test_nan_scenario_value_exits_2(self, tmp_path, capsys):
        # json.load accepts NaN; the config boundary must reject it.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"noise_figure": NaN}')
        code = cli.main(["run", "--config", str(cfg_path), "--out",
                         str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "ERROR ConfigurationError: noise_figure must be finite"]

    def test_overflowing_db_value_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"fpc_p0": 4000}')
        code = cli.main(["run", "--config", str(cfg_path), "--out",
                         str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "ERROR ConfigurationError: fpc_p0 overflows in mW"]

    def test_long_shadow_decorr_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        SystemConfig(n_aps=20, n_gues=10, n_uavs=4,
                     shadow_decorr=1e6).to_json(cfg_path)
        code = cli.main(["run", "--config", str(cfg_path), "--drops", "1",
                         "--fading-trials", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            "ERROR ConfigurationError: drop 0: shadow_decorr = 1e+06 m")

    def test_mistyped_config_value_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"n_aps": "5"}')
        code = cli.main(["run", "--config", str(cfg_path), "--out",
                         str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "ERROR ConfigurationError: n_aps must be an integer, got '5'"]

    def test_internal_error_prints_one_line(self, tmp_path, monkeypatch,
                                            capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("stage failed")

        monkeypatch.setattr(cli, "run_experiment", broken)
        cfg_path = tmp_path / "cfg.json"
        tiny_cfg().to_json(cfg_path)
        code = cli.main(["run", "--config", str(cfg_path), "--out",
                         str(tmp_path / "o")])
        assert code != 0
        assert capsys.readouterr().err.splitlines() == [
            "ERROR InternalError: RuntimeError: stage failed"]
