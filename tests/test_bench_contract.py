"""The benchmark's hold on the library: bench/run.py rebinds the stage names
harness.simulate_drop looks up and reads arguments and results of some of
them by name. A renamed stage, parameter or return order shows up here
instead of only when the benchmark runs."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from cfmimo.harness import simulate_drop

BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the module executes.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["ub_default", "lb_sweep", "uc_wfpc_dense"])
def test_traced_campaign_mirrors_the_untraced_one(bench, name, tmp_path):
    wl = dataclasses.replace(bench.WORKLOADS[name], n_drops=1, n_trials=2)
    seed = bench.campaign_seed(3, 1)
    tracer = bench.Tracer()
    traced, t_files, sid, err_dl, err_ul = bench.traced_campaign(
        wl.config(seed), wl.n_drops, wl.n_trials, tmp_path / "traced", tracer)
    _, plain, p_files = bench.untraced_campaign(wl, seed, tmp_path / "plain")
    assert bench.check_stage_calls(tracer, sid, wl.n_drops) == []
    assert bench.check_mirror(traced, t_files, plain, p_files) == []
    # The stderrs the bench takes from se_ub_mc's results are the drop's.
    drop_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    rep = simulate_drop(wl.config(seed), drop_rng, wl.n_trials)
    np.testing.assert_array_equal(err_dl, [rep.ub_stderr_dl])
    np.testing.assert_array_equal(err_ul, [rep.ub_stderr_ul])
