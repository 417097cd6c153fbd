#!/usr/bin/env python3
"""Self-test of the campaign benchmark, in seconds.

    python3 bench/selftest.py

- runs every workload's code path, untraced and traced, on a toy scenario
  and checks that each metric named in BENCHMARK.json is printed with its
  unit;
- shows that each output check rejects a deliberately perturbed output, so
  that no gate is vacuous;
- shows that the benchmark refuses to run without the repository's sources.
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import run

# Dense enough that every SINR stays far above the round-off of log2(1 + x).
TOY = dict(area_side=250.0, n_aps=8, n_gues=6, n_uavs=3, n_ap_antennas=2,
           tau_p=4, uc_cluster_size=3)


def toy(wl):
    return dataclasses.replace(wl, overrides={**wl.overrides, **TOY},
                               n_drops=2)


def declared_metrics():
    with open(run.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            {w["name"] for w in spec["workloads"]})


def test_workloads_print_every_metric(out_root):
    e2e, layer, names = declared_metrics()
    assert names == set(run.WORKLOADS), names
    assert e2e == run.E2E_UNITS and layer == run.LAYER_UNITS
    for name, wl in run.WORKLOADS.items():
        for trace, want in ((False, e2e), (True, layer)):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                run.run_benchmark(name, toy(wl), seed=1, seconds=1,
                                  trace=trace, ref=None, out_root=out_root)
            lines = buf.getvalue().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, trace, got)
            for k, m in result["metrics"].items():
                assert np.isfinite(m["value"]), (k, m)
                assert any(line.startswith(f"{k} = ")
                           and line.endswith(f" {m['unit']}")
                           for line in lines), k
            print(f"ok  {name} trace={int(trace)}: {len(got)} metrics")


def test_checks_reject_perturbed_outputs(out_root):
    wl = toy(run.WORKLOADS["ub_default"])
    _, result, files = run.untraced_campaign(wl, 7, out_root / "plain")
    assert run.check_rates(result, wl.n_drops) == []
    assert run.check_files(result, files) == []

    for name, bad in (("rate_ub_dl", np.nan), ("rate_lb_ul", -1.0),
                      ("rate_ub_ul", 0.0), ("rate_lb_dl", 0.0)):
        broken = dataclasses.replace(result)
        setattr(broken, name, getattr(result, name).copy())
        getattr(broken, name)[1, 2] = bad
        assert run.check_rates(broken, wl.n_drops), (name, bad)

    wfpc = run.Workload({**wl.overrides, "dl_policy": "WFPC"}, 2, 4)
    _, result_w, _ = run.untraced_campaign(wfpc, 7, out_root / "wfpc")
    one_sided = dataclasses.replace(result_w,
                                    rate_lb_dl=result_w.rate_lb_dl.copy())
    one_sided.rate_lb_dl[0, 0] = 0.0
    assert run.check_rates(result_w, 2) == []
    assert run.check_rates(one_sided, 2)

    Path(files[0]).write_text("rate_bps,cdf\n")
    assert run.check_files(result, files)

    # The stored reference accepts the real workload and rejects an LB rate
    # moved by 1e-7 of itself.
    name = "lb_sweep"
    ref = run.load_reference(name)
    wl_ref = run.WORKLOADS[name]
    _, real, _ = run.untraced_campaign(wl_ref, run.REF_SEED, out_root / "ref")
    assert run.check_reference(real, ref) == []
    moved = json.loads(json.dumps(ref))
    moved["rate_lb_ul"][0][0] *= 1 + 1e-7
    assert run.check_reference(real, moved)

    # A zero reference entry is reported as a deviation, not as nan.
    zero = json.loads(json.dumps(ref))
    zero["rate_lb_dl"][0][0] = 0.0
    problems = run.check_reference(real, zero)
    assert problems == ["reference rate_lb_dl: 1 rates want 0, got up to "
                        f"{real.rate_lb_dl[0, 0]:.6g}"], problems

    # The traced campaign runs the real drop loop with wrapped stages: it
    # reproduces the untraced one, sees every stage once per drop and leaves
    # cfmimo.harness as it found it.
    originals = {name: getattr(run.harness, name) for name in run.STAGES}
    uc = toy(run.WORKLOADS["uc_wfpc_dense"])
    assert uc.n_trials == 10
    tracer = run.Tracer()
    traced, t_files, sid, err_dl, err_ul = run.traced_campaign(
        uc.config(7), uc.n_drops, uc.n_trials, out_root / "traced", tracer)
    assert {name: getattr(run.harness, name)
            for name in run.STAGES} == originals
    _, plain, p_files = run.untraced_campaign(uc, 7, out_root / "plain")
    assert run.check_mirror(traced, t_files, plain, p_files) == []
    assert run.check_stage_calls(tracer, sid, uc.n_drops) == []
    assert run.check_stage_calls(tracer, sid, uc.n_drops + 1)
    drift = dataclasses.replace(traced, rate_ub_ul=traced.rate_ub_ul.copy())
    drift.rate_ub_ul[0, 0] = np.nextafter(drift.rate_ub_ul[0, 0], np.inf)
    assert run.check_mirror(drift, t_files, plain, p_files)

    # LB <= UB + t stderr at 10 trials: passes as computed; a UB lowered to
    # just past the threshold below its LB fails, and one just inside passes.
    assert err_dl.shape == err_ul.shape == traced.rate_lb_dl.shape
    assert run.check_lb_below_ub(traced, err_dl, err_ul, uc.n_trials) == []
    n = uc.n_trials
    t = run.t_quantile(1 - run.LB_UB_ALPHA / (2 * traced.cfg.n_users), n - 1)
    assert 15 < t < 25, t
    for name, err in (("rate_ub_dl", err_dl), ("rate_ub_ul", err_ul)):
        lb = getattr(traced, name.replace("ub", "lb"))
        k = int(np.argmax(err[0]))
        width = t * np.sqrt(n / (n - 1)) * err[0, k] * traced.cfg.bandwidth
        for factor, rejected in ((1.01, True), (0.99, False)):
            low = dataclasses.replace(traced)
            setattr(low, name, getattr(traced, name).copy())
            getattr(low, name)[0, k] = lb[0, k] - factor * width
            got = run.check_lb_below_ub(low, err_dl, err_ul, n)
            assert bool(got) == rejected, (name, factor, got)
    print("ok  output checks reject perturbed rates, files, reference, "
          "traced campaign and LB > UB")


def test_refuses_without_sources(out_root):
    bare = out_root / "bare"
    shutil.copytree(run.BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          "lb_sweep", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=bare, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode != 0 and '"correct"' not in out.stdout, out
    print("ok  refuses to run without src/cfmimo")


def main():
    out_root = run.OUT_DIR / "selftest"
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    test_workloads_print_every_metric(out_root)
    test_checks_reject_perturbed_outputs(out_root)
    test_refuses_without_sources(out_root)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
