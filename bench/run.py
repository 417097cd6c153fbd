#!/usr/bin/env python3
"""Campaign benchmark for cfmimo.

    python3 bench/run.py --workload ub_default --seed 1 --seconds 30 --trace 0

Runs seeded simulation campaigns from the checkout's own ``src/`` for
``--seconds`` seconds, checks every output and prints each metric with its
unit. The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

A campaign is what ``cfmimo run`` does after loading its config:
``run_experiment`` followed by ``emit_cdf``. Every campaign of a run gets its
own seed derived from ``--seed``.

``--trace 0`` times whole campaigns with nothing timed inside them and
reports the end-to-end metrics. ``--trace 1`` alternates untraced campaigns
with traced ones and reports per-layer metrics. A traced campaign calls the
same ``run_experiment``, with each stage function that
``harness.simulate_drop`` looks up in its module rebound, from outside the
library, to a copy wrapped in a span. Its rates must equal the untraced
campaign's bit for bit, and every stage must be seen once per drop; when
either fails, the trace is declared invalid and the run counts as failed.

The workload rationale, metric definitions and measured stage shares are in
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import inspect
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "_out"
REFERENCE_PATH = BENCH_DIR / "reference.json"

# The benchmark measures the sources next to it, never an installed copy.
if not (SRC / "cfmimo" / "__init__.py").is_file():
    raise SystemExit(f"bench: no cfmimo sources at {SRC}; run from the root "
                     "of a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import cfmimo  # noqa: E402
from cfmimo import (ExperimentResult, SystemConfig, emit_cdf,  # noqa: E402
                    harness, run_experiment)
from cfmimo.deployment import GUE, UAV  # noqa: E402

REF_SEED = 0          # SystemConfig's default rng_seed
REF_RTOL = 1e-9       # LB rates may move by round-off only
SETUP_REPEATS = 11    # fresh interpreters timed per run for setup_s
TAIL_BEYOND = 10      # samples required beyond the reported tail percentile
LB_UB_ALPHA = 1e-6    # chance per drop that a correct UB fails LB <= UB
RATE_FIELDS = ("rate_lb_dl", "rate_ub_dl", "rate_lb_ul", "rate_ub_ul")


@dataclass(frozen=True)
class Workload:
    overrides: dict   # SystemConfig fields that differ from the defaults
    n_drops: int      # drops per campaign: the run-length knob
    n_trials: int     # fading trials per drop: part of the workload

    def config(self, seed: int) -> SystemConfig:
        return SystemConfig(**self.overrides, rng_seed=seed)


# Why each workload exists, and what it stresses, is in bench/README.md.
WORKLOADS = {
    "ub_default": Workload({}, n_drops=1, n_trials=100),
    "lb_sweep": Workload({}, n_drops=5, n_trials=1),
    "uc_wfpc_dense": Workload(
        dict(association_mode="UC", uc_cluster_size=10, dl_policy="WFPC",
             n_gues=96, n_uavs=24),
        n_drops=1, n_trials=10),
}

E2E_UNITS = {
    "campaign_s": "s",
    "campaign_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYER_UNITS = {
    "bounds.se_ub_mc_s": "s",
    "bounds.se_ub_mc_trials": "count",
    "bounds.se_ub_mc_gflop": "GFLOP",
    "bounds.se_ub_mc_gflops": "GFLOP/s",
    "bounds.uatf_terms_s": "s",
    "bounds.uatf_terms_gflop": "GFLOP",
    "bounds.uatf_terms_gflops": "GFLOP/s",
    "bounds.sinr_dl_lb_s": "s",
    "bounds.sinr_ul_lb_s": "s",
    "estimation.build_estimators_s": "s",
    "estimation.pilot_collision_users": "count",
    "channel.build_links_s": "s",
    "deployment.sample_drop_s": "s",
    "allocation.associate_s": "s",
    "allocation.dl_power_allocation_s": "s",
    "allocation.fpc_s": "s",
    "allocation.served_link_frac": "fraction",
    "harness.emit_cdf_s": "s",
    "harness.emit_cdf_bytes": "bytes",
    "harness.residual_s": "s",
    "config.from_json_s": "s",
    "trace.overhead_s": "s",
}


def campaign_seed(seed: int, i: int) -> int:
    return seed * 100_000 + i


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _openblas():
    """ctypes handle on the OpenBLAS numpy loaded and its symbol naming, or
    (None, None) when numpy uses another BLAS."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f
                            if "openblas" in line and ".so" in line})
    except OSError:
        return None, None
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                return lib, (prefix, suffix)
    return None, None


def cap_blas_threads(nproc: int):
    """Keep OpenBLAS at no more threads than this process may run on.
    Returns (threads found, threads used, OpenBLAS config string)."""
    lib, naming = _openblas()
    if lib is None:
        return None, None, None
    prefix, suffix = naming
    get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
    get.restype = ctypes.c_int
    found = get()
    if found > nproc:
        setter = getattr(lib, f"{prefix}_set_num_threads{suffix}")
        setter.argtypes = [ctypes.c_int]
        setter(nproc)
    config = getattr(lib, f"{prefix}_get_config{suffix}", None)
    text = None
    if config is not None:
        config.restype = ctypes.c_char_p
        text = config().decode()
    return found, get(), text


def source_identity():
    """Git commit when the checkout is a repository, and always a digest of
    the cfmimo sources so that a non-git checkout is identified too."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "cfmimo").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return commit, digest.hexdigest()[:16]


def environment():
    """The environment record; caps OpenBLAS threads at nproc on the way."""
    nproc = len(os.sched_getaffinity(0))
    found, used, blas_config = cap_blas_threads(nproc)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    commit, src_digest = source_identity()
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_runtime_config": blas_config,
        "blas_threads_found": found,
        "blas_threads_used": used,
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS") if k in os.environ},
        "loadavg_at_start": os.getloadavg(),
        "git_commit": commit,
        "src_sha256_16": src_digest,
        "cfmimo_file": cfmimo.__file__,
    }


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def check_rates(result: ExperimentResult, n_drops: int):
    """Every rate finite, one row per drop and one column per user, and
    positive. The one exception is waterfilling (WFPC), which may give a
    user no downlink power at any serving AP: its downlink LB and UB are
    then both exactly 0."""
    problems = []
    shape = (n_drops, result.cfg.n_users)
    for name in RATE_FIELDS:
        r = getattr(result, name)
        if r.shape != shape:
            problems.append(f"{name} has shape {r.shape}, want {shape}")
        elif not np.all(np.isfinite(r)):
            problems.append(f"{name} has {int((~np.isfinite(r)).sum())} "
                            "non-finite rates")
    if problems:
        return problems
    for name in RATE_FIELDS:
        r = getattr(result, name)
        if np.any(r < 0):
            problems.append(f"{name} has {int((r < 0).sum())} rates < 0")
    for name in ("rate_lb_ul", "rate_ub_ul"):
        r = getattr(result, name)
        if np.any(r == 0):
            problems.append(f"{name} has {int((r == 0).sum())} zero rates")
    lb0, ub0 = result.rate_lb_dl == 0, result.rate_ub_dl == 0
    if result.cfg.dl_policy != "WFPC" and np.any(lb0 | ub0):
        problems.append(f"{int((lb0 | ub0).sum())} zero downlink rates "
                        f"under {result.cfg.dl_policy}")
    elif np.any(lb0 != ub0):
        problems.append(f"{int((lb0 != ub0).sum())} users with exactly one "
                        "of the downlink LB and UB at 0")
    return problems


def check_files(result: ExperimentResult, files):
    """One CDF file per non-empty cell with one row per sample, plus the
    summary."""
    problems = []
    names = {os.path.basename(f): f for f in files}
    if "summary.csv" not in names:
        problems.append("summary.csv not written")
    for pop, kind in (("gue", GUE), ("uav", UAV)):
        n = result.rate_lb_dl.shape[0] * int((result.user_kind == kind).sum())
        if n == 0:
            continue
        for cell in ("dl_lb", "dl_ub", "ul_lb", "ul_ub"):
            name = f"{pop}_{cell}.csv"
            if name not in names:
                problems.append(f"{name} not written")
                continue
            with open(names[name]) as f:
                rows = sum(1 for _ in f) - 1
            if rows != n:
                problems.append(f"{name} has {rows} rows, want {n}")
    return problems


def check_reference(result: ExperimentResult, ref: dict):
    """LB rates of the reference campaign against the stored ones. The LB
    depends only on draws made before the UB kernel, so a change to the UB
    kernel's draws must leave it in place."""
    problems = []
    for name in ("rate_lb_dl", "rate_lb_ul"):
        got = getattr(result, name)
        want = np.asarray(ref[name], dtype=float)
        if got.shape != want.shape:
            problems.append(f"reference {name}: shape {got.shape}, "
                            f"want {want.shape}")
        elif not np.allclose(got, want, rtol=REF_RTOL, atol=0.0):
            # A zero reference rate (a WFPC user without downlink power) has
            # no relative deviation; it is reported apart.
            zero = want == 0
            if np.any(got[zero] != 0):
                problems.append(f"reference {name}: {int((got[zero] != 0).sum())}"
                                " rates want 0, got up to "
                                f"{float(np.max(np.abs(got[zero]))):.6g}")
            dev = np.abs(got - want)[~zero] / np.abs(want[~zero])
            if not np.all(dev <= REF_RTOL):
                problems.append(f"reference {name}: worst relative deviation "
                                f"{float(dev.max()):.3g} > {REF_RTOL:g}")
    return problems


def t_quantile(p: float, dof: int) -> float:
    """Quantile p in (0.5, 1) of Student's t with an integer number of
    degrees of freedom, by bisection on the closed-form distribution
    function (Abramowitz & Stegun 26.7.3 and 26.7.4)."""
    def upper_tail(t):
        theta = math.atan(t / math.sqrt(dof))
        c2 = math.cos(theta) ** 2
        if dof % 2:
            term = total = math.cos(theta) if dof > 1 else 0.0
            for j in range(1, (dof - 1) // 2):
                term *= 2 * j / (2 * j + 1) * c2
                total += term
            inside = 2 / math.pi * (theta + math.sin(theta) * total)
        else:
            term = total = 1.0
            for j in range(1, dof // 2):
                term *= (2 * j - 1) / (2 * j) * c2
                total += term
            inside = math.sin(theta) * total
        return (1.0 - inside) / 2

    q = 1.0 - p
    lo, hi = 0.0, 1.0
    while upper_tail(hi) > q:
        lo, hi = hi, 2 * hi
    for _ in range(200):
        mid = (lo + hi) / 2
        if upper_tail(mid) > q:
            lo = mid
        else:
            hi = mid
    return hi


def check_lb_below_ub(result: ExperimentResult, stderr_dl, stderr_ul,
                      n_trials: int):
    """LB <= UB + t * stderr for every user of every drop, with the stderr
    se_ub_mc returned for that drop, shape (n_drops, K) per direction.

    Each drop makes 2K one-sided tests, Bonferroni-corrected so that a
    correct UB fails a drop with probability LB_UB_ALPHA at most. se_ub_mc
    divides its variance by n, so its stderr is scaled by sqrt(n / (n - 1)),
    and t is Student's quantile for n - 1 degrees of freedom. One trial
    gives no stderr, so there is nothing to check."""
    if n_trials < 2:
        return []
    n_users = result.cfg.n_users
    t = t_quantile(1.0 - LB_UB_ALPHA / (2 * n_users), n_trials - 1)
    scale = (t * math.sqrt(n_trials / (n_trials - 1))
             * result.cfg.bandwidth)
    bad = 0
    for lb, ub, err in ((result.rate_lb_dl, result.rate_ub_dl, stderr_dl),
                        (result.rate_lb_ul, result.rate_ub_ul, stderr_ul)):
        bad += int((lb > ub + scale * np.asarray(err)).sum())
    return [f"{bad} users with LB > UB + {t:.3g} stderr"] if bad else []


def check_mirror(traced: ExperimentResult, traced_files,
                 untraced: ExperimentResult, untraced_files):
    """The traced campaign must reproduce the untraced one exactly: the
    stage wrappers must change nothing."""
    problems = []
    for name in RATE_FIELDS:
        if getattr(traced, name).tobytes() != getattr(untraced, name).tobytes():
            problems.append(f"traced {name} differs from the untraced one")
    a = {os.path.basename(f): Path(f).read_bytes() for f in traced_files}
    b = {os.path.basename(f): Path(f).read_bytes() for f in untraced_files}
    if a != b:
        problems.append("traced CSV files differ from the untraced ones")
    return problems


# ---------------------------------------------------------------------------
# Tracing from outside the library
# ---------------------------------------------------------------------------

def span_name(fn):
    """<module>.<function>, e.g. bounds.se_ub_mc."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Spans and counts recorded in memory around calls into cfmimo.

    A span is [id, parent id, name, start ns, end ns]; counts are summed per
    name at the same boundaries. ub_stderr collects the (stderr_dl,
    stderr_ul) that se_ub_mc returns, one pair per drop.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.ub_stderr = []
        self._open = []

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [sid, parent, name, time.perf_counter_ns(), None]
        self.spans.append(record)
        self._open.append(sid)
        try:
            yield sid
        finally:
            record[4] = time.perf_counter_ns()
            self._open.pop()

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, fn, counter=None):
        """fn inside a span named <module>.<function>; counter, if any, then
        records counts from fn's bound arguments and its return value."""
        name = span_name(fn)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments, out)
            return out
        return wrapper


# Counts taken from the stages' arguments and results. Operation counts are
# computed from the shapes (complex multiply-add = 8 flop). se_ub_mc: the DL
# and UL K x K x (A N) contractions per trial. uatf_terms: tr(D G) and the
# cross trace, K^2 A N^2 each; a^H D a, K^2 A (N^2 + N); G D^H, K A N^3.

def _count_sample_drop(tr, args, out):
    tr.count("drops", 1)


def _count_associate(tr, args, out):
    tr.count("allocation.served_link_frac", float(np.mean(out.serving)))


def _count_build_estimators(tr, args, out):
    pilots = np.asarray(args["pilot_index"])
    tr.count("estimation.pilot_collision_users",
             int((np.bincount(pilots)[pilots] > 1).sum()))


def _count_uatf_terms(tr, args, out):
    K, A = args["links"].beta.shape
    N = args["links"].steering.shape[-1]
    tr.count("bounds.uatf_terms_gflop",
             8 * A * (3 * K * K * N * N + K * K * N + K * N ** 3) / 1e9)


def _count_se_ub_mc(tr, args, out):
    K, A = args["links"].beta.shape
    N = args["links"].steering.shape[-1]
    n = args["n_trials"]
    tr.count("bounds.se_ub_mc_trials", n)
    tr.count("bounds.se_ub_mc_gflop", 2 * 8 * K * K * A * N * n / 1e9)
    tr.ub_stderr.append((out[1], out[3]))


# The stage functions harness.simulate_drop calls, as names it looks up in
# its module's globals, each with its counter.
STAGES = {
    "sample_drop": _count_sample_drop,
    "build_links": None,
    "associate": _count_associate,
    "build_estimators": _count_build_estimators,
    "dl_power_allocation": None,
    "fpc": None,
    "uatf_terms": _count_uatf_terms,
    "sinr_dl_lb": None,
    "sinr_ul_lb": None,
    "se_ub_mc": _count_se_ub_mc,
}


@contextmanager
def staged(tr: Tracer):
    """Rebind each stage in cfmimo.harness to a wrapped copy of itself, so
    that run_experiment runs the program's own drop loop with every stage
    call timed; the originals are restored on exit."""
    originals = {name: getattr(harness, name) for name in STAGES}
    try:
        for name, counter in STAGES.items():
            setattr(harness, name, tr.wrap(originals[name], counter))
        yield
    finally:
        for name, fn in originals.items():
            setattr(harness, name, fn)


def traced_campaign(cfg: SystemConfig, n_drops: int, n_trials: int, out_dir,
                    tr: Tracer):
    """run_experiment + emit_cdf with every stage wrapped. Returns (result,
    files, campaign span id, stderr_dl, stderr_ul), the stderrs of shape
    (n_drops, K)."""
    tr.ub_stderr = []
    with staged(tr), tr.span("harness.campaign") as sid:
        result = run_experiment(cfg, n_drops, n_trials)
        with tr.span("harness.emit_cdf"):
            files = emit_cdf(result, out_dir)
    stderr_dl = np.array([dl for dl, _ in tr.ub_stderr])
    stderr_ul = np.array([ul for _, ul in tr.ub_stderr])
    return result, files, sid, stderr_dl, stderr_ul


def check_stage_calls(tr: Tracer, sid: int, n_drops: int):
    """Every stage span must appear once per drop directly under the
    campaign's span; otherwise the drop loop no longer calls the stages
    through cfmimo.harness and the stage times would be silently missing."""
    calls = {}
    for _, parent, name, _, _ in tr.spans[sid + 1:]:
        if parent == sid:
            calls[name] = calls.get(name, 0) + 1
    problems = []
    for name in STAGES:
        span = span_name(getattr(harness, name))
        if calls.get(span, 0) != n_drops:
            problems.append(f"stage {span} called {calls.get(span, 0)} times "
                            f"for {n_drops} drops")
    return problems


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

class Tally:
    """Campaign runs attempted and failed, with the reasons printed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {label}: {p}", file=sys.stderr)
        return not problems


def untraced_campaign(wl: Workload, seed: int, out_dir):
    """One timed campaign; returns (seconds, result, files)."""
    cfg = wl.config(seed)
    t0 = time.perf_counter()
    result = run_experiment(cfg, wl.n_drops, wl.n_trials)
    files = emit_cdf(result, out_dir)
    return time.perf_counter() - t0, result, files


def guarded(tally: Tally, label, fn):
    """Run one campaign; an exception counts it as failed, with traceback."""
    try:
        return fn()
    except Exception:                           # noqa: BLE001 - run boundary
        traceback.print_exc()
        tally.record(label, ["raised"])
        return None


def reference_campaign(wl: Workload, ref, tally: Tally, out_dir):
    """Untimed warm-up at REF_SEED whose LB rates are checked against the
    stored reference (skipped when ref is None)."""
    out = guarded(tally, "reference campaign",
                  lambda: untraced_campaign(wl, REF_SEED, out_dir))
    if out is None:
        return
    _, result, files = out
    problems = check_rates(result, wl.n_drops) + check_files(result, files)
    if ref is not None:
        problems += check_reference(result, ref)
    tally.record("reference campaign", problems)


def measure_setup(wl: Workload, out_dir, repeats=SETUP_REPEATS):
    """Wall time of fresh interpreters that import cfmimo and load and
    validate the workload's config from JSON, as `cfmimo run` does before
    its first drop. One untimed start first fills the file and bytecode
    caches, which a user pays only once."""
    path = Path(out_dir) / "config.json"
    wl.config(REF_SEED).to_json(path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, cfmimo\n"
            "cfmimo.SystemConfig.from_json(sys.argv[1])\n"
            "print(cfmimo.__file__)\n")
    times = []
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                             capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if out.returncode != 0:
            raise RuntimeError(f"setup interpreter failed: {out.stderr}")
        if Path(out.stdout.strip()).resolve() != Path(cfmimo.__file__).resolve():
            raise RuntimeError(f"setup interpreter imported {out.stdout!r}")
        if i:
            times.append(elapsed)
    return times


def tail(samples):
    """(quantile, value): the highest percentile with at least TAIL_BEYOND
    samples above it, never below the median."""
    q = max(0.5, 1.0 - TAIL_BEYOND / len(samples))
    return q, float(np.quantile(samples, q))


def run_untraced(wl: Workload, seed: int, seconds: float, tally: Tally,
                 out_dir):
    times = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        i += 1
        s = campaign_seed(seed, i)
        out = guarded(tally, f"campaign seed {s}",
                      lambda: untraced_campaign(wl, s, out_dir))
        if out is None:
            continue
        elapsed, result, files = out
        if tally.record(f"campaign seed {s}",
                        check_rates(result, wl.n_drops)
                        + check_files(result, files)):
            times.append(elapsed)
    return times


def run_traced(wl: Workload, seed: int, seconds: float, tally: Tally,
               out_dir, tracer: Tracer):
    """Pairs of one untraced and one traced campaign on the same seed, the
    order alternating, until the deadline. Returns the aggregates needed for
    the per-layer metrics."""
    plain_dir = Path(out_dir) / "untraced"
    traced_dir = Path(out_dir) / "traced"
    untraced_s, traced_s, from_json_s, emit_bytes, campaigns = [], [], [], [], []
    trace_ok = True
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        i += 1
        s = campaign_seed(seed, i)
        cfg_path = Path(out_dir) / "config.json"
        wl.config(s).to_json(cfg_path)

        def traced():
            t0 = time.perf_counter()
            cfg = SystemConfig.from_json(cfg_path)
            t1 = time.perf_counter()
            return (t1 - t0,) + traced_campaign(cfg, wl.n_drops, wl.n_trials,
                                                traced_dir, tracer)

        def plain():
            return untraced_campaign(wl, s, plain_dir)

        if i % 2:
            p = guarded(tally, f"campaign seed {s}", plain)
            t = guarded(tally, f"traced campaign seed {s}", traced)
        else:
            t = guarded(tally, f"traced campaign seed {s}", traced)
            p = guarded(tally, f"campaign seed {s}", plain)
        if p is not None:
            elapsed, result, files = p
            ok = tally.record(f"campaign seed {s}",
                              check_rates(result, wl.n_drops)
                              + check_files(result, files))
        if t is None or p is None:
            continue
        load_s, t_result, t_files, sid, err_dl, err_ul = t
        invalid = (check_mirror(t_result, t_files, result, files)
                   + check_stage_calls(tracer, sid, wl.n_drops))
        trace_ok = trace_ok and not invalid
        if tally.record(f"traced campaign seed {s}",
                        invalid + check_lb_below_ub(t_result, err_dl, err_ul,
                                                    wl.n_trials)) and ok:
            untraced_s.append(elapsed)
            span = tracer.spans[sid]
            traced_s.append((span[4] - span[3]) / 1e9)
            from_json_s.append(load_s)
            emit_bytes.append(sum(os.path.getsize(f) for f in t_files))
            campaigns.append(sid)
    return dict(untraced_s=untraced_s, traced_s=traced_s,
                from_json_s=from_json_s, emit_bytes=emit_bytes,
                campaigns=campaigns, trace_ok=trace_ok)


def layer_metrics(tracer: Tracer, agg):
    """Per-campaign means of the stage spans, so that the stage times plus
    harness.residual_s add up to the mean traced campaign time."""
    kept = set(agg["campaigns"])
    m = len(kept)
    # Drops have no span of their own, so every stage span is a direct child
    # of its campaign's span.
    stage = {}
    for _, parent, name, start, end in tracer.spans:
        if parent in kept:
            stage[name] = stage.get(name, 0) + (end - start)
    campaign_ns = sum(tracer.spans[sid][4] - tracer.spans[sid][3]
                      for sid in kept)
    residual_ns = campaign_ns - sum(stage.values())
    per = {name: ns / 1e9 / m for name, ns in stage.items()}
    # Counts cover every traced campaign started, times only those kept.
    counts = tracer.counts
    n_all = sum(1 for s in tracer.spans if s[2] == "harness.campaign")
    drops = counts["drops"]
    values = {
        "bounds.se_ub_mc_s": per["bounds.se_ub_mc"],
        "bounds.se_ub_mc_trials": counts["bounds.se_ub_mc_trials"] / n_all,
        "bounds.se_ub_mc_gflop": counts["bounds.se_ub_mc_gflop"] / n_all,
        "bounds.uatf_terms_s": per["bounds.uatf_terms"],
        "bounds.uatf_terms_gflop": counts["bounds.uatf_terms_gflop"] / n_all,
        "bounds.sinr_dl_lb_s": per["bounds.sinr_dl_lb"],
        "bounds.sinr_ul_lb_s": per["bounds.sinr_ul_lb"],
        "estimation.build_estimators_s": per["estimation.build_estimators"],
        "estimation.pilot_collision_users":
            counts["estimation.pilot_collision_users"] / drops,
        "channel.build_links_s": per["channel.build_links"],
        "deployment.sample_drop_s": per["deployment.sample_drop"],
        "allocation.associate_s": per["allocation.associate"],
        "allocation.dl_power_allocation_s":
            per["allocation.dl_power_allocation"],
        "allocation.fpc_s": per["allocation.fpc"],
        "allocation.served_link_frac":
            counts["allocation.served_link_frac"] / drops,
        "harness.emit_cdf_s": per["harness.emit_cdf"],
        "harness.emit_cdf_bytes": float(np.mean(agg["emit_bytes"])),
        "harness.residual_s": residual_ns / 1e9 / m,
        "config.from_json_s": float(np.mean(agg["from_json_s"])),
        "trace.overhead_s": float(np.mean(agg["traced_s"])
                                  - np.mean(agg["untraced_s"])),
    }
    values["bounds.se_ub_mc_gflops"] = (values["bounds.se_ub_mc_gflop"]
                                        / values["bounds.se_ub_mc_s"])
    values["bounds.uatf_terms_gflops"] = (values["bounds.uatf_terms_gflop"]
                                          / values["bounds.uatf_terms_s"])
    return values


def run_benchmark(name: str, wl: Workload, seed: int, seconds: float,
                  trace: bool, ref, out_root=OUT_DIR):
    """One benchmark run; prints the report and returns the result object."""
    out_dir = Path(out_root) / f"{name}_seed{seed}_trace{int(trace)}"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {name}: {wl.n_drops} drops x {wl.n_trials} trials per "
          f"campaign, overrides {json.dumps(wl.overrides, sort_keys=True)}")

    tally = Tally()
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "env": env}
    if not trace:
        setup = measure_setup(wl, out_dir)
    reference_campaign(wl, ref, tally, out_dir / "reference")

    if trace:
        tracer = Tracer()
        agg = run_traced(wl, seed, seconds, tally, out_dir, tracer)
        if not agg["campaigns"]:
            raise SystemExit("bench: no traced campaign passed its checks")
        if not agg["trace_ok"]:
            print("TRACE INVALID: the traced campaigns did not reproduce "
                  "run_experiment or did not see every stage once per drop; "
                  "the per-layer numbers below do not describe the program",
                  file=sys.stderr)
        values = layer_metrics(tracer, agg)
        units = LAYER_UNITS
        print(f"traced campaigns: {len(agg['campaigns'])}; mean traced "
              f"{np.mean(agg['traced_s']):.4f} s, mean untraced "
              f"{np.mean(agg['untraced_s']):.4f} s")
        print("GFLOP counts are computed from the array shapes, not "
              "measured; GFLOP/s divides them by the measured stage time")
        record["spans"] = tracer.spans
        record["counts"] = tracer.counts
        record["traced_s"] = agg["traced_s"]
        record["untraced_s"] = agg["untraced_s"]
    else:
        times = run_untraced(wl, seed, seconds, tally, out_dir)
        if not times:
            raise SystemExit("bench: no campaign passed its checks")
        q, tail_s = tail(times)
        values = {
            "campaign_s": float(np.median(times)),
            "campaign_tail_s": tail_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": float(np.median(setup)),
        }
        units = E2E_UNITS
        print(f"campaigns timed: {len(times)}; tail = p{100 * q:.1f}; "
              f"setup interpreters timed: {len(setup)}")
        record["campaign_s"] = times
        record["setup_s"] = setup

    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    for k, m in metrics.items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record["result"] = result
    with open(out_dir / "record.json", "w") as f:
        json.dump(record, f)
    print(json.dumps(result))
    return result


def load_reference(name: str):
    with open(REFERENCE_PATH) as f:
        refs = json.load(f)
    ref = refs.get(name)
    wl = WORKLOADS[name]
    if ref is None or (ref["n_drops"], ref["n_trials"]) != (wl.n_drops,
                                                              wl.n_trials):
        raise SystemExit(f"bench: {REFERENCE_PATH.name} has no reference for "
                         f"{name} at its current shape")
    return ref


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    run_benchmark(args.workload, WORKLOADS[args.workload], args.seed,
                  args.seconds, bool(args.trace),
                  load_reference(args.workload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
