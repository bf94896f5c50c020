"""End-to-end and per-layer benchmark of the fpplab CLI.

    python3 perfbench/run.py --workload mix3-verify --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each sample runs one CLI command through ``fpplab.cli.main`` in a fresh
child interpreter (``child.py``) on one thread, so ``peak_rss_mb`` belongs to
that command alone.  ``--trace 0`` repeats the command until ``--seconds``
have passed and reports the end-to-end metrics; ``--trace 1`` alternates an
untraced and a traced sample and reports the per-layer metrics from the
traced one's spans, plus the tracing overhead.  Every sample must pass the
correctness gate (see ``_gate``), or it counts in ``failed``.  ``--seed N``
runs simulation seed N mod 100, whose outputs digests.json records.  Timed
samples alternate with children that time ``child.reference``, a fixed numpy
computation, and ``wall_rel`` divides each command's time by the reference
times around it, to cancel the shared host's drift in speed.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Workloads and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from spans import summarise

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(HERE, "child.py")

DEFAULT_SEED = 7        # fpplab's own default simulation.seed
RECORDED_SEEDS = 100    # digests.json holds simulation seeds 0..99 of every workload
STEPS = 252             # grid steps of the ensemble workloads (horizon 1, step 1/252)
SETUP_PROBES = 8        # import-only children per timed run, for setup_s
RUN_LIMIT_S = 160.0     # start no sample that could push the run past 180 s
CHILD_TIMEOUT_S = 150.0

# one BLAS thread, and no .pyc written anywhere: every child compiles fpplab afresh
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}


def _verdict(label, mode):
    return rf"^{label}:\n{mode} test: verdict=(\S+)"


# The verdict lines each workload prints, as (key, regex capturing the verdict).
VERDICTS = {
    "mix3-verify": [
        ("pi_star", _verdict("pi_star", "martingale")),
        ("null", _verdict("null", "supermartingale")),
        ("perturbed", _verdict("perturbed", "supermartingale")),
        ("structure_scan", r"^structure scan: (\w+)"),
    ],
    "three-power-signed": [
        ("pi_star", r"^martingale check at the optimiser: (\S+)$"),
    ],
    "pool-greedy": [
        ("z_star", r"^comparison written to \S*pool_comparison_fig3\.csv "
                   r"\(z_star = (\S+)\)$"),
    ],
}


def parse_verdicts(workload, stdout):
    found = {}
    for key, pattern in VERDICTS[workload]:
        match = re.search(pattern, stdout, re.M)
        found[key] = match.group(1) if match else None
    return found


MIX3_CONFIG = {
    "market": {"n_stocks": 3, "d_w": 3, "d_wperp": 1,
               "sigma": [[0.2, 0.0, 0.0], [0.05, 0.25, 0.0], [0.0, 0.05, 0.3]],
               "mu": [0.04, 0.05, 0.06]},
    "mixture": {"atoms": [{"gamma": 0.3, "weight": 1.0},
                          {"gamma": 0.5, "weight": 0.5},
                          {"gamma": 0.8, "weight": 0.25}],
                "gamma0": 0.5,
                "h0": {"kind": "portfolio_inversion", "value": [0.5, 0.3, 0.2]},
                "j": {"kind": "constant", "value": [0.1]}},
    "simulation": {"n_paths": 30000},
}
THREE_POWER_CONFIG = {
    "market": {"n_stocks": 1, "d_w": 1, "d_wperp": 0, "sigma": 0.2, "mu": 0.2},
    "simulation": {"n_paths": 60000},
}
POOL_PATHS = 20000

WORKLOADS = {
    "mix3-verify": {
        "config": MIX3_CONFIG,
        "argv": ["verify-fpp"],
        "path_steps": 3 * 30000 * STEPS,
        "csvs": ["brownian_paths.csv", "fpp_states.csv", "verify_null.csv",
                 "verify_perturbed.csv", "verify_pi_star.csv"],
    },
    "three-power-signed": {
        "config": THREE_POWER_CONFIG,
        "argv": ["three-power", "--gamma", "0.25"],
        "path_steps": 60000 * STEPS,
        "csvs": ["three_power_discriminants.csv", "three_power_martingale.csv",
                 "three_power_paths.csv"],
    },
    "pool-greedy": {
        "config": {},
        "argv": ["pool", "compare", "--preset", "fig3", "--paths", str(POOL_PATHS)],
        "path_steps": 3 * POOL_PATHS * 30,
        "csvs": ["pool_comparison_fig3.csv"],
    },
}

# The reported metrics.  wall_rel and path_steps_per_ref divide out the host's
# speed, measured by child.reference around each command; the raw wall_s and
# path_steps_per_s, and ref_s, are printed and recorded beside them.
END_TO_END = [("wall_rel", "ratio"), ("path_steps_per_ref", "1/ref"),
              ("peak_rss_mb", "MB"), ("setup_s", "s")]
HOST_DEPENDENT = [("wall_s", "s"), ("path_steps_per_s", "1/s"), ("ref_s", "s")]

# (metric, span name, summary field, unit); see spans.LAYERS for the span names
PER_LAYER = [
    ("market.normals.s", "market.normals", "s", "s"),
    ("market.normals.calls", "market.normals", "calls", "count"),
    ("market.brownian_batch.self_s", "market.brownian_batch", "self_s", "s"),
    ("market.evolve_log_wealth_batch.self_s", "market.evolve_log_wealth_batch",
     "self_s", "s"),
    ("market.sharpe_ratio.calls", "market.sharpe_ratio", "calls", "count"),
    ("market.sharpe_ratio.s", "market.sharpe_ratio", "s", "s"),
    ("mixture.state_paths.self_s", "mixture.state_paths", "self_s", "s"),
    ("mixture.utility_paths.self_s", "mixture.utility_paths", "self_s", "s"),
    ("mixture.utility_paths.peak_alloc_mb", "mixture.utility_paths",
     "peak_alloc_mb", "MB"),
    ("mixture.signed_exp_sum.s", "mixture.signed_exp_sum", "s", "s"),
    ("mixture.signed_exp_sum.calls", "mixture.signed_exp_sum", "calls", "count"),
    ("three_power.accumulators.s", "three_power.accumulators", "s", "s"),
    ("three_power.utility_paths.self_s", "three_power.utility_paths", "self_s", "s"),
    ("three_power.utility_paths.peak_alloc_mb", "three_power.utility_paths",
     "peak_alloc_mb", "MB"),
    ("three_power.three_power_value.calls", "three_power.three_power_value",
     "calls", "count"),
    ("verify.martingale_test.self_s", "verify.martingale_test", "self_s", "s"),
    ("verify.martingale_test.calls", "verify.martingale_test", "calls", "count"),
    ("verify.structure_scan.s", "verify.structure_scan", "s", "s"),
    ("pooling._greedy_z_batch.s", "pooling._greedy_z_batch", "s", "s"),
    ("pooling._greedy_z_batch.calls", "pooling._greedy_z_batch", "calls", "count"),
    ("pooling._scan_local_maxima.s", "pooling._scan_local_maxima", "s", "s"),
    ("pooling.compare_strategies.self_s", "pooling.compare_strategies", "self_s", "s"),
    ("cli.csv_write.s", "cli.csv_write", "s", "s"),
    ("config.load_config.s", "config.load_config", "s", "s"),
]


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------

def _child(argv, trace, scratch, reference=False):
    """Run child.py once; return its result dict, or None if it died."""
    job = os.path.join(scratch, "job.json")
    result = os.path.join(scratch, "result.json")
    with open(job, "w") as fh:
        json.dump({"src": SRC, "argv": argv, "trace": trace, "reference": reference}, fh)
    env = dict(os.environ, PYTHONPATH="", **CHILD_ENV)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD, job, result, repr(t_spawn)],
                              env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        sys.stderr.write(f"child timed out after {CHILD_TIMEOUT_S} s\n")
        return None
    if proc.returncode != 0 or not os.path.exists(result):
        sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
        return None
    with open(result) as fh:
        out = json.load(fh)
    os.remove(result)
    if not os.path.realpath(out["fpplab_file"]).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"fpplab was imported from {out['fpplab_file']}, not from {SRC}")
    return out


def _gate(workload, res, out_dir, seed, digests):
    """Problems that fail this sample (empty when it passes), and CSV bytes.

    The exit code, the printed verdicts and the SHA-256 of every CSV must
    equal what the commit that added the benchmark produced at this seed.
    """
    if res is None:
        return ["child process failed"], 0
    problems = []
    if res["error"]:
        problems.append(res["error"])
    recorded = digests[workload][str(seed)]
    if res["rc"] != recorded["rc"]:
        problems.append(f"exit code {res['rc']}, recorded {recorded['rc']}")
    verdicts = parse_verdicts(workload, res["stdout"])
    if verdicts != recorded["verdicts"]:
        problems.append(f"verdicts {verdicts}, recorded {recorded['verdicts']}")
    files = sorted(os.listdir(out_dir))
    if files != sorted(WORKLOADS[workload]["csvs"]):
        problems.append(f"CSV files {files}")
    n_bytes = 0
    for name in files:
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        n_bytes += len(data)
        if hashlib.sha256(data).hexdigest() != recorded["csv"].get(name):
            problems.append(f"{name}: SHA-256 differs from the recorded digest")
    return problems, n_bytes


def run_sample(workload, seed, trace, check):
    """One CLI call on a generated config in a scratch directory that is
    removed afterwards; ``check(res, out_dir)`` returns (problems, csv bytes)."""
    wl = WORKLOADS[workload]
    scratch = tempfile.mkdtemp(dir=WORK)
    try:
        config = dict(wl["config"])
        config["simulation"] = dict(config.get("simulation", {}), seed=seed)
        config_path = os.path.join(scratch, "config.yaml")
        with open(config_path, "w") as fh:
            json.dump(config, fh)  # JSON is valid YAML
        out_dir = os.path.join(scratch, "out")
        os.mkdir(out_dir)
        argv = ["--config", config_path, "--out", out_dir, "--threads", "1"] + wl["argv"]
        res = _child(argv, trace, scratch)
        problems, n_bytes = check(res, out_dir)
    finally:
        shutil.rmtree(scratch)
    for problem in problems:
        print(f"  FAILED {workload} seed {seed}: {problem}")
    return res, problems, n_bytes


def _gated_sample(workload, seed, trace, digests):
    return run_sample(workload, seed, trace,
                      lambda res, out_dir: _gate(workload, res, out_dir, seed, digests))


# ---------------------------------------------------------------------------
# statistics and reporting
# ---------------------------------------------------------------------------

def _summary(values):
    """Median, and the highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    high = None
    if n >= 11:
        rank = n - 10  # 1-based rank with exactly ten samples above it
        high = (100.0 * rank / n, ordered[rank - 1])
    return statistics.median(ordered), high, n


def _print_metric(name, unit, values):
    median, high, n = _summary(values)
    tail = f"p{high[0]:.0f} {high[1]:.6g}" if high else "high percentile n/a (n < 11)"
    print(f"  {name:40s} {median:14.6g} {unit:6s} median; {tail}; n={n}")


def _environment(versions):
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return dict(versions or {}, git_sha=sha, nproc=os.cpu_count(), **CHILD_ENV)


def _timed_run(workload, seed, seconds, digests):
    start = time.monotonic()
    path_steps = WORKLOADS[workload]["path_steps"]
    samples = {name: [] for name, _ in END_TO_END + HOST_DEPENDENT}
    attempted = failed = 0
    versions = None

    def probe(reference):
        """An import-only child, timing child.reference too if asked."""
        scratch = tempfile.mkdtemp(dir=WORK)
        try:
            res = _child(None, False, scratch, reference)
        finally:
            shutil.rmtree(scratch)
        if res is None:
            return None
        samples["setup_s"].append(res["setup_s"])
        return res.get("ref_s")

    for _ in range(SETUP_PROBES):
        probe(False)
    ref_before = probe(True)
    last = 0.0
    while True:
        elapsed = time.monotonic() - start
        if attempted and (elapsed >= seconds or elapsed + 1.5 * last > RUN_LIMIT_S):
            break
        t0 = time.monotonic()
        res, problems, _ = _gated_sample(workload, seed, False, digests)
        ref_after = probe(True)
        last = time.monotonic() - t0
        attempted += 1
        failed += bool(problems)
        refs, ref_before = (ref_before, ref_after), ref_after
        if res is None:
            continue
        samples["setup_s"].append(res["setup_s"])
        # a completed command's timing counts, also when it fails the gate
        if res["error"] is None and None not in refs:
            versions = res["versions"]
            wall, ref = res["wall_s"], statistics.fmean(refs)
            for name, value in [("wall_rel", wall / ref),
                                ("path_steps_per_ref", path_steps * ref / wall),
                                ("wall_s", wall), ("path_steps_per_s", path_steps / wall),
                                ("ref_s", ref), ("peak_rss_mb", res["peak_rss_mb"])]:
                samples[name].append(value)
    print(f"{workload} (seed {seed}, trace 0): {attempted} runs, {failed} failed")
    for name, unit in END_TO_END:
        if samples[name]:
            _print_metric(name, unit, samples[name])
    print(f"  {'failed_ops':40s} {failed / attempted:14.6g} {'ratio':6s} "
          f"({failed} of {attempted})")
    print("  depending on the host's speed at the time:")
    for name, unit in HOST_DEPENDENT:
        if samples[name]:
            _print_metric(name, unit, samples[name])
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in END_TO_END if samples[name]}
    return attempted, failed, metrics, samples, versions


def _traced_run(workload, seed, seconds, digests):
    start = time.monotonic()
    untraced, traced, layer_samples = [], [], []
    attempted = failed = 0
    versions = spans = None
    last = 0.0
    while True:
        elapsed = time.monotonic() - start
        if attempted and (elapsed >= seconds or elapsed + 1.5 * last > RUN_LIMIT_S):
            break
        t0 = time.monotonic()
        for trace in (False, True):
            res, problems, n_bytes = _gated_sample(workload, seed, trace, digests)
            attempted += 1
            failed += bool(problems)
            if res is None or res["error"] is not None:
                continue
            versions = res["versions"]
            if not trace:
                untraced.append(res["wall_s"])
                continue
            traced.append(res["wall_s"])
            spans = res["spans"]
            layer_samples.append(_layer_metrics(spans, n_bytes))
        last = time.monotonic() - t0
    print(f"{workload} (seed {seed}, trace 1): {attempted} runs, {failed} failed")
    metrics = {}
    if traced and untraced:
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(untraced), "unit": "s"}
        print(f"  traced wall_s {statistics.median(traced):.6g} s, untraced "
              f"{statistics.median(untraced):.6g} s")
    for name, unit in [(m[0], m[3]) for m in PER_LAYER] + [("cli.csv_bytes", "bytes")]:
        values = [sample[name] for sample in layer_samples]
        if values:
            _print_metric(name, unit, values)
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    if spans is not None:
        with open(os.path.join(WORK, f"spans-{workload}-seed{seed}.json"), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "peak_alloc_bytes"],
                       "spans": spans}, fh)
    samples = {"traced_wall_s": traced, "untraced_wall_s": untraced,
               "layers": layer_samples}
    return attempted, failed, metrics, samples, versions


def _layer_metrics(spans, n_bytes):
    summary = summarise(spans)
    out = {"cli.csv_bytes": n_bytes}
    for metric, span, field, _ in PER_LAYER:
        out[metric] = summary[span][field] if span in summary else 0
    return out


def run_workload(workload, seed, seconds, trace, digests):
    run = _traced_run if trace else _timed_run
    attempted, failed, metrics, samples, versions = run(workload, seed, seconds, digests)
    env = _environment(versions)
    print("  environment: " + json.dumps(env, sort_keys=True))
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "attempted": attempted, "failed": failed,
              "metrics": metrics, "samples": samples}
    with open(os.path.join(WORK, f"result-{workload}-seed{seed}-trace{int(trace)}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fpplab", "cli.py")):
        print(f"no fpplab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(HERE, "digests.json")) as fh:
        digests = json.load(fh)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    # every simulation seed has a recorded reference, so every run is held to it
    seed = args.seed % RECORDED_SEEDS
    print(f"--seed {args.seed}: simulation seed {seed}")
    expected = ([m[0] for m in PER_LAYER] + ["cli.csv_bytes", "trace.overhead_s"]
                if args.trace else [name for name, _ in END_TO_END])
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = run_workload(name, seed, args.seconds, bool(args.trace), digests)
        missing = sorted(set(expected) - set(m))
        if missing:
            print(f"{name}: no completed sample gave {', '.join(missing)}", file=sys.stderr)
            return 1
        attempted += a
        failed += f
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + key: value for key, value in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
