"""wfopt benchmark: closed-loop searches on one workload, with a correctness gate.

    python3 perfbench/run.py --workload NAME [--seed 42] [--seconds 30] [--trace 0|1]

Run from the root of a checkout. Each search runs `driver.execute_run` in a
fresh worker process (perfbench/worker.py), one at a time, until `--seconds`
have passed and at least five searches have finished. With `--trace 0` the
last line of output is a JSON object whose metrics are the end-to-end ones;
with `--trace 1` one more search runs with the tracer installed and the
metrics are the per-layer ones. The human-readable lines before it give
medians, quartiles and sample counts, the run-log digest, and the
environment.

Correctness gate: every search of one invocation must write a byte-identical
`runlog.ndjson`, and its `best_workflow.json` must reload and validate. On
`remote_eval`, the simulated records and best program of the stdio peer must
also equal those of the same config evaluated in-process. The command exits
with 1 when the gate fails and with 2 when it cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from tracer import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SEARCHES = 5
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170  # the whole invocation, so a hung worker cannot hold it forever
CALIBRATION_S = 0.3    # how long each speed measurement of the machine runs
REFERENCE_LOOP_S = 1.0e-3  # the calibration loop's time on the machine times are scaled to

# name -> (unit, direction); the order in which they are printed.
#
# A run reports the median of each metric over its searches; set-up time is
# the median of its samples. The times (run_s, cpu_s, setup_s, and
# sims_per_s through run_s) are scaled to the machine's speed at the time,
# which a fixed loop measures before and after every worker (`calibrate`):
# other tenants of a small shared machine slow it by up to 1.5x in wall and
# CPU time alike, for fractions of a second up to minutes, and the scaled
# times spread less than the raw ones (see README.md).
END_TO_END = {
    "run_s": ("s", "lower"),
    "sims_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "tokens_per_problem": ("tokens", "lower"),
    "ok_ratio": ("ratio", "higher"),
}

# Outcomes of the search itself. They are deterministic for one seed but
# differ by orders of magnitude between seeds, so they are reported with the
# per-layer metrics, which carry no bound.
SEARCH_OUTCOMES = {
    "search.sims_to_best": ("count", "lower"),
    "search.time_to_best_s": ("s", "lower"),
    "search.best_test_reward": ("reward", "higher"),
}

# Everything a traced invocation reports: name -> (unit, direction).
PER_LAYER = dict(LAYER_METRICS, **SEARCH_OUTCOMES, **{"trace.overhead_ratio": ("ratio", "lower")})


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def calibrate(seconds: float = CALIBRATION_S) -> float:
    """The median time of a fixed Python loop over `seconds`: how fast the machine runs now."""
    times = []
    end = perf_counter() + seconds
    while perf_counter() < end:
        start = perf_counter()
        table: dict[int, int] = {}
        for i in range(20000):
            table[i & 255] = i
        times.append(perf_counter() - start)
    return statistics.median(times)


def run_worker(workload: str, seed: int, out: Path, env: dict, timeout: float,
               mode: str = "search", in_process: bool = False) -> dict:
    """Run one worker process to its end and return its report."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--out", str(out), "--mode", mode]
    if in_process:
        cmd.append("--in-process")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"worker timed out after {timeout:.0f} s"}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"worker exited with {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def simulated_records(runlog: Path) -> list[tuple]:
    records = (json.loads(line) for line in runlog.read_text().splitlines())
    return [
        (r["node_id"], r["reward"], r["C_total"], r.get("tokens_in"), r.get("tokens_out"))
        for r in records if r["event"] == "simulated"
    ]


def cross_check(remote_out: Path, local_out: Path) -> tuple[bool, str]:
    """The stdio peer must give the same simulated records and best program as in-process evaluation."""
    remote, local = simulated_records(remote_out / "runlog.ndjson"), simulated_records(local_out / "runlog.ndjson")
    same_best = (remote_out / "best_workflow.json").read_bytes() == (local_out / "best_workflow.json").read_bytes()
    mismatches = sum(1 for a, b in zip(remote, local) if a != b) + abs(len(remote) - len(local))
    ok = same_best and mismatches == 0
    return ok, (f"{len(remote)} simulated records, {mismatches} differ from in-process; "
                f"best program {'equal' if same_best else 'DIFFERENT'}")


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def gate(searches: list[dict]) -> tuple[list[bool], str]:
    """Which searches pass: the majority run-log digest and a valid best program."""
    digests = Counter(s["digest"] for s in searches if "digest" in s)
    digest, count = digests.most_common(1)[0] if digests else (None, 0)
    if count * 2 <= len(searches):
        digest = None
    passed = [s.get("digest") == digest and bool(s.get("best_valid")) for s in searches]
    return passed, f"runlog sha256 {digest} in {count}/{len(searches)} searches"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()
    # One CPU for the whole invocation, workers inherit it: the calibration
    # loop then measures the CPU the search runs on, and the stdio peer, which
    # runs only while the search waits for its reply, shares it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    src = ROOT / "src"
    if not (src / "wfopt" / "__init__.py").is_file():
        print(f"perfbench: no wfopt package under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out_root = ROOT / ".bench_out" / f"{args.workload}-{args.seed}"
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)

    speed = [calibrate()]

    def worker(name: str, mode: str = "search", in_process: bool = False) -> dict:
        """One worker's report, with the scale from the machine speed measured around it."""
        timeout = max(1.0, TIME_LIMIT_S - (perf_counter() - started))
        report = run_worker(args.workload, args.seed, out_root / name, env, timeout, mode, in_process)
        speed.append(calibrate())
        report["scale"] = REFERENCE_LOOP_S / statistics.mean(speed[-2:])
        return report

    searches: list[dict] = []
    deadline = started + args.seconds
    while len(searches) < MIN_SEARCHES or perf_counter() < deadline:
        searches.append(worker(f"search{len(searches)}"))
    timed = [s for s in searches if "error" not in s]
    if not timed:
        print(f"perfbench: every search failed: {searches[0]['error']}", file=sys.stderr)
        return 2
    if Path(timed[0]["env"]["wfopt"]) != src / "wfopt":
        print(f"perfbench: searches imported wfopt from {timed[0]['env']['wfopt']}, not {src}", file=sys.stderr)
        return 2
    setup = [s["setup_s"] * s["scale"] for s in timed]
    while len(setup) < SETUP_SAMPLES:
        sample = worker(f"setup{len(setup)}", mode="setup")
        if "error" in sample:
            print(f"perfbench: set-up failed: {sample['error']}", file=sys.stderr)
            return 2
        setup.append(sample["setup_s"] * sample["scale"])

    traced = worker("traced", mode="trace") if args.trace else None
    gated = searches + ([traced] if traced else [])
    passed, digest_line = gate(gated)
    correct = all(passed)

    check_line = None
    if "executor" in WORKLOADS[args.workload]["config"]:
        local = worker("in_process", in_process=True)
        first = next(i for i, s in enumerate(searches) if "error" not in s)
        ok, check_line = (False, local["error"]) if "error" in local else cross_check(
            out_root / f"search{first}", out_root / "in_process")
        correct = correct and ok

    # a failed operation is a simulation that recorded a failure, or every
    # simulation of a search that raised or failed the gate
    attempted = failed = 0
    for search, ok in zip(gated, passed):
        sims = max(1, search.get("sims", 0))
        attempted += sims
        failed += sims if not ok else search.get("sim_failures", 0)

    def series(key: str) -> list[float]:
        return [s[key] for s in timed]

    samples = {
        "run_s": [s["run_s"] * s["scale"] for s in timed],
        "sims_per_s": [s["sims"] / (s["run_s"] * s["scale"]) for s in timed],
        "cpu_s": [s["cpu_s"] * s["scale"] for s in timed],
        "setup_s": setup,
        "peak_rss_mb": series("peak_rss_mb"),
        "tokens_per_problem": series("tokens_per_problem"),
        "ok_ratio": [(attempted - failed) / attempted],
    }
    reported = {name: statistics.median(values) for name, values in samples.items()}
    outcomes = {
        "search.sims_to_best": statistics.median(series("sims_to_best")),
        "search.time_to_best_s": statistics.median(series("time_to_best_s")),
        "search.best_test_reward": statistics.median(series("best_test_reward")),
    }

    env_record = {
        "git_rev": git_rev(), "python": timed[0]["env"]["python"], "numpy": timed[0]["env"]["numpy"],
        "nproc": os.cpu_count(), "seed": args.seed, "workload": args.workload,
    }
    print(f"perfbench {args.workload}: seed {args.seed}, {len(timed)}/{len(searches)} searches in a closed loop "
          f"of one client over {args.seconds:g} s, {len(setup)} set-up samples")
    for name, (unit, better) in END_TO_END.items():
        q1, median, q3 = quartiles(samples[name])
        print(f"  {name:<20} {median:<12.6g} {unit:<7} ({better} is better; median of n={len(samples[name])}, "
              f"q1 {q1:.6g}, q3 {q3:.6g})")
    print(f"  unscaled medians: run_s {statistics.median(series('run_s')):.6g} s, "
          f"cpu_s {statistics.median(series('cpu_s')):.6g} s; scale median {statistics.median(series('scale')):.4g}")
    for name, value in outcomes.items():
        print(f"  {name:<28} {value:.6g} {SEARCH_OUTCOMES[name][0]}")
    print(f"gate: {digest_line}; best_workflow.json valid in "
          f"{sum(bool(s.get('best_valid')) for s in gated)}/{len(gated)}")
    if check_line:
        print(f"cross-check: {check_line}")
    for search in gated:
        if "error" in search:
            print(f"error: {search['error']}")

    if args.trace:
        if "error" in traced:
            print(f"perfbench: traced search failed: {traced['error']}", file=sys.stderr)
            return 1
        untraced = statistics.median(samples["run_s"])
        metrics = dict(traced["layers"], **outcomes)
        metrics["trace.overhead_ratio"] = traced["run_s"] * traced["scale"] / untraced
        env_record["tracing_overhead"] = metrics["trace.overhead_ratio"]
        print(f"traced: run_s {traced['run_s'] * traced['scale']:.4f} s against an untraced median of {untraced:.4f} s; "
              f"spans in {out_root / 'traced' / 'spans.ndjson'}")
        result_metrics = {name: {"value": metrics[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
    else:
        result_metrics = {name: {"value": reported[name], "unit": unit}
                          for name, (unit, _) in END_TO_END.items()}
    print(f"env: {json.dumps(env_record)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
