"""One search of one workload, in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--mode search|setup|trace] [--in-process]

`src/` must be on PYTHONPATH. `setup` mode only times set-up: importing
wfopt, parsing the config and building the suite. `search` mode then runs
`driver.execute_run` once and reports its wall time, CPU, peak memory and
what the correctness gate needs. `trace` mode does the same with the tracer
installed and adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from workloads import run_config


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


class BestTracker:
    """Stamps each validation-set evaluation, to find when the best reward first appeared."""

    def __init__(self) -> None:
        self.calls: list[tuple[float, float]] = []

    def install(self, patches) -> None:
        from wfopt.adapter import ExternalEvaluator
        from wfopt.harness import SyntheticEvaluator

        for cls in (SyntheticEvaluator, ExternalEvaluator):
            patches.set(cls, "evaluate", self._hook(cls.__dict__["evaluate"]))

    def _hook(self, evaluate):
        calls = self.calls

        def hooked(evaluator, program):
            result = evaluate(evaluator, program)
            if evaluator.problems.split == "validation":
                calls.append((perf_counter(), result[0]))
            return result

        return hooked

    def first_reaching(self, reward: float) -> tuple[int, float]:
        """(calls up to and including the first that returned `reward`, its time stamp)."""
        for index, (stamp, value) in enumerate(self.calls):
            if abs(value - reward) <= 1e-12:
                return index + 1, stamp
        raise RuntimeError(f"no evaluation returned the best validation reward {reward!r}")


class PeerTracker:
    """Remembers every stdio peer the run starts, so the benchmark can close it.

    `execute_run` never closes its `StdioTransport`; without this the peer
    outlives the run and its CPU time is never reaped into `cpu_s`.
    """

    def __init__(self) -> None:
        self.transports: list = []

    def install(self, patches) -> None:
        from wfopt.adapter import StdioTransport

        init = StdioTransport.__dict__["__init__"]
        transports = self.transports

        def tracked_init(transport, *args, **kwargs):
            init(transport, *args, **kwargs)
            transports.append(transport)

        patches.set(StdioTransport, "__init__", tracked_init)

    def alive(self) -> int:
        return sum(1 for t in self.transports if t._proc.poll() is None)

    def close_all(self) -> None:
        for transport in self.transports:
            try:
                transport.close()
            except subprocess.TimeoutExpired:
                transport._proc.kill()
                transport._proc.wait()


def search(args, config, setup_s: float) -> dict:
    from wfopt import driver
    from wfopt.model import loads_program, validate_program

    from tracer import Tracer, patched

    out = Path(args.out)
    best = BestTracker()
    peers = PeerTracker()
    tracer = Tracer(run_id=f"{args.workload}-{args.seed}") if args.mode == "trace" else None
    with patched() as patches:
        best.install(patches)
        peers.install(patches)
        if tracer is not None:
            tracer.install(patches)
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = perf_counter()
        try:
            result = driver.execute_run(config, out)
        finally:
            run_s = perf_counter() - start
            peers_left = peers.alive()
            peers.close_all()
    after = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)

    simulated = result.log.by_event("simulated")
    summary = result.summary
    sims_to_best, stamp = best.first_reaching(summary["best_validation_reward"])
    runlog = out / "runlog.ndjson"
    best_program = loads_program((out / "best_workflow.json").read_text())
    report = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": _cpu(after) - _cpu(before) + _cpu(children),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        "sims": len(simulated),
        "sim_failures": sum(1 for r in simulated if "failure" in r),
        "tokens_per_problem": summary["tokens_per_problem"],
        "best_test_reward": summary["best_test_reward"],
        "sims_to_best": sims_to_best,
        "time_to_best_s": stamp - start,
        "digest": hashlib.sha256(runlog.read_bytes()).hexdigest(),
        "best_valid": validate_program(best_program).ok,
        "peers_left": peers_left,
    }
    if tracer is not None:
        tracer.write_spans(out / "spans.ndjson")
        report["layers"] = tracer.layer_metrics(result, run_s, runlog.stat().st_size, peers_left)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", choices=("search", "setup", "trace"), default="search")
    parser.add_argument("--in-process", action="store_true")
    args = parser.parse_args(argv)

    try:
        start = perf_counter()
        import numpy
        import wfopt
        from wfopt import driver
        from wfopt.config import config_from_dict

        config = config_from_dict(run_config(args.workload, args.seed, args.in_process))
        driver.build_suite(config)
        setup_s = perf_counter() - start
        report = {"setup_s": setup_s} if args.mode == "setup" else search(args, config, setup_s)
        report["env"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "wfopt": str(Path(wfopt.__file__).parent),
        }
    except Exception as exc:
        traceback.print_exc()
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
