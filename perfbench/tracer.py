"""Outside-in tracing of a wfopt run.

The tracer wraps named public functions and methods of the `wfopt` modules
from outside the program, in the process that runs the search; nothing under
`src/` knows about it. Two kinds of wrapper exist:

* A *span* is recorded at each coarse layer boundary (propose, evaluate,
  request, derive_state, static_vector, select, backpropagate, refine,
  update_weights, save, and `execute_run` and the search loop around them). Each span keeps
  its name, start, end, parent span and run id. Its self time is its duration
  minus the time its child spans cover.
* A *counted* call (the fine-grained hot calls such as `validate_program`,
  `canonical_key`, `interpret`, `incoming` and `node_map`) gets only a call
  count and summed self time, minus any wrapped call nested inside it, so the
  overhead stays bounded. Counted calls are not spans: their time stays in
  the self time of the span that encloses them, which is what attributes
  validation to the proposer and interpretation to the evaluator.

Only the boundaries named in `TARGETS` are wrapped. Wrapping every public
helper would put a wrapper on tiny hot functions and distort the shares.
Spans stay in memory and are written out once, after the run.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Callable, Iterator, Optional

SPAN, COUNTED = "span", "counted"

# "module:qualname" -> (metric name, kind). A metric name is the module and
# the function's own name, so methods drop their class.
TARGETS: dict[str, tuple[str, str]] = {
    "driver:execute_run": ("driver.execute_run", SPAN),
    "driver:build_suite": ("driver.build_suite", SPAN),
    "motifs:init_templates": ("motifs.init_templates", SPAN),
    "search:Optimizer.run": ("search.loop", SPAN),
    "search:select": ("search.select", SPAN),
    "search:backpropagate": ("search.backpropagate", SPAN),
    "harness:SyntheticProposer.propose": ("harness.propose", SPAN),
    "model:derive_state": ("model.derive_state", SPAN),
    "constraints:ConstraintScorer.static_vector": ("constraints.static_vector", SPAN),
    "constraints:ConstraintScorer.total": ("constraints.total", SPAN),
    "constraints:ConstraintScorer.with_magnitude": ("constraints.with_magnitude", SPAN),
    "harness:SyntheticEvaluator.evaluate": ("harness.evaluate", SPAN),
    "adapter:ExternalEvaluator.evaluate": ("adapter.evaluate", SPAN),
    "adapter:StdioTransport.request": ("adapter.request", SPAN),
    "motifs:refine": ("motifs.refine", SPAN),
    "weights:update_weights": ("weights.update_weights", SPAN),
    "runlog:RunLog.save": ("runlog.save", SPAN),
    "harness:SyntheticProposer.enumerate_edits": ("harness.enumerate_edits", COUNTED),
    "model:validate_program": ("model.validate_program", COUNTED),
    "model:canonical_key": ("model.canonical_key", COUNTED),
    "model:interpret": ("model.interpret", COUNTED),
    "model:WorkflowProgram.incoming": ("model.incoming", COUNTED),
    "model:WorkflowProgram.node_map": ("model.node_map", COUNTED),
    "model:topological_order": ("model.topological_order", COUNTED),
    "motifs:score_pattern": ("motifs.score_pattern", COUNTED),
    "runlog:RunLog.append": ("runlog.append", COUNTED),
}

# Which layer a span's self time belongs to, for the share metrics.
LAYERS: dict[str, str] = {
    "harness.propose": "proposer",
    "model.derive_state": "scoring",
    "constraints.static_vector": "scoring",
    "constraints.total": "scoring",
    "constraints.with_magnitude": "scoring",
    "harness.evaluate": "evaluator",
    "adapter.evaluate": "adapter",
    "adapter.request": "adapter",
    "search.loop": "tree",
    "search.select": "tree",
    "search.backpropagate": "tree",
    "motifs.refine": "tree",
    "weights.update_weights": "tree",
    "runlog.save": "runlog",
    "driver.execute_run": "driver",
    "driver.build_suite": "driver",
    "motifs.init_templates": "driver",
}
LAYER_NAMES = ("proposer", "scoring", "evaluator", "adapter", "tree", "runlog", "driver")

_S, _N, _R = ("s", "lower"), ("count", "lower"), ("ratio", "lower")

# The per-layer metrics of a traced run: name -> (unit, direction).
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "harness.propose.self_s": _S,
    "harness.propose.calls": _N,
    "harness.enumerate_edits.candidates": _N,
    "harness.enumerate_edits.dedup_hits": _N,
    "harness.propose.sampled_ratio": ("ratio", "higher"),
    "model.validate_program.calls": _N,
    "model.validate_program.rejects": _N,
    "model.validate_program.self_s": _S,
    "model.canonical_key.calls": _N,
    "model.canonical_key.self_s": _S,
    "model.derive_state.self_s": _S,
    "model.interpret.calls": _N,
    "model.interpret.self_s": _S,
    "model.traversals_per_candidate": _N,
    "constraints.static_vector.self_s": _S,
    "constraints.static_vector.calls": _N,
    "constraints.static_vector.per_child": _N,
    "constraints.total.calls": _N,
    "constraints.with_magnitude.self_s": _S,
    "motifs.score_pattern.self_s": _S,
    "motifs.refine.self_s": _S,
    "motifs.refine.calls": _N,
    "motifs.refine.observed": ("count", "higher"),
    "weights.update_weights.self_s": _S,
    "search.select.self_s": _S,
    "search.backpropagate.self_s": _S,
    "search.loop.self_s": _S,
    "search.tree_nodes": _N,
    "search.prune_ratio": _R,
    "search.fallbacks": _N,
    "harness.evaluate.self_s": _S,
    "harness.evaluate.calls": _N,
    "harness.evaluate.failed_trace_ratio": _R,
    "adapter.evaluate.self_s": _S,
    "adapter.request.wait_s": _S,
    "adapter.request.bytes_out": ("bytes", "lower"),
    "adapter.request.bytes_in": ("bytes", "lower"),
    "adapter.peers_left": _N,
    "runlog.append.calls": _N,
    "runlog.save.self_s": _S,
    "runlog.bytes": ("bytes", "lower"),
    "driver.build_suite.self_s": _S,
    "motifs.init_templates.self_s": _S,
    **{f"share.{layer}": _R for layer in LAYER_NAMES},
}


def _wfopt_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == "wfopt" or name.startswith("wfopt."))]


class Patches:
    """Replaces attributes and puts every original back on exit."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def replace(self, target: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap `module:qualname` everywhere it is reachable.

        A method is replaced on its class. A module-level function is
        replaced in every loaded wfopt module that imported it by name.
        """
        module_name, qualname = target.split(":")
        module = importlib.import_module(f"wfopt.{module_name}")
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name)
            self.set(owner, attr, make(vars(owner)[attr]))
            return
        original = getattr(module, qualname)
        wrapped = make(original)
        for mod in _wfopt_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, name, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


@contextmanager
def patched() -> Iterator[Patches]:
    patches = Patches()
    try:
        yield patches
    finally:
        patches.restore()


class Tracer:
    """Spans and counters for one traced run, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, Optional[int], str, float, float]] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._frames: list[list[float]] = []     # open wrapped calls: [time covered by wrapped children]
        self._open: list[list] = []              # open spans: [span id, time covered by child spans]
        self._next_id = 0
        # id(program) -> [program, static_vector calls]; holding the program
        # keeps its id from being reused by a later one
        self._vector_calls: dict[int, list] = {}

    # -- wrappers ----------------------------------------------------------------

    def _span(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        frames, open_spans, spans = self._frames, self._open, self.spans
        calls, self_s = self.calls, self.self_s

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = open_spans[-1][0] if open_spans else None
            frame = [0.0]
            mine = [span_id, 0.0]
            frames.append(frame)
            open_spans.append(mine)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                open_spans.pop()
                duration = end - start
                if frames:
                    frames[-1][0] += duration
                if open_spans:
                    open_spans[-1][1] += duration
                calls[name] += 1
                self_s[name] += duration - mine[1]
                spans.append((span_id, parent, name, start, end))
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        frames, calls, self_s = self._frames, self.calls, self.self_s

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            before = calls["model.canonical_key"] if observe is not None else 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                frames.pop()
                if frames:
                    frames[-1][0] += duration
                calls[name] += 1
                self_s[name] += duration - frame[0]
            if observe is not None:
                observe(args, result, before)
            return result

        return wrapper

    # -- observers: counts taken where the work happens ---------------------------

    def _observe_validate(self, args, report, _before) -> None:
        if not report.ok:
            self.counts["model.validate_program.rejects"] += 1

    def _observe_enumerate(self, args, edits, keys_before) -> None:
        # one canonical key for the base program, one per valid edit; a valid
        # edit whose key was already seen is a dedup hit
        valid = self.calls["model.canonical_key"] - keys_before - 1
        self.counts["harness.enumerate_edits.candidates"] += len(edits)
        self.counts["harness.enumerate_edits.dedup_hits"] += valid - len(edits)

    def _observe_propose(self, args, result) -> None:
        self.counts["harness.propose.returned"] += len(result[0])

    def _observe_static_vector(self, args, result) -> None:
        program = args[1]
        entry = self._vector_calls.setdefault(id(program), [program, 0])
        entry[1] += 1

    def _observe_evaluate(self, args, result) -> None:
        traces = result[1]
        self.counts["harness.evaluate.traces"] += len(traces)
        self.counts["harness.evaluate.failed_traces"] += sum(1 for t in traces if not t.success)

    def _json_proxy(self):
        """Stands in for `json` inside the adapter module to count wire bytes."""
        counts = self.counts

        def dumps(obj, *args, **kwargs):
            text = json.dumps(obj, *args, **kwargs)
            counts["adapter.bytes_out"] += len(text)
            return text

        def loads(text, *args, **kwargs):
            counts["adapter.bytes_in"] += len(text)
            return json.loads(text, *args, **kwargs)

        return SimpleNamespace(dumps=dumps, loads=loads, JSONDecodeError=json.JSONDecodeError)

    def install(self, patches: Patches) -> None:
        observers = {
            "model.validate_program": self._observe_validate,
            "harness.enumerate_edits": self._observe_enumerate,
            "harness.propose": self._observe_propose,
            "constraints.static_vector": self._observe_static_vector,
            "harness.evaluate": self._observe_evaluate,
        }
        for target, (name, kind) in TARGETS.items():
            make = self._span if kind == SPAN else self._counted
            patches.replace(target, lambda fn, name=name, make=make: make(name, fn, observers.get(name)))
        patches.set(importlib.import_module("wfopt.adapter"), "json", self._json_proxy())

    # -- results -----------------------------------------------------------------

    def span_self_times(self) -> dict[int, float]:
        """Self time of every span: its duration minus its child spans'."""
        covered: defaultdict = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return {sid: end - start - covered[sid] for sid, _, _, start, end in self.spans}

    def root_time(self) -> float:
        return sum(end - start for _, parent, _, start, end in self.spans if parent is None)

    def layer_shares(self, wall_s: float) -> dict[str, float]:
        by_layer: defaultdict = defaultdict(float)
        for name, seconds in self.self_s.items():
            if name in LAYERS:
                by_layer[LAYERS[name]] += seconds
        return {layer: by_layer[layer] / wall_s for layer in LAYER_NAMES}

    def write_spans(self, path: Path) -> None:
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in sorted(self.spans):
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name, "run": self.run_id,
                    "start": start - origin, "end": end - origin,
                }) + "\n")

    def layer_metrics(self, result, wall_s: float, runlog_bytes: int, peers_left: int) -> dict[str, float]:
        """The per-layer metrics of one traced run, by name."""
        calls, self_s, counts = self.calls, self.self_s, self.counts
        log = result.log
        expanded = log.by_event("expanded")
        pruned = log.by_event("pruned")
        refined = log.by_event("refined")

        nodes = []
        stack = [result.optimizer.root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(node.children)
        per_child = sum(self._vector_calls.get(id(n.program), [None, 0])[1] for n in nodes) / len(nodes)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        requests = calls["adapter.request"]
        metrics = {
            "harness.propose.self_s": self_s["harness.propose"],
            "harness.propose.calls": calls["harness.propose"],
            "harness.enumerate_edits.candidates": counts["harness.enumerate_edits.candidates"],
            "harness.enumerate_edits.dedup_hits": counts["harness.enumerate_edits.dedup_hits"],
            "harness.propose.sampled_ratio": ratio(
                counts["harness.propose.returned"], counts["harness.enumerate_edits.candidates"]),
            "model.validate_program.calls": calls["model.validate_program"],
            "model.validate_program.rejects": counts["model.validate_program.rejects"],
            "model.validate_program.self_s": self_s["model.validate_program"],
            "model.canonical_key.calls": calls["model.canonical_key"],
            "model.canonical_key.self_s": self_s["model.canonical_key"],
            "model.derive_state.self_s": self_s["model.derive_state"],
            "model.interpret.calls": calls["model.interpret"],
            "model.interpret.self_s": self_s["model.interpret"],
            "model.traversals_per_candidate": ratio(
                calls["model.incoming"] + calls["model.node_map"] + calls["model.topological_order"],
                calls["model.derive_state"]),
            "constraints.static_vector.self_s": self_s["constraints.static_vector"],
            "constraints.static_vector.calls": calls["constraints.static_vector"],
            "constraints.static_vector.per_child": per_child,
            "constraints.total.calls": calls["constraints.total"],
            "constraints.with_magnitude.self_s": self_s["constraints.with_magnitude"],
            "motifs.score_pattern.self_s": self_s["motifs.score_pattern"],
            "motifs.refine.self_s": self_s["motifs.refine"],
            "motifs.refine.calls": calls["motifs.refine"],
            "motifs.refine.observed": sum(r["observed"] for r in refined),
            "weights.update_weights.self_s": self_s["weights.update_weights"],
            "search.select.self_s": self_s["search.select"],
            "search.backpropagate.self_s": self_s["search.backpropagate"],
            "search.loop.self_s": self_s["search.loop"],
            "search.tree_nodes": len(nodes),
            "search.prune_ratio": ratio(len(pruned), len(pruned) + len(expanded)),
            "search.fallbacks": sum(1 for r in expanded if r.get("fallback")),
            "harness.evaluate.self_s": self_s["harness.evaluate"],
            "harness.evaluate.calls": calls["harness.evaluate"],
            "harness.evaluate.failed_trace_ratio": ratio(
                counts["harness.evaluate.failed_traces"], counts["harness.evaluate.traces"]),
            "adapter.evaluate.self_s": self_s["adapter.evaluate"],
            "adapter.request.wait_s": self_s["adapter.request"],
            "adapter.request.bytes_out": ratio(counts["adapter.bytes_out"], requests),
            "adapter.request.bytes_in": ratio(counts["adapter.bytes_in"], requests),
            "adapter.peers_left": peers_left,
            "runlog.append.calls": calls["runlog.append"],
            "runlog.save.self_s": self_s["runlog.save"],
            "runlog.bytes": runlog_bytes,
            "driver.build_suite.self_s": self_s["driver.build_suite"],
            "motifs.init_templates.self_s": self_s["motifs.init_templates"],
        }
        for layer, share in self.layer_shares(wall_s).items():
            metrics[f"share.{layer}"] = share
        return metrics
