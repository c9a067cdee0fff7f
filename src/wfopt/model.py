"""Workflow programs as typed operator DAGs.

A workflow program is a directed acyclic graph of operator applications over
a set of leaf nodes (named inputs and literal constants). Nodes may carry
optional unit signatures (dimensional tags) and shape tags used by the static
constraint checks; the interpreter itself is scalar-valued and deterministic.

`_ordered` orders a program and resolves every node's operand slots, from
one pass over the nodes and one over the edges. `analyze_program` and
`interpret_all` each make one such walk; a proposer's base is ordered once,
when its `edits.EditBase` is built, and its analysis (`_analyze`) reads that
order. The analysis keeps one `Facts` tuple per node (unit signature,
shape, value sign and depth), each made by `_transfer`, the one definition
of the per-node rules, and `derive_state` counts its per-operator verdicts
into the `WorkflowState` the constraint scores read; `interpret_all` walks
once for a whole list of input bindings and runs each step over a column
with one row per binding, for the whole walk: a binding that ends early is
marked, not cut out of every column. `validate_program` builds its own maps
in one pass over the nodes and one over the edges, with one arity lookup
per operator node, and walks back from the output for reachability only
when the other checks leave that in doubt. `canonical_key` returns a flat tuple.
Every map over a program is transient. One declared slot field of a
program, `_VERDICT`, records what is established about it: the registry
object it was found valid for, and, on a candidate the proposer builds only,
its edit record, replaced by the `WorkflowState` derived from that record
once it is scored. A new program, or a `dataclasses.replace` copy, holds
None there; equality, hashing and repr skip the field. Only
`validate_program`, `derive_state` and `edits.ProgramEdit.build` write it.
The records a search makes per candidate or per tree node (`Node`, `Edge`,
`WorkflowProgram`, `WorkflowState`) are slotted dataclasses: they hold no
instance `__dict__`.

Everything in this module is an immutable value: programs, traces, and
derived states can be shared freely between concurrent workers.
"""

from __future__ import annotations

import heapq
import json
import math
import operator
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from . import schema


class InvalidProgramError(ValueError):
    """Raised when an operation requires a structurally valid program."""


class MissingInputError(KeyError):
    """Raised when interpret() is not given a value for every input root."""

    __str__ = Exception.__str__  # KeyError's would quote the message


class DomainRule(str, Enum):
    NONE = "none"
    INPUT_NONNEG = "input_nonneg"
    INPUT_POSITIVE = "input_positive"


class UnitBehavior(str, Enum):
    ADDITIVE = "additive"            # operands must share a unit signature
    MULTIPLICATIVE = "multiplicative"  # exponents combine by slot sign
    UNITLESS = "unitless"            # result is dimensionless


class ShapeRule(str, Enum):
    ELEMENTWISE = "elementwise"
    MATMUL = "matmul"
    DIVIDE = "divide"
    POWER = "power"


# Pseudo-operators for leaf nodes; never part of an operator registry.
INPUT_OP = "input"
CONST_OP = "const"
LEAF_OPS = (INPUT_OP, CONST_OP)


@dataclass(frozen=True)
class OperatorKind:
    """One entry of the operator registry.

    ``unit_slot_signs`` applies to multiplicative operators: +1 adds the
    operand's exponents into the result signature, -1 subtracts them.
    """

    name: str
    arity: int
    domain_rule: DomainRule = DomainRule.NONE
    unit_behavior: UnitBehavior = UnitBehavior.UNITLESS
    shape_rule: ShapeRule = ShapeRule.ELEMENTWISE
    unit_slot_signs: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise ValueError(f"operator {self.name!r}: arity must be >= 0")
        if self.unit_behavior is UnitBehavior.ADDITIVE and self.arity < 2:
            raise ValueError(f"operator {self.name!r}: additive operators need arity >= 2")
        if self.unit_slot_signs is not None and len(self.unit_slot_signs) != self.arity:
            raise ValueError(f"operator {self.name!r}: unit_slot_signs must match arity")

    def slot_signs(self) -> tuple[int, ...]:
        if self.unit_slot_signs is not None:
            return self.unit_slot_signs
        return tuple(1 for _ in range(self.arity))


class OperatorRegistry:
    """Fixed, ordered set of operator kinds available to a run."""

    def __init__(self, kinds: Iterable[OperatorKind]):
        self._kinds: dict[str, OperatorKind] = {}
        for kind in kinds:
            if kind.name in self._kinds:
                raise ValueError(f"duplicate operator name {kind.name!r}")
            if kind.name in (INPUT_OP, CONST_OP):
                raise ValueError(f"{kind.name!r} is reserved for leaf nodes")
            self._kinds[kind.name] = kind
        # a registry never changes after construction, so this map stays true
        self._arities = {name: kind.arity for name, kind in self._kinds.items()}

    def __len__(self) -> int:
        return len(self._kinds)

    def __contains__(self, name: str) -> bool:
        return name in self._kinds

    def __iter__(self):
        return iter(self._kinds.values())

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._kinds)

    def get(self, name: str) -> OperatorKind:
        try:
            return self._kinds[name]
        except KeyError:
            raise KeyError(f"unknown operator {name!r}") from None

    @property
    def arities(self) -> Mapping[str, int]:
        """Operator name -> arity; read-only by contract, not by copy."""
        return self._arities


def default_registry() -> OperatorRegistry:
    """The baseline eight-operator registry of the scalar DSL."""
    return OperatorRegistry(
        [
            OperatorKind("add", 2, unit_behavior=UnitBehavior.ADDITIVE),
            OperatorKind("sub", 2, unit_behavior=UnitBehavior.ADDITIVE),
            OperatorKind(
                "mul", 2,
                unit_behavior=UnitBehavior.MULTIPLICATIVE,
                shape_rule=ShapeRule.MATMUL,
                unit_slot_signs=(1, 1),
            ),
            OperatorKind(
                "div", 2,
                unit_behavior=UnitBehavior.MULTIPLICATIVE,
                shape_rule=ShapeRule.DIVIDE,
                unit_slot_signs=(1, -1),
            ),
            OperatorKind("sqrt", 1, domain_rule=DomainRule.INPUT_NONNEG),
            OperatorKind("log", 1, domain_rule=DomainRule.INPUT_POSITIVE),
            OperatorKind("pow", 2, shape_rule=ShapeRule.POWER),
            OperatorKind(
                "neg", 1,
                unit_behavior=UnitBehavior.MULTIPLICATIVE,
                unit_slot_signs=(1,),
            ),
        ]
    )


@dataclass(frozen=True)
class UnitSignature:
    """Map from base dimension name to integer exponent; empty = dimensionless."""

    exponents: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def of(mapping: Mapping[str, int] | None = None, **dims: int) -> "UnitSignature":
        exps = dict(mapping or {})
        exps.update(dims)
        return UnitSignature(tuple(sorted((d, e) for d, e in exps.items() if e != 0)))

    def as_dict(self) -> dict[str, int]:
        return dict(self.exponents)

    def combine(self, others: Sequence["UnitSignature"], signs: Sequence[int]) -> "UnitSignature":
        exps = Counter(dict(self.exponents))
        for sig, sign in zip(others, signs):
            for dim, exp in sig.exponents:
                exps[dim] += sign * exp
        return UnitSignature.of(exps)


@dataclass(frozen=True)
class Shape:
    """Scalar, vector(n) or matrix(m, n) tag for static shape checking."""

    kind: str
    dims: tuple[int, ...] = ()

    @staticmethod
    def scalar() -> "Shape":
        return Shape("scalar")

    @staticmethod
    def vector(n: int) -> "Shape":
        return Shape("vector", (n,))

    @staticmethod
    def matrix(m: int, n: int) -> "Shape":
        return Shape("matrix", (m, n))


@dataclass(frozen=True, slots=True)
class Node:
    """One vertex of a program: its id, its operator, and an optional unit, shape and constant."""

    node_id: str
    op: str
    unit: Optional[UnitSignature] = None
    shape: Optional[Shape] = None
    value: Optional[float] = None

    def is_leaf(self) -> bool:
        return self.op in LEAF_OPS


@dataclass(frozen=True, slots=True)
class Edge:
    """One operand wire: the value of `src` feeds argument `slot` of `dst`."""

    src: str
    dst: str
    slot: int


@dataclass(frozen=True, slots=True)
class WorkflowProgram:
    """A complete operator graph; the unit of search (one tree node = one program)."""

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    roots: tuple[str, ...]
    output: str
    # what is established about the program (see `_VERDICT`); no part of its value
    _verdict: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def node_map(self) -> dict[str, Node]:
        # no caller in the package: the tests' reference forms read it, and
        # the benchmark tracer counts it
        return {n.node_id: n for n in self.nodes}

    def incoming(self) -> dict[str, dict[int, str]]:
        # no caller in the package: the tests' reference forms read it, and
        # the benchmark tracer counts it
        inc: dict[str, dict[int, str]] = {n.node_id: {} for n in self.nodes}
        for e in self.edges:
            inc.setdefault(e.dst, {})[e.slot] = e.src
        return inc

    def operator_nodes(self) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if not n.is_leaf())


@dataclass(frozen=True)
class ValidationReport:
    """The verdict of `validate_program`: whether the program is valid, and each violation."""

    ok: bool
    violations: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class WorkflowState:
    """Lightweight program view consumed by the constraint checks.

    The unit check counts cover the operators whose input units are all
    known, the type check counts every operator node: how many passed and
    how many were checked, which is all the scores read of the verdicts.

    A state is never mutated, its histogram included: the equal states of
    the candidates of one proposer base are one shared object
    (`edits.ProgramEdit.state`), which several tree nodes then hold.
    """

    depth: int
    operator_histogram: Mapping[str, int]
    unit_passed: int = 0
    unit_checked: int = 0
    type_passed: int = 0
    type_checked: int = 0


class ExecutionTrace(NamedTuple):
    """One evaluation of a program on one input binding. A named tuple, as one is
    built per problem on every evaluation: cheap to build, its fields cannot be
    assigned, and it compares equal to a plain tuple of its fields. Nothing in
    the package iterates or unpacks a trace; `adapter.trace_to_dict` is its wire form."""

    values: tuple[float, ...]             # intermediate results, topological order
    input_constants: tuple[float, ...]    # values bound to input roots (not literals)
    success: bool
    output: Optional[float]
    violation: Optional[str] = None


# What validate_program records in place of an arity for the two leaf kinds.
_INPUT_LEAF, _CONST_LEAF = -1, -2

# The name of the slot field holding what is established about a program:
# None on a program as constructed (a `dataclasses.replace` copy included),
# `(registry, None)` once it passed `validate_program` against that registry
# object, or `(registry, edit)` on a proposer candidate, valid for it by
# construction, whose edit record `derive_state` replaces with the
# `WorkflowState` it derives from it. The program is frozen, so the field is
# written with object.__setattr__, as the dataclass __init__ writes its
# fields; it is declared with `init=False, repr=False, compare=False`, so
# construction, equality, hashing and repr skip it.
_VERDICT = "_verdict"
_VALID = ValidationReport(ok=True)


def validate_program(program: WorkflowProgram, registry: Optional[OperatorRegistry] = None) -> ValidationReport:
    """Check all structural invariants; violations are data, not exceptions.

    A program that passes is remembered as valid for that registry object,
    the last one it passed against: both are immutable, so a later call with
    the same program object and the same registry object returns the ok
    report without checking again. The verdict is never shared: another
    registry object (even an equal one, and every call that passes no
    registry builds a new default one) or an equal but distinct program gets
    a check of its own, and an invalid program records nothing.

    The proposer checks each base here, on entry. `edits.ProgramEdit.build`
    writes the verdict too: a proposer candidate made by one edit of a base
    that passed against the proposer's registry object is valid by
    construction, so its build records it as valid, with its edit record.
    A pass here writes `(registry, None)` over whatever the slot held.
    """
    registry = registry or default_registry()
    verdict = program._verdict
    if verdict is not None and verdict[0] is registry:
        return _VALID
    violations = _violations(program, registry)
    if violations:
        return ValidationReport(ok=False, violations=tuple(violations))
    object.__setattr__(program, _VERDICT, (registry, None))
    return _VALID


def _violations(program: WorkflowProgram, registry: OperatorRegistry) -> list[str]:
    """The full structural check behind `validate_program`, in report order.

    One pass over the nodes and one over the edges build every map the other
    checks need, with one arity lookup per operator node. A repeated node id
    also reports a cycle, because fewer distinct ids than nodes can ever leave
    the Kahn queue. The reachability check walks the graph only when some
    violation was already found or some operator takes no operands:
    otherwise every operator has all its slots filled from real nodes and the
    graph is acyclic, so walking back from the output must end at a leaf.
    Only that walk reads every edge into each node, the rejected ones
    included, as the operand lists of `_key_maps`; they are built only when
    the walk runs.
    """
    arities = registry.arities
    roots = program.roots
    violations: list[str] = []         # duplicate ids, then roots, then per node
    node_violations: list[str] = []
    arity: dict[str, int] = {}         # id -> arity (0: unknown operator) or a leaf marker
    operators: list[tuple[str, int]] = []
    nullary = False                    # some operator takes no operands
    for node in program.nodes:
        nid, op = node.node_id, node.op
        if nid in arity:
            violations.append(f"duplicate node id {nid!r}")
        if op == INPUT_OP:
            arity[nid] = _INPUT_LEAF
            if nid not in roots:
                node_violations.append(f"input node {nid!r} missing from roots")
            if node.value is not None:
                node_violations.append(f"input node {nid!r} must not carry a value")
        elif op == CONST_OP:
            arity[nid] = _CONST_LEAF
            if node.value is None:
                node_violations.append(f"const node {nid!r} needs a value")
        else:
            n_slots = arities.get(op)
            if n_slots is None:
                arity[nid] = 0
                node_violations.append(f"node {nid!r}: unknown operator {op!r}")
                continue
            arity[nid] = n_slots
            operators.append((nid, n_slots))
            nullary = nullary or not n_slots
            if node.value is not None:
                node_violations.append(f"operator node {nid!r} must not carry a value")

    for rid in roots:
        if rid not in arity:
            violations.append(f"root {rid!r} is not a node")
        elif arity[rid] != _INPUT_LEAF:
            violations.append(f"root {rid!r} must be an input node")
    violations.extend(node_violations)

    slots: dict[str, dict[int, str]] = {}   # the edges that pass the checks below
    indeg = dict.fromkeys(arity, 0)
    out: dict[str, list[str]] = {}
    for edge in program.edges:
        src, dst, slot = edge.src, edge.dst, edge.slot
        if src not in arity or dst not in arity:
            violations.append(f"edge {src!r}->{dst!r} references a missing node")
            continue
        indeg[dst] += 1
        out.setdefault(src, []).append(dst)
        dst_arity = arity[dst]
        if dst_arity < 0:
            violations.append(f"leaf node {dst!r} cannot receive an edge")
            continue
        if not 0 <= slot < dst_arity:
            violations.append(f"edge into {dst!r}: slot {slot} out of range")
            continue
        filled = slots.setdefault(dst, {})
        if slot in filled:
            violations.append(f"node {dst!r}: duplicate edge for input slot {slot}")
        filled[slot] = src

    for nid, n_slots in operators:
        filled = slots.get(nid, {})
        if len(filled) < n_slots:
            violations.extend(
                f"node {nid!r}: missing input slot {k}" for k in range(n_slots) if k not in filled
            )

    queue = [nid for nid, d in indeg.items() if not d]
    visited = 0
    while queue:
        nid = queue.pop()
        visited += 1
        for nxt in out.get(nid, ()):
            indeg[nxt] -= 1
            if not indeg[nxt]:
                queue.append(nxt)
    cyclic = visited != len(program.nodes)
    if cyclic:
        violations.append("cycle in operator graph")

    if program.output not in arity:
        violations.append(f"output {program.output!r} is not a node")
    elif (violations or nullary) and not cyclic and not _reaches_leaf(arity, _key_maps(program)[1], program.output):
        violations.append(f"output {program.output!r} is not reachable from any leaf")
    return violations


def _reaches_leaf(arity: Mapping[str, int], operands: Mapping[str, tuple[str, ...]], nid: str) -> bool:
    stack, seen = [nid], set()
    while stack:
        cur = stack.pop()
        if cur in seen or cur not in arity:
            continue
        seen.add(cur)
        if arity[cur] < 0:
            return True
        stack.extend(operands.get(cur, ()))
    return False


def topological_order(program: WorkflowProgram) -> list[str]:
    """Kahn's algorithm, stable with respect to node declaration order.

    The ready set is a heap of declaration indices, so the order is the
    lexicographically smallest topological order by index.
    """
    return [node.node_id for node, _ in _ordered(program)]


def _ordered(program: WorkflowProgram) -> list[tuple[Node, dict[int, str]]]:
    """Each node with its operand slots (slot -> operand id), in `topological_order`.

    The last edge into a slot wins, and an edge from or to a missing node
    raises `KeyError`. A repeated id indexes its last node only, so the
    earlier one is never ready and the walk reports a cycle. The list is
    whole before it is returned, so a cycle raises before any node is read.
    """
    nodes = program.nodes
    index = {n.node_id: i for i, n in enumerate(nodes)}
    indeg = [0] * len(nodes)
    out: list[list[int]] = [[] for _ in nodes]
    slots: list[dict[int, str]] = [{} for _ in nodes]
    for e in program.edges:
        dst = index[e.dst]
        out[index[e.src]].append(dst)
        indeg[dst] += 1
        slots[dst][e.slot] = e.src
    ready = [i for i in index.values() if not indeg[i]]
    heapq.heapify(ready)
    order: list[tuple[Node, dict[int, str]]] = []
    while ready:
        i = heapq.heappop(ready)
        order.append((nodes[i], slots[i]))
        for nxt in out[i]:
            indeg[nxt] -= 1
            if not indeg[nxt]:
                heapq.heappush(ready, nxt)
    if len(order) != len(nodes):
        raise InvalidProgramError("cycle in operator graph")
    return order


# ---------------------------------------------------------------------------
# Static analysis: unit signatures, shapes, value signs and depth in one walk.
# ---------------------------------------------------------------------------

class Facts(NamedTuple):
    """What the analysis knows of one node."""

    unit: Optional[UnitSignature]    # None: not known
    shape: Optional[Shape]           # None: not known
    sign: Sign
    depth: int                       # longest path from a leaf to the node, in edges


@dataclass(frozen=True)
class ProgramAnalysis:
    """What one topological walk over a program knows about each node."""

    facts: Mapping[str, Facts]
    unit_checks: Mapping[str, bool]  # operator nodes whose input units are all known
    type_checks: Mapping[str, bool]  # every operator node: shape and domain rule


def analyze_program(program: WorkflowProgram, registry: Optional[OperatorRegistry] = None) -> ProgramAnalysis:
    """Propagate units, shapes, signs and depth in one `_ordered` walk."""
    return _analyze(_ordered(program), registry or default_registry())


def _analyze(order: list[tuple[Node, dict[int, str]]], registry: OperatorRegistry) -> ProgramAnalysis:
    """The analysis of the program `order` lists (`_ordered`): each node's
    facts and verdicts come from `_transfer` of the node and its operands'
    facts, the one definition of the rules. The verdict maps keep the
    order's."""
    facts: dict[str, Facts] = {}
    unit_checks: dict[str, bool] = {}
    type_checks: dict[str, bool] = {}
    for node, slots in order:
        nid = node.node_id
        facts[nid], unit_ok, type_ok = _transfer(node, registry, slots, facts)
        if unit_ok is not None:
            unit_checks[nid] = unit_ok
        if type_ok is not None:
            type_checks[nid] = type_ok
    return ProgramAnalysis(facts, unit_checks, type_checks)


def _transfer(
    node: Node,
    registry: OperatorRegistry,
    slots: Mapping[int, str] | Sequence[str],
    facts: Mapping[str, Facts],
) -> tuple[Facts, Optional[bool], Optional[bool]]:
    """One node's step of the analysis: its `Facts`, its unit verdict and its
    type verdict, from its operands' facts.

    `slots` gives the node's operand ids by slot (a slot map, or a tuple in
    slot order) and `facts` each operand's facts. A leaf reads no operand
    and has no verdicts: its facts are its tags at depth 0, a literal being
    a scalar unless tagged and signed by its value. An operator reads the
    operand in each slot of its kind (an unknown operator or a missing slot
    raises `KeyError`), and its depth is one more than its deepest
    operand's. Explicit unit and shape tags on an operator override what it
    derives. Its unit check runs once all its operand units are known (else
    its unit verdict is None); its type check passes when its shapes agree
    (unknowable shapes pass vacuously) and no operand sign, known only from
    literal constants, breaks its domain rule.
    """
    op = node.op
    if op in LEAF_OPS:
        if op == CONST_OP:
            shape = node.shape if node.shape is not None else _SCALAR
            return Facts(node.unit, shape, _sign_of(node.value), 0), None, None  # type: ignore[arg-type]
        return Facts(node.unit, node.shape, Sign.UNKNOWN, 0), None, None
    kind = registry.get(op)
    args = [facts[slots[k]] for k in range(kind.arity)]
    depth = 1 + max([a.depth for a in args])
    units, shapes, signs, _ = zip(*args)
    # `None in` meets a None by identity first; a unit or a shape is never
    # equal to None, so this is `all(u is not None ...)` without a generator
    unit_ok = unit = shape = None
    if None not in units:
        unit_ok, unit = _check_units(kind, units)  # type: ignore[arg-type]
    shape_ok = True
    if None not in shapes:
        shape_ok, shape = _check_shape(kind, shapes)  # type: ignore[arg-type]
    return (
        Facts(
            node.unit if node.unit is not None else unit,
            node.shape if node.shape is not None else shape,
            _derive_sign(op, signs),
            depth,
        ),
        unit_ok,
        shape_ok and _domain_ok(kind.domain_rule, signs),
    )


def _check_units(kind: OperatorKind, inputs: Sequence[UnitSignature]) -> tuple[bool, Optional[UnitSignature]]:
    if kind.unit_behavior is UnitBehavior.ADDITIVE:
        ok = all(s == inputs[0] for s in inputs[1:])
        return ok, (inputs[0] if ok else None)
    if kind.unit_behavior is UnitBehavior.MULTIPLICATIVE:
        return True, UnitSignature.of().combine(inputs, kind.slot_signs())
    return True, UnitSignature.of()  # UNITLESS


# Shape is frozen, so every check shares one scalar.
_SCALAR = Shape.scalar()


def _check_shape(kind: OperatorKind, inputs: Sequence[Shape]) -> tuple[bool, Optional[Shape]]:
    scalar = _SCALAR
    if kind.shape_rule is ShapeRule.MATMUL and kind.arity == 2:
        a, b = inputs
        if a == scalar:
            return True, b
        if b == scalar:
            return True, a
        if a.kind == "vector" and b.kind == "vector":
            return (a.dims == b.dims), scalar
        if a.kind == "matrix" and b.kind == "matrix":
            return (a.dims[1] == b.dims[0]), Shape.matrix(a.dims[0], b.dims[1])
        if a.kind == "matrix" and b.kind == "vector":
            return (a.dims[1] == b.dims[0]), Shape.vector(a.dims[0])
        if a.kind == "vector" and b.kind == "matrix":
            return (a.dims[0] == b.dims[0]), Shape.vector(b.dims[1])
        return False, None
    if kind.shape_rule is ShapeRule.DIVIDE and kind.arity == 2:
        a, b = inputs
        if b == scalar:
            return True, a
        return (a == b), a
    if kind.shape_rule is ShapeRule.POWER and kind.arity == 2:
        a, b = inputs
        return (b == scalar), a
    # elementwise: all inputs must agree
    first = inputs[0]
    return all(s == first for s in inputs[1:]), first


class Sign(str, Enum):
    POS = "pos"
    NEG = "neg"
    ZERO = "zero"
    NONNEG = "nonneg"
    NONPOS = "nonpos"
    UNKNOWN = "unknown"


def _sign_of(value: float) -> Sign:
    if value > 0:
        return Sign.POS
    if value < 0:
        return Sign.NEG
    return Sign.ZERO


_NEGATE = {
    Sign.POS: Sign.NEG, Sign.NEG: Sign.POS, Sign.ZERO: Sign.ZERO,
    Sign.NONNEG: Sign.NONPOS, Sign.NONPOS: Sign.NONNEG, Sign.UNKNOWN: Sign.UNKNOWN,
}


# The sign classes `_sign_add` and `_sign_mul` test against, built once.
_NONNEG = frozenset((Sign.POS, Sign.NONNEG))
_NONPOS = frozenset((Sign.NEG, Sign.NONPOS))
_STRICT = frozenset((Sign.POS, Sign.NEG))


def _sign_add(a: Sign, b: Sign) -> Sign:
    if a is Sign.ZERO:
        return b
    if b is Sign.ZERO:
        return a
    if a in _NONNEG and b in _NONNEG:
        return Sign.POS if (a is Sign.POS or b is Sign.POS) else Sign.NONNEG
    if a in _NONPOS and b in _NONPOS:
        return Sign.NEG if (a is Sign.NEG or b is Sign.NEG) else Sign.NONPOS
    return Sign.UNKNOWN


def _sign_mul(a: Sign, b: Sign) -> Sign:
    if Sign.ZERO in (a, b):
        return Sign.ZERO
    if Sign.UNKNOWN in (a, b):
        return Sign.UNKNOWN
    positive = (a in _NONNEG) == (b in _NONNEG)
    if a in _STRICT and b in _STRICT:
        return Sign.POS if positive else Sign.NEG
    return Sign.NONNEG if positive else Sign.NONPOS


def _domain_ok(rule: DomainRule, arg_signs: Sequence[Sign]) -> bool:
    if rule is DomainRule.INPUT_NONNEG:
        return Sign.NEG not in arg_signs
    if rule is DomainRule.INPUT_POSITIVE:
        return not any(s in (Sign.NEG, Sign.ZERO, Sign.NONPOS) for s in arg_signs)
    return True


def _derive_sign(op: str, args: Sequence[Sign]) -> Sign:
    if op == "neg":
        return _NEGATE[args[0]]
    if op == "add":
        return _sign_add(args[0], args[1])
    if op == "sub":
        return _sign_add(args[0], _NEGATE[args[1]])
    if op == "mul":
        return _sign_mul(args[0], args[1])
    if op == "div":
        if args[1] is Sign.ZERO:
            return Sign.UNKNOWN
        if args[0] is Sign.ZERO:
            return Sign.ZERO
        return _sign_mul(args[0], args[1])
    if op == "sqrt":
        if args[0] in (Sign.POS,):
            return Sign.POS
        if args[0] in (Sign.ZERO,):
            return Sign.ZERO
        if args[0] in (Sign.NONNEG,):
            return Sign.NONNEG
        return Sign.UNKNOWN
    if op == "pow":
        if args[0] is Sign.POS:
            return Sign.POS
        if args[0] is Sign.ZERO and args[1] is Sign.POS:
            return Sign.ZERO
        return Sign.UNKNOWN
    return Sign.UNKNOWN


# ---------------------------------------------------------------------------
# State derivation and interpretation.
# ---------------------------------------------------------------------------

def derive_state(program: WorkflowProgram, registry: Optional[OperatorRegistry] = None) -> WorkflowState:
    """Validate a program and project it onto the constraint-facing view.

    Raises `InvalidProgramError` on an invalid program. A candidate the
    `SyntheticProposer` built holds its edit record in its verdict slot
    (`edits.ProgramEdit.build`): while the slot names this registry object,
    its state is derived from the record on the first call
    (`ProgramEdit.state`), kept in the record's place, and returned. Any
    other program (the search's initial one, a decoded or a remote one), the
    same one with another registry, or one whose slot `validate_program`
    has since written, goes through `validate_program` (a lookup for a
    program that passed against this registry object) and one
    `analyze_program` walk, and its state is not kept. The operator
    histogram keeps node-declaration order.

    Two threads scoring one candidate at once may both derive its state;
    the states are equal, and either is kept.
    """
    registry = registry or default_registry()
    verdict = program._verdict
    if verdict is not None and verdict[0] is registry and verdict[1] is not None:
        state = verdict[1]
        if not isinstance(state, WorkflowState):  # the record: derive once, keep the state
            state = state.state(program)
            object.__setattr__(program, _VERDICT, (registry, state))
        return state
    report = validate_program(program, registry)
    if not report.ok:
        raise InvalidProgramError("; ".join(report.violations))
    analysis = analyze_program(program, registry)
    unit_passed, unit_checked, type_passed, type_checked = _check_counts(analysis)
    return WorkflowState(
        analysis.facts[program.output].depth, _operator_histogram(program),
        unit_passed, unit_checked, type_passed, type_checked,
    )


def _check_counts(analysis: ProgramAnalysis) -> tuple[int, int, int, int]:
    """How many unit checks of `analysis` passed and were made, then how
    many type checks."""
    unit_checks, type_checks = analysis.unit_checks.values(), analysis.type_checks.values()
    return sum(unit_checks), len(unit_checks), sum(type_checks), len(type_checks)


def _operator_histogram(program: WorkflowProgram) -> dict[str, int]:
    """Operator name -> node count, in the order the names first appear
    among the program's nodes."""
    counts: dict[str, int] = {}
    for node in program.nodes:
        op = node.op
        if op not in LEAF_OPS:
            counts[op] = counts.get(op, 0) + 1
    return counts


class _DomainViolation(Exception):
    def __init__(self, reason: str):
        self.reason = reason


def _apply(op: str, args: list[float]) -> float:
    if op == "add":
        return args[0] + args[1]
    if op == "sub":
        return args[0] - args[1]
    if op == "mul":
        return args[0] * args[1]
    if op == "div":
        if args[1] == 0.0:
            raise _DomainViolation("division by zero")
        return args[0] / args[1]
    if op == "sqrt":
        if args[0] < 0.0:
            raise _DomainViolation("sqrt of negative value")
        return math.sqrt(args[0])
    if op == "log":
        if args[0] <= 0.0:
            raise _DomainViolation("log of non-positive value")
        return math.log(args[0])
    if op == "pow":
        base, exp = args
        if base < 0.0 and exp != int(exp):
            raise _DomainViolation("fractional power of negative base")
        if base == 0.0 and exp < 0.0:
            raise _DomainViolation("zero raised to negative power")
        try:
            return math.pow(base, exp)
        except OverflowError:
            raise _DomainViolation("overflow in pow") from None
    if op == "neg":
        return -args[0]
    raise KeyError(f"operator {op!r} has no semantics")


def interpret(
    program: WorkflowProgram,
    inputs: Mapping[str, float],
    registry: Optional[OperatorRegistry] = None,
) -> ExecutionTrace:
    """Evaluate the program on concrete inputs, recording every intermediate.

    Domain violations at runtime (sqrt of a negative, log of a non-positive,
    division by zero, non-finite results) stop evaluation and yield a failed
    trace with the values computed so far.
    """
    return interpret_all(program, (inputs,), registry)[0]


# The operators mapped over whole columns, by name and arity; each gives what `_apply` gives.
_COLUMN_OPS = {("add", 2): operator.add, ("sub", 2): operator.sub, ("mul", 2): operator.mul, ("neg", 1): operator.neg}


def interpret_all(
    program: WorkflowProgram,
    inputs_list: Iterable[Mapping[str, float]],
    registry: Optional[OperatorRegistry] = None,
) -> list[ExecutionTrace]:
    """`interpret` the program once per input binding, in order.

    One `_ordered` walk orders the program and resolves each operator's
    operands, and each step runs once over a column holding its value for
    every binding: row i of every column is binding i, for the whole walk.
    `add`, `sub`, `mul` and `neg` map over their operand columns; any other
    operator, and a column with a non-finite result, goes row by row through
    `_apply` with its checks. A binding ends when it fails (with its failed
    trace) or when its own walk raises (an unbound root, a bad input value,
    an operator without semantics). Its outcome is written into `results`
    once, which marks its row, and no column is cut: a row-by-row pass
    skips a marked row and leaves it 0.0, a column-mapped step computes it
    with the rest, and nothing reads it again. A node that cannot be
    resolved (unknown operator, missing slot, literal without a value) ends
    the walk, and every binding that has not ended raises its error; a cycle
    or an edge to a missing node raises at once. The traces of the bindings
    that reach the output are built in one pass over the rows at the end.
    The call raises the error of the first binding that has one, as a loop
    over the bindings would, and otherwise returns the traces.
    """
    registry = registry or default_registry()
    bindings = list(inputs_list)
    # per binding: None, or its failed trace or error once its walk ends early
    results: list = [None] * len(bindings)
    column_of: dict[str, list[float]] = {}    # node id -> its column
    leaf_columns: list[list[float]] = []      # the columns of `input_constants`
    value_columns: list[list[float]] = []     # the columns of `values`
    unresolved: Optional[Exception] = None
    for node, slots in _ordered(program):
        nid, op = node.node_id, node.op
        try:
            literal = float(node.value) if op == CONST_OP else None  # type: ignore[arg-type]
            operands = [] if op in LEAF_OPS else [column_of[slots[k]] for k in range(registry.get(op).arity)]
        except (KeyError, TypeError, ValueError) as exc:
            unresolved = exc
            break
        if op == INPUT_OP:
            try:
                column = [float(binding[nid]) for binding in bindings]
            except Exception:
                column = [0.0] * len(bindings)
                for row, binding in enumerate(bindings):
                    if results[row] is None:
                        try:
                            if nid not in binding:
                                raise MissingInputError(f"no input value for root {nid!r}")
                            column[row] = float(binding[nid])
                        except Exception as exc:
                            results[row] = exc
            leaf_columns.append(column)
        elif op == CONST_OP:
            # literals do not count toward V_in: a program must not be able
            # to widen its own magnitude tolerance by embedding big constants
            column = [literal] * len(bindings)  # type: ignore[list-item]
        else:
            fn = _COLUMN_OPS.get((op, len(operands)))
            column = list(map(fn, *operands)) if fn else []
            if fn is None or not all(map(math.isfinite, column)):
                column = [0.0] * len(bindings)
                for row, outcome in enumerate(results):
                    if outcome is None:
                        try:
                            column[row] = v = _apply(op, [c[row] for c in operands])
                            if not math.isfinite(v):
                                raise _DomainViolation("non-finite result")
                        except _DomainViolation as exc:
                            results[row] = ExecutionTrace(
                                tuple(c[row] for c in value_columns), tuple(c[row] for c in leaf_columns),
                                False, None, f"{exc.reason} at node {nid!r}",
                            )
                        except Exception as exc:
                            results[row] = exc
            value_columns.append(column)
        column_of[nid] = column
    if unresolved is None and program.output not in column_of:
        unresolved = KeyError(program.output)
    if unresolved is not None:
        results = [unresolved if outcome is None else outcome for outcome in results]
    else:
        outputs = column_of[program.output]
        # a leaf-only program records its output, so the trace is non-empty
        values = zip(*value_columns) if value_columns else zip(outputs)
        inputs = zip(*leaf_columns) if leaf_columns else [()] * len(bindings)
        results = [ExecutionTrace(vals, ins, True, out) if outcome is None else outcome
                   for outcome, vals, ins, out in zip(results, values, inputs, outputs)]
    for outcome in results:
        if isinstance(outcome, Exception):
            raise outcome
    return results


# ---------------------------------------------------------------------------
# JSON serialization and canonical structural keys.
# ---------------------------------------------------------------------------

def _shape_to_json(shape: Shape):
    if shape.kind == "scalar":
        return "scalar"
    if shape.kind == "vector":
        return {"vector": shape.dims[0]}
    return {"matrix": list(shape.dims)}


def _shape_from_json(obj) -> Shape:
    if obj == "scalar":
        return Shape.scalar()
    if isinstance(obj, dict) and obj.keys() == {"vector"}:
        return Shape.vector(schema.whole(obj["vector"], "a shape dimension", 1))
    if isinstance(obj, dict) and obj.keys() == {"matrix"}:
        dims = obj["matrix"]
        if not isinstance(dims, list) or len(dims) != 2:
            raise ValueError(f"a matrix shape must list two dimensions, got {dims!r}")
        return Shape.matrix(*(schema.whole(d, "a shape dimension", 1) for d in dims))
    raise ValueError(f"bad shape tag: {obj!r}")


def _unit_from_json(obj) -> UnitSignature:
    exponents = schema.obj(obj, "a node unit", want="an object of exponents")
    return UnitSignature.of({k: schema.whole(v, f"the exponent of {k!r}") for k, v in exponents.items()})


def program_to_dict(program: WorkflowProgram) -> dict:
    nodes = []
    for node in program.nodes:
        entry: dict = {"id": node.node_id, "op": node.op}
        if node.unit is not None:
            entry["unit"] = node.unit.as_dict()
        if node.shape is not None:
            entry["shape"] = _shape_to_json(node.shape)
        if node.value is not None:
            entry["value"] = node.value
        nodes.append(entry)
    return {
        "nodes": nodes,
        "edges": [[e.src, e.dst, e.slot] for e in program.edges],
        "roots": list(program.roots),
        "output": program.output,
    }


_NODE_KEYS = {"id", "op", "unit", "shape", "value"}
_PROGRAM_KEYS = {"nodes", "edges", "roots", "output"}


def program_from_dict(data: Mapping) -> WorkflowProgram:
    """Decode a program; a field of the wrong type raises `ValueError` naming it."""
    keys = schema.obj(data, "a program").keys()
    if keys != _PROGRAM_KEYS:
        unknown, missing = sorted(keys - _PROGRAM_KEYS), sorted(_PROGRAM_KEYS - keys)
        raise ValueError(f"unknown program keys: {unknown}" if unknown else f"missing program keys: {missing}")
    for key in ("nodes", "edges", "roots"):  # a string roots would read as a list of one-letter roots
        schema.listed(data[key], key)
    nodes = []
    try:
        for entry in data["nodes"]:
            schema.obj(entry, "a node", known=_NODE_KEYS)
            unit = _unit_from_json(entry["unit"]) if "unit" in entry else None
            shape = _shape_from_json(entry["shape"]) if "shape" in entry else None
            value = schema.number(entry["value"], "a node value", finite_want="a number") if "value" in entry else None
            nodes.append(Node(schema.string(entry["id"], "a node id"), schema.string(entry["op"], "a node op"),
                              unit=unit, shape=shape, value=value))
    except KeyError as exc:  # only `id` and `op` are read unguarded
        raise ValueError(f"missing node key {exc.args[0]!r} in {entry!r}") from None
    try:
        edges = tuple(Edge(schema.string(s, "an edge source"), schema.string(d, "an edge destination"),
                           schema.whole(k, "an edge slot")) for s, d, k in data["edges"])
    except (TypeError, ValueError):  # checked only now, so that valid input pays nothing for it
        for bad in data["edges"]:
            if not isinstance(bad, list) or len(bad) != 3:
                raise ValueError(f"an edge must be a [source, destination, slot] list, got {bad!r}") from None
        raise
    return WorkflowProgram(
        nodes=tuple(nodes),
        edges=edges,
        roots=tuple(schema.string(r, "a root") for r in data["roots"]),
        output=schema.string(data["output"], "the output"),
    )


def dumps_program(program: WorkflowProgram) -> str:
    return json.dumps(program_to_dict(program), sort_keys=True, indent=2) + "\n"


def export_workflow(
    program: WorkflowProgram, path: str | os.PathLike, registry: Optional[OperatorRegistry] = None
) -> None:
    """Write a validated program in the canonical workflow JSON format.

    The output round-trips bit-identically through the loader; invalid
    programs are rejected before anything is written.
    """
    report = validate_program(program, registry)
    if not report.ok:
        raise InvalidProgramError("; ".join(report.violations))
    with open(path, "w") as out:
        out.write(dumps_program(program))


def loads_program(text: str) -> WorkflowProgram:
    """The program of a workflow JSON document. Malformed JSON, JSON nested
    too deeply to decode, and a document `program_from_dict` cannot read (a
    missing key, a null or mistyped field, nodes, edges or roots that are no
    JSON list, a node or a unit that is no JSON object, an edge that is no
    list of three, a matrix shape of other than two dimensions, an id, op,
    root, output or edge end that is no JSON string, a value that is no
    finite JSON number, a slot, unit exponent or shape dimension that is no
    JSON integer) raise `ValueError`. Each names what is wrong; the wrap of
    any other exception as `malformed program: ...` is a safety net."""
    try:
        data = json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"malformed program JSON: {exc}") from None
    try:
        return program_from_dict(data)
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed program: {exc!r}") from None


def canonical_key(program: WorkflowProgram) -> tuple:
    """Renaming-invariant key for the sub-DAG feeding the output.

    The key is a flat tuple of post-order entries, one per node reachable
    from the output: ``(op, payload, unit exponents, shape)``, where an
    operator's payload is the tuple of its operands' entry indices, an input's
    is its id and a literal's is ``repr(value)`` (so 0.0 and -0.0, or 1 and
    1.0, stay distinct). Linking entries by index keeps shared and duplicated
    subexpressions apart, so the key distinguishes programs whose operator
    histograms differ. Unused roots are ignored (every edit of a program
    keeps the same root set). A cycle on the way, or a node the program
    lacks (the output, or an edge's source), raises `InvalidProgramError`.

    The key is `_key_walk` over the maps `_key_maps` builds. The record of
    one edit of a proposer's base keys the program that edit makes by the
    same walk over the base's maps and the edit (`edits.ProgramEdit.key`),
    to the same tuple, without building it; the proposer asks for that key
    only when the record's fingerprint meets another's.
    """
    return _key_walk(program.output, *_key_maps(program))


def _key_entry(node: Node, children: tuple = ()) -> tuple:
    """`node`'s entry in `canonical_key`, `children` being its operands' entry
    indices: the one definition of the entry's layout. With no children it
    is the node's head, which `_key_walk` completes with its operands'
    indices; `edits.ProgramEdit.key` builds the heads of the nodes an edit
    adds or changes with it, and a fingerprint weighs each node by its head
    (`edits.head_weight`)."""
    op = node.op
    return (
        op,
        node.node_id if op == INPUT_OP else repr(node.value) if op == CONST_OP else children,
        node.unit.exponents if node.unit is not None else None,
        (node.shape.kind, node.shape.dims) if node.shape is not None else None,
    )


def _key_maps(program: WorkflowProgram) -> tuple[dict[str, tuple], dict[str, tuple[str, ...]]]:
    """The maps `_key_walk` reads: each node's head (its `_key_entry` without
    operands) and each node's operand ids in slot order, from every edge into
    it, the last edge into a slot winning."""
    heads = {n.node_id: _key_entry(n) for n in program.nodes}
    slot_maps: dict[str, dict[int, str]] = {}
    for e in program.edges:
        slot_maps.setdefault(e.dst, {})[e.slot] = e.src
    operands = {nid: tuple([slots[k] for k in sorted(slots)]) for nid, slots in slot_maps.items()}
    return heads, operands


_UNCHANGED: Mapping = MappingProxyType({})


def _key_walk(
    output: str,
    heads: Mapping[str, tuple],
    operands: Mapping[str, tuple[str, ...]],
    fresh_heads: Mapping[str, tuple] = _UNCHANGED,
    changed_operands: Mapping[str, tuple[str, ...]] = _UNCHANGED,
) -> tuple:
    """The post-order walk of `canonical_key`, from `output`, over the maps
    of `_key_maps`.

    A node's head comes from `fresh_heads` when that holds it, else from
    `heads`, so a record's key reads the heads of the nodes its edit adds or
    changes before the base's. Its operands come from `changed_operands`
    when that holds it, else from `operands`. Operands are entered in slot order, each one's
    subtree finished before the next is entered. A node's index is -1 while
    its operands are walked, so meeting it again is a cycle; a node in
    neither map is missing: both raise `InvalidProgramError`. An operator's
    entry, built once all its operands are done, is its head with their
    entry indices as the payload.

    The walk keeps its own stack of the nodes in progress rather than
    recursing through a nested function. Such a function refers to itself
    through its closure: a reference cycle, which keeps the walk's maps and
    entries alive until the cyclic collector runs. Without one, reference
    counting frees each walk as it returns, and no recursion limit bounds
    the depth of a program it can key.
    """
    entries: list[tuple] = []
    index: dict[str, int] = {}  # id -> entry index
    # each node in progress: its id, head, operands and the iterator over
    # the operands not yet entered
    path: list[tuple] = []
    todo = iter((output,))
    while True:
        for nid in todo:
            i = index.get(nid)
            if i is None:
                head = fresh_heads.get(nid) or heads.get(nid)
                if head is None:
                    raise InvalidProgramError(f"missing node {nid!r} in operator graph")
                args = changed_operands[nid] if nid in changed_operands else operands.get(nid)
                if args:
                    index[nid] = -1
                    todo = iter(args)
                    path.append((nid, head, args, todo))
                    break
                index[nid] = len(entries)
                entries.append(head)
            elif i < 0:
                raise InvalidProgramError("cycle in operator graph")
        else:
            # every operand of the innermost node in progress is done
            if not path:
                return tuple(entries)
            nid, head, args, _ = path.pop()
            op, _, unit, shape = head
            if op not in LEAF_OPS:
                head = (op, tuple([index[a] for a in args]), unit, shape)
            index[nid] = len(entries)
            entries.append(head)
            if path:
                todo = path[-1][3]


def fresh_node_id(program: WorkflowProgram, prefix: str = "n") -> str:
    pattern = re.compile(rf"^{re.escape(prefix)}(\d+)$")
    best = -1
    for node in program.nodes:
        m = pattern.match(node.node_id)
        if m:
            best = max(best, int(m.group(1)))
    return f"{prefix}{best + 1}"
