"""Workflow programs as typed operator DAGs.

A workflow program is a directed acyclic graph of operator applications over
a set of leaf nodes (named inputs and literal constants). Nodes may carry
optional unit signatures (dimensional tags) and shape tags used by the static
constraint checks; the interpreter itself is scalar-valued and deterministic.

`analyze_program` and `interpret_all` each make one `_ordered` walk, which
orders a program and resolves every node's operand slots from one pass over
the nodes and one over the edges. `analyze_program` propagates unit
signatures, shapes, value signs and depth, each node's by `_transfer`, the
one definition of the per-operator rules, and `derive_state` counts its
per-operator verdicts into the `WorkflowState` the constraint scores read;
`interpret_all` walks once for a whole list of input bindings and runs each
step over the column of every binding's values.
`validate_program` builds its own maps in one pass over the nodes and one
over the edges, with one arity lookup per operator node in the map each
`OperatorRegistry` builds once, and walks back from the output for
reachability only when the other checks leave that in doubt.
`canonical_key` returns a flat tuple. Every map over a program is
transient. Two facts are kept on a program. One is its validation verdict:
a program that passed `validate_program` remembers the registry object it
passed against, so checking it again against that registry is a lookup.
The other, on a candidate the proposer builds only, is its edit record, and
once it is scored the `WorkflowState` derived from that record.

The proposer checks its base once, on entry, and tells each candidate as
its edit record (`edits.ProgramEdit`): the one edit that makes it from that
base. The record keys the candidate from the base's maps and the edit's
operand changes, by the same walk, `_key_walk`, to the tuple `canonical_key`
gives the built program. The edits keep the base valid by construction, so
the record vouches for the candidate, once built, with the same verdict
`validate_program` keeps, and stays beside it. The first `derive_state`
of the candidate for that registry object derives its state from one
analysis of the base, shared by the base's candidates, and the nodes its
edit touched (`edits.ProgramEdit.state`, by `_transfer`), and keeps the
state in the record's place; so expansion orders no child, and the child's
one `_ordered` walk is its evaluation's.

Everything in this module is an immutable value: programs, traces, and
derived states can be shared freely between concurrent workers.
"""

from __future__ import annotations

import heapq
import json
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence


class InvalidProgramError(ValueError):
    """Raised when an operation requires a structurally valid program."""


class MissingInputError(KeyError):
    """Raised when interpret() is not given a value for every input root."""


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


@dataclass(frozen=True)
class Node:
    node_id: str
    op: str
    unit: Optional[UnitSignature] = None
    shape: Optional[Shape] = None
    value: Optional[float] = None

    def is_leaf(self) -> bool:
        return self.op in LEAF_OPS


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    slot: int


@dataclass(frozen=True)
class WorkflowProgram:
    """A complete operator graph; the unit of search (one tree node = one program)."""

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    roots: tuple[str, ...]
    output: str

    def node_map(self) -> dict[str, Node]:
        # no caller in the package since `_ordered` indexes the nodes; the
        # tests' reference forms read it, and the benchmark tracer counts it
        return {n.node_id: n for n in self.nodes}

    def incoming(self) -> dict[str, dict[int, str]]:
        inc: dict[str, dict[int, str]] = {n.node_id: {} for n in self.nodes}
        for e in self.edges:
            inc.setdefault(e.dst, {})[e.slot] = e.src
        return inc

    def operator_nodes(self) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if not n.is_leaf())


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...] = ()


@dataclass(frozen=True)
class WorkflowState:
    """Lightweight program view consumed by the constraint checks.

    The unit check counts cover the operators whose input units are all
    known, the type check counts every operator node: how many passed and
    how many were checked, which is all the scores read of the verdicts.
    """

    depth: int
    operator_histogram: Mapping[str, int]
    unit_passed: int = 0
    unit_checked: int = 0
    type_passed: int = 0
    type_checked: int = 0


@dataclass(frozen=True)
class ExecutionTrace:
    values: tuple[float, ...]             # intermediate results, topological order
    input_constants: tuple[float, ...]    # values bound to input roots (not literals)
    success: bool
    output: Optional[float]
    violation: Optional[str] = None


# What validate_program records in place of an arity for the two leaf kinds.
_INPUT_LEAF, _CONST_LEAF = -1, -2

# The instance attribute naming the registry a program passed validation
# against. The program is frozen, so the attribute is written past its
# __setattr__ with object.__setattr__, as the dataclass __init__ writes its
# fields; it is no field, so equality, hashing and repr do not see it.
# (Going through `program.__dict__`, as functools.cached_property does,
# would give each program a dict object of its own, about 64 more bytes.)
_VALID_FOR = "_valid_for"
_VALID = ValidationReport(ok=True)
# The instance attribute, written the same way, holding `(registry, edit)`
# on a proposer candidate: its edit record over a base valid for that
# registry object, which `derive_state` replaces with `(registry, state)`,
# the `WorkflowState` it derives from the record, on the first call.
_STATE_FOR = "_state_for"


def validate_program(program: WorkflowProgram, registry: Optional[OperatorRegistry] = None) -> ValidationReport:
    """Check all structural invariants; violations are data, not exceptions.

    A program that passes is remembered as valid for that registry object,
    the last one it passed against: both are immutable, so a later call with
    the same program object and the same registry object returns the ok
    report without checking again. The verdict is never shared: another
    registry object (even an equal one, and every call that passes no
    registry builds a new default one) or an equal but distinct program gets
    a check of its own, and an invalid program records nothing.

    The proposer checks each base here, on entry. The one other writer of
    the verdict is `edits.ProgramEdit.vouch`: a proposer candidate made by
    one edit of a base that passed against the proposer's registry object
    is valid by construction, so its record vouches for it as it is built.
    """
    registry = registry or default_registry()
    if getattr(program, _VALID_FOR, None) is registry:
        return _VALID
    violations = _violations(program, registry)
    if violations:
        return ValidationReport(ok=False, violations=tuple(violations))
    object.__setattr__(program, _VALID_FOR, registry)
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

@dataclass(frozen=True)
class ProgramAnalysis:
    """What one topological walk over a program knows about each node."""

    units: Mapping[str, Optional[UnitSignature]]
    shapes: Mapping[str, Optional[Shape]]
    signs: Mapping[str, Sign]
    depths: Mapping[str, int]        # longest path from a leaf to each node, in edges
    unit_checks: Mapping[str, bool]  # operator nodes whose input units are all known
    type_checks: Mapping[str, bool]  # every operator node: shape and domain rule


def analyze_program(program: WorkflowProgram, registry: Optional[OperatorRegistry] = None) -> ProgramAnalysis:
    """Propagate units, shapes, signs and depth in one `_ordered` walk.

    Each node's facts and verdicts come from `_transfer` of the node and its
    operands' facts, the one definition of the rules; a node's depth is one
    more than its deepest operand's, a leaf's 0. The verdict maps keep the
    walk's order.
    """
    registry = registry or default_registry()
    units: dict[str, Optional[UnitSignature]] = {}
    shapes: dict[str, Optional[Shape]] = {}
    signs: dict[str, Sign] = {}
    depths: dict[str, int] = {}
    unit_checks: dict[str, bool] = {}
    type_checks: dict[str, bool] = {}

    for node, slots in _ordered(program):
        nid = node.node_id
        if node.op in LEAF_OPS:
            kind, args = None, ()
            depths[nid] = 0
        else:
            kind = registry.get(node.op)
            args = [slots[k] for k in range(kind.arity)]
            depths[nid] = 1 + max([depths[a] for a in args])
        units[nid], shapes[nid], signs[nid], unit_ok, type_ok = _transfer(
            node, kind, [units[a] for a in args], [shapes[a] for a in args], [signs[a] for a in args]
        )
        if unit_ok is not None:
            unit_checks[nid] = unit_ok
        if type_ok is not None:
            type_checks[nid] = type_ok

    return ProgramAnalysis(units, shapes, signs, depths, unit_checks, type_checks)


def _transfer(
    node: Node,
    kind: Optional[OperatorKind],
    units: Sequence[Optional[UnitSignature]],
    shapes: Sequence[Optional[Shape]],
    signs: Sequence[Sign],
) -> tuple[Optional[UnitSignature], Optional[Shape], Sign, Optional[bool], Optional[bool]]:
    """One node's step of the analysis: its unit, shape and sign, its unit
    verdict and its type verdict, from its operands' facts in slot order.

    `kind` is the node's operator kind, None for a leaf. A leaf's facts are
    its tags, a literal being a scalar unless tagged and signed by its value;
    it has no verdicts. Explicit unit and shape tags on an operator override
    what it derives. Its unit check runs once all its operand units are
    known (else its unit verdict is None); its type check passes when its
    shapes agree (unknowable shapes pass vacuously) and no operand sign,
    known only from literal constants, breaks its domain rule.
    """
    if kind is None:
        if node.op == CONST_OP:
            shape = node.shape if node.shape is not None else _SCALAR
            return node.unit, shape, _sign_of(node.value), None, None  # type: ignore[arg-type]
        return node.unit, node.shape, Sign.UNKNOWN, None, None
    # `None in` meets a None by identity first; a unit or a shape is never
    # equal to None, so this is `all(u is not None ...)` without a generator
    unit_ok = unit = shape = None
    if None not in units:
        unit_ok, unit = _check_units(kind, units)  # type: ignore[arg-type]
    shape_ok = True
    if None not in shapes:
        shape_ok, shape = _check_shape(kind, shapes)  # type: ignore[arg-type]
    return (
        node.unit if node.unit is not None else unit,
        node.shape if node.shape is not None else shape,
        _derive_sign(node.op, signs),
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


def _derive_sign(op: str, args: list[Sign]) -> Sign:
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
    `SyntheticProposer` built carries its edit record next to its verdict
    (`edits.ProgramEdit.vouch`): while the program is valid for this
    registry object and the record is over a base valid for it, its state
    is derived from the record on the first call (`ProgramEdit.state`), kept
    in the record's place, and returned. Any other program (the search's
    initial one, a decoded or a remote one), the same one with another
    registry, or one whose verdict was since recorded for another registry,
    goes through `validate_program` (a lookup for a program that passed
    against this registry object) and one `analyze_program` walk. The
    operator histogram keeps node-declaration order.

    Two threads scoring one candidate at once may both derive its state;
    the states are equal, and either is kept.
    """
    registry = registry or default_registry()
    attached = getattr(program, _STATE_FOR, None)
    if attached is not None and attached[0] is registry and getattr(program, _VALID_FOR, None) is registry:
        state = attached[1]
        if not isinstance(state, WorkflowState):  # the record: derive once, keep the state
            state = state.state(program)
            object.__setattr__(program, _STATE_FOR, (registry, state))
        return state
    report = validate_program(program, registry)
    if not report.ok:
        raise InvalidProgramError("; ".join(report.violations))
    analysis = analyze_program(program, registry)
    unit_passed, unit_checked, type_passed, type_checked = _check_counts(analysis)
    return WorkflowState(
        analysis.depths[program.output], _operator_histogram(program),
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
    every binding still live. `add`, `sub`, `mul` and `neg` map over their
    operand columns; any other operator, and a column with a non-finite
    result, goes binding by binding through `_apply` with its checks. A
    binding leaves the columns when it fails (with its failed trace) or when
    its own walk raises (an unbound root, a bad input value, an operator
    without semantics). A node that cannot be resolved (unknown operator,
    missing slot, literal without a value) ends the walk, and every binding
    still live raises its error; a cycle or an edge to a missing node raises
    at once. The call raises the error of the first binding that has one, as
    a loop over the bindings would, and otherwise returns the traces.
    """
    registry = registry or default_registry()
    bindings = list(inputs_list)
    results: list = [None] * len(bindings)   # per binding: its trace, or the error its walk raises
    live = list(range(len(bindings)))         # the binding of each row of a column
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
        left: dict[int, object] = {}   # row -> the failed trace or error of a binding that leaves here
        if op == INPUT_OP:
            try:
                column = [float(bindings[i][nid]) for i in live]
            except Exception:
                column = [0.0] * len(live)
                for row, i in enumerate(live):
                    try:
                        if nid not in bindings[i]:
                            raise MissingInputError(f"no input value for root {nid!r}")
                        column[row] = float(bindings[i][nid])
                    except Exception as exc:
                        left[row] = exc
            leaf_columns.append(column)
        elif op == CONST_OP:
            # literals do not count toward V_in: a program must not be able
            # to widen its own magnitude tolerance by embedding big constants
            column = [literal] * len(live)  # type: ignore[list-item]
        else:
            fn = _COLUMN_OPS.get((op, len(operands)))
            column = list(map(fn, *operands)) if fn else []
            if fn is None or not all(map(math.isfinite, column)):
                column = [0.0] * len(live)
                for row in range(len(live)):
                    try:
                        column[row] = v = _apply(op, [c[row] for c in operands])
                        if not math.isfinite(v):
                            raise _DomainViolation("non-finite result")
                    except _DomainViolation as exc:
                        left[row] = ExecutionTrace(
                            tuple(c[row] for c in value_columns), tuple(c[row] for c in leaf_columns),
                            False, None, f"{exc.reason} at node {nid!r}",
                        )
                    except Exception as exc:
                        left[row] = exc
            value_columns.append(column)
        column_of[nid] = column
        if left:
            for row, outcome in left.items():
                results[live[row]] = outcome
            kept = [row for row in range(len(live)) if row not in left]
            live = [live[row] for row in kept]
            for c in column_of.values():   # in place: the lists above hold the same columns
                c[:] = [c[row] for row in kept]
    if live:
        if unresolved is None and program.output not in column_of:
            unresolved = KeyError(program.output)
        if unresolved is not None:
            for i in live:
                results[i] = unresolved
        else:
            outputs = column_of[program.output]
            # a leaf-only program records its output, so the trace is non-empty
            values = zip(*value_columns) if value_columns else zip(outputs)
            inputs = zip(*leaf_columns) if leaf_columns else [()] * len(live)
            for i, vals, ins, out in zip(live, values, inputs, outputs):
                results[i] = ExecutionTrace(vals, ins, True, out)
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
    if isinstance(obj, dict) and "vector" in obj:
        return Shape.vector(int(obj["vector"]))
    if isinstance(obj, dict) and "matrix" in obj:
        m, n = obj["matrix"]
        return Shape.matrix(int(m), int(n))
    raise ValueError(f"bad shape tag: {obj!r}")


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
    unknown = set(data) - _PROGRAM_KEYS
    if unknown:
        raise ValueError(f"unknown program keys: {sorted(unknown)}")
    nodes = []
    for entry in data["nodes"]:
        bad = set(entry) - _NODE_KEYS
        if bad:
            raise ValueError(f"unknown node keys: {sorted(bad)}")
        unit = UnitSignature.of({str(k): int(v) for k, v in entry["unit"].items()}) if "unit" in entry else None
        shape = _shape_from_json(entry["shape"]) if "shape" in entry else None
        value = float(entry["value"]) if "value" in entry else None
        nodes.append(Node(str(entry["id"]), str(entry["op"]), unit=unit, shape=shape, value=value))
    edges = tuple(Edge(str(s), str(d), int(k)) for s, d, k in data["edges"])
    return WorkflowProgram(
        nodes=tuple(nodes),
        edges=edges,
        roots=tuple(str(r) for r in data["roots"]),
        output=str(data["output"]),
    )


def dumps_program(program: WorkflowProgram) -> str:
    return json.dumps(program_to_dict(program), sort_keys=True, indent=2) + "\n"


def loads_program(text: str) -> WorkflowProgram:
    return program_from_dict(json.loads(text))


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
    to the same tuple, before the program is built.
    """
    return _key_walk(program.output, *_key_maps(program), {})


def _key_entry(node: Node, children: tuple = ()) -> tuple:
    """`node`'s entry in `canonical_key`, `children` being its operands' entry
    indices: the one definition of the entry's layout. With no children it
    is the node's head, which `_key_walk` completes with its operands'
    indices, and `edits.ProgramEdit.key` builds the entries of the nodes an
    edit adds or changes with it."""
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
    index: dict[str, int],
    fresh_heads: Mapping[str, tuple] = _UNCHANGED,
    changed_operands: Mapping[str, tuple[str, ...]] = _UNCHANGED,
) -> tuple:
    """The post-order walk of `canonical_key`, from `output`, over the maps
    of `_key_maps`; fills `index` (id -> entry index).

    A node's head comes from `heads`, or from `fresh_heads` for a node that
    `heads` lacks; its operands come from `changed_operands` when that holds
    it, else from `operands`. Operands are entered in slot order, each one's
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
    # each node in progress: its id, head, operands and the iterator over
    # the operands not yet entered
    path: list[tuple] = []
    todo = iter((output,))
    while True:
        for nid in todo:
            i = index.get(nid)
            if i is None:
                head = heads.get(nid) or fresh_heads.get(nid)
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
