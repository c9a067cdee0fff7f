import numpy as np
import pytest

from wfopt.edits import MODULUS, EditBase, head_weight, slot_weight
from wfopt.model import (
    CONST_OP,
    INPUT_OP,
    Edge,
    Node,
    WorkflowProgram,
    WorkflowState,
    _key_entry,
    default_registry,
    validate_program,
)
from wfopt.motifs import LIBRARY_FORMAT_VERSION, Motif, MotifConfig, MotifLibrary


@pytest.fixture(scope="session")
def registry():
    return default_registry()


def chain(*ops, n_roots=1):
    """Linear program: root -> ops[0] -> ops[1] -> ... (unary ops only)."""
    nodes = [Node(f"x{i}", INPUT_OP) for i in range(n_roots)]
    edges = []
    prev = "x0"
    for i, op in enumerate(ops):
        nid = f"n{i}"
        nodes.append(Node(nid, op))
        edges.append(Edge(prev, nid, 0))
        prev = nid
    return WorkflowProgram(tuple(nodes), tuple(edges), tuple(f"x{i}" for i in range(n_roots)), prev)


def binary(op, left, right, *, units=None, shapes=None, values=None):
    """Single binary operation over two leaves (inputs or constants)."""
    nodes = []
    roots = []
    ids = []
    for i, leaf in enumerate((left, right)):
        unit = units[i] if units else None
        shape = shapes[i] if shapes else None
        if leaf == "input":
            nid = f"x{i}"
            nodes.append(Node(nid, INPUT_OP, unit=unit, shape=shape))
            roots.append(nid)
        else:
            nid = f"c{i}"
            nodes.append(Node(nid, CONST_OP, value=float(leaf), unit=unit, shape=shape))
        ids.append(nid)
    nodes.append(Node("n0", op))
    edges = (Edge(ids[0], "n0", 0), Edge(ids[1], "n0", 1))
    return WorkflowProgram(tuple(nodes), edges, tuple(roots), "n0")


def random_program(rng: np.random.Generator, registry, max_ops: int = 8) -> WorkflowProgram:
    """Structurally valid random program for property tests."""
    n_roots = int(rng.integers(1, 4))
    nodes = [Node(f"x{i}", INPUT_OP) for i in range(n_roots)]
    ids = [n.node_id for n in nodes]
    if rng.random() < 0.3:
        nodes.append(Node("c0", CONST_OP, value=float(rng.integers(-5, 10))))
        ids.append("c0")
    edges = []
    kinds = list(registry)
    for i in range(int(rng.integers(1, max_ops + 1))):
        kind = kinds[int(rng.integers(len(kinds)))]
        nid = f"n{i}"
        for slot in range(kind.arity):
            src = ids[int(rng.integers(len(ids)))]
            edges.append(Edge(src, nid, slot))
        nodes.append(Node(nid, kind.name))
        ids.append(nid)
    program = WorkflowProgram(tuple(nodes), tuple(edges), tuple(n.node_id for n in nodes if n.op == INPUT_OP), ids[-1])
    assert validate_program(program, registry).ok
    return program


def state_key(state: WorkflowState) -> tuple:
    """What a `ConstraintScorer`'s static vector is a function of."""
    return (
        state.depth,
        tuple(state.operator_histogram.items()),
        state.unit_passed,
        state.unit_checked,
        state.type_passed,
        state.type_checked,
    )


def prune_dead(program: WorkflowProgram) -> WorkflowProgram:
    """The reference pruning: drop the operator and const nodes that do not
    feed the output, from the program's `incoming()` map; keep the roots.

    A node the program lacks feeds nothing: the walk back from the output
    stops there, so what fed only such a node is dropped with its edge, and
    pruning again drops nothing more. A program with nothing to drop is
    returned as it is. The proposer prunes a base by the dead nodes its
    `EditBase` walk finds, and a rewire's record drops what this drops."""
    inc = program.incoming()
    present = {n.node_id for n in program.nodes}
    live: set[str] = set()
    stack = [program.output]
    while stack:
        cur = stack.pop()
        if cur in live or cur not in present:
            continue
        live.add(cur)
        stack.extend(inc[cur].values())
    nodes = tuple(n for n in program.nodes if n.node_id in live or n.op == INPUT_OP)
    kept = {n.node_id for n in nodes}
    edges = tuple(e for e in program.edges if e.src in kept and e.dst in kept)
    if len(nodes) == len(program.nodes) and len(edges) == len(program.edges):
        return program
    return WorkflowProgram(nodes=nodes, edges=edges, roots=program.roots, output=program.output)


def without_verdict(program):
    """An equal program that carries no validation verdict, so that a check
    of it runs in full."""
    return WorkflowProgram(program.nodes, program.edges, program.roots, program.output)


def every_pair(proposer, program):
    """Every (fingerprint, edit record) pair the edit generators of a clean,
    valid `program`'s `EditBase` yield with `proposer`'s operators and
    palette, in the proposer's order, before the size limit and
    deduplication."""
    base = EditBase(program, proposer.registry)
    return [*base.insertions(proposer._ops, proposer.config.const_palette), *base.replacements(proposer._ops),
            *base.deletions(), *base.rewires()]


def every_entry(proposer, program):
    """The edit records of `every_pair`, in its order."""
    return [edit for _, edit in every_pair(proposer, program)]


def fingerprint(program):
    """A program's fingerprint from scratch: `t(output)` over the tree unfolded
    from its output, `t(v)` being `head_weight` of `v`'s key head plus each
    operand's `t` times its slot's `slot_weight`, modulo `MODULUS`."""
    heads = {n.node_id: _key_entry(n) for n in program.nodes}
    slots: dict[str, dict[int, str]] = {}
    for e in program.edges:
        slots.setdefault(e.dst, {})[e.slot] = e.src
    sums: dict[str, int] = {}
    stack = [program.output]
    while stack:
        nid = stack[-1]
        todo = [a for a in slots.get(nid, {}).values() if a not in sums]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        below = sum(slot_weight(k) * sums[a] for k, a in slots.get(nid, {}).items())
        sums[nid] = (head_weight(heads[nid]) + below) % MODULUS
    return sums[program.output]


def library_from_dict(data) -> MotifLibrary:
    """The reference reader of `motifs.json`: the library `library_to_dict`
    wrote. Its `params` hold the four settings `refine` reads;
    `templates_per_category`, read only by `init_templates`, is not saved
    and comes back as the default."""
    if data.get("version") != LIBRARY_FORMAT_VERSION:
        raise ValueError(f"unsupported library version {data.get('version')!r}")
    params = data.get("params", {})
    motifs = []
    for cat in data["categories"]:
        for m in cat["motifs"]:
            motifs.append(Motif(cat["name"], tuple(float(x) for x in m["vector"]), m["origin"]))
    config = MotifConfig(
        refinement_period=int(params.get("refinement_period", 3)),
        cluster_count_per_category=int(params.get("cluster_count_per_category", 20)),
        min_separation=float(params.get("min_separation", 0.3)),
        max_per_category=int(params.get("max_per_category", 30)),
    )
    return MotifLibrary(
        motifs=tuple(motifs),
        registry_ops=tuple(data["registry"]),
        config=config,
        frozen=bool(data["frozen"]),
    )
