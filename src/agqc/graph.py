"""Open graph states: model, standard generators, and the on-disk format.

Vertices are 0-based integers internally; the JSON file format and all
rendered reports use 1-based labels.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Collection, Iterable, Mapping, Sequence

from .budget import approx, check_bytes

CLIFFORD_TOL = 1e-12


class Plane(Enum):
    """Measurement plane of a single qubit."""

    XY = "XY"
    XZ = "XZ"
    YZ = "YZ"


@dataclass(frozen=True)
class OpenGraph:
    """Open graph state: a graph with ordered inputs/outputs and measurement data.

    Attributes
    ----------
    n_vertices : int
        Number of vertices, labelled ``0 .. n_vertices - 1``.
    edges : frozenset[tuple[int, int]]
        Undirected edges, stored as ``(a, b)`` with ``a < b``.
    inputs, outputs : tuple[int, ...]
        Ordered input and output vertices.
    angles : dict[int, float]
        Measurement angle (radians) per non-output vertex.
    planes : dict[int, Plane]
        Measurement plane per non-output vertex.

    Treat instances as immutable; they are safe to share between threads.
    """

    n_vertices: int
    edges: frozenset[tuple[int, int]]
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    angles: dict[int, float]
    planes: dict[int, Plane]
    adjacency: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        adj = [0] * self.n_vertices
        for a, b in self.edges:
            if 0 <= a < self.n_vertices and 0 <= b < self.n_vertices and a != b:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
        object.__setattr__(self, "adjacency", tuple(adj))

    @property
    def vertices(self) -> range:
        return range(self.n_vertices)

    @property
    def non_outputs(self) -> tuple[int, ...]:
        out = set(self.outputs)
        return tuple(v for v in self.vertices if v not in out)


def make_graph(
    n: int,
    edges: Iterable[tuple[int, int]],
    inputs: Sequence[int],
    outputs: Sequence[int],
    angles: Mapping[int, float] | None = None,
    planes: Mapping[int, Plane] | None = None,
) -> OpenGraph:
    """Build an :class:`OpenGraph`, normalising edges and defaulting planes to XY.

    Missing angles default to 0 on non-outputs.  No validity judgement is
    made here; see :func:`validate`.
    """
    edge_set = frozenset((min(a, b), max(a, b)) for a, b in edges)
    outs = tuple(outputs)
    out_set = set(outs)
    angle_map = {v: 0.0 for v in range(n) if v not in out_set}
    if angles:
        angle_map.update({v: float(a) for v, a in angles.items()})
    plane_map = {v: Plane.XY for v in range(n) if v not in out_set}
    if planes:
        plane_map.update(dict(planes))
    return OpenGraph(n, edge_set, tuple(inputs), outs, angle_map, plane_map)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...]


def validate(graph: OpenGraph) -> ValidationReport:
    """Check the structural invariants of an open graph; report, don't raise."""
    problems: list[str] = []
    n = graph.n_vertices
    if n <= 0:
        problems.append("graph has no vertices")

    def in_range(v: int) -> bool:
        return 0 <= v < n

    for a, b in sorted(graph.edges):
        if a == b:
            problems.append(f"self-loop at vertex {a + 1}")
        if not in_range(a) or not in_range(b):
            problems.append(f"edge ({a + 1},{b + 1}) uses an unknown vertex")
    for name, seq in (("inputs", graph.inputs), ("outputs", graph.outputs)):
        if len(set(seq)) != len(seq):
            problems.append(f"duplicate vertices in {name}")
        for v in seq:
            if not in_range(v):
                problems.append(f"unknown vertex {v + 1} in {name}")
    if len(graph.outputs) < len(graph.inputs):
        problems.append(
            "information loss: fewer outputs than inputs "
            f"({len(graph.outputs)} < {len(graph.inputs)})"
        )
    out_set = set(graph.outputs)
    for v in graph.vertices:
        if v in out_set:
            if v in graph.angles:
                problems.append(f"output vertex {v + 1} carries a measurement angle")
            if v in graph.planes:
                problems.append(f"output vertex {v + 1} carries a measurement plane")
        else:
            if v not in graph.angles:
                problems.append(f"non-output vertex {v + 1} has no measurement angle")
            if v not in graph.planes:
                problems.append(f"non-output vertex {v + 1} has no measurement plane")
    return ValidationReport(not problems, tuple(problems))


def stabilizer_product(graph: OpenGraph, members: Iterable[int]) -> tuple[int, int, int]:
    """``(x, z, e)`` with ``prod_{w in S} K_w = (-1)^e X_S Z_Odd(S)`` for the
    distinct vertices ``S = members``: x is the mask of S, z the XOR of their
    adjacency masks, and ``e = |E(S)|``, one Z moved past an X per edge inside
    S.  Members are not checked; a caller that needs generators refuses inputs.
    """
    x = z = e = 0
    for w in members:
        adj = graph.adjacency[w]
        e += (adj & x).bit_count()
        x |= 1 << w
        z ^= adj
    return x, z, e


def is_clifford_angle(theta: float) -> bool:
    """True when ``theta`` is a multiple of pi/2 within :data:`CLIFFORD_TOL`."""
    return abs(math.remainder(theta, math.pi / 2)) < CLIFFORD_TOL


# ---------------------------------------------------------------------------
# standard generators


def _check_graph_bytes(n: int, width_sum: int, what: str) -> None:
    """Charge ``what``, a graph of ``n`` vertices, to the memory budget
    before building it: ~200 bytes of Python objects per vertex, and
    adjacency bitmasks as wide as each vertex's highest neighbour.
    ``width_sum`` is the sum of the larger endpoints of the edges."""
    check_bytes(256 * n + width_sum // 4, f"the {approx(n)} vertices of {what}")


def generate_chain(n: int, angles: Sequence[float] | None = None) -> OpenGraph:
    """Path graph 0-1-...-(n-1) with input 0 and output n-1.

    ``angles`` must have length ``n`` (default: all 0); the last entry (the
    output vertex) is ignored since outputs are not measured.
    """
    if n < 2:
        raise ValueError("a chain needs at least 2 vertices")
    _check_graph_bytes(n, n * (n - 1) // 2, "a chain")
    if angles is None:
        angles = [0.0] * n
    if len(angles) != n:
        raise ValueError(f"expected {n} angles, got {len(angles)}")
    if not all(math.isfinite(a) for a in angles):
        raise ValueError("chain angles must be finite")
    edges = [(v, v + 1) for v in range(n - 1)]
    angle_map = {v: float(angles[v]) for v in range(n - 1)}
    return make_graph(n, edges, inputs=[0], outputs=[n - 1], angles=angle_map)


def generate_cluster(rows: int, cols: int) -> OpenGraph:
    """Square-lattice cluster with inputs on the first column, outputs on the last.

    Vertex ``col * rows + row``; all angles default to 0.
    """
    if rows < 1 or cols < 2:
        raise ValueError("cluster needs rows >= 1 and cols >= 2")
    n = rows * cols
    # larger endpoints: vid(r + 1, c) of the column edges, vid(r, c + 1) of the row edges
    width_sum = (
        (rows - 1) * rows * cols * cols // 2
        + rows * rows * cols * (cols - 1) // 2
        + (cols - 1) * rows * (rows - 1) // 2
    )
    _check_graph_bytes(n, width_sum, "a cluster")

    def vid(row: int, col: int) -> int:
        return col * rows + row

    edges = []
    for c in range(cols):
        for r in range(rows):
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
    inputs = [vid(r, 0) for r in range(rows)]
    outputs = [vid(r, cols - 1) for r in range(rows)]
    return make_graph(n, edges, inputs, outputs)


def generate_zigzag(n: int) -> OpenGraph:
    """Zig-zag graph: inputs 0..n-1, outputs n..2n-1.

    Input ``v`` connects to output ``n + v``; input ``v + 1`` additionally
    connects to output ``n + v``.  With this wiring the whole family of
    gflows ``g^r`` (see :func:`agqc.gflow.zigzag_gflow_family`) is valid,
    with depth ``ceil(n / r)`` and stabilizer-product support ``r + 2``
    on interior vertices.
    """
    if n < 1:
        raise ValueError("zigzag needs n >= 1")
    # the larger endpoint of both (v, n + v) and (v + 1, n + v) is n + v
    width_sum = n * n + n * (n - 1) // 2 + (n - 1) * n + (n - 1) * (n - 2) // 2
    _check_graph_bytes(2 * n, width_sum, "a zig-zag graph")
    edges = [(v, n + v) for v in range(n)]
    edges += [(v + 1, n + v) for v in range(n - 1)]
    return make_graph(2 * n, edges, inputs=range(n), outputs=range(n, 2 * n))


def generate_cnot_graph() -> OpenGraph:
    """Two three-vertex rows joined by a rung at the middle column.

    Vertices (a1, a2, a3, b1, b2, b3) = (0, 1, 2, 3, 4, 5); inputs (a1, b1),
    outputs (a3, b3); all angles 0.
    """
    a1, a2, a3, b1, b2, b3 = range(6)
    edges = [(a1, a2), (a2, a3), (b1, b2), (b2, b3), (a2, b2)]
    return make_graph(6, edges, inputs=[a1, b1], outputs=[a3, b3])


# ---------------------------------------------------------------------------
# file format

_GRAPH_FIELDS = {"n", "edges", "inputs", "outputs", "angles", "planes"}


class GraphFormatError(ValueError):
    """Raised when a graph file does not conform to the documented schema."""


def graph_to_json(graph: OpenGraph) -> str:
    """Serialize to the documented JSON schema (1-based vertex labels)."""
    doc = {
        "n": graph.n_vertices,
        "edges": [[a + 1, b + 1] for a, b in sorted(graph.edges)],
        "inputs": [v + 1 for v in graph.inputs],
        "outputs": [v + 1 for v in graph.outputs],
        "angles": {str(v + 1): graph.angles[v] for v in sorted(graph.angles)},
        "planes": {str(v + 1): graph.planes[v].value for v in sorted(graph.planes)},
    }
    return json.dumps(doc)


def is_json_int(value: object) -> bool:
    """True for a JSON integer: JSON true/false arrive as bool, a subclass
    of int, and are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def json_label(key: str, n: int | None = None) -> int | None:
    """The vertex label that the JSON object key ``key`` names: ``key`` must
    be ``str(label)`` for a label in 1..n (any label from 1 when n is None),
    so that ``"02"``, ``" 2"``, ``"+2"`` and ``"1_0"`` name no vertex; None
    otherwise."""
    try:
        label = int(key)
    except ValueError:
        return None
    return label if str(label) == key and label >= 1 and (n is None or label <= n) else None


def read_json_object(
    text: str,
    fields: Collection[str],
    required: Sequence[str],
    error: type[ValueError],
    missing: str = "missing field '{}'",
) -> dict:
    """Decode ``text`` as a JSON object with keys from ``fields``, all of
    ``required`` among them, and no key repeated in any object; raise
    ``error`` otherwise, with ``missing.format(key)`` for a missing key."""

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        doc = dict(pairs)
        if len(doc) < len(pairs):
            keys = [key for key, _ in pairs]
            repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
            raise error(f"repeated key {repeated!r}")
        return doc

    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise error(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error("top level must be an object")
    unknown = set(doc) - set(fields)
    if unknown:
        raise error(f"unknown fields: {sorted(unknown)}")
    for key in required:
        if key not in doc:
            raise error(missing.format(key))
    return doc


def graph_from_json(text: str) -> OpenGraph:
    """Parse the JSON graph format; rejects unknown fields and malformed
    entries.  Angles default to 0 and planes to XY on non-outputs."""
    doc = read_json_object(
        text, _GRAPH_FIELDS, ("n", "edges", "inputs", "outputs", "angles"), GraphFormatError
    )
    n = doc["n"]
    if not is_json_int(n) or n <= 0:
        raise GraphFormatError("'n' must be a positive integer")

    def vertex(label: object) -> int:
        if not is_json_int(label) or not 1 <= label <= n:
            raise GraphFormatError(f"vertex label {label!r} out of range 1..{n}")
        return label - 1

    for key, kind in (("edges", list), ("inputs", list), ("outputs", list), ("angles", dict),
                      ("planes", dict)):
        if not isinstance(doc.get(key, kind()), kind):
            raise GraphFormatError(f"'{key}' must be a {'list' if kind is list else 'object'}")

    edges = []
    seen = set()
    for pair in doc["edges"]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise GraphFormatError(f"edge {pair!r} must be a pair")
        a, b = vertex(pair[0]), vertex(pair[1])
        if a == b:
            raise GraphFormatError(f"edge {pair!r} is a self-loop")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise GraphFormatError(f"duplicate edge {pair!r}")
        seen.add(key)
        edges.append(key)
    _check_graph_bytes(n, sum(b for _, b in edges), f"a graph file with {len(edges)} edges")
    inputs = [vertex(v) for v in doc["inputs"]]
    outputs = [vertex(v) for v in doc["outputs"]]
    for key, labels in (("inputs", inputs), ("outputs", outputs)):
        if len(set(labels)) < len(labels):
            raise GraphFormatError(f"duplicate vertex in '{key}'")

    def key_vertex(key: str) -> int:
        label = json_label(key, n)
        if label is None:
            raise GraphFormatError(f"vertex key {key!r} is not a label in 1..{n}")
        return label - 1

    angles = {}
    for key, theta in doc["angles"].items():
        v = key_vertex(key)
        finite = isinstance(theta, (int, float)) and abs(theta) <= sys.float_info.max
        # the comparison is exact: NaN, infinities and integers past float range fail
        if isinstance(theta, bool) or not finite:
            raise GraphFormatError(f"angle for vertex {key} must be a finite number")
        angles[v] = float(theta)
    planes = {}
    for key, name in doc.get("planes", {}).items():
        v = key_vertex(key)
        try:
            planes[v] = Plane(name)
        except ValueError as exc:
            raise GraphFormatError(f"unknown plane {name!r}") from exc
    return make_graph(n, edges, inputs, outputs, angles, planes)
