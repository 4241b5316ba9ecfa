"""Gflow verification, layer/depth/size accounting, search, and the zig-zag family.

Time convention: layer 0 is measured first, and ``v < w`` means *v is
measured before w*.  Output vertices sit beyond every non-output layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import _gf2
from .budget import approx, check_bytes
from .graph import OpenGraph, Plane, is_json_int, json_label, read_json_object, stabilizer_product

#: Sentinel layer assigned to outputs in comparisons (beyond all real layers).
OUTPUT_LAYER = float("inf")


class GflowStructureError(ValueError):
    """The gflow object does not structurally match the graph."""


@dataclass(frozen=True)
class Gflow:
    """Correcting-set map ``g`` and measurement-layer assignment.

    ``g`` maps every non-output vertex to its correcting set (a subset of
    the non-input vertices); ``layer`` maps every non-output vertex to its
    measurement round, 0 measured first.  Outputs appear in neither map.
    """

    g: dict[int, frozenset[int]]
    layer: dict[int, int]

    def layer_of(self, v: int) -> float:
        """Layer index of ``v``; outputs report the +inf sentinel."""
        return self.layer.get(v, OUTPUT_LAYER)

    @property
    def depth(self) -> int:
        return len(set(self.layer.values()))

    def measurement_order(self) -> tuple[int, ...]:
        """Non-outputs sorted by (layer, vertex index)."""
        return tuple(sorted(self.layer, key=lambda v: (self.layer[v], v)))

    def max_correcting_set_size(self) -> int:
        """Largest raw correcting-set cardinality |g(v)| (not the support size)."""
        return max((len(s) for s in self.g.values()), default=0)


@dataclass(frozen=True)
class GflowReport:
    """Outcome of :func:`verify_gflow`.

    ``max_size`` is the gflow size in the stabilizer-product sense: the
    largest support of ``prod_{w in g(v)} K_w`` over non-outputs v.  The raw
    correcting-set cardinality is deliberately a separate notion, see
    :meth:`Gflow.max_correcting_set_size`.
    """

    valid: bool
    violations: tuple[tuple[int, str, str], ...]
    depth: int
    max_size: int
    layer_sizes: tuple[int, ...]


def _check_structure(graph: OpenGraph, gf: Gflow) -> None:
    # Correcting sets containing inputs are refused by the compiler's check
    # (no generator exists there), not here: the axioms are still checkable.
    non_outputs = set(graph.non_outputs)
    if set(gf.g) != non_outputs:
        missing = non_outputs - set(gf.g)
        extra = set(gf.g) - non_outputs
        raise GflowStructureError(
            f"g must be defined exactly on non-outputs (missing "
            f"{sorted(v + 1 for v in missing)}, extra {sorted(v + 1 for v in extra)})"
        )
    if set(gf.layer) != non_outputs:
        raise GflowStructureError("layer must be defined exactly on non-outputs")
    for v, corr in gf.g.items():
        for w in corr:
            if not 0 <= w < graph.n_vertices:
                raise GflowStructureError(f"g({v + 1}) contains unknown vertex {w + 1}")


#: G3 per measurement plane: (v in g(v), g(v) oddly connected to v).
_G3_RULES = {Plane.XY: (False, True), Plane.XZ: (True, True), Plane.YZ: (True, False)}


def verify_gflow(graph: OpenGraph, gf: Gflow) -> GflowReport:
    """Check the gflow axioms G1-G3 for every non-output vertex.

    G1: every w in g(v), w != v, lies in a strictly later layer.
    G2: every vertex w != v with layer(w) <= layer(v) is evenly connected
    to g(v) (same-layer vertices included).
    G3 depends on the measurement plane of v: XY requires v not in g(v) and
    g(v) oddly connected to v; XZ requires v in g(v) and odd connectivity;
    YZ requires v in g(v) and even connectivity.  Every input w in a g(v)
    is reported too, as axiom ``"codomain"`` (g maps into the subsets of
    the non-inputs), after every failure of G1-G3.

    Structural mismatches raise :class:`GflowStructureError`; axiom failures
    are reported, not raised.
    """
    _check_structure(graph, gf)
    # at_or_before[l]: the non-outputs in layers <= l
    at_or_before: dict[int, int] = {}
    mask = 0
    for v in sorted(gf.layer, key=gf.layer.get):
        mask |= 1 << v
        at_or_before[gf.layer[v]] = mask
    inputs = sum(1 << w for w in graph.inputs)
    violations: list[tuple[int, str, str]] = []
    held: list[tuple[int, str, str]] = []  # inputs in correcting sets, listed last
    max_size = 0
    for v in sorted(gf.g):
        corr = gf.g[v]
        lv = gf.layer_of(v)
        # details name vertices by their 1-based labels, like every report
        label = v + 1
        # bit w of x: w is in g(v); bit w of odd: w is oddly connected to g(v)
        x, odd, _ = stabilizer_product(graph, corr)
        max_size = max(max_size, (x | odd).bit_count())
        for w in _gf2.set_bits(x & inputs):
            detail = f"g({label}) holds input {w + 1}; inputs have no generator"
            held.append((v, "codomain", detail))
        for w in _gf2.set_bits(x & at_or_before[lv] & ~(1 << v)):
            detail = f"{w + 1} in g({label}) is not in the future of {label}"
            violations.append((v, "G1", detail))
        if odd & at_or_before[lv] & ~(1 << v):
            for w in gf.layer:
                if w != v and gf.layer_of(w) <= lv and odd >> w & 1:
                    detail = f"{w + 1} is oddly connected to g({label}) but not after {label}"
                    violations.append((v, "G2", detail))
        plane = graph.planes.get(v, Plane.XY)
        want_own, want_odd = _G3_RULES[plane]
        if (v in corr) != want_own:
            where = "in" if want_own else "not in"
            violations.append((v, "G3", f"{plane.value} plane requires {label} {where} g({label})"))
        if bool(odd >> v & 1) != want_odd:
            parity = "oddly" if want_odd else "evenly"
            violations.append((v, "G3", f"g({label}) must be {parity} connected to {label}"))
    violations += held
    sizes, depth = layers_and_depth(gf)
    return GflowReport(not violations, tuple(violations), depth, max_size, sizes)


def layers_and_depth(gf: Gflow) -> tuple[tuple[int, ...], int]:
    """Per-layer vertex counts (ascending layer index) and the depth."""
    counts: dict[int, int] = {}
    for lv in gf.layer.values():
        counts[lv] = counts.get(lv, 0) + 1
    sizes = tuple(counts[k] for k in sorted(counts))
    return sizes, len(sizes)


def gflow_size(graph: OpenGraph, gf: Gflow, v: int) -> int:
    """Support size of ``prod_{w in g(v)} K_w``, the gflow size |g(v)|."""
    if v not in gf.g:
        raise ValueError(f"vertex {v + 1} is an output (or unknown); it has no g(v)")
    x, z, _ = stabilizer_product(graph, gf.g[v])
    return (x | z).bit_count()


def find_gflow(graph: OpenGraph) -> Gflow | None:
    """Maximally delayed gflow of an XY-plane open graph, or None.

    Backward construction from the outputs: in each round, a vertex u gets
    a correcting set drawn from the already-processed non-inputs by solving
    the parity condition Odd(S) restricted to unprocessed vertices = {u}
    over GF(2).  The result has the minimum possible number of layers.
    Ties are broken deterministically (free variables zero, columns in
    vertex order).

    A target's row is its adjacency ANDed with the bitmask of candidates,
    so a round costs its frontier (the targets next to a candidate and the
    candidates they hold), not the product of the two sets.
    """
    for v, plane in graph.planes.items():
        if plane is not Plane.XY:
            raise ValueError(
                f"find_gflow supports XY-plane graphs only ({v + 1} is {plane.value})"
            )
    n = graph.n_vertices
    inputs = sum(1 << v for v in set(graph.inputs))
    unprocessed = ((1 << n) - 1) & ~sum(1 << v for v in set(graph.outputs))
    g: dict[int, frozenset[int]] = {}
    back_layer: dict[int, int] = {}
    k = 0
    while unprocessed:
        k += 1
        candidates = ((1 << n) - 1) & ~unprocessed & ~inputs
        # column c stands for vertex c + low, which keeps the masks short
        low = max(0, (candidates & -candidates).bit_length() - 1)
        targets = list(_gf2.set_bits(unprocessed))
        rows = [(graph.adjacency[w] & candidates) >> low for w in targets]
        found = 0
        for u, sol in zip(targets, _gf2.solve_unit_columns(rows)):
            if sol is not None:
                g[u] = frozenset(_gf2.set_bits(sol << low))
                back_layer[u] = k
                found |= 1 << u
        if not found:
            return None
        unprocessed ^= found
    if not back_layer:
        return Gflow({}, {})
    k_max = max(back_layer.values())
    layer = {v: k_max - kb for v, kb in back_layer.items()}
    return Gflow(g, layer)


def zigzag_gflow_family(n: int, r: int) -> Gflow:
    """The gflow ``g^r`` on the zig-zag graph of 2n vertices, 1 <= r <= n.

    ``g^r(v)`` is the run of r outputs starting at ``n + v`` (clamped at the
    last vertex), and layers group the inputs into consecutive blocks of r,
    giving depth ``ceil(n / r)``.

    Charged to the memory budget before it is built: ~512 bytes a vertex
    and ~96 a correcting-set entry, of which there are ``sum_v min(r, n - v)``.
    """
    if not 1 <= r <= n:
        raise ValueError(f"r must satisfy 1 <= r <= {n}, got {r}")
    entries = r * (n - r + 1) + r * (r - 1) // 2
    check_bytes(512 * n + 96 * entries, f"the {approx(entries)} correcting-set entries of g^r")
    g = {v: frozenset(range(n + v, min(n + v + r, 2 * n))) for v in range(n)}
    layer = {v: v // r for v in range(n)}
    return Gflow(g, layer)


# ---------------------------------------------------------------------------
# file format (1-based labels, non-outputs only)

_GFLOW_FIELDS = ("g", "layer")


class GflowFormatError(ValueError):
    """Raised when a gflow file does not conform to the documented schema."""


def gflow_to_json(gf: Gflow) -> str:
    doc = {
        "g": {str(v + 1): sorted(w + 1 for w in gf.g[v]) for v in sorted(gf.g)},
        "layer": {str(v + 1): gf.layer[v] for v in sorted(gf.layer)},
    }
    return json.dumps(doc)


def gflow_from_json(text: str) -> Gflow:
    doc = read_json_object(
        text, _GFLOW_FIELDS, _GFLOW_FIELDS, GflowFormatError, "both 'g' and 'layer' are required"
    )
    try:
        g = {}
        for key, ws in doc["g"].items():
            v, listed = _key_vertex(key), [_json_int(w) - 1 for w in ws]
            g[v] = corr = frozenset(listed)
            if len(corr) < len(listed):
                raise GflowFormatError(f"g({key}) lists a vertex twice")
        layer = {_key_vertex(key): _json_int(k) for key, k in doc["layer"].items()}
    except (TypeError, ValueError, AttributeError) as exc:
        raise GflowFormatError(f"malformed entry: {exc}") from exc
    return Gflow(g, layer)


def _key_vertex(key: str) -> int:
    label = json_label(key)
    if label is None:
        raise ValueError(f"vertex key {key!r} is not a label 1, 2, ...")
    return label - 1


def _json_int(value: object) -> int:
    if not is_json_int(value):
        raise TypeError(f"expected an integer, got {json.dumps(value)}")
    return value
