import json
import math
import re

import pytest

from agqc.graph import (
    GraphFormatError,
    Plane,
    generate_chain,
    generate_cluster,
    generate_cnot_graph,
    generate_zigzag,
    graph_from_json,
    graph_to_json,
    json_label,
    make_graph,
    validate,
)
from agqc.gflow import verify_gflow, zigzag_gflow_family

from conftest import odd_connectivity, random_open_graph


def test_validate_minimal_chain_passes():
    g = make_graph(3, [(0, 1), (1, 2)], [0], [2], {0: 0.0, 1: 0.0})
    assert validate(g).ok


def test_validate_rejects_self_loop():
    g = make_graph(3, [(0, 1), (1, 1)], [0], [2], {0: 0.0, 1: 0.0})
    report = validate(g)
    assert not report.ok
    assert any("self-loop" in p for p in report.problems)


def test_validate_rejects_information_loss():
    g = make_graph(2, [(0, 1)], [0], [], {0: 0.0, 1: 0.0})
    report = validate(g)
    assert not report.ok
    assert any("information loss" in p for p in report.problems)


def test_validate_reports_missing_angle():
    g = make_graph(2, [(0, 1)], [0], [1])
    object.__setattr__(g, "angles", {})
    assert any("no measurement angle" in p for p in validate(g).problems)


def test_chain_structure():
    g = generate_chain(4, [0.0, 0.0, 0.0, 0.0])
    assert g.edges == frozenset({(0, 1), (1, 2), (2, 3)})
    assert g.inputs == (0,) and g.outputs == (3,)
    assert all(g.planes[v] is Plane.XY for v in range(3))


def test_chain_two_vertices_is_teleportation_graph():
    g = generate_chain(2, [0.0, 0.0])
    assert g.edges == frozenset({(0, 1)})
    assert validate(g).ok


def test_chain_stores_angles():
    angles = [0.0, math.pi / 4, math.pi / 3, math.pi / 7, 1.23]
    g = generate_chain(5, angles)
    assert g.angles == {v: angles[v] for v in range(4)}  # output angle dropped
    assert 4 not in g.angles


def test_chain_preconditions():
    with pytest.raises(ValueError):
        generate_chain(1, [0.0])
    with pytest.raises(ValueError):
        generate_chain(3, [0.0, 0.0])


def test_cluster_fig1_counts():
    g = generate_cluster(5, 6)
    assert g.n_vertices == 30
    assert len(g.inputs) == 5 and len(g.outputs) == 5
    assert validate(g).ok


def test_cluster_single_row_equals_chain():
    a = generate_cluster(1, 7)
    b = generate_chain(7, [0.0] * 7)
    assert a.edges == b.edges and a.inputs == b.inputs and a.outputs == b.outputs


def test_cluster_2x2_counts():
    g = generate_cluster(2, 2)
    assert g.n_vertices == 4 and len(g.edges) == 4


def test_cluster_preconditions():
    with pytest.raises(ValueError):
        generate_cluster(0, 3)
    with pytest.raises(ValueError):
        generate_cluster(2, 1)


def test_zigzag_counts():
    g = generate_zigzag(3)
    assert g.n_vertices == 6 and len(g.edges) == 5
    assert g.inputs == (0, 1, 2) and g.outputs == (3, 4, 5)


def test_zigzag_supports_whole_gflow_family():
    g = generate_zigzag(3)
    for r in (1, 2, 3):
        assert verify_gflow(g, zigzag_gflow_family(3, r)).valid


def test_zigzag_smallest_is_single_edge():
    g = generate_zigzag(1)
    assert g.edges == frozenset({(0, 1)})


def test_zigzag_oddly_connected_to_own_correcting_set():
    for n in (2, 4, 5):
        g = generate_zigzag(n)
        for r in range(1, n + 1):
            gf = zigzag_gflow_family(n, r)
            for v in range(n):
                assert odd_connectivity(g, gf.g[v], v)


def test_cnot_graph_generator_term():
    g = generate_cnot_graph()
    # K_{a2} = X_{a2} Z_{a1} Z_{a3} Z_{b2}: the first H_CNOT term up to sign
    from agqc.pauli import stabilizer_generator

    k = stabilizer_generator(g, 1)
    assert k.letter(1) == "X"
    assert {v for v in range(6) if k.letter(v) == "Z"} == {0, 2, 4}


def test_cnot_graph_degrees_and_validity():
    g = generate_cnot_graph()
    assert g.adjacency[1].bit_count() == 3  # a2
    assert len(g.inputs) == len(g.outputs) == 2
    assert validate(g).ok


def test_odd_connectivity_chain():
    g = generate_chain(4, [0.0] * 4)
    assert odd_connectivity(g, {1}, 0)
    assert not odd_connectivity(g, set(), 0)


def test_odd_connectivity_zigzag_g2():
    g = generate_zigzag(3)
    gf = zigzag_gflow_family(3, 2)
    assert gf.g[0] == frozenset({3, 4})
    assert odd_connectivity(g, gf.g[0], 0)


def test_odd_connectivity_unknown_vertex():
    g = generate_chain(3, [0.0] * 3)
    with pytest.raises(ValueError):
        odd_connectivity(g, {0}, 7)


def test_serialization_round_trip(rng):
    for n in (2, 4, 7, 10):
        for _ in range(5):
            g = random_open_graph(rng, n)
            h = graph_from_json(graph_to_json(g))
            assert h.n_vertices == g.n_vertices
            assert h.edges == g.edges
            assert h.inputs == g.inputs and h.outputs == g.outputs
            assert h.planes == g.planes
            assert set(h.angles) == set(g.angles)
            assert all(abs(h.angles[v] - g.angles[v]) < 1e-15 for v in g.angles)


def test_parser_rejects_unknown_fields():
    g = generate_chain(3, [0.0] * 3)
    doc = graph_to_json(g).replace('"n":', '"note": "x", "n":')
    with pytest.raises(GraphFormatError, match="unknown fields"):
        graph_from_json(doc)


def test_parser_rejects_duplicate_edges():
    text = """{"n": 3, "edges": [[1,2],[2,1]], "inputs": [1], "outputs": [3],
               "angles": {"1": 0.0, "2": 0.0}}"""
    with pytest.raises(GraphFormatError, match="duplicate edge"):
        graph_from_json(text)


@pytest.mark.parametrize(
    "key, ends", [("inputs", '"inputs": [1, 1], "outputs": [3]'),
                  ("outputs", '"inputs": [1], "outputs": [3, 3]')]
)
def test_parser_rejects_duplicate_inputs_and_outputs(key, ends):
    text = '{"n": 3, "edges": [[1,2],[2,3]], %s, "angles": {"1": 0.0, "2": 0.0}}' % ends
    with pytest.raises(GraphFormatError, match=f"duplicate vertex in '{key}'"):
        graph_from_json(text)


@pytest.mark.parametrize(
    "edges, angles, error",
    [
        ("[[1,2],[2,2],[2,3]]", '{"1": 0.0, "2": 0.0}', r"edge \[2, 2\] is a self-loop"),
        ("[[1,2],[2,3]]", '{"1": 0.0, "2": 0.0, "1": 0.5}', "repeated key '1'"),
    ],
)
def test_parser_rejects_self_loops_and_repeated_keys(edges, angles, error):
    text = '{"n": 3, "edges": %s, "inputs": [1], "outputs": [3], "angles": %s}' % (edges, angles)
    with pytest.raises(GraphFormatError, match=error):
        graph_from_json(text)


_SPELLINGS = ["02", " 2", "2 ", "+2", "2.0", "1_0", "0", "4", "-1", "\u0662", "two", ""]


@pytest.mark.parametrize("key", _SPELLINGS)
@pytest.mark.parametrize("field", ["angles", "planes"])
def test_parser_accepts_only_canonical_vertex_keys(field, key):
    # a key is str(label) for a label in 1..n; "02" or " 2" once read as
    # vertex 2, "1_0" as vertex 10, and a later entry silently won
    entries = {"angles": '"1": 0.0, %s: 0.5', "planes": '"1": "XY", %s: "XY"'}[field]
    text = ('{"n": 3, "edges": [[1,2],[2,3]], "inputs": [1], "outputs": [3], "angles": {"1": 0.0}, '
            '"%s": {%s}}' % (field, entries % json.dumps(key)))
    if field == "angles":
        text = text.replace('"angles": {"1": 0.0}, ', "")
    with pytest.raises(GraphFormatError, match=re.escape(f"vertex key {key!r} is not a label in 1..3")):
        graph_from_json(text)
    assert json_label("2", 3) == 2 and json_label(key, 3) is None


def test_parser_reads_a_missing_angle_as_0():
    text = '{"n": 3, "edges": [[1,2],[2,3]], "inputs": [1], "outputs": [3], "angles": {"1": 0.5}}'
    g = graph_from_json(text)
    assert g.angles == {0: 0.5, 1: 0.0} and g.planes == {0: Plane.XY, 1: Plane.XY}
    assert validate(g).ok


def test_parser_rejects_out_of_range_vertices():
    text = """{"n": 2, "edges": [[1,5]], "inputs": [1], "outputs": [2], "angles": {}}"""
    with pytest.raises(GraphFormatError, match="out of range"):
        graph_from_json(text)


def test_parser_charges_vertices_and_adjacency_bitmasks_to_the_budget(monkeypatch):
    from agqc import budget

    n = 2000
    path = [[v, v + 1] for v in range(1, n)]
    text = '{"n": %d, "edges": %s, "inputs": [1], "outputs": [%d], "angles": {}}'
    monkeypatch.setattr(budget, "MEMORY_BUDGET", 256 * n + 1000)
    assert graph_from_json(text % (n, "[]", n)).n_vertices == n
    with pytest.raises(budget.SizeCapError):
        graph_from_json(text % (n, path, n))


def test_generators_charge_the_graph_file_estimate(monkeypatch):
    # the closed-form widths equal the sum of the larger edge endpoints
    from agqc import graph as graph_mod

    charged = []
    monkeypatch.setattr(graph_mod, "check_bytes", lambda n_bytes, what: charged.append(n_bytes))
    graphs = [generate_chain(n) for n in (2, 3, 7)]
    graphs += [generate_cluster(r, c) for r in (1, 2, 5) for c in (2, 3, 6)]
    graphs += [generate_zigzag(n) for n in (1, 2, 9)]
    assert charged == [
        256 * g.n_vertices + sum(max(e) for e in g.edges) // 4 for g in graphs
    ]
