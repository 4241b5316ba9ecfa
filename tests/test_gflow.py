import functools
import itertools
import json
import math
import operator
import re

import numpy as np
import pytest

from agqc import _gf2

from agqc.gflow import (
    Gflow,
    GflowFormatError,
    GflowStructureError,
    find_gflow,
    gflow_from_json,
    gflow_size,
    gflow_to_json,
    layers_and_depth,
    verify_gflow,
    zigzag_gflow_family,
)
from agqc.graph import (
    Plane,
    generate_chain,
    generate_cluster,
    generate_cnot_graph,
    generate_zigzag,
    make_graph,
)

from conftest import (
    chain_gflow,
    cluster_gflow,
    gflow_exists_bruteforce,
    odd_connectivity,
    random_open_graph,
)


def test_verify_chain_natural_gflow():
    g = generate_chain(5, [0.0] * 5)
    report = verify_gflow(g, chain_gflow(5))
    assert report.valid
    assert report.depth == 4


def test_verify_zigzag_family_depths():
    g = generate_zigzag(4)
    for r in (1, 2, 3, 4):
        report = verify_gflow(g, zigzag_gflow_family(4, r))
        assert report.valid, report.violations
        assert report.depth == math.ceil(4 / r)


def test_verify_reports_g3_self_inclusion():
    g = generate_chain(3, [0.0] * 3)
    gf = Gflow({0: frozenset({0}), 1: frozenset({2})}, {0: 0, 1: 1})
    report = verify_gflow(g, gf)
    assert not report.valid
    assert any(ax == "G3" and v == 0 for v, ax, _ in report.violations)


def test_verify_reports_g1_not_in_future():
    g = generate_chain(3, [0.0] * 3)
    gf = Gflow({0: frozenset({1}), 1: frozenset({2})}, {0: 1, 1: 0})
    report = verify_gflow(g, gf)
    assert any(ax == "G1" for _, ax, _ in report.violations)


def test_verify_reports_g2_same_layer():
    # zigzag(2) with both inputs in one layer: vertex 1 is oddly connected to
    # g(0) = {2} but not measured after 0, so G2 fires (and only G2)
    g = generate_zigzag(2)
    gf = Gflow({0: frozenset({2}), 1: frozenset({3})}, {0: 0, 1: 0})
    report = verify_gflow(g, gf)
    assert {ax for _, ax, _ in report.violations} == {"G2"}
    assert any(v == 0 and "1" in detail for v, ax, detail in report.violations)


def test_verify_reports_an_input_in_a_correcting_set_after_the_axioms():
    # g(1) = {2} holds the input 2: G1-G3 hold, but g maps into the subsets
    # of the non-inputs, so compile refuses it and verify must too
    g = make_graph(3, [(0, 1), (1, 2)], [0, 1], [2])
    gf = Gflow({0: frozenset({1}), 1: frozenset({2})}, {0: 0, 1: 1})
    report = verify_gflow(g, gf)
    assert not report.valid
    assert report.violations == ((0, "codomain", "g(1) holds input 2; inputs have no generator"),)
    # with an axiom failing too, the input is listed after it
    gf = Gflow({0: frozenset({1}), 1: frozenset({2})}, {0: 1, 1: 0})
    assert [ax for _, ax, _ in verify_gflow(g, gf).violations] == ["G1", "codomain"]


def test_verify_structural_mismatch_raises():
    g = generate_chain(3, [0.0] * 3)
    with pytest.raises(GflowStructureError):
        verify_gflow(g, Gflow({0: frozenset({1})}, {0: 0}))
    with pytest.raises(GflowStructureError):
        verify_gflow(
            g, Gflow({0: frozenset({9}), 1: frozenset({2})}, {0: 0, 1: 1})
        )


def test_verify_other_planes():
    # single measured vertex 0 with output 1: XZ wants v in g(v) oddly connected
    g = make_graph(2, [(0, 1)], [], [1], {0: 0.3}, {0: Plane.XZ})
    gf = Gflow({0: frozenset({0, 1})}, {0: 0})
    assert verify_gflow(g, gf).valid
    gf_bad = Gflow({0: frozenset({1})}, {0: 0})
    assert not verify_gflow(g, gf_bad).valid
    # YZ wants v in g(v), evenly connected
    g_yz = make_graph(2, [(0, 1)], [], [1], {0: 0.3}, {0: Plane.YZ})
    assert verify_gflow(g_yz, Gflow({0: frozenset({0})}, {0: 0})).valid
    assert not verify_gflow(g_yz, Gflow({0: frozenset({0, 1})}, {0: 0})).valid


def test_layers_and_depth_cluster():
    sizes, depth = layers_and_depth(cluster_gflow(5, 6))
    assert depth == 5
    assert sizes == (5, 5, 5, 5, 5)


def test_verify_cluster_5x6_natural_gflow():
    g = generate_cluster(5, 6)
    report = verify_gflow(g, cluster_gflow(5, 6))
    assert report.valid
    assert report.depth == 5
    assert report.max_size == 5
    found = find_gflow(g)
    assert verify_gflow(g, found).valid and found.depth == 5


def test_layers_and_depth_zigzag():
    sizes, depth = layers_and_depth(zigzag_gflow_family(6, 2))
    assert depth == 3 and sizes == (2, 2, 2)


def test_layers_and_depth_single_edge():
    sizes, depth = layers_and_depth(chain_gflow(2))
    assert depth == 1 and sizes == (1,)


def test_gflow_size_cluster_interior():
    g = generate_cluster(5, 6)
    gf = cluster_gflow(5, 6)
    interior = 1 * 5 + 2  # column 1, middle row
    assert gflow_size(g, gf, interior) == 5


def test_gflow_size_zigzag():
    g = generate_zigzag(5)
    gf = zigzag_gflow_family(5, 3)
    assert gflow_size(g, gf, 0) == 5  # r + 2


def test_gflow_size_chain():
    g = generate_chain(3, [0.0] * 3)
    assert gflow_size(g, chain_gflow(3), 0) == 3


def test_gflow_size_zigzag_bounded_by_r_plus_2():
    # interior vertices reach r+2 exactly; the run clamped at the last
    # output loses the trailing Z and stays strictly below the bound
    for n in (4, 6):
        for r in range(1, n + 1):
            g = generate_zigzag(n)
            gf = zigzag_gflow_family(n, r)
            sizes = [gflow_size(g, gf, v) for v in range(n)]
            assert max(sizes) <= r + 2
            if r <= n - 1:
                assert max(sizes) == r + 2
    assert gflow_size(generate_zigzag(4), zigzag_gflow_family(4, 4), 0) == 5


def test_zigzag_family_charges_its_correcting_set_entries(monkeypatch):
    # the closed-form entry count equals the sum of the correcting-set sizes
    from agqc import gflow as gflow_mod

    charged = []
    monkeypatch.setattr(gflow_mod, "check_bytes", lambda n_bytes, what: charged.append(n_bytes))
    families = [zigzag_gflow_family(n, r) for n in (1, 2, 5, 9) for r in range(1, n + 1)]
    assert charged == [
        512 * len(gf.g) + 96 * sum(len(s) for s in gf.g.values()) for gf in families
    ]


def test_gflow_size_rejects_output():
    g = generate_chain(3, [0.0] * 3)
    with pytest.raises(ValueError):
        gflow_size(g, chain_gflow(3), 2)


def test_find_gflow_zigzag_is_maximally_delayed():
    g = generate_zigzag(4)
    gf = find_gflow(g)
    assert gf is not None
    assert gf.depth == 1
    assert gf.g[0] == frozenset({4, 5, 6, 7})  # the g^N family member
    assert verify_gflow(g, gf).valid


def test_find_gflow_chain_self_consistent():
    g = generate_chain(5, [0.0] * 5)
    gf = find_gflow(g)
    assert gf is not None and verify_gflow(g, gf).valid


def test_find_gflow_triangle_without_io_fails():
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)], [], [])
    assert find_gflow(g) is None
    assert not gflow_exists_bruteforce(g)


def test_find_gflow_rejects_non_xy():
    g = make_graph(2, [(0, 1)], [], [1], {0: 0.0}, {0: Plane.XZ})
    with pytest.raises(ValueError):
        find_gflow(g)


def test_find_gflow_agrees_with_bruteforce_existence(rng):
    hits = 0
    for n in (3, 4, 5):
        for _ in range(8):
            g = random_open_graph(rng, n)
            if len(g.non_outputs) > 6:
                continue
            found = find_gflow(g)
            exists = gflow_exists_bruteforce(g)
            assert (found is not None) == exists
            if found is not None:
                assert verify_gflow(g, found).valid
                hits += 1
    assert hits > 3  # the sample must exercise both branches


def test_verify_agrees_with_direct_axiom_check(rng):
    # independent reimplementation of G1-G3 (conftest) against verify_gflow
    # on random correcting-set maps, valid and invalid alike
    from conftest import _axioms_hold

    for trial in range(40):
        n = int(rng.integers(3, 6))
        g = random_open_graph(rng, n)
        non_out = list(g.non_outputs)
        if not non_out:
            continue
        non_inputs = [v for v in g.vertices if v not in set(g.inputs)]
        order = [int(v) for v in rng.permutation(non_out)]
        pos = {v: i for i, v in enumerate(order)}
        gf = Gflow(
            {
                v: frozenset(
                    int(w)
                    for w in rng.choice(
                        non_inputs, size=int(rng.integers(0, len(non_inputs) + 1)), replace=False
                    )
                )
                for v in non_out
            },
            {v: pos[v] for v in non_out},
        )
        want = all(_axioms_hold(g, pos, v, set(gf.g[v])) for v in non_out)
        assert verify_gflow(g, gf).valid == want


def test_find_gflow_depth_not_worse_than_family():
    for n in (3, 5, 8):
        g = generate_zigzag(n)
        best = find_gflow(g).depth
        for r in range(1, n + 1):
            assert best <= zigzag_gflow_family(n, r).depth


def test_zigzag_family_values():
    gf = zigzag_gflow_family(3, 1)
    assert gf.g == {0: frozenset({3}), 1: frozenset({4}), 2: frozenset({5})}
    assert gf.depth == 3
    gf = zigzag_gflow_family(3, 3)
    assert gf.g[0] == frozenset({3, 4, 5})
    assert gf.depth == 1
    gf = zigzag_gflow_family(4, 3)
    assert gf.g[2] == frozenset({6, 7})  # clamped at the last vertex


def test_zigzag_family_range_check():
    with pytest.raises(ValueError):
        zigzag_gflow_family(4, 0)
    with pytest.raises(ValueError):
        zigzag_gflow_family(4, 5)


def test_gflow_json_round_trip():
    gf = zigzag_gflow_family(4, 2)
    back = gflow_from_json(gflow_to_json(gf))
    assert back.g == gf.g and back.layer == gf.layer


@pytest.mark.parametrize(
    "text, error",
    [
        ('{"g": {"1": [2, 2], "2": [3]}, "layer": {"1": 0, "2": 1}}', r"g\(1\) lists a vertex twice"),
        ('{"g": {"1": [2], "2": [3]}, "layer": {"1": 0, "1": 0, "2": 1}}', "repeated key '1'"),
    ],
)
def test_gflow_file_rejects_repeated_vertices_and_keys(text, error):
    with pytest.raises(GflowFormatError, match=error):
        gflow_from_json(text)


@pytest.mark.parametrize("key", ["01", " 1", "+1", "1.0", "0_1", "0", "-1", "one"])
@pytest.mark.parametrize("field", ["g", "layer"])
def test_gflow_file_accepts_only_canonical_vertex_keys(field, key):
    doc = {"g": {"1": [2], "2": [3]}, "layer": {"1": 0, "2": 1}}
    doc[field] = {key if k == "1" else k: v for k, v in doc[field].items()}
    with pytest.raises(GflowFormatError, match=re.escape(f"vertex key {key!r} is not a label")):
        gflow_from_json(json.dumps(doc))


def test_cnot_graph_find_gflow_rowwise():
    g = generate_cnot_graph()
    gf = find_gflow(g)
    assert gf.g == {
        0: frozenset({1}),
        1: frozenset({2}),
        3: frozenset({4}),
        4: frozenset({5}),
    }
    assert gf.depth == 2


def _unit_column_systems(rng):
    """``(n_cols, rows)``: 200 dense systems, then 200 sparse ones whose rows
    are zero with probability 1/2 and which leave a random set of columns
    that no row holds."""
    for _ in range(200):
        m = int(rng.integers(1, 6))
        n_cols = int(rng.integers(1, 6))
        yield n_cols, [int(rng.integers(1 << n_cols)) for _ in range(m)]
    for _ in range(200):
        m = int(rng.integers(1, 9))
        n_cols = int(rng.integers(1, 9))
        unheld = int(rng.integers(1 << n_cols))
        yield n_cols, [
            int(rng.integers(1 << n_cols)) & ~unheld if rng.integers(2) else 0 for _ in range(m)
        ]


def test_solve_unit_columns_matches_per_column_bruteforce():
    rng = np.random.default_rng(1309)
    inconsistent = zero_rows = unheld_columns = 0
    for n_cols, rows in _unit_column_systems(rng):
        m = len(rows)
        images = [
            sum(((row & x).bit_count() & 1) << i for i, row in enumerate(rows))
            for x in range(1 << n_cols)
        ]
        zero_rows += rows.count(0)
        unheld_columns += n_cols - functools.reduce(operator.or_, rows).bit_count()

        # pivot columns of an ascending elimination: those outside the span
        # of the columns before them; free variables stay 0
        pivots, span = [], {0}
        for c in range(n_cols):
            col = images[1 << c]
            if col not in span:
                pivots.append(c)
                span |= {s ^ col for s in span}
        sols = _gf2.solve_unit_columns(rows)
        assert len(sols) == m
        for u, sol in enumerate(sols):
            target = 1 << u
            if target not in images:
                assert sol is None
                inconsistent += 1
                continue
            on_pivots = [
                sum(1 << c for c, b in zip(pivots, bits) if b)
                for bits in itertools.product((0, 1), repeat=len(pivots))
            ]
            assert [x for x in on_pivots if images[x] == target] == [sol]
    assert inconsistent > 0 and zero_rows > 0 and unheld_columns > 0


@pytest.mark.parametrize("rows, cols", [(20, 40), (8, 80)])
def test_find_gflow_on_large_clusters_is_valid_and_as_deep_as_the_columns(rows, cols):
    graph = generate_cluster(rows, cols)
    report = verify_gflow(graph, find_gflow(graph))
    assert report.valid
    assert report.depth == cols - 1


def _reference_violations(graph, gf):
    """The per-vertex, per-pair axiom loop that verify_gflow replaced;
    details name vertices by their 1-based labels u."""
    violations, held = [], []
    for v in sorted(gf.g):
        u = v + 1
        corr = gf.g[v]
        lv = gf.layer_of(v)
        for w in sorted(corr):
            if w != v and gf.layer_of(w) <= lv:
                violations.append((v, "G1", f"{w + 1} in g({u}) is not in the future of {u}"))
        for w in gf.layer:
            if w != v and gf.layer_of(w) <= lv and odd_connectivity(graph, corr, w):
                violations.append(
                    (v, "G2", f"{w + 1} is oddly connected to g({u}) but not after {u}")
                )
        held += [(v, "codomain", f"g({u}) holds input {w + 1}; inputs have no generator")
                 for w in sorted(corr & set(graph.inputs))]
        plane = graph.planes.get(v, Plane.XY)
        in_own = v in corr
        odd_self = odd_connectivity(graph, corr, v)
        if plane is Plane.XY:
            if in_own:
                violations.append((v, "G3", f"XY plane requires {u} not in g({u})"))
            if not odd_self:
                violations.append((v, "G3", f"g({u}) must be oddly connected to {u}"))
        elif plane is Plane.XZ:
            if not in_own:
                violations.append((v, "G3", f"XZ plane requires {u} in g({u})"))
            if not odd_self:
                violations.append((v, "G3", f"g({u}) must be oddly connected to {u}"))
        else:
            if not in_own:
                violations.append((v, "G3", f"YZ plane requires {u} in g({u})"))
            if odd_self:
                violations.append((v, "G3", f"g({u}) must be evenly connected to {u}"))
    return tuple(violations + held)


def _mutated_gflows(rng):
    """Valid gflows with one correcting set or layer mutated, and random
    maps with shuffled layer dicts, ties, negative layers and mixed planes."""
    for graph, gf in (
        (generate_cluster(3, 4), cluster_gflow(3, 4)),
        (generate_zigzag(6), zigzag_gflow_family(6, 2)),
        (generate_chain(7, [0.0] * 7), chain_gflow(7)),
    ):
        yield graph, gf
        for _ in range(15):
            g, layer = dict(gf.g), dict(gf.layer)
            v = int(rng.choice(sorted(g)))
            if rng.integers(2):
                w = int(rng.integers(graph.n_vertices))
                g[v] = g[v] ^ {w}
            else:
                layer[v] = int(rng.integers(-1, max(layer.values()) + 2))
            yield graph, Gflow(g, layer)
    for _ in range(60):
        n = int(rng.integers(3, 9))
        graph = random_open_graph(rng, n)
        non_out = [int(v) for v in rng.permutation(graph.non_outputs)]
        planes = {v: Plane(str(rng.choice(["XY", "XZ", "YZ"]))) for v in non_out}
        graph = make_graph(n, graph.edges, graph.inputs, graph.outputs, graph.angles, planes)
        g = {
            v: frozenset(int(w) for w in rng.choice(n, size=int(rng.integers(0, n)), replace=False))
            for v in non_out
        }
        layer = {v: int(rng.integers(-2, 3)) for v in non_out}
        yield graph, Gflow(g, layer)


def test_g2_masks_match_the_per_pair_loop(rng):
    kinds = set()
    for graph, gf in _mutated_gflows(rng):
        report = verify_gflow(graph, gf)
        want = _reference_violations(graph, gf)
        assert report.violations == want
        assert report.valid == (not want)
        kinds |= {axiom for _, axiom, _ in want}
    assert kinds == {"G1", "G2", "G3", "codomain"}
