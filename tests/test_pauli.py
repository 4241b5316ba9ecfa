import functools
import math

import numpy as np
import pytest

from agqc.gflow import Gflow, find_gflow, gflow_size, zigzag_gflow_family
from agqc.graph import (
    generate_chain,
    generate_cluster,
    generate_cnot_graph,
    generate_zigzag,
    make_graph,
    stabilizer_product,
)
from agqc.pauli import (
    Commutation,
    NonCliffordAngleError,
    PauliString,
    RotatedPauliOp,
    SiteTable,
    _parity,
    apply_op,
    build_T,
    commutation_masks,
    commutes,
    one_step_update,
    single,
    stabilizer_generator,
    stabilizer_set,
    to_matrix,
    twisted_generator,
)

from conftest import chain_gflow, cluster_gflow, random_open_graph


def rop(p: PauliString, twist=None) -> RotatedPauliOp:
    return RotatedPauliOp.from_parts(p, twist or {})


def random_rotated(rng, n, max_twists=2) -> RotatedPauliOp:
    twists = {
        int(v): float(rng.uniform(-7, 7))
        for v in rng.choice(n, size=int(rng.integers(0, max_twists + 1)), replace=False)
    }
    return RotatedPauliOp.from_parts(
        PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)), int(rng.integers(4))),
        twists,
    )


# --- multiplication -------------------------------------------------------


def test_multiply_z_times_stabilizer():
    # Z1 * (Z1 X2 Z3) = X2 Z3
    n = 3
    prod = rop(single(n, 0, "Z")).mul(rop(PauliString(n, x=0b010, z=0b101)))
    assert prod == rop(PauliString(n, x=0b010, z=0b100))


def test_halfpi_rotation_is_y():
    op = RotatedPauliOp.from_parts(single(1, 0, "X"), {0: math.pi / 2})
    assert op == rop(single(1, 0, "Y"))
    assert not op.twist


def test_hermitian_pauli_squares_to_identity():
    a = rop(PauliString(4, 0b1011, 0b0110))  # phase +1, Y at overlaps
    sq = a.mul(a)
    assert sq.pauli.is_identity() and sq.pauli.phase_exp == 0


def test_multiply_universe_mismatch():
    with pytest.raises(ValueError):
        rop(PauliString(2)).mul(rop(PauliString(3)))


def test_group_axioms_random(rng):
    for _ in range(300):
        a, b, c = (random_rotated(rng, 3) for _ in range(3))
        assert (a.mul(b)).mul(c) == a.mul(b.mul(c))


def test_canonical_twist_reduction():
    # angles outside (-pi/2, pi/2) reduce with sign bookkeeping
    base = single(1, 0, "X")
    assert RotatedPauliOp.from_parts(base, {0: math.pi}) == rop(single(1, 0, "X", 2))
    assert RotatedPauliOp.from_parts(base, {0: 2 * math.pi}) == rop(base)
    a = RotatedPauliOp.from_parts(base, {0: 0.3 + math.pi})
    assert a.pauli.phase_exp == 2 and dict(a.twist)[0] == pytest.approx(0.3)


def test_dense_matrix_oracle(rng):
    # the matrix of a product equals the product of factor matrices
    for n in (2, 4, 6):
        for _ in range(25):
            a = random_rotated(rng, n)
            b = random_rotated(rng, n)
            lhs = to_matrix(a.mul(b))
            rhs = to_matrix(a) @ to_matrix(b)
            assert np.abs(lhs - rhs).max() < 1e-12


def test_apply_matches_matrix(rng):
    for _ in range(10):
        op = random_rotated(rng, 5)
        v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        assert np.allclose(apply_op(op, v), to_matrix(op) @ v, atol=1e-12)
        cols = rng.standard_normal((32, 3)) + 1j * rng.standard_normal((32, 3))
        want = np.stack([apply_op(op, c) for c in cols.T], axis=1)
        assert np.array_equal(apply_op(op, cols), want)


def test_parity_matches_int_bit_count(rng):
    v = np.concatenate([[0, 1, 2**62], rng.integers(0, 2**62, size=500, endpoint=True)])
    got = _parity(v)
    assert got.dtype == np.int64
    assert got.tolist() == [int(u).bit_count() & 1 for u in v]
    # a uint8 parity would wrap when shifted into a label bit past 7
    assert (got << 40).tolist() == [(int(u).bit_count() & 1) << 40 for u in v]


# --- commutation ----------------------------------------------------------


def test_commutes_x_with_own_t():
    g = generate_chain(3, [0.0] * 3)
    t1 = rop(stabilizer_generator(g, 1))
    assert commutes(rop(single(3, 0, "X")), t1) is Commutation.ANTICOMMUTE


def test_commutes_x2_with_t1():
    g = generate_chain(3, [0.0] * 3)
    t1 = rop(stabilizer_generator(g, 1))
    assert commutes(rop(single(3, 1, "X")), t1) is Commutation.COMMUTE


def test_commutes_z_with_rotated_x_any_angle():
    for theta in (0.0, 0.4, math.pi / 2, 2.1):
        rx = RotatedPauliOp.from_parts(single(1, 0, "X"), {0: theta})
        assert commutes(rop(single(1, 0, "Z")), rx) is Commutation.ANTICOMMUTE


def test_commutes_neither_on_twist_overlap():
    rx = RotatedPauliOp.from_parts(single(1, 0, "X"), {0: 0.3})
    assert commutes(rop(single(1, 0, "X")), rx) is Commutation.NEITHER


# --- generators and T_v ---------------------------------------------------


def test_stabilizer_generator_interior_and_end():
    g = generate_chain(3, [0.0] * 3)
    k2 = stabilizer_generator(g, 1)
    assert [k2.letter(v) for v in range(3)] == ["Z", "X", "Z"]
    k3 = stabilizer_generator(g, 2)
    assert [k3.letter(v) for v in range(3)] == ["I", "Z", "X"]


def test_stabilizer_generator_isolated_vertex():
    g = make_graph(2, [], [], [0, 1])
    assert stabilizer_generator(g, 0) == single(2, 0, "X")


def test_stabilizer_generator_rejects_inputs():
    g = generate_chain(3, [0.0] * 3)
    with pytest.raises(ValueError):
        stabilizer_generator(g, 0)


def test_twisted_generator_zero_angle_untwisted():
    g = generate_chain(3, [0.0] * 3)
    assert twisted_generator(g, 1) == rop(stabilizer_generator(g, 1))


def test_twisted_generator_halfpi_gives_y():
    g = generate_chain(3, [0.0, math.pi / 2, 0.0])
    op = twisted_generator(g, 1)
    assert [op.pauli.letter(v) for v in range(3)] == ["Z", "Y", "Z"]
    assert not op.twist


def test_twisted_generator_keeps_general_twist():
    g = generate_chain(3, [0.0, math.pi / 4, 0.0])
    op = twisted_generator(g, 1)
    assert dict(op.twist) == {1: pytest.approx(math.pi / 4)}
    assert [op.pauli.letter(v) for v in range(3)] == ["Z", "X", "Z"]


def test_twisted_generator_missing_angle():
    # an output carries no angle: its generator enters T_v untwisted
    g = generate_chain(3, [0.0, 0.7, 0.0])
    assert twisted_generator(g, 2) == rop(stabilizer_generator(g, 2))


def test_build_T_chain_is_next_generator():
    g = generate_chain(4, [0.0, 0.2, 0.9, 0.0])
    gf = chain_gflow(4)
    for v in range(3):
        want = (
            twisted_generator(g, v + 1)
            if v + 1 in g.angles
            else rop(stabilizer_generator(g, v + 1))
        )
        assert build_T(g, gf, v) == want


def test_build_T_zigzag_support():
    g = generate_zigzag(3)
    t = build_T(g, zigzag_gflow_family(3, 2), 0)
    assert t.support == {0, 2, 3, 4}  # size r + 2 = 4


def test_build_T_cluster_interior_degree():
    g = generate_cluster(3, 4)
    gf = cluster_gflow(3, 4)
    interior = 1 * 3 + 1
    t = build_T(g, gf, interior)
    assert t.degree == 5


def _exact(op: RotatedPauliOp) -> tuple:
    return op.pauli.n, op.pauli.x, op.pauli.z, op.pauli.phase_exp, op.twist


def _twist_angle(rng) -> float:
    """A random angle, or a multiple of pi/2 as is or 1e-13 to one side of it."""
    if rng.integers(2):
        return float(rng.uniform(-7, 7))
    return float(rng.integers(-8, 9)) * math.pi / 2 + float(rng.choice([-1e-13, 0.0, 1e-13]))


def test_build_T_is_the_product_of_twisted_generators_bit_for_bit(rng):
    cases = []
    for _ in range(1000):
        g = random_open_graph(rng, int(rng.integers(2, 11)))
        angles = {v: _twist_angle(rng) for v in g.angles}
        g = make_graph(g.n_vertices, g.edges, g.inputs, g.outputs, angles)
        gf = find_gflow(g)
        if gf is not None:
            cases.append((g, gf))
    for _ in range(100):
        n = int(rng.integers(1, 11))
        z = generate_zigzag(n)
        # g^r(v) holds outputs only: give them angles, so that T_v holds several twists
        angles = {v: _twist_angle(rng) for v in range(2 * n)}
        z = make_graph(2 * n, z.edges, z.inputs, z.outputs, angles)
        cases.append((z, zigzag_gflow_family(n, int(rng.integers(1, n + 1)))))
    multi = 0
    for g, gf in cases:
        for v in gf.g:
            want = functools.reduce(
                RotatedPauliOp.mul,
                [twisted_generator(g, w) for w in sorted(gf.g[v])],
                rop(PauliString(g.n_vertices)),
            )
            got = build_T(g, gf, v)
            assert _exact(got) == _exact(want), (v, gf.g[v])
            multi += len(got.twist) >= 2
    assert multi > 0


def test_build_T_rejects_an_input_in_the_correcting_set():
    g = generate_chain(3, [0.3, 0.2, 0.0])
    with pytest.raises(ValueError, match="^vertex 1 is an input"):
        build_T(g, Gflow({0: frozenset({0, 1}), 1: frozenset({2})}, {0: 0, 1: 1}), 0)
    with pytest.raises(ValueError, match="^unknown vertex 8$"):
        build_T(g, Gflow({0: frozenset({1, 7}), 1: frozenset({2})}, {0: 0, 1: 1}), 0)
    with pytest.raises(ValueError, match="^vertex 3 is an output"):
        build_T(g, chain_gflow(3), 2)


def test_support_and_degree():
    assert rop(PauliString(3, 0b010, 0b101)).support == {0, 1, 2}
    assert rop(PauliString(3)).degree == 0


def test_support_mask_holds_the_twist_sites():
    op = rop(single(4, 1, "X"), {3: 0.3})
    assert op.support_mask == 0b1010
    assert op.support == {1, 3} and op.degree == 2


def test_site_table_finds_exactly_the_overlapping_terms(rng):
    for _ in range(100):
        n = int(rng.integers(2, 9))
        terms = [random_rotated(rng, n) for _ in range(int(rng.integers(0, 12)))]
        table = SiteTable.of(terms)
        within = int(rng.integers(1 << len(terms))) if terms else 0
        op = random_rotated(rng, n)
        want = [t for i, t in enumerate(terms) if within >> i & 1 and t.support_mask & op.support_mask]
        got = table.overlapping(op, within)
        assert [id(t) for t in got] == [id(t) for t in want]
        assert [id(t) for t in table.overlapping(op)] == [
            id(t) for t in terms if t.support_mask & op.support_mask
        ]
        # the terms left out commute with op
        left = [t for i, t in enumerate(terms) if within >> i & 1 and all(t is not u for u in got)]
        assert commutation_masks(left, op) == (0, 0)


# --- one-step update ------------------------------------------------------


def test_one_step_update_chain4():
    g = generate_chain(4, [0.0] * 4)
    gf = chain_gflow(4)
    updated = one_step_update(stabilizer_set(g, gf), gf)
    assert updated[0] == rop(PauliString(4, x=0b1010, z=0b0001))  # Z1 X2 X4
    assert updated[1] == rop(PauliString(4, x=0b0100, z=0b1010))  # Z2 X3 Z4
    assert updated[2] == rop(PauliString(4, x=0b1000, z=0b0100))  # Z3 X4
    xs = [rop(single(4, v, "X")) for v in range(3)]
    for v, t in updated.items():
        for w, x in enumerate(xs):
            want = Commutation.ANTICOMMUTE if v == w else Commutation.COMMUTE
            assert commutes(t, x) is want
    ops = list(updated.values())
    for i, a in enumerate(ops):
        for b in ops[i + 1:]:
            assert commutes(a, b) is Commutation.COMMUTE


def test_one_step_update_zigzag_max_r_unchanged():
    g = generate_zigzag(3)
    gf = zigzag_gflow_family(3, 3)
    stabs = stabilizer_set(g, gf)
    assert one_step_update(stabs, gf) == stabs


def test_one_step_update_rejects_general_angle():
    g = generate_chain(4, [0.0, math.pi / 3, 0.0, 0.0])
    gf = chain_gflow(4)
    with pytest.raises(NonCliffordAngleError):
        one_step_update(stabilizer_set(g, gf), gf)


# --- stabilizer products ---------------------------------------------------


def _closed_form(g, members) -> PauliString:
    x, z, e = stabilizer_product(g, members)
    return PauliString(g.n_vertices, x, z, 2 * e - (x & z).bit_count())


def test_stabilizer_product_of_no_members_is_the_identity():
    assert stabilizer_product(generate_chain(3, [0.0] * 3), ()) == (0, 0, 0)


def test_stabilizer_product_of_one_member_is_its_generator():
    g = generate_chain(3, [0.0] * 3)
    assert _closed_form(g, {1}) == stabilizer_generator(g, 1)


def test_stabilizer_product_two_qubit_x_on_output():
    g = generate_chain(2, [0.0, 0.0])
    assert _closed_form(g, chain_gflow(2).g[0]).letter(1) == "X"  # the X correction on qubit B


def test_stabilizer_product_is_the_product_of_generators(rng):
    """The closed form against PauliString.mul over g(v), phase included,
    on every non-output of graphs that have a gflow; gflow_size is the
    product's support."""
    cases = []
    for _ in range(100):
        g = random_open_graph(rng, int(rng.integers(3, 9)))
        gf = find_gflow(g)
        if gf is not None:
            cases.append((g, gf))
    assert len(cases) >= 20
    for n in (1, 4, 7):
        cases += [(generate_zigzag(n), zigzag_gflow_family(n, r)) for r in range(1, n + 1)]
    cluster = generate_cluster(3, 4)
    cases.append((cluster, find_gflow(cluster)))
    signs = 0
    for g, gf in cases:
        for v in gf.g:
            want = functools.reduce(
                PauliString.mul,
                [stabilizer_generator(g, w) for w in sorted(gf.g[v])],
                PauliString(g.n_vertices),
            )
            assert _closed_form(g, gf.g[v]) == want, (v, gf.g[v])
            assert gflow_size(g, gf, v) == len(want.support)
            signs += stabilizer_product(g, gf.g[v])[2] & 1
    assert signs > 0  # some correcting set holds an odd number of edges


# --- stabilizer-set commutation invariants ----------------------------------


@pytest.mark.parametrize(
    "graph,gf",
    [
        (generate_chain(5, [0.0, 0.7, 1.9, 0.4, 0.0]), chain_gflow(5)),
        (generate_zigzag(4), zigzag_gflow_family(4, 2)),
        (generate_zigzag(5), zigzag_gflow_family(5, 3)),
        (generate_cluster(2, 3), cluster_gflow(2, 3)),
        (generate_cnot_graph(), None),
    ],
)
def test_gflow_commutation_relations(graph, gf):
    if gf is None:
        gf = find_gflow(graph)
    terms = stabilizer_set(graph, gf)
    order = gf.measurement_order()
    n = graph.n_vertices
    for i, v in enumerate(order):
        assert commutes(terms[v], rop(single(n, v, "X"))) is Commutation.ANTICOMMUTE
        for w in order[i + 1:]:
            assert commutes(terms[v], terms[w]) is Commutation.COMMUTE
            # T_w commutes with X_v for all w measured at or after v
            assert commutes(terms[w], rop(single(n, v, "X"))) is Commutation.COMMUTE


def test_rendering_canonical_string():
    g = generate_chain(3, [0.0, math.pi / 4, 0.0])
    op = twisted_generator(g, 1)
    assert op.render() == "+1 . Z1 X2 Z3 . twist{2: 0.7854}"
    assert rop(PauliString(3)).render() == "+1 . I"
    assert single(2, 1, "Y", 3).render() == "-i . Y2"


def test_render_matches_per_site_scan(rng):
    for _ in range(200):
        n = int(rng.integers(1, 9))
        p = PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)), int(rng.integers(4)))
        sites = " ".join(f"{p.letter(v)}{v + 1}" for v in range(n) if p.letter(v) != "I")
        sign = ("+1", "+i", "-1", "-i")[p.phase_exp]
        assert p.render() == f"{sign} . {sites or 'I'}"


def _commutes_by_products(a: RotatedPauliOp, b: RotatedPauliOp) -> Commutation:
    ab, ba = a.mul(b), b.mul(a)
    if ab == ba:
        return Commutation.COMMUTE
    if ab == ba.negated():
        return Commutation.ANTICOMMUTE
    return Commutation.NEITHER


def test_commutes_matches_two_product_comparison(rng):
    def random_op(n, twisted):
        p = PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)), int(rng.integers(4)))
        if not twisted:
            return rop(p)
        sites = [int(v) for v in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)]
        # a mix of general angles and Clifford ones, which fold into the Pauli part
        return rop(p, {v: float(rng.choice([rng.uniform(-3, 3), math.pi / 2, math.pi])) for v in sites})

    seen = set()
    for _ in range(600):
        n = int(rng.integers(1, 7))
        a = random_op(n, rng.random() < 0.4)
        b = random_op(n, rng.random() < 0.4)
        got = commutes(a, b)
        assert got is _commutes_by_products(a, b)
        assert commutes(b, a) is got
        seen.add((bool(a.twist or b.twist), got))
    assert {(False, Commutation.COMMUTE), (False, Commutation.ANTICOMMUTE)} <= seen
    assert (True, Commutation.NEITHER) in seen


def test_commutes_rejects_mismatched_universes():
    with pytest.raises(ValueError):
        commutes(rop(single(2, 0, "X")), rop(single(3, 0, "Z")))


# --- bitmask commutation kernel ---------------------------------------------


def _kernel_operands(rng, n):
    """Twist-free, general-angle and Clifford-folded operators, and products."""
    ops = []
    for _ in range(30):
        p = PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)), int(rng.integers(4)))
        sites = [int(v) for v in rng.choice(n, size=int(rng.integers(1, 3)), replace=False)]
        ops.append(rop(p))
        ops.append(rop(p, {v: float(rng.uniform(-7, 7)) for v in sites}))
        # within 1e-13 of a multiple of pi/2: folded into the Pauli part
        ops.append(rop(p, {v: int(rng.integers(-4, 5)) * math.pi / 2 + 1e-13 for v in sites}))
    ops += [a.mul(b) for a, b in zip(ops[::7], ops[1::5])]
    return ops


def _dense_relations(stack: np.ndarray, b: np.ndarray) -> list[Commutation]:
    """Relation of every matrix of ``stack`` with ``b``, from the products."""
    ab, ba = stack @ b, b @ stack
    comm = np.abs(ab - ba).max(axis=(1, 2)) < 1e-9
    anti = np.abs(ab + ba).max(axis=(1, 2)) < 1e-9
    return [
        Commutation.COMMUTE if c else Commutation.ANTICOMMUTE if a else Commutation.NEITHER
        for c, a in zip(comm, anti)
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_commutation_masks_match_commutes_pair_by_pair(seed):
    # and both match the dense products, which share no code with the rule
    rng = np.random.default_rng([seed, 41])
    n = 4
    terms = _kernel_operands(rng, n)
    dense = np.array([to_matrix(t) for t in terms])
    seen = set()
    for op, mat in zip(terms, dense):
        anti, neither = commutation_masks(terms, op)
        assert not anti & neither
        for i, (t, want) in enumerate(zip(terms, _dense_relations(dense, mat))):
            rel = commutes(t, op)
            seen.add(rel)
            assert rel is want, (t.render(), op.render())
            assert (anti >> i & 1, neither >> i & 1) == (
                rel is Commutation.ANTICOMMUTE,
                rel is Commutation.NEITHER,
            ), (t.render(), op.render())
    assert seen == set(Commutation)


def test_commutation_masks_decide_twist_free_overlaps_by_parity(monkeypatch):
    # a twist on a Z letter of the other operand, or on a site it leaves
    # alone, never reaches the exact product comparison
    n = 3
    calls = []
    monkeypatch.setattr(
        "agqc.pauli.commutes", lambda a, b: calls.append(1) or Commutation.NEITHER
    )
    twisted = rop(PauliString(n, x=0b001, z=0b010), {1: 0.3, 2: 0.7})
    terms = [rop(single(n, 1, "Z")), rop(single(n, 2, "I")), rop(single(n, 0, "Z"))]
    assert commutation_masks(terms, twisted) == (0b100, 0)
    assert not calls
    assert commutation_masks([rop(single(n, 1, "X"))], twisted) == (0, 1)
    assert calls == [1]


def test_commutation_masks_reject_mixed_universes():
    with pytest.raises(ValueError):
        commutation_masks([rop(single(2, 0, "X"))], rop(single(3, 0, "Z")))
