import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from agqc.compiler import (
    AdiabaticBudget,
    CompileError,
    InvalidGflowError,
    ScheduleStep,
    compile_layered,
    compile_one_step,
    compile_reordered_fixed,
    compile_reordered_strip,
    compile_stepwise,
    delta1_gap,
    gadget_parameters,
    hamiltonian_degree,
    runtime_bound,
    step_gap_analytic,
    step_norm_hdot,
)
from agqc.gflow import Gflow, find_gflow, zigzag_gflow_family
from agqc.graph import (
    Plane,
    generate_chain,
    generate_cluster,
    generate_cnot_graph,
    generate_zigzag,
    make_graph,
)
from agqc.pauli import (
    Commutation,
    NonCliffordAngleError,
    RotatedPauliOp,
    SiteTable,
    commutation_masks,
    commutes,
    single,
)
from agqc._gf2 import set_bits

from conftest import (
    chain_gflow,
    cluster_gflow,
    commuting_replacement_oracle,
    in_span,
    random_open_graph,
)


def rop(p):
    return RotatedPauliOp.from_pauli(p)


def render_terms(step):
    return sorted(op.render() for op in step.removed.values())


def test_stepwise_chain_matches_replacement_table():
    g = generate_chain(4, [0.0] * 4)
    sched = compile_stepwise(g, chain_gflow(4))
    assert len(sched.steps) == 3
    # step 1 removes T_1 and leaves T_2, T_3; at s=1 the terms are X1 T2 T3
    st = sched.steps[0]
    assert render_terms(st) == ["+1 . Z1 X2 Z3"]
    assert sorted(op.render() for op in st.static_terms) == ["+1 . Z2 X3 Z4", "+1 . Z3 X4"]
    assert st.introduced[0].render() == "+1 . X1"
    # step 2 statics are X1 and T3
    assert sorted(op.render() for op in sched.steps[1].static_terms) == ["+1 . X1", "+1 . Z3 X4"]
    # final Hamiltonian is X on every non-output
    last = sched.steps[-1]
    finals = sorted(
        op.render() for op in (*last.static_terms, *last.introduced.values())
    )
    assert finals == ["+1 . X1", "+1 . X2", "+1 . X3"]


def test_stepwise_zigzag_r1_counts():
    g = generate_zigzag(3)
    sched = compile_stepwise(g, zigzag_gflow_family(3, 1))
    assert len(sched.steps) == 3


def test_stepwise_rejects_invalid_gflow():
    g = generate_chain(3, [0.0] * 3)
    bad = Gflow({0: frozenset({1}), 1: frozenset({2})}, {0: 1, 1: 0})
    with pytest.raises(InvalidGflowError):
        compile_stepwise(g, bad)


def test_stepwise_rejects_non_xy_plane():
    g = make_graph(2, [(0, 1)], [], [1], {0: 0.0}, {0: Plane.YZ})
    gf = Gflow({0: frozenset({0})}, {0: 0})
    with pytest.raises(CompileError):
        compile_stepwise(g, gf)


def test_layered_cluster_has_depth_steps_of_row_width():
    g = generate_cluster(3, 4)
    sched = compile_layered(g, cluster_gflow(3, 4))
    assert [st.u_size for st in sched.steps] == [3, 3, 3]


def test_layered_cluster_5x6_symbolic():
    # 30 vertices: schedule construction is purely symbolic, no dense matrices
    g = generate_cluster(5, 6)
    sched = compile_layered(g, cluster_gflow(5, 6))
    assert [st.u_size for st in sched.steps] == [5] * 5
    assert hamiltonian_degree(sched) == 5


def test_layered_zigzag_widths():
    g = generate_zigzag(4)
    sched = compile_layered(g, zigzag_gflow_family(4, 2))
    assert [st.u_size for st in sched.steps] == [2, 2]


def test_layered_r1_equals_stepwise():
    g = generate_zigzag(3)
    gf = zigzag_gflow_family(3, 1)
    a = compile_layered(g, gf)
    b = compile_stepwise(g, gf)
    assert len(a.steps) == len(b.steps)
    for sa, sb in zip(a.steps, b.steps):
        assert sa.removed.keys() == sb.removed.keys()
        assert all(sa.removed[v] == sb.removed[v] for v in sa.removed)


def test_layered_checks_same_layer_commutation():
    # same-layer vertices 0 and 1 of a 3-chain: T_0 = K_1 anticommutes with X_1
    g = generate_chain(3, [0.0] * 3)
    gf = Gflow({0: frozenset({1}), 1: frozenset({2})}, {0: 0, 1: 0})
    with pytest.raises((CompileError, InvalidGflowError)):
        compile_layered(g, gf)


def test_one_step_chain_removes_updated_stabilizers():
    g = generate_chain(4, [0.0] * 4)
    sched = compile_one_step(g, chain_gflow(4))
    assert len(sched.steps) == 1
    assert render_terms(sched.steps[0]) == [
        "+1 . Z1 X2 X4",
        "+1 . Z2 X3 Z4",
        "+1 . Z3 X4",
    ]
    assert sched.steps[0].is_commuting_replacement()


def test_one_step_zigzag_max_r_untouched():
    g = generate_zigzag(3)
    gf = zigzag_gflow_family(3, 3)
    sched = compile_one_step(g, gf)
    assert len(sched.steps) == 1 and sched.steps[0].u_size == 3
    from agqc.pauli import stabilizer_set

    assert dict(sched.steps[0].removed) == stabilizer_set(g, gf)


def test_one_step_rejects_general_angles():
    g = generate_chain(4, [0.0, math.pi / 3, 0.0, 0.0])
    with pytest.raises(NonCliffordAngleError):
        compile_one_step(g, chain_gflow(4))


# --- reordering -----------------------------------------------------------


def test_reorder_fixed_312_report():
    g = generate_chain(4, [0.0] * 4)
    sched, report = compile_reordered_fixed(g, chain_gflow(4), [2, 0, 1])
    assert not report.feasible
    step1, step2, step3 = report.steps
    assert step1.vertex == 2 and step1.protected and step1.frustrated
    assert step1.protecting_product == frozenset({0, 2})  # T1 T3
    assert frozenset({0, 2}) in step1.conserved_products
    assert step2.vertex == 0 and not step2.protected
    assert step3.protected


def test_reorder_fixed_second_site_first_is_feasible():
    g = generate_chain(4, [0.0] * 4)
    _, report = compile_reordered_fixed(g, chain_gflow(4), [1, 0, 2])
    assert report.steps[0].vertex == 1
    assert not report.steps[0].frustrated  # [T_1, X_2] = 0
    assert report.feasible


def test_reorder_fixed_in_order_has_no_flags():
    # in measurement order the reordered schedule is the stepwise one, term
    # for term and static order included
    for graph, gf in (
        (generate_chain(4, [0.0] * 4), chain_gflow(4)),
        (generate_chain(7, [0.0, 0.4, 1.3, 0.0, 2.2, 0.9, 0.0]), chain_gflow(7)),
        (generate_cluster(3, 4), cluster_gflow(3, 4)),
    ):
        sched, report = compile_reordered_fixed(graph, gf, gf.measurement_order())
        assert report.feasible
        assert not any(fs.frustrated for fs in report.steps)
        ref = compile_stepwise(graph, gf)
        assert len(sched.steps) == len(ref.steps)
        for a, b in zip(sched.steps, ref.steps):
            assert a.removed.keys() == b.removed.keys() == a.introduced.keys()
            assert [(op.pauli, op.twist) for op in a.all_terms()] == [
                (op.pauli, op.twist) for op in b.all_terms()
            ]


def test_reorder_fixed_general_angle_certificates_are_genuine():
    # with a twist on vertex 2, T_1 is in a neither relation with X_2: no
    # reported conserved product may contain it
    g = generate_chain(4, [0.0, math.pi / 5, 0.0, 0.0])
    _, report = compile_reordered_fixed(g, chain_gflow(4), [1, 0, 2])
    assert all(0 not in prod for prod in report.steps[0].conserved_products)
    # the symbolic report is conservative here: protection comes from the
    # non-closing delta1 gap, not from a Pauli-product certificate
    assert report.steps[0].frustrated and not report.steps[0].protected


@pytest.mark.parametrize("graph", [
    generate_chain(6, [0.3, 1.1, 0.0, 2.0, 0.7, 0.0]),
    generate_chain(9, [0.0] * 9),
    generate_cluster(3, 4),
    generate_zigzag(6),
])
def test_reorder_fixed_tracks_the_certificate_span(graph, rng):
    # the tracked T_v is available exactly when e_v lies in the span of the
    # certificates left by the previous step (all unit vectors at the start)
    gf = find_gflow(graph)
    for _ in range(20):
        order = [int(v) for v in rng.permutation(graph.non_outputs)]
        _, report = compile_reordered_fixed(graph, gf, order)
        basis = [1 << v for v in graph.non_outputs]
        for fs in report.steps:
            unpinned = fs.detail.startswith("the +1 eigenvalue")
            assert unpinned == (not in_span(basis, 1 << fs.vertex)), (order, fs.vertex)
            basis = [sum(1 << v for v in prod) for prod in fs.conserved_products]


def test_reorder_fixed_requires_permutation():
    g = generate_chain(4, [0.0] * 4)
    with pytest.raises(CompileError):
        compile_reordered_fixed(g, chain_gflow(4), [0, 1])


def test_reorder_strip_312_reproduces_stripped_hamiltonian():
    g = generate_chain(4, [0.0] * 4)
    sched = compile_reordered_strip(g, chain_gflow(4), [2, 0, 1])
    st1 = sched.steps[0]
    assert st1.strip
    # T_1 = Z1 X2 Z3 anticommutes with X_3 and is deleted alongside T_3
    assert sorted(st1.removed) == [0, 2]
    assert list(st1.introduced) == [2]
    # after step 1 the surviving Hamiltonian is -T_2 - X_3
    survivors = sorted(
        op.render() for op in (*st1.static_terms, *st1.introduced.values())
    )
    assert survivors == ["+1 . X3", "+1 . Z2 X3 Z4"]
    # step 2 ramps the conserved completion T1 T3 = Z1 X2 X4 against X_1
    st2 = sched.steps[1]
    assert st2.removed[0].render() == "+1 . Z1 X2 X4"
    assert st2.is_commuting_replacement() is False  # strip steps are excluded
    # every removed/introduced pair still anticommutes
    assert commutes(st2.removed[0], st2.introduced[0]) is Commutation.ANTICOMMUTE


def test_reorder_strip_in_order_never_strips():
    g = generate_chain(4, [0.0] * 4)
    sched = compile_reordered_strip(g, chain_gflow(4), [0, 1, 2])
    for st in sched.steps:
        assert list(st.removed) == list(st.introduced)


# --- analytic quantities ---------------------------------------------------


def test_step_norm_hdot_values():
    g = generate_zigzag(4)
    sched = compile_layered(g, zigzag_gflow_family(4, 2))
    assert step_norm_hdot(sched.steps[0], gamma=1.0) == 2.0
    assert step_norm_hdot(sched.steps[0], gamma=0.5) == 1.0
    g5 = generate_cluster(5, 2)
    sched5 = compile_layered(g5, cluster_gflow(5, 2))
    assert step_norm_hdot(sched5.steps[0], gamma=1.0) == 5.0


def test_step_norm_hdot_rejects_strip_steps():
    g = generate_chain(4, [0.0] * 4)
    sched = compile_reordered_strip(g, chain_gflow(4), [2, 0, 1])
    with pytest.raises(CompileError):
        step_norm_hdot(sched.steps[0])


def test_step_gap_analytic_values():
    g = generate_chain(4, [0.0] * 4)
    st = compile_stepwise(g, chain_gflow(4)).steps[0]
    assert step_gap_analytic(st, 1.0, 0.5) == pytest.approx(math.sqrt(2.0))
    assert step_gap_analytic(st, 1.0, 0.0) == pytest.approx(2.0)
    assert step_gap_analytic(st, 1.0, 1.0) == pytest.approx(2.0)
    # independent of |U|
    z = generate_zigzag(4)
    wide = compile_layered(z, zigzag_gflow_family(4, 4)).steps[0]
    assert step_gap_analytic(wide, 1.0, 0.5) == pytest.approx(math.sqrt(2.0))


def test_step_gap_analytic_rejects_frustrated_step():
    g = generate_chain(4, [0.0] * 4)
    sched, _ = compile_reordered_fixed(g, chain_gflow(4), [2, 0, 1])
    with pytest.raises(CompileError):
        step_gap_analytic(sched.steps[0], 1.0, 0.5)


def test_delta1_values():
    assert delta1_gap(0.0, 0.5) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert delta1_gap(math.pi / 2, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert delta1_gap(math.pi / 3, 0.75) == pytest.approx(0.7388075144460889, abs=1e-12)


def test_delta1_domain():
    with pytest.raises(ValueError):
        delta1_gap(0.0, 1.5)


def test_runtime_bound_single_replacement_is_tau0():
    g = generate_chain(4, [0.0] * 4)
    st = compile_stepwise(g, chain_gflow(4)).steps[0]
    budget = AdiabaticBudget(delta=1.0, epsilon=0.01, c_delta=1.0, gamma=1.0)
    assert budget.tau0 == pytest.approx(100.0 / 2 ** 1.5)
    assert runtime_bound(st, budget) == budget.tau0


def test_runtime_bound_scales_with_u_size():
    budget = AdiabaticBudget(delta=1.0, epsilon=0.01)
    z = generate_zigzag(3)
    wide = compile_layered(z, zigzag_gflow_family(3, 3)).steps[0]
    assert runtime_bound(wide, budget) == budget.tau0 * 3 ** 2


def test_runtime_bound_ratio_scaling():
    budget = AdiabaticBudget(delta=0.7, epsilon=0.05)
    z = generate_zigzag(5)
    for u in range(1, 6):
        st = compile_layered(z, zigzag_gflow_family(5, u)).steps[0]
        assert st.u_size == u
        ratio = runtime_bound(st, budget) / budget.tau0
        assert ratio == pytest.approx(u ** 1.7, rel=1e-12)


def test_runtime_bound_zero_gap_is_infinite():
    g = generate_chain(4, [0.0] * 4)
    st = compile_stepwise(g, chain_gflow(4)).steps[0]
    budget = AdiabaticBudget()
    assert runtime_bound(st, budget, gap=0.0) == math.inf
    assert runtime_bound(st, budget, gap=-1.0) == math.inf


def test_runtime_bound_past_the_float_range_is_never_nan():
    g = generate_chain(4, [0.0] * 4)
    st = compile_stepwise(g, chain_gflow(4)).steps[0]
    cases = [  # (budget, gap, hdot_norm, c hdot^2 / (eps gap^3))
        (AdiabaticBudget(gamma=1e-200), 1e-150, 1e-200, 1e52),  # gap^3 underflows
        (AdiabaticBudget(), 1.0, 1e200, math.inf),  # hdot^2 overflows
        (AdiabaticBudget(epsilon=1e308, c_delta=1e308), 2.0, 2.0, 0.5),  # both overflow
    ]
    for budget, gap, hdot, want in cases:
        assert runtime_bound(st, budget, gap=gap, hdot_norm=hdot) == pytest.approx(want, rel=1e-12)
    assert AdiabaticBudget(epsilon=1e-200, gamma=1e-200).tau0 == math.inf
    tiny = AdiabaticBudget(epsilon=1e-200, gamma=1e-200, c_delta=1e-300)
    assert tiny.tau0 == pytest.approx(1e100 / 2 ** 1.5, rel=1e-12)
    huge = AdiabaticBudget(epsilon=1e300, gamma=1e10, c_delta=1e300)
    assert huge.tau0 == pytest.approx(1e-10 / 2 ** 1.5, rel=1e-12)


def test_runtime_bound_roundoff_gap_is_closed():
    # a degenerate crossing scanned block by block reads ~1e-16, not 0
    g = generate_chain(4, [0.0] * 4)
    st = compile_stepwise(g, chain_gflow(4)).steps[0]
    budget = AdiabaticBudget(gamma=2.0)
    assert runtime_bound(st, budget, gap=2.6645352591e-15) == math.inf
    assert runtime_bound(st, budget, gap=1e-6) < math.inf


def test_runtime_bound_with_explicit_gap_reduces_to_tau0():
    g = generate_chain(4, [0.0] * 4)
    st = compile_stepwise(g, chain_gflow(4)).steps[0]
    budget = AdiabaticBudget(delta=0.5, epsilon=0.02, c_delta=2.0, gamma=1.0)
    explicit = runtime_bound(st, budget, gap=math.sqrt(2.0))
    assert explicit == pytest.approx(budget.tau0, rel=1e-12)


def test_budget_validation():
    with pytest.raises(ValueError):
        AdiabaticBudget(delta=0.0)
    with pytest.raises(ValueError):
        AdiabaticBudget(delta=1.2)
    with pytest.raises(ValueError):
        AdiabaticBudget(epsilon=-1.0)


def test_hamiltonian_degree_cluster_is_five():
    g = generate_cluster(3, 4)
    assert hamiltonian_degree(compile_layered(g, cluster_gflow(3, 4))) == 5


@pytest.mark.parametrize("n", [4, 6, 8])
def test_hamiltonian_degree_zigzag_family(n):
    g = generate_zigzag(n)
    for r in range(1, n):
        sched = compile_layered(g, zigzag_gflow_family(n, r))
        assert hamiltonian_degree(sched) == r + 2


def test_hamiltonian_degree_chain_is_three():
    g = generate_chain(5, [0.0] * 5)
    assert hamiltonian_degree(compile_stepwise(g, chain_gflow(5))) == 3


def test_gadget_parameters_values():
    gp = gadget_parameters(3, 0.1)
    assert gp.lambda_max == pytest.approx(1.0 / 6.0)
    assert gp.coefficient == pytest.approx(0.0015)
    assert gp.converges
    gp2 = gadget_parameters(2, 0.1)
    assert gp2.coefficient == pytest.approx(-0.02)
    assert gadget_parameters(3, 0.2).converges is False
    with pytest.raises(ValueError):
        gadget_parameters(1, 0.1)


def test_gadget_coefficient_matches_exact_rationals():
    """The coupling from logarithms against -k(-lam)^k / (k-1)! in exact
    rational arithmetic (a float lam is a dyadic rational), over the k the
    factorial formula reaches in floats."""
    for k in (2, 3, 7, 30, 101, 170):
        for lam in (1e-5, 0.1, 0.25, 1.0, 3.7, 1e3):
            exact = float(-k * (-Fraction(lam)) ** k / math.factorial(k - 1))
            got = gadget_parameters(k, lam).coefficient
            if abs(exact) < sys.float_info.min:  # below the normal range
                assert abs(got) < sys.float_info.min and math.copysign(1, got) == math.copysign(1, exact)
            else:
                assert got == pytest.approx(exact, rel=1e-12)


def test_in_order_steps_satisfy_lemma_preconditions():
    # removed/introduced pairs anticommute; statics commute with both
    cases = [
        compile_stepwise(generate_chain(5, [0.0, 0.4, 1.3, 2.2, 0.0]), chain_gflow(5)),
        compile_layered(generate_zigzag(4), zigzag_gflow_family(4, 2)),
        compile_one_step(generate_chain(5, [0.0, math.pi / 2, math.pi, 0.0, 0.0]), chain_gflow(5)),
    ]
    for sched in cases:
        for st in sched.steps:
            assert st.is_commuting_replacement()


def test_commuting_replacement_verdict_is_computed_once(monkeypatch):
    g = generate_chain(4, [0.0] * 4)
    sched = compile_stepwise(g, chain_gflow(4))
    calls = []

    def counting(terms, op):
        calls.append(1)
        return commutation_masks(terms, op)

    monkeypatch.setattr("agqc.compiler.commutation_masks", counting)
    step = sched.steps[0]
    assert step.is_commuting_replacement()
    first = len(calls)
    assert first > 0
    assert step.is_commuting_replacement()
    assert step_norm_hdot(step) == 1.0
    assert len(calls) == first


def test_anticommuting_introduced_terms_are_not_a_commuting_replacement():
    # X1 and Z1 X2 anticommute although every other pairing is as required
    n = 2
    step = ScheduleStep(
        {0: rop(single(n, 0, "Z")), 1: rop(single(n, 1, "Z"))},
        {0: rop(single(n, 0, "X")), 1: rop(single(n, 0, "Z").mul(single(n, 1, "X")))},
        (),
    )
    assert not step.is_commuting_replacement()
    with pytest.raises(CompileError):
        step_gap_analytic(step)


def _x_objects(schedule):
    """vertex -> ids of every X_v object in the schedule's steps."""
    ids = {}
    for step in schedule.steps:
        for op in [*step.static_terms, *step.introduced.values()]:
            p = op.pauli
            if p.z == 0 and p.x & (p.x - 1) == 0 and not op.twist:
                ids.setdefault(p.x.bit_length() - 1, set()).add(id(op))
    return ids


def test_cluster_verdicts_call_no_exact_commutes_and_share_x_terms(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append(1)
        return commutes(a, b)

    monkeypatch.setattr("agqc.pauli.commutes", counting)
    g = generate_cluster(10, 20)
    sched = compile_stepwise(g, cluster_gflow(10, 20))
    assert len(sched.steps) == 190
    assert all(step.is_commuting_replacement() for step in sched.steps)
    assert calls == []
    ids = _x_objects(sched)
    assert sorted(ids) == sorted(g.non_outputs)
    assert all(len(objs) == 1 for objs in ids.values())


def test_every_mode_shares_one_x_term_per_vertex():
    g, gf = generate_cluster(3, 4), cluster_gflow(3, 4)
    order = [4, 0, 8, 2, 6, 1, 7, 3, 5]
    for sched in (
        compile_layered(g, gf),
        compile_one_step(g, gf),
        compile_reordered_fixed(g, gf, order)[0],
        compile_reordered_strip(g, gf, order),
    ):
        ids = _x_objects(sched)
        assert sorted(ids) == sorted(g.non_outputs)
        assert all(len(objs) == 1 for objs in ids.values())


def _verdict_schedules():
    """Schedules of every mode over chains at random non-Clifford angles,
    the zig-zag gflows g^1, g^2 and g^n, and clusters."""
    rng = np.random.default_rng(11)
    out = []
    for n in range(5, 13):
        angles = [0.0] + [float(a) for a in rng.uniform(0.1, 3.0, n - 2)] + [0.0]
        g, gf = generate_chain(n, angles), chain_gflow(n)
        order = [int(v) for v in rng.permutation(n - 1)]
        clifford = generate_chain(n, [math.pi / 2 * int(k) for k in rng.integers(0, 4, n)])
        out += [compile_stepwise(g, gf), compile_layered(g, gf), compile_one_step(clifford, gf),
                compile_reordered_fixed(g, gf, order)[0], compile_reordered_strip(g, gf, order)]
    for n in (5, 8):
        g = generate_zigzag(n)
        for r in (1, 2, n):
            gf = zigzag_gflow_family(n, r)
            out += [compile(g, gf) for compile in
                    (compile_stepwise, compile_layered, compile_one_step)]
    for rows, cols in ((2, 3), (5, 6), (8, 10)):
        g, gf = generate_cluster(rows, cols), cluster_gflow(rows, cols)
        out += [compile(g, gf) for compile in
                (compile_stepwise, compile_layered, compile_one_step)]
    return out


def test_verdicts_match_the_all_terms_oracle(monkeypatch):
    exact = []

    def counting(a, b):
        exact.append(1)
        return commutes(a, b)

    monkeypatch.setattr("agqc.pauli.commutes", counting)
    verdicts = set()
    reached_exact = 0
    for sched in _verdict_schedules():
        for step in sched.steps:
            before = len(exact)
            verdict = step.is_commuting_replacement()
            reached_exact += len(exact) > before
            assert verdict == commuting_replacement_oracle(step)
            verdicts.add(verdict)
    assert verdicts == {True, False}
    assert reached_exact > 0  # twisted pairs were decided by the exact check


def test_static_terms_are_the_same_objects_in_the_same_order():
    """The earlier groups' X's, then the later groups' T's, as every step
    built them one by one, in every mode but strip."""
    for sched in _verdict_schedules():
        if any(step.strip for step in sched.steps):
            continue
        xs = {v: x for step in sched.steps for v, x in step.introduced.items()}
        ts = {v: t for step in sched.steps for v, t in step.removed.items()}
        groups = [list(step.introduced) for step in sched.steps]
        for i, step in enumerate(sched.steps):
            done = [u for grp in groups[:i] for u in grp]
            later = [w for grp in groups[i + 1:] for w in grp]
            want = [xs[u] for u in done] + [ts[w] for w in later]
            assert [id(op) for op in step.static_terms] == [id(op) for op in want]


def _mutations(step, rng):
    """Steps built directly from ``step``: as it is, and with one fault each."""
    v = sorted(step.introduced)[0]
    site = step.introduced[v].pauli.x.bit_length() - 1  # the X site of X_v
    n = step.introduced[v].n
    statics = list(step.static_terms)
    rest = {u: x for u, x in step.introduced.items() if u != v}
    out = [
        (None, ScheduleStep(step.removed, step.introduced, step.static_terms)),
        (False, ScheduleStep(step.removed, step.introduced, step.static_terms, strip=True)),
        (None, ScheduleStep(step.removed, step.introduced, ())),
        (False, ScheduleStep(step.removed, rest, step.static_terms)),
        (None, ScheduleStep({u: step.removed[u] for u in rest}, rest, step.static_terms)),
    ]
    if not statics:
        return out
    j = int(rng.integers(len(statics)))
    anti = RotatedPauliOp.from_pauli(single(n, site, "Z"))
    twisted = RotatedPauliOp.from_parts(statics[j].pauli, {**statics[j].twist_map, site: 0.3})
    for bad in (anti, twisted):
        swapped = tuple(statics[:j] + [bad] + statics[j + 1:])
        out.append((False, ScheduleStep(step.removed, step.introduced, swapped)))
        # the same fault inside the schedule's shared table
        universe = list(step.sites.terms)
        universe[list(set_bits(step.static_mask))[j]] = bad
        out.append((False, ScheduleStep(
            step.removed, step.introduced, swapped,
            sites=SiteTable.of(universe), static_mask=step.static_mask,
        )))
    return out


def test_mutated_steps_match_the_all_terms_oracle():
    rng = np.random.default_rng(5)
    angles = [0.0, 0.4, 1.3, 2.2, 0.7, 2.9, 1.7, 0.0]
    cases = [
        compile_stepwise(generate_chain(8, angles), chain_gflow(8)),
        compile_layered(generate_cluster(5, 6), cluster_gflow(5, 6)),
        compile_layered(generate_zigzag(8), zigzag_gflow_family(8, 2)),
        compile_one_step(generate_zigzag(5), zigzag_gflow_family(5, 2)),
    ]
    seen = set()
    for sched in cases:
        for step in sched.steps:
            for want, mutated in _mutations(step, rng):
                oracle = commuting_replacement_oracle(mutated)
                assert mutated.is_commuting_replacement() == oracle
                if want is not None:
                    assert oracle is want
                seen.add(oracle)
    assert seen == {True, False}


@pytest.mark.parametrize("graph, gf", [
    (generate_chain(6, [0.0, 0.3, 1.1, 0.7, 2.0, 0.0]), Gflow(chain_gflow(6).g, dict.fromkeys(range(5), 0))),
    (generate_cluster(3, 4), Gflow(cluster_gflow(3, 4).g, dict.fromkeys(range(9), 0))),
    (generate_cluster(3, 4), Gflow(cluster_gflow(3, 4).g, {v: v // 6 for v in range(9)})),
])
def test_layered_rejects_too_coarse_layers_at_verification(graph, gf):
    # a layer holding u and some v with [T_u, X_v] != 0 breaks G1 or G2
    with pytest.raises(InvalidGflowError):
        compile_layered(graph, gf)


def test_layered_steps_on_verified_gflows_are_commuting_replacements():
    """A verified gflow makes every layer simultaneously replaceable, which
    is why compile_layered needs no check of its own."""
    cases = [(generate_zigzag(n), zigzag_gflow_family(n, r))
             for n in range(2, 12) for r in range(1, n + 1)]
    cases += [(generate_cluster(r, c), cluster_gflow(r, c)) for r, c in ((2, 2), (2, 5), (3, 4), (4, 4))]
    cnot = generate_cnot_graph()
    cases.append((cnot, find_gflow(cnot)))
    rng = np.random.default_rng(140)
    while len(cases) < 140:
        g = random_open_graph(rng, int(rng.integers(3, 10)))
        gf = find_gflow(g)
        if gf is not None:
            cases.append((g, gf))
    shared = 0
    for g, gf in cases:
        sched = compile_layered(g, gf)
        assert all(step.is_commuting_replacement() for step in sched.steps)
        shared += any(len(step.introduced) > 1 for step in sched.steps)
    assert shared > 100


def test_cluster_verdicts_check_only_overlapping_static_terms(monkeypatch):
    """The static half of the verdict scales with the movers' supports, not
    with the schedule: about 2 N^2 = 72,000 terms if every static term of
    every step were checked."""
    g = generate_cluster(10, 20)
    sched = compile_stepwise(g, cluster_gflow(10, 20))
    handed = []

    def counting(terms, op):
        handed.append(len(terms))
        return commutation_masks(terms, op)

    monkeypatch.setattr("agqc.compiler.commutation_masks", counting)
    assert all(step.is_commuting_replacement() for step in sched.steps)
    n = len(g.non_outputs)
    # the pair half hands each step's one removed term to its introduced one
    assert sum(handed) - n <= 20 * n


def test_reorder_frustration_matches_the_all_terms_check():
    """A step is frustrated when a static term fails to commute with X_v or
    with T_v; both halves of the test are reached."""
    rng = np.random.default_rng(17)
    cases = []
    for n in range(4, 10):
        angles = [0.0] + [float(a) for a in rng.uniform(0.1, 3.0, n - 2)] + [0.0]
        cases += [(generate_chain(n, angles), chain_gflow(n)) for _ in range(3)]
    cases += [(generate_cluster(3, 4), cluster_gflow(3, 4))] * 3
    reasons = set()
    for g, gf in cases:
        order = [int(v) for v in rng.permutation(sorted(g.non_outputs))]
        sched, report = compile_reordered_fixed(g, gf, order)
        for step, fs in zip(sched.steps, report.steps):
            (x,), (t,) = step.introduced.values(), step.removed.values()
            by_x = any(commutation_masks(step.static_terms, x))
            by_t = any(commutation_masks(step.static_terms, t))
            assert fs.frustrated == (by_x or by_t)
            reasons.add((by_x, by_t))
    assert {(True, False), (False, True), (False, False)} <= reasons
