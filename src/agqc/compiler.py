"""Build adiabatic replacement schedules from a graph + gflow, and compute
the analytic quantities attached to them: ||dH/ds||, analytic gaps, runtime
bounds, Hamiltonian degree, and perturbation-gadget parameters.

Sign convention: every Hamiltonian term carries ``-gamma``; energies are
reported in units of gamma.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

from . import _gf2
from .budget import approx
from .gflow import Gflow, verify_gflow
from .graph import OpenGraph, Plane, is_clifford_angle
from .pauli import (
    NonCliffordAngleError,
    RotatedPauliOp,
    SiteTable,
    commutation_masks,
    one_step_update,
    single,
    stabilizer_set,
)


#: Relative tolerance (in units of gamma) below which two levels count as
#: degenerate, and below which a gap counts as closed.
DEGENERACY_TOL = 1e-9

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class CompileError(ValueError):
    """A schedule cannot be built from the given inputs."""


class InvalidGflowError(CompileError):
    """The supplied gflow fails verification."""


@dataclass(frozen=True)
class ScheduleStep:
    """One adiabatic transition ``H(s) = -gamma [static + (1-s) removed + s introduced]``.

    ``removed`` and ``introduced`` are keyed by the vertex whose replacement
    the entry belongs to.  In strip mode ``removed`` may contain additional
    entries that are deleted with no replacement.

    ``sites`` may index a term list shared by the steps of a schedule, whose
    bits ``static_mask`` are this step's static terms; with none given, the
    step indexes ``static_terms`` on first use.
    """

    removed: dict[int, RotatedPauliOp]
    introduced: dict[int, RotatedPauliOp]
    static_terms: tuple[RotatedPauliOp, ...]
    strip: bool = False
    sites: SiteTable | None = field(default=None, repr=False, compare=False)
    static_mask: int = field(default=-1, repr=False, compare=False)
    _commuting: bool | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def u_size(self) -> int:
        """Number of simultaneous replacements |U|."""
        return len(self.introduced)

    def all_terms(self) -> list[RotatedPauliOp]:
        return [*self.static_terms, *self.removed.values(), *self.introduced.values()]

    def endpoint_weights(self, gamma: float) -> list[tuple[RotatedPauliOp, float, float]]:
        """``(term, a, b)`` for every term, in :meth:`all_terms` order, with
        ``H(s) = A + sB = sum (a + s b) term``."""
        return (
            [(op, -gamma, 0.0) for op in self.static_terms]
            + [(op, -gamma, gamma) for op in self.removed.values()]
            + [(op, 0.0, -gamma) for op in self.introduced.values()]
        )

    def is_commuting_replacement(self) -> bool:
        """Commuting-replacement form: each removed/introduced pair anticommutes,
        and every other pairing of step terms commutes.

        The verdict is computed on the first call and cached on the step.
        """
        if self._commuting is None:
            object.__setattr__(self, "_commuting", self._check_commuting_replacement())
        return self._commuting

    def static_clash(self, op: RotatedPauliOp) -> bool:
        """True when some static term fails to commute with ``op``; only the
        static terms whose support meets op's are checked."""
        if self.sites is None:
            object.__setattr__(self, "sites", SiteTable.of(self.static_terms))
        return any(commutation_masks(self.sites.overlapping(op, self.static_mask), op))

    def _check_commuting_replacement(self) -> bool:
        if self.strip or set(self.removed) != set(self.introduced):
            return False
        items = sorted(self.removed)
        removed = [self.removed[v] for v in items]
        introduced = [self.introduced[v] for v in items]
        for i, (r, x) in enumerate(zip(removed, introduced)):
            # each introduced term anticommutes with its own removed term only
            if commutation_masks(removed, x) != (1 << i, 0):
                return False
            if any(commutation_masks(removed[i + 1:], r)) or any(
                commutation_masks(introduced[i + 1:], x)
            ):
                return False
        return not any(self.static_clash(m) for m in removed + introduced)


@dataclass(frozen=True)
class Schedule:
    """Ordered adiabatic steps over a fixed graph and gflow."""

    steps: tuple[ScheduleStep, ...]
    gamma: float
    graph: OpenGraph
    gflow: Gflow

    @property
    def n_qubits(self) -> int:
        return self.graph.n_vertices


@dataclass(frozen=True)
class AdiabaticBudget:
    """Parameters of the adiabatic runtime bound.

    ``c_delta`` is a configuration constant (the bound's prefactor is not
    known in closed form); all absolute times are multiples of ``tau0``.
    """

    delta: float = 1.0
    epsilon: float = 0.01
    c_delta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.delta <= 1:
            raise ValueError("delta must lie in (0, 1]")
        if self.epsilon <= 0 or self.c_delta <= 0 or self.gamma <= 0:
            raise ValueError("epsilon, c_delta and gamma must be positive")

    @property
    def tau0(self) -> float:
        """Reference time for a single replacement: c / (eps 2^{1+d/2} gamma)."""
        den = self.epsilon * 2 ** (1 + self.delta / 2) * self.gamma
        if 0.0 < den < math.inf:
            return self.c_delta / den
        # the product left the float range: divide factor by factor
        return self.c_delta / self.epsilon / 2 ** (1 + self.delta / 2) / self.gamma


def _require_valid_gflow(graph: OpenGraph, gf: Gflow) -> None:
    """Refuse a non-XY plane, a failed axiom G1-G3 and an input in a correcting set."""
    for v, plane in graph.planes.items():
        if plane is not Plane.XY:
            raise CompileError(f"only XY-plane graphs compile (vertex {v + 1} is {plane.value})")
    report = verify_gflow(graph, gf)
    if not report.valid:
        _, axiom, detail = report.violations[0]
        if axiom == "codomain":  # listed last: every axiom G1-G3 holds
            raise InvalidGflowError(detail)
        shown = "; ".join(f"{ax}: {detail}" for _, ax, detail in report.violations[:3])
        raise InvalidGflowError(f"gflow fails verification: {shown}")


def _x_terms(graph: OpenGraph) -> dict[int, RotatedPauliOp]:
    """``X_v`` for every non-output vertex, built once and shared by the steps."""
    n = graph.n_vertices
    return {v: RotatedPauliOp.from_pauli(single(n, v, "X")) for v in graph.non_outputs}


def _replacement_schedule(
    graph: OpenGraph,
    gf: Gflow,
    terms: dict[int, RotatedPauliOp],
    groups: Sequence[Sequence[int]],
    gamma: float,
) -> Schedule:
    """One step per vertex group, in order: every T_v of the group -> X_v at
    once, with the X_u of earlier groups and the T_w of later ones static.

    The steps share one site table over ``X_v... + T_v...`` in group order;
    the static terms of a step are a prefix of the X's and a suffix of the T's.
    """
    xs = _x_terms(graph)
    order = [v for group in groups for v in group]
    n = len(order)
    x_seq = tuple(xs[v] for v in order)
    t_seq = tuple(terms[v] for v in order)
    sites = SiteTable.of(x_seq + t_seq)
    steps = []
    a = 0
    for members in groups:
        b = a + len(members)
        steps.append(
            ScheduleStep(
                {v: terms[v] for v in members},
                {v: xs[v] for v in members},
                x_seq[:a] + t_seq[b:],
                sites=sites,
                static_mask=((1 << a) - 1) | ((1 << (n - b)) - 1) << (n + b),
            )
        )
        a = b
    return Schedule(tuple(steps), gamma, graph, gf)


def compile_stepwise(graph: OpenGraph, gf: Gflow, gamma: float = 1.0) -> Schedule:
    """One step per non-output vertex, in measurement order: T_v -> X_v.

    An input's angle is not carried (no generator sits on an input).
    """
    _require_valid_gflow(graph, gf)
    groups = [[v] for v in gf.measurement_order()]
    return _replacement_schedule(graph, gf, stabilizer_set(graph, gf), groups, gamma)


def compile_layered(graph: OpenGraph, gf: Gflow, gamma: float = 1.0) -> Schedule:
    """One step per layer; all T_v of a layer are replaced simultaneously.

    The simultaneous replacement needs ``[T_u, X_v] = 0`` for u != v inside
    a layer, which a verified gflow guarantees.  T_u is the product of the
    twisted generators of g(u): G1 puts every member of g(u), where its X
    letters and twists sit, in a later layer than u's, and G2 keeps the
    other vertices of u's layer out of Odd(g(u)), where its other Z letters
    sit.  An input's angle is not carried (no generator sits on an input).
    """
    _require_valid_gflow(graph, gf)
    terms = stabilizer_set(graph, gf)
    layers = [list(vs) for _, vs in itertools.groupby(gf.measurement_order(), gf.layer.get)]
    return _replacement_schedule(graph, gf, terms, layers, gamma)


def compile_one_step(graph: OpenGraph, gf: Gflow, gamma: float = 1.0) -> Schedule:
    """Single simultaneous replacement of the swept stabilizers T~_v by X_v.

    Requires Clifford angles; see :func:`agqc.pauli.one_step_update`.
    An input's angle is not carried (no generator sits on an input).
    """
    _require_valid_gflow(graph, gf)
    for v, theta in graph.angles.items():
        if not is_clifford_angle(theta):
            raise NonCliffordAngleError(
                f"angle {theta} at vertex {v + 1} is not a multiple of pi/2; the "
                "one-step schedule exists only for Clifford angles"
            )
    updated = one_step_update(stabilizer_set(graph, gf), gf)
    return _replacement_schedule(graph, gf, updated, [list(updated)], gamma)


# ---------------------------------------------------------------------------
# reordered schedules


@dataclass(frozen=True)
class StepFeasibility:
    """Protection analysis of one reordered fixed-term step.

    ``conserved_products`` generates the group of products of the original
    stabilizer terms that commute with every Hamiltonian term of this step
    and of all earlier steps (each product is the vertex set of its
    factors).  ``protecting_product`` names one conserved product that
    certifies the step, when protection holds.
    """

    vertex: int
    frustrated: bool
    protected: bool
    conserved_products: tuple[frozenset[int], ...]
    protecting_product: frozenset[int] | None
    detail: str


@dataclass(frozen=True)
class ReorderReport:
    steps: tuple[StepFeasibility, ...]

    @property
    def feasible(self) -> bool:
        return all(s.protected for s in self.steps)


def _as_permutation(order: Sequence[int], non_outputs: Sequence[int]) -> list[int]:
    if sorted(order) != sorted(non_outputs):
        raise CompileError(
            f"order {[v + 1 for v in order]} is not a permutation of the non-outputs "
            f"{sorted(v + 1 for v in non_outputs)}"
        )
    return list(order)


def compile_reordered_fixed(
    graph: OpenGraph, gf: Gflow, order: Sequence[int], gamma: float = 1.0
) -> tuple[Schedule, ReorderReport]:
    """Replace T_v -> X_v in a caller-chosen order, keeping every term.

    Infeasibility is reported, never raised.  A step is *protected* when the
    tracked eigenvalue of the replaced T_v is still certified (+1) at the
    start of the step and every other certified product survives the step;
    certificates are products of the original stabilizer terms, maintained
    as a GF(2) group filtered by anticommutation with each introduced X.
    The T1 T3 certificate of the out-of-order chain is exactly such a product.

    At non-Clifford angles a term whose twist sits on a replaced vertex is
    in a neither-commuting relation with that X; such terms cannot enter
    any certificate, which makes the symbolic report conservative: a step
    it flags may still be protected by a non-closing gap (the chain's
    second-site replacement with gap ``delta1_gap``) - the spectral scan is
    the authority there.  An input's angle is not carried (no generator sits
    on an input).
    """
    _require_valid_gflow(graph, gf)
    terms = stabilizer_set(graph, gf)
    seq = _as_permutation(order, graph.non_outputs)
    schedule = _replacement_schedule(graph, gf, terms, [[v] for v in seq], gamma)
    vertices = sorted(terms)
    vindex = {v: i for i, v in enumerate(vertices)}
    originals = [terms[w] for w in vertices]
    sites = SiteTable.of(originals)
    later = (1 << len(vertices)) - 1  # the T's not yet replaced

    # most basis vectors carry over from step to step: build each set once
    sets: dict[int, frozenset[int]] = {}

    def to_set(mask: int) -> frozenset[int]:
        found = sets.get(mask)
        if found is None:
            found = sets[mask] = frozenset(vertices[i] for i in _gf2.set_bits(mask))
        return found

    # cert_basis starts as the whole space and keeps exactly the vectors that
    # meet every constraint so far: e_v is in its span iff no constraint has bit v
    cert_basis = [1 << i for i in range(len(vertices))]
    constrained = 0
    feas = []
    for v, step in zip(seq, schedule.steps):
        later ^= 1 << vindex[v]

        # products of the original T's must overlap the terms anticommuting
        # with X_v evenly and avoid the terms in a "neither" relation with it;
        # only the originals whose support holds v can fail to commute with X_v
        near = list(_gf2.set_bits(sites.rows.get(v, 0)))
        masks = commutation_masks([originals[i] for i in near], step.introduced[v])
        anti, neither = (sum(1 << near[j] for j in _gf2.set_bits(m)) for m in masks)
        # the static X's commute with X_v, so only a later T can clash with it
        frustrated = bool((anti | neither) & later) or step.static_clash(step.removed[v])
        tracked_available = not constrained >> vindex[v] & 1
        constrained |= anti | neither
        new_basis = _gf2.kernel_filter(cert_basis, anti)
        for i in _gf2.set_bits(neither):
            new_basis = _gf2.kernel_filter(new_basis, 1 << i)
        protecting = None
        if not tracked_available:
            protected = False
            detail = (
                f"the +1 eigenvalue of T_{v + 1} is no longer certified when this "
                "step starts, so the tracked replacement direction is unpinned"
            )
        elif frustrated:
            covering = [b for b in new_basis if b >> vindex[v] & 1]
            protected = bool(covering)
            if protected:
                protecting = to_set(covering[0])
                names = " ".join("T" + str(w + 1) for w in sorted(protecting))
                detail = (
                    "frustrated step: a static term anticommutes with the replacement "
                    f"pair; the conserved product {names} splits the degenerate crossing"
                )
            else:
                detail = (
                    "frustrated step with no conserved product of stabilizer terms "
                    "covering the replaced vertex: the degenerate crossing is unprotected"
                )
        else:
            protected = True
            detail = "clean replacement: all static terms commute with the pair"
        feas.append(
            StepFeasibility(
                vertex=v,
                frustrated=frustrated,
                protected=protected,
                conserved_products=tuple(map(to_set, sorted(filter(None, new_basis)))),
                protecting_product=protecting,
                detail=detail,
            )
        )
        cert_basis = new_basis
    return schedule, ReorderReport(tuple(feas))


def compile_reordered_strip(
    graph: OpenGraph, gf: Gflow, order: Sequence[int], gamma: float = 1.0
) -> Schedule:
    """Reordered schedule that mimics measurement: terms anticommuting with
    the introduced X_v do not survive the step.

    The anticommuting terms are ramped out with no replacement; the
    bookkeeping keeps, for each deleted vertex u, the conserved product
    (deleted term) * (replaced term), which is what the step for u later
    ramps out against X_u.
    An input's angle is not carried (no generator sits on an input).
    """
    _require_valid_gflow(graph, gf)
    xs = _x_terms(graph)
    seq = _as_permutation(order, graph.non_outputs)
    current = dict(stabilizer_set(graph, gf))
    in_hamiltonian = {v: True for v in current}
    introduced_so_far: list[int] = []
    steps = []
    for v in seq:
        xv = xs[v]
        target = current.pop(v)
        in_hamiltonian.pop(v)
        if commutation_masks([target], xv) != (1, 0):
            raise CompileError(
                f"tracked term for vertex {v + 1} does not anticommute with X_{v + 1}; "
                "strip schedule has no valid replacement ramp"
            )
        removed = {v: target}
        keys = sorted(current)
        anti, neither = commutation_masks([current[u] for u in keys], xv)
        for i in _gf2.set_bits(anti | neither):
            u = keys[i]
            if in_hamiltonian[u]:
                removed[u] = current[u]
                in_hamiltonian[u] = False
            # conserved completion: anticommuting * anticommuting commutes with X_v
            current[u] = current[u].mul(target)
        static = [current[u] for u in sorted(current) if in_hamiltonian[u]]
        static += [xs[u] for u in introduced_so_far]
        steps.append(ScheduleStep(removed, {v: xv}, tuple(static), strip=True))
        introduced_so_far.append(v)
    return Schedule(tuple(steps), gamma, graph, gf)


# ---------------------------------------------------------------------------
# analytic quantities


def step_norm_hdot(step: ScheduleStep, gamma: float = 1.0) -> float:
    """``||dH/ds|| = |U| gamma`` for a commuting-replacement step."""
    if not step.is_commuting_replacement():
        raise CompileError(
            "step is not in commuting-replacement form; use the numerical "
            "bound from the simulator instead"
        )
    return step.u_size * gamma

def step_gap_analytic(step: ScheduleStep, gamma: float = 1.0, s: float = 0.5) -> float:
    """Gap ``2 gamma sqrt((1-s)^2 + s^2)`` of a commuting-replacement step.

    Independent of |U|; minimal (sqrt(2) gamma) at s = 1/2.
    """
    if not step.is_commuting_replacement():
        raise CompileError(
            "step is not in commuting-replacement form; diagonalize numerically"
        )
    return 2.0 * gamma * math.hypot(1.0 - s, s)


def delta1_gap(theta2: float, s: float) -> float:
    """Closed-form gap of the second-site out-of-order replacement on a chain.

    ``Delta_1 = sqrt(2(1-s+s^2) + G) - sqrt(2(1-s+s^2) - G)`` with
    ``G = sqrt(2 s^2 cos(2 theta2) + 4 - 8 s + 6 s^2)``; radicands are
    clamped at zero against rounding.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError("s must lie in [0, 1]")
    g2 = 2.0 * s * s * math.cos(2.0 * theta2) + 4.0 - 8.0 * s + 6.0 * s * s
    g = math.sqrt(max(0.0, g2))
    a = 2.0 * (1.0 - s + s * s)
    return math.sqrt(max(0.0, a + g)) - math.sqrt(max(0.0, a - g))


def runtime_bound(
    step: ScheduleStep,
    budget: AdiabaticBudget,
    gap: float | None = None,
    hdot_norm: float | None = None,
) -> float:
    """Adiabatic runtime bound ``c ||dH||^{1+d} / (eps gap^{2+d})``.

    With no explicit gap, the step must be a commuting replacement and the
    bound reduces exactly to ``tau0 * |U|^{1+delta}``.  A gap below
    ``DEGENERACY_TOL * gamma`` is closed (a numerical scan returns roundoff,
    not 0, at a degenerate crossing) and reports an infinite bound (the
    reordering failure mode).  Where a factor leaves the float range, the
    bound is taken in logarithms: inf past the range, never NaN.
    """
    if gap is None:
        if not step.is_commuting_replacement():
            raise CompileError(
                "no analytic gap for a non-commuting step; pass gap= from a "
                "numerical spectral scan"
            )
        return budget.tau0 * step.u_size ** (1.0 + budget.delta)
    if gap < DEGENERACY_TOL * budget.gamma:
        return math.inf
    if hdot_norm is None:
        hdot_norm = step_norm_hdot(step, budget.gamma)
    c, d, eps = budget.c_delta, budget.delta, budget.epsilon
    try:
        num, den = c * hdot_norm ** (1.0 + d), eps * gap ** (2.0 + d)
        if 0.0 < den < math.inf and num < math.inf:
            return num / den
    except OverflowError:  # a power past the float range
        pass
    if hdot_norm == 0.0:
        return 0.0
    log = math.log(c) - math.log(eps) + (1.0 + d) * math.log(hdot_norm) - (2.0 + d) * math.log(gap)
    return math.inf if log > _LOG_FLOAT_MAX else math.exp(log)


def hamiltonian_degree(schedule: Schedule) -> int:
    """Maximum support size over the initial Hamiltonian's terms (k_max)."""
    if not schedule.steps:
        return 0
    first = schedule.steps[0]
    terms = list(first.static_terms) + list(first.removed.values())
    return max((op.degree for op in terms), default=0)


@dataclass(frozen=True)
class GadgetParameters:
    coefficient: float
    lambda_max: float
    converges: bool


def gadget_parameters(k: int, lam: float) -> GadgetParameters:
    """Perturbation-gadget effective coupling ``-k(-lam)^k / (k-1)!`` and the
    convergence threshold ``lam < (k-1) / (4k)`` for simulating a degree-k term.

    The coupling's size is taken from logarithms, so any ``k`` returns at
    once; a size below the float range is a signed zero, and one above it
    raises ``ValueError``.
    """
    if k < 2:
        raise ValueError("gadgets require degree k >= 2")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    try:  # k, log (k-1)! or the coupling itself past the float range
        size = math.exp(math.log(k) + k * math.log(lam) - math.lgamma(k))
    except OverflowError:
        size = math.inf
    if size == math.inf:
        raise ValueError(
            f"gadget coefficient for k = {approx(k)}, lambda = {lam:g} is past the float range"
        )
    coefficient = -size if k % 2 == 0 else size
    lambda_max = (k - 1) / k / 4
    return GadgetParameters(coefficient, lambda_max, lam < lambda_max)
