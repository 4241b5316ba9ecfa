"""Exact algebra of Pauli strings and rotated-Pauli operators.

A :class:`PauliString` is ``i**phase_exp`` times a tensor product of
single-site letters I/X/Y/Z encoded in two bitmasks.  A
:class:`RotatedPauliOp` extends it with per-site Z-rotations
``exp(-i a_v Z_v)`` kept to the *left* of the Pauli string (canonical
form).  This class is closed under multiplication, so products of twisted
stabilizer generators, the operators T_v built from a correcting set, and
their one-step updates can all be manipulated exactly, without matrices.

Canonical form of the twist angles: each angle is reduced modulo pi into
the open interval (-pi/2, pi/2), the removed multiples of pi becoming a
sign, and angles within 1e-12 of 0 or +-pi/2 are folded away entirely
(``exp(-i pi/2 Z) = -iZ``).  Equality of rotated operators therefore
compares bitmasks and phases exactly and twist angles to 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._gf2 import set_bits
from .gflow import Gflow
from .graph import CLIFFORD_TOL, OpenGraph, stabilizer_product

_PHASES = (1, 1j, -1, -1j)
_LETTERS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


class NonCliffordAngleError(ValueError):
    """A symbolic routine that requires Clifford angles met a general one."""


class Commutation(Enum):
    COMMUTE = "commute"
    ANTICOMMUTE = "anticommute"
    NEITHER = "neither"


@dataclass(frozen=True)
class PauliString:
    """``i**phase_exp`` times a product of single-site Pauli letters.

    Site letters come from the bit pairs ``(x, z)``: (0,0) I, (1,0) X,
    (1,1) Y, (0,1) Z.  The phase exponent is reduced mod 4, keeping the
    group {+1, +i, -1, -i} closed under multiplication.
    """

    n: int
    x: int = 0
    z: int = 0
    phase_exp: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    @property
    def phase(self) -> complex:
        return _PHASES[self.phase_exp]

    def letter(self, v: int) -> str:
        return _LETTERS[(self.x >> v & 1, self.z >> v & 1)]

    @property
    def support(self) -> frozenset[int]:
        mask = self.x | self.z
        return frozenset(v for v in range(self.n) if mask >> v & 1)

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def mul(self, other: PauliString) -> PauliString:
        if self.n != other.n:
            raise ValueError("vertex universes differ")
        x3 = self.x ^ other.x
        z3 = self.z ^ other.z
        exp = (
            self.phase_exp
            + other.phase_exp
            + (self.x & self.z).bit_count()
            + (other.x & other.z).bit_count()
            + 2 * (self.z & other.x).bit_count()
            - (x3 & z3).bit_count()
        )
        return PauliString(self.n, x3, z3, exp)

    def anticommutes(self, other: PauliString) -> bool:
        """Symplectic parity: True when the two strings anticommute."""
        return bool(
            ((self.x & other.z).bit_count() + (self.z & other.x).bit_count()) & 1
        )

    def negated(self) -> PauliString:
        return PauliString(self.n, self.x, self.z, self.phase_exp + 2)

    def render(self) -> str:
        """Canonical text form, 1-based sites, e.g. ``+1 . Z1 X2 Z3``."""
        sign = {0: "+1", 1: "+i", 2: "-1", 3: "-i"}[self.phase_exp]
        sites = [f"{self.letter(v)}{v + 1}" for v in set_bits(self.x | self.z)]
        return f"{sign} . {' '.join(sites)}" if sites else f"{sign} . I"


def single(n: int, v: int, letter: str, phase_exp: int = 0) -> PauliString:
    """Single-site Pauli: X, Y, Z (or I) at vertex ``v``."""
    letter = letter.upper()
    if letter == "I":
        return PauliString(n, 0, 0, phase_exp)
    x = 1 << v if letter in ("X", "Y") else 0
    z = 1 << v if letter in ("Z", "Y") else 0
    if not x and not z:
        raise ValueError(f"unknown Pauli letter {letter!r}")
    return PauliString(n, x, z, phase_exp)


def _fold_twist(items: Mapping[int, float]) -> tuple[tuple[tuple[int, float], ...], int, int]:
    """Reduce twist angles to canonical residues.

    Returns (kept twists sorted by site, Z-mask to left-multiply, extra
    phase exponent); the mask and phase collect the ``-iZ`` / ``+iZ``
    factors of angles at odd multiples of pi/2 and the signs of removed
    multiples of pi.
    """
    kept: list[tuple[int, float]] = []
    fold_z = 0
    extra = 0
    for v in sorted(items):
        a = items[v]
        k = round(a / math.pi)
        r = a - k * math.pi
        if k % 2:
            extra += 2  # exp(-i pi Z) = -1
        if abs(r) < CLIFFORD_TOL:
            continue
        if abs(r - math.pi / 2) < CLIFFORD_TOL:
            fold_z |= 1 << v
            extra += 3  # exp(-i pi/2 Z) = -i Z
        elif abs(r + math.pi / 2) < CLIFFORD_TOL:
            fold_z |= 1 << v
            extra += 1  # exp(+i pi/2 Z) = +i Z
        else:
            kept.append((v, r))
    return tuple(kept), fold_z, extra % 4


@dataclass(frozen=True, eq=False)
class RotatedPauliOp:
    """Canonical ``phase * prod_v exp(-i a_v Z_v) * PauliString``.

    Closed under multiplication: moving a Z-rotation left past an X or Y
    letter flips the sign of its angle, and Clifford residues fold into the
    Pauli part.  Use :meth:`from_parts` to construct with folding applied.
    """

    pauli: PauliString
    twist: tuple[tuple[int, float], ...] = ()

    @classmethod
    def from_parts(
        cls, pauli: PauliString, twist: Mapping[int, float] | None = None
    ) -> RotatedPauliOp:
        if not twist:
            return cls(pauli, ())
        kept, fold_z, extra = _fold_twist(twist)
        p = pauli
        if fold_z:
            p = PauliString(p.n, 0, fold_z).mul(p)
        if extra:
            p = PauliString(p.n, p.x, p.z, p.phase_exp + extra)
        return cls(p, kept)

    @classmethod
    def from_pauli(cls, pauli: PauliString) -> RotatedPauliOp:
        return cls(pauli, ())

    @property
    def n(self) -> int:
        return self.pauli.n

    @property
    def twist_map(self) -> dict[int, float]:
        return dict(self.twist)

    @cached_property
    def twist_mask(self) -> int:
        """Bitmask of the sites that carry a twist."""
        mask = 0
        for v, _ in self.twist:
            mask |= 1 << v
        return mask

    @property
    def support_mask(self) -> int:
        """Bitmask of the sites the operator acts on: its x, z and twist bits."""
        return self.pauli.x | self.pauli.z | self.twist_mask

    @property
    def support(self) -> frozenset[int]:
        return frozenset(set_bits(self.support_mask))

    @property
    def degree(self) -> int:
        return self.support_mask.bit_count()

    def is_identity(self) -> bool:
        return self.pauli.is_identity() and not self.twist and self.pauli.phase_exp == 0

    def mul(self, other: RotatedPauliOp) -> RotatedPauliOp:
        """Canonical-form product with exact phase tracking."""
        if self.n != other.n:
            raise ValueError("vertex universes differ")
        combined = dict(self.twist)
        for v, a in other.twist:
            adj = -a if self.pauli.x >> v & 1 else a
            combined[v] = combined.get(v, 0.0) + adj
        return RotatedPauliOp.from_parts(self.pauli.mul(other.pauli), combined)

    def negated(self) -> RotatedPauliOp:
        return RotatedPauliOp(self.pauli.negated(), self.twist)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RotatedPauliOp):
            return NotImplemented
        if (
            self.pauli.n != other.pauli.n
            or self.pauli.x != other.pauli.x
            or self.pauli.z != other.pauli.z
            or self.pauli.phase_exp != other.pauli.phase_exp
        ):
            return False
        if len(self.twist) != len(other.twist):
            return False
        return all(
            va == vb and abs(aa - ab) < CLIFFORD_TOL
            for (va, aa), (vb, ab) in zip(self.twist, other.twist)
        )

    def render(self) -> str:
        """Canonical text form, e.g. ``+1 . Z1 X2 Z3 . twist{2: 0.7854}``."""
        base = self.pauli.render()
        if not self.twist:
            return base
        tw = ", ".join(f"{v + 1}: {a:.4f}" for v, a in self.twist)
        return f"{base} . twist{{{tw}}}"


def commutes(a: RotatedPauliOp, b: RotatedPauliOp) -> Commutation:
    """Classify the commutator of two rotated operators.

    Twist-free operands are decided by the symplectic parity of their Pauli
    parts; otherwise ``ab`` is compared with ``ba`` in canonical form.
    ``NEITHER`` can occur only when a twist overlaps an anticommuting support.
    """
    if not a.twist and not b.twist:
        if a.n != b.n:
            raise ValueError("vertex universes differ")
        if a.pauli.anticommutes(b.pauli):
            return Commutation.ANTICOMMUTE
        return Commutation.COMMUTE
    ab = a.mul(b)
    ba = b.mul(a)
    if ab == ba:
        return Commutation.COMMUTE
    if ab == ba.negated():
        return Commutation.ANTICOMMUTE
    return Commutation.NEITHER


def commutation_masks(
    terms: Sequence[RotatedPauliOp], op: RotatedPauliOp
) -> tuple[int, int]:
    """``(anti, neither)``: bit i of ``anti`` is set when ``terms[i]``
    anticommutes with ``op``, bit i of ``neither`` when it neither commutes
    nor anticommutes; every other term commutes with ``op``.

    A pair in which no twist of either operand sits on an X/Y letter of the
    other is decided by the symplectic parity of the Pauli parts, exactly:
    the Z-rotations then commute with the other operand's Pauli part, so
    ``ab`` and ``ba`` differ only by the Pauli parts' sign.  Only the other
    pairs go to :func:`commutes`.
    """
    p = op.pauli
    n, ox, oz, otw = p.n, p.x, p.z, op.twist_mask
    anti = neither = 0
    for i, t in enumerate(terms):
        q = t.pauli
        if q.n != n:
            raise ValueError("vertex universes differ")
        if t.twist_mask & ox or otw & q.x:
            rel = commutes(t, op)
            if rel is Commutation.ANTICOMMUTE:
                anti |= 1 << i
            elif rel is Commutation.NEITHER:
                neither |= 1 << i
        elif ((q.x & oz) ^ (q.z & ox)).bit_count() & 1:
            anti |= 1 << i
    return anti, neither


@dataclass(frozen=True, eq=False)
class SiteTable:
    """The terms of a list indexed by site: ``rows[v]`` is the bitmask over
    ``terms`` of those whose support holds site v."""

    terms: tuple[RotatedPauliOp, ...]
    rows: dict[int, int]

    @classmethod
    def of(cls, terms: Sequence[RotatedPauliOp]) -> SiteTable:
        rows: dict[int, int] = {}
        for i, t in enumerate(terms):
            for v in set_bits(t.support_mask):
                rows[v] = rows.get(v, 0) | 1 << i
        return cls(tuple(terms), rows)

    def overlapping(self, op: RotatedPauliOp, within: int = -1) -> list[RotatedPauliOp]:
        """The terms among the bits ``within`` whose support meets ``op``'s,
        in list order.  Every other term commutes with ``op``: operators on
        disjoint sites commute exactly."""
        mask = 0
        for v in set_bits(op.support_mask):
            mask |= self.rows.get(v, 0)
        return [self.terms[i] for i in set_bits(mask & within)]


def stabilizer_generator(graph: OpenGraph, v: int) -> PauliString:
    """Graph-state generator ``K_v = X_v prod_{w ~ v} Z_w`` (non-inputs only)."""
    if v in graph.inputs:
        raise ValueError(f"vertex {v + 1} is an input; generators exist on non-inputs only")
    if not 0 <= v < graph.n_vertices:
        raise ValueError(f"unknown vertex {v + 1}")
    x, z, _ = stabilizer_product(graph, (v,))
    return PauliString(graph.n_vertices, x, z)


def twisted_generator(graph: OpenGraph, v: int) -> RotatedPauliOp:
    """``K_v`` with ``X_v`` replaced by ``exp(-i theta_v Z_v) X_v``; an
    output carries no measurement angle, so its generator enters untwisted."""
    theta = graph.angles.get(v, 0.0)
    return RotatedPauliOp.from_parts(stabilizer_generator(graph, v), {v: theta})


def build_T(graph: OpenGraph, gf: Gflow, v: int) -> RotatedPauliOp:
    """``T_v``: product of twisted generators over the correcting set g(v).

    The untwisted product is :func:`agqc.graph.stabilizer_product`'s
    ``(-1)^e X_S Z_Odd(S)``, phase exponent ``2e - |x & z|`` (``XZ = -iY``).
    Each twist sits on its own generator's X site, which no other factor
    flips, so the twists ``{w: theta_w}`` fold once, in ``from_parts``.
    """
    if v not in gf.g:
        raise ValueError(f"vertex {v + 1} is an output (or unknown); no T_v exists")
    corr, n = gf.g[v], graph.n_vertices
    if not corr.isdisjoint(graph.inputs) or not all(0 <= w < n for w in corr):
        for w in sorted(corr):
            stabilizer_generator(graph, w)  # raises at the first w without a generator
    x, z, e = stabilizer_product(graph, corr)
    twist = {w: graph.angles[w] for w in corr if graph.angles.get(w)}  # zeros fold away
    return RotatedPauliOp.from_parts(PauliString(n, x, z, 2 * e - (x & z).bit_count()), twist)


def stabilizer_set(graph: OpenGraph, gf: Gflow) -> dict[int, RotatedPauliOp]:
    """All ``T_v`` keyed by vertex, in measurement order (layer, then index)."""
    return {v: build_T(graph, gf, v) for v in gf.measurement_order()}


def one_step_update(
    stabs: Mapping[int, RotatedPauliOp], gf: Gflow
) -> dict[int, RotatedPauliOp]:
    """Sweep every T_v forward through later layers until it commutes with
    all other replacement targets, producing the one-step set T~_v.

    For each vertex v and each later layer in time order: whenever the
    current operator carries a Z or Y letter on a vertex w of that layer it
    is multiplied by T_w, then the sweep proceeds to the next layer until
    the outputs are reached.

    Requires Clifford angles: at general angles each sweep would trade one
    Z letter for an exponential pile of terms, so the update is refused.
    The Clifford case is recognised by all inputs being twist-free (general
    angles fold away exactly when they are multiples of pi/2).
    """
    for v, op in stabs.items():
        if op.twist:
            raise NonCliffordAngleError(
                f"T_{v} carries a non-Clifford twist {op.twist_map}; the symbolic "
                "one-step update takes exponential time at general angles"
            )
    by_layer: dict[int, list[int]] = {}
    for v in stabs:
        by_layer.setdefault(gf.layer[v], []).append(v)
    layers = sorted(by_layer)
    updated: dict[int, RotatedPauliOp] = {}
    for v in sorted(stabs, key=lambda u: (gf.layer[u], u)):
        op = stabs[v]
        for lk in layers:
            if lk <= gf.layer[v]:
                continue
            for w in sorted(by_layer[lk]):
                if op.pauli.z >> w & 1:
                    op = op.mul(stabs[w])
        updated[v] = op
    return updated


# ---------------------------------------------------------------------------
# dense representations (used by the simulator and as a test oracle)


def _parity(v: np.ndarray) -> np.ndarray:
    """Bit parity of each non-negative entry, as int64 so that it shifts
    past bit 7 (``np.bitwise_count`` gives uint8)."""
    return (np.bitwise_count(v) & 1).astype(np.int64)


def _action(op: RotatedPauliOp | PauliString) -> tuple[np.ndarray, np.ndarray]:
    """``(src, coeff)`` with ``op |src[i]> = coeff[i] |i>`` for every basis
    index i, in order.

    Basis convention: bit v of the index is the computational state of
    vertex v.
    """
    if isinstance(op, PauliString):
        op = RotatedPauliOp.from_pauli(op)
    p = op.pauli
    idx = np.arange(1 << p.n, dtype=np.int64)
    src = idx ^ p.x
    coeff = p.phase * (1j) ** ((p.x & p.z).bit_count()) * (1.0 - 2.0 * _parity(src & p.z))
    for v, a in op.twist:
        bit = idx >> v & 1
        coeff = coeff * np.where(bit, np.exp(1j * a), np.exp(-1j * a))
    return src, coeff


def apply_op(op: RotatedPauliOp | PauliString, state: np.ndarray) -> np.ndarray:
    """Apply the operator to a state vector (or stacked columns) in O(2^n)."""
    if state.shape[0] != 1 << op.n:
        raise ValueError(f"state dimension {state.shape[0]} != 2**{op.n}")
    src, coeff = _action(op)
    return (coeff[:, None] if state.ndim == 2 else coeff) * state[src]


def to_matrix(op: RotatedPauliOp | PauliString) -> np.ndarray:
    """Dense matrix of the operator (exact, one nonzero per column)."""
    src, coeff = _action(op)
    dim = src.shape[0]
    mat = np.zeros((dim, dim), dtype=complex)
    mat[np.arange(dim), src] = coeff
    return mat


def projector_apply(ops: Iterable[RotatedPauliOp | PauliString], state: np.ndarray) -> np.ndarray:
    """Apply ``prod (1 + W)/2`` over the given involutions to a state."""
    out = state.astype(complex)
    for w in ops:
        out = 0.5 * (out + apply_op(w, out))
    return out
