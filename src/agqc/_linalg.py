"""Dense linear algebra shared by the propagators."""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .budget import CHUNK_BYTES


def _two_level(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(h0, z, h10, r)`` of a 2x2 Hermitian stack: ``h = h0 + n.sigma`` with
    ``n = (Re h10, Im h10, z)`` and ``r = |n|``, elementwise."""
    h00, h11, h10 = h[..., 0, 0].real, h[..., 1, 1].real, h[..., 1, 0]
    h0, z = 0.5 * (h00 + h11), 0.5 * (h00 - h11)
    return h0, z, h10, np.hypot(z, np.abs(h10))


def eigvalsh(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of Hermitian h (or a stack of them); for 2x2
    matrices in closed form, ``h0 -+ r``."""
    if h.shape[-1] != 2:
        return np.linalg.eigvalsh(h)
    h0, _, _, r = _two_level(h)
    return np.stack([h0 - r, h0 + r], axis=-1)


def expmi(h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(-i h) for Hermitian h (or a stack of them), by diagonalization;
    unitary to roundoff.  Written into ``out`` when given, which may be h
    itself: one stack fewer."""
    w, v = np.linalg.eigh(h)
    phased = v * np.exp(-1j * w)[..., None, :]
    return np.matmul(phased, np.swapaxes(np.conj(v, out=v), -1, -2), out=out)


def ordered_apply(u: np.ndarray, c: np.ndarray | None) -> np.ndarray:
    """``u[-1] ... u[1] u[0] c`` for a stack ``u`` of square factors, by
    pairwise halving of the stack; c None is the identity."""
    while u.shape[0] > 1:
        if u.shape[0] % 2:
            c, u = u[0] if c is None else u[0] @ c, u[1:]
        u = u[1::2] @ u[::2]
    return u[0] if c is None else u[0] @ c


# SU(2) elements as pairs: (alpha, beta) is [[alpha, -conj(beta)], [beta, conj(alpha)]].


def su2_exp(z: np.ndarray, h10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``exp(-i n.sigma)`` with ``n = (Re h10, Im h10, z)`` as a pair,
    elementwise: ``(cos r - i sin(r)/r z, -i sin(r)/r h10)`` with ``r = |n|``.

    Both come from ``t = tan(r/2)``, which costs a fraction of ``sin`` or
    ``cos``: ``cos r = 1 - 2 t^2/(1 + t^2)`` and ``sin(r)/r = 2t/((1 + t^2)
    r)``.  Taking cos r as 1 minus a small term, rather than as ``(1 -
    t^2)/(1 + t^2)``, keeps its rounding unbiased at small r, where a
    biased error would add up over thousands of factors.  r is raised to
    1e-200 at least, where tan is the identity and both are 1 to within
    1e-400, so r = 0 needs no branch.  r is the root of a sum of squares,
    so ``|n|`` must stay below ~1e150.
    """
    # real buffers updated in place, the last two of them freed before the
    # complex outputs are formed
    r = z * z
    r += (h10 * h10.conj()).real
    np.sqrt(r, out=r)
    np.maximum(r, 1e-200, out=r)
    t = np.tan(0.5 * r)
    sin2 = t * t
    d = sin2 + 1.0
    sin2 /= d  # sin^2(r/2)
    r *= d
    del d
    t += t
    t /= r  # sin(r)/r
    del r
    return (1.0 - (sin2 + sin2)) - 1j * (t * z), (-1j * t) * h10


def su2_mul(
    a1: np.ndarray, b1: np.ndarray, a0: np.ndarray, b0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The pair of the product ``U1 U0`` of the pairs ``(a1, b1)`` and ``(a0, b0)``."""
    return a1 * a0 - b1.conj() * b0, b1 * a0 + a1.conj() * b0


@functools.lru_cache(maxsize=32)
def halving_order(n: int) -> np.ndarray:
    """The layout of ``n`` factors, by their index in product order, that
    makes every level of :func:`_su2_halve`'s pairwise halving multiply two
    contiguous halves: a level of odd length first takes off its first
    entry, and the entries at ``h + k`` and ``k`` of ``2h`` are adjacent
    factors whose product lands at k of the next level."""
    odd = []  # the levels' parities, top down
    while n > 1:
        odd.append(n % 2)
        n = n - 1 if n % 2 else n // 2
    order = np.arange(n)
    for level_odd in reversed(odd):
        order = (np.concatenate([[0], order + 1]) if level_odd
                 else np.concatenate([2 * order, 2 * order + 1]))
    order.flags.writeable = False
    return order


def _su2_halve(
    alpha: np.ndarray, beta: np.ndarray, v: tuple[np.ndarray, np.ndarray] | None
) -> tuple[np.ndarray, np.ndarray]:
    """The pair of ``U[..., -1] ... U[..., 1] U[..., 0] V`` for the pairs U
    along the last axis of ``(alpha, beta)``, laid out in
    :func:`halving_order`, and the pair ``v`` (None for the identity), by
    pairwise halving of that axis."""
    while alpha.shape[-1] > 1:
        if alpha.shape[-1] % 2:
            first = alpha[..., 0], beta[..., 0]
            v = first if v is None else su2_mul(*first, *v)
            alpha, beta = alpha[..., 1:], beta[..., 1:]
        h = alpha.shape[-1] // 2
        alpha, beta = su2_mul(alpha[..., h:], beta[..., h:], alpha[..., :h], beta[..., :h])
    last = alpha[..., 0], beta[..., 0]
    return last if v is None else su2_mul(*last, *v)


def sweep_chunk(entries: int) -> int:
    """The weights in one chunk of :func:`su2_sweep` over ``entries`` rows,
    at least one: alpha and beta each hold at most a quarter of
    ``CHUNK_BYTES`` (64 KiB), below glibc's default mmap threshold, so that
    a sweep's temporaries are not mapped and returned to the system at
    every call."""
    return max(1, CHUNK_BYTES // (64 * entries))


def su2_sweep(
    za: np.ndarray, zb: np.ndarray, ha: np.ndarray, hb: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The pair of ``prod_w exp(-i n(w).sigma)`` over ``weights`` in order,
    for each entry of the 1-D stacks, with ``z = za + w zb`` and ``h10 = ha +
    w hb`` (:func:`su2_exp`).  Each entry's exponentials are one contiguous
    row of an ``(entries, weights)`` array, in chunks of
    :func:`sweep_chunk` weights; the weights are taken in
    :func:`halving_order`, so that the exponentials need no gather."""
    za, zb, ha, hb = (x[:, None] for x in (za, zb, ha, hb))
    u = None
    per = sweep_chunk(za.shape[0])
    for lo in range(0, weights.shape[0], per):
        w = weights[lo:lo + per]
        w = w[halving_order(w.shape[0])]
        u = _su2_halve(*su2_exp(za + w * zb, ha + w * hb), u)
    return u


def _distinct_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` for the rows of the 2-D array x grouped by byte
    equality: ``x[first]`` holds one row of each class and
    ``x[first][inverse] == x``.  Callers that group floats by value
    normalize -0.0 to 0.0 first."""
    rows = np.ascontiguousarray(x).view(np.dtype((np.void, x.itemsize * x.shape[1])))[:, 0]
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    new = np.empty(rows.shape, dtype=bool)
    new[0], new[1:] = True, rows[1:] != rows[:-1]
    inverse = np.empty(rows.shape, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def distinct_blocks(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` of :func:`_distinct_rows` for the pairs of
    matrices ``(a[j], b[j])`` of two stacks, grouped by byte equality:
    each stack is grouped on its own, then the pairs of their classes, so
    that no joined copy of the two is made."""
    rows = [_distinct_rows(x.reshape(x.shape[0], -1))[1] for x in (a, b)]
    return _distinct_rows(np.stack(rows, axis=1))


#: 2 pi in long double, as the sum of its double and the rest.
_TWO_PI = np.longdouble(2.0 * math.pi) + np.longdouble(2.4492935982947064e-16)


def _turn(angle: np.ndarray) -> np.ndarray:
    """A long-double angle (or array of them) reduced into [-pi, pi] in long
    double, as float: an exponential of it takes no rounding error from
    the turns it drops."""
    return (angle - _TWO_PI * np.round(angle / _TWO_PI)).astype(float)


def _parallel(v: np.ndarray) -> np.ndarray:
    """For each row ``(u, w)`` of the stack v of 3-vector pairs, whether u and
    w are exactly parallel (a zero vector is parallel to every vector).

    Where ``u x w`` is exactly zero its products ``u_i w_j`` and ``u_j w_i``
    are equal reals, which round alike, so the rounded cross product is
    zero too; the rows where it is are the candidates, and each is
    confirmed in exact rational arithmetic.  A rounded zero alone does not
    suffice: ``(1, fl(1/3))`` and ``(3, 1)`` give one."""
    u, w = v[:, 0], v[:, 1]
    cross = u[:, [1, 2, 0]] * w[:, [2, 0, 1]] - u[:, [2, 0, 1]] * w[:, [1, 2, 0]]
    out = ~cross.any(axis=1)
    for c in np.flatnonzero(out & u.any(axis=1) & w.any(axis=1)):
        (u1, u2, u3), (w1, w2, w3) = ([Fraction(x) for x in row] for row in v[c].tolist())
        out[c] = u2 * w3 == u3 * w2 and u3 * w1 == u1 * w3 and u1 * w2 == u2 * w1
    return out


class Su2Classes(NamedTuple):
    """A stack of 2x2 Hermitian pairs (A, B) grouped into classes by
    :func:`su2_classes`: ``h0`` holds each pair's scalar parts as a row
    ``(a0, b0)``; row c of ``z`` and ``h10`` holds the traceless parts of
    class c's representative, A's then B's; ``swept`` marks the classes
    whose traceless A and B parts are not exactly parallel (a zero part is
    parallel to every part), whose ramp factors need not commute; pair j is class
    ``inverse[j]`` conjugated by a Pauli, which ``conj`` and ``neg`` name."""

    h0: np.ndarray
    z: np.ndarray
    h10: np.ndarray
    swept: np.ndarray
    inverse: np.ndarray
    conj: np.ndarray
    neg: np.ndarray


def su2_classes(a: np.ndarray, b: np.ndarray) -> Su2Classes:
    """The 2x2 Hermitian stacks a and b as their scalar parts and their
    traceless pairs grouped up to a joint conjugation by I, X, Y or Z.

    A pair's traceless part is the row ``(z, Re h10, Im h10)`` of A and then
    of B.  Z conjugation negates h10, X negates z and Im h10, Y negates z
    and Re h10.  Each pair is mapped to the one member of its class whose
    first nonzero z entry (A's, else B's) is positive, then its first
    nonzero Re h10 entry, then its first nonzero Im h10 entry, as far as
    those are free.  Sign flips are exact, so class ``inverse[j]`` is pair j
    conjugated; ``conj`` marks an X or Y conjugation and ``neg`` a Z or X
    one.
    """
    # per block, of A then B: Re and Im of h00, h01, h10 and h11
    x = np.stack([a, b], axis=1).astype(complex, copy=False).view(float).reshape(-1, 2, 8)
    v = np.stack([0.5 * (x[..., 0] - x[..., 6]), x[..., 4], x[..., 5]], axis=-1)
    lead = np.where(v[:, 0] != 0, v[:, 0], v[:, 1])
    free, down = (lead != 0).T, (lead < 0).T
    flip_r = np.where(free[1], down[1], down[2] ^ down[0])
    conj = np.where(free[0], down[0], flip_r ^ down[2])
    neg = conj ^ flip_r
    key = (v * (1.0 - 2.0 * np.stack([conj, flip_r, neg], axis=-1))[:, None]).reshape(-1, 6)
    key += 0.0  # -0.0 to 0.0
    first, inverse = _distinct_rows(key)
    key = key[first].reshape(-1, 2, 3)
    return Su2Classes(0.5 * (x[..., 0] + x[..., 6]), key[..., 0], key[..., 1] + 1j * key[..., 2],
                      ~_parallel(key), inverse, conj, neg)


def su2_class_ramp(
    classes: Su2Classes, dt: float, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``prod_w exp(-i dt (A/2 + w B))`` over ``weights`` in order, for each
    pair of the 2x2 Hermitian stacks grouped into ``classes``, as ``(phase,
    alpha, beta)``: the product is ``phase`` times the pair.

    ``h0``, ``z`` and ``h10`` of ``A/2 + w B`` are linear in w, so no matrix
    is formed; the scalar parts commute with everything and add up to one
    phase, ``exp(-i dt (W a0/2 + b0 sum w))`` for W weights.  Each swept
    class is ramped once (:func:`su2_sweep`).  The factors of any other
    class commute, as its traceless A and B parts are exactly parallel, and
    their product is the one exponential ``exp(-i dt (W a/2 + b sum w).sigma)``.
    Its angle, like the phase's, reaches ~1e3 rad at tau = 1000, so both are
    formed in long double from the long-double sum of the weights and
    reduced mod 2 pi (:func:`_turn`) before the exponential.  A class's
    pair maps back to each member exactly: ``P U P`` is ``(alpha, -beta)``
    for Z, ``(conj alpha, -conj beta)`` for X and ``(conj alpha, conj
    beta)`` for Y.
    """
    h0, z, h10, swept, inverse, conj, neg = classes
    # dt W/2 and dt sum w, in long double
    count = np.array([0.5 * weights.shape[0], weights.sum(dtype=np.longdouble)]) * np.longdouble(dt)
    alpha, beta = np.empty((2, z.shape[0]), dtype=complex)
    flat = ~swept
    if flat.any():
        n = np.stack([z[flat], h10[flat].real, h10[flat].imag], axis=-1)
        n = count @ n.astype(np.longdouble)  # dt (W a/2 + b sum w), on the class's axis
        angle = np.sqrt(np.sum(n * n, axis=1))
        n *= np.divide(_turn(angle), angle, out=np.zeros_like(angle), where=angle > 0)[:, None]
        n = n.astype(float)
        alpha[flat], beta[flat] = su2_exp(n[:, 0], n[:, 1] + 1j * n[:, 2])
    if swept.any():
        scale = np.array([0.5 * dt, dt])
        alpha[swept], beta[swept] = su2_sweep(*(z[swept] * scale).T, *(h10[swept] * scale).T,
                                              weights)
    u = np.stack([alpha[inverse], beta[inverse]])
    np.conjugate(u, out=u, where=conj)
    np.negative(u[1], out=u[1], where=neg)
    return np.exp(-1j * _turn(h0 @ count)), u[0], u[1]
