"""Dense linear algebra shared by the propagators."""

from __future__ import annotations

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


def expmi(h: np.ndarray) -> np.ndarray:
    """exp(-i h) for Hermitian h (or a stack of them), by diagonalization;
    unitary to roundoff."""
    w, v = np.linalg.eigh(h)
    phased = v * np.exp(-1j * w)[..., None, :]
    return phased @ np.swapaxes(np.conj(v, out=v), -1, -2)  # in place: one stack fewer


def ordered_apply(u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``u[-1] ... u[1] u[0] c`` for a stack ``u`` of square factors, by
    pairwise halving of the stack."""
    while u.shape[0] > 1:
        if u.shape[0] % 2:
            c, u = u[0] @ c, u[1:]
        u = u[1::2] @ u[::2]
    return u[0] @ c


# SU(2) elements as pairs: (alpha, beta) is [[alpha, -conj(beta)], [beta, conj(alpha)]].


def su2_exp(z: np.ndarray, h10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``exp(-i n.sigma)`` with ``n = (Re h10, Im h10, z)`` as a pair,
    elementwise: ``(cos r - i sin(r)/r z, -i sin(r)/r h10)`` with ``r = |n|``."""
    r = np.hypot(z, np.abs(h10))
    safe = np.where(r > 0, r, 1.0)
    sinc = np.where(r > 0, np.sin(safe) / safe, 1.0)
    return np.cos(r) - 1j * sinc * z, -1j * sinc * h10


def su2_mul(
    a1: np.ndarray, b1: np.ndarray, a0: np.ndarray, b0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The pair of the product ``U1 U0`` of the pairs ``(a1, b1)`` and ``(a0, b0)``."""
    return a1 * a0 - b1.conj() * b0, b1 * a0 + a1.conj() * b0


def su2_ordered(
    alpha: np.ndarray, beta: np.ndarray, v: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The pair of ``U[-1] ... U[1] U[0] V`` for the pairs U along axis 0 of
    ``(alpha, beta)`` and the pair ``v``, by pairwise halving of the stack."""
    while alpha.shape[0] > 1:
        if alpha.shape[0] % 2:
            v, alpha, beta = su2_mul(alpha[0], beta[0], *v), alpha[1:], beta[1:]
        alpha, beta = su2_mul(alpha[1::2], beta[1::2], alpha[::2], beta[::2])
    return su2_mul(alpha[0], beta[0], *v)


def su2_sweep(
    za: np.ndarray, zb: np.ndarray, ha: np.ndarray, hb: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The pair of ``prod_w exp(-i n(w).sigma)`` over ``weights`` in order,
    elementwise over the stacks, with ``z = za + w zb`` and ``h10 = ha + w hb``
    (:func:`su2_exp`).  Chunks of weights keep the pairs within ``CHUNK_BYTES``."""
    u = np.ones(za.shape, dtype=complex), np.zeros(za.shape, dtype=complex)
    per = max(1, CHUNK_BYTES // (32 * za.size))
    for lo in range(0, weights.shape[0], per):
        w = weights[lo:lo + per, None]
        u = su2_ordered(*su2_exp(za + w * zb, ha + w * hb), u)
    return u


def _distinct_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` for the rows of the 2-D float array x grouped by
    byte equality: ``x[first]`` holds one row of each class and
    ``x[first][inverse] == x``.  Callers normalize -0.0 to 0.0 first."""
    rows = np.ascontiguousarray(x).view(np.dtype((np.void, x.itemsize * x.shape[1])))[:, 0]
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    new = np.empty(rows.shape, dtype=bool)
    new[0], new[1:] = True, rows[1:] != rows[:-1]
    inverse = np.empty(rows.shape, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _su2_classes(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The 2x2 Hermitian stacks a and b as ``(a0, b0, key, inverse, conj,
    neg)``: their scalar parts, and their traceless pairs grouped up to a
    joint conjugation by I, X, Y or Z.

    A pair's traceless part is the row ``(z, Re h10, Im h10)`` of A and then
    of B.  Z conjugation negates h10, X negates z and Im h10, Y negates z
    and Re h10.  Each pair is mapped to the one member of its class whose
    first nonzero z entry (A's, else B's) is positive, then its first
    nonzero Re h10 entry, then its first nonzero Im h10 entry, as far as
    those are free.  Sign flips are exact, so row ``inverse[j]`` of the
    ``(classes, 6)`` array ``key`` is pair j conjugated; ``conj`` marks an
    X or Y conjugation and ``neg`` a Z or X one.
    """
    (a0, az, a10, _), (b0, bz, b10, _) = _two_level(a), _two_level(b)
    v = np.stack([az, a10.real, a10.imag, bz, b10.real, b10.imag], axis=-1).reshape(-1, 2, 3)
    lead = np.where(v[:, 0] != 0, v[:, 0], v[:, 1])
    free, down = (lead != 0).T, (lead < 0).T
    flip_r = np.where(free[1], down[1], down[2] ^ down[0])
    conj = np.where(free[0], down[0], flip_r ^ down[2])
    neg = conj ^ flip_r
    key = (v * (1.0 - 2.0 * np.stack([conj, flip_r, neg], axis=-1))[:, None]).reshape(-1, 6)
    key += 0.0  # -0.0 to 0.0
    first, inverse = _distinct_rows(key)
    return a0, b0, key[first], inverse, conj, neg


def su2_ramp(
    a: np.ndarray, b: np.ndarray, dt: float, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """``prod_w exp(-i dt (A/2 + w B))`` over ``weights`` in order, for each
    2x2 Hermitian pair of the stacks ``a`` and ``b``, as ``(phase, alpha,
    beta, distinct)``: the product is ``phase`` times the pair, and
    ``distinct`` the number of traceless problems actually ramped.

    ``h0``, ``z`` and ``h10`` of ``A/2 + w B`` are linear in w, so no matrix
    is formed (:func:`su2_sweep`); the scalar parts commute with everything
    and add up to one phase, ``exp(-i dt (W a0/2 + b0 sum w))`` for W
    weights.  Blocks whose traceless parts agree up to a Pauli conjugation P
    (:func:`_su2_classes`) share one sweep, mapped back exactly: ``P U P``
    is ``(alpha, -beta)`` for Z, ``(conj alpha, -conj beta)`` for X and
    ``(conj alpha, conj beta)`` for Y.
    """
    a0, b0, key, inverse, conj, neg = _su2_classes(a, b)
    za, ra, ia, zb, rb, ib = key.T
    u = su2_sweep(0.5 * dt * za, dt * zb, 0.5 * dt * (ra + 1j * ia), dt * (rb + 1j * ib), weights)
    u = np.array(u)[:, inverse]
    np.conjugate(u, out=u, where=conj)
    np.negative(u[1], out=u[1], where=neg)
    phase = np.exp(-1j * dt * (0.5 * weights.shape[0] * a0 + weights.sum() * b0))
    return phase, u[0], u[1], key.shape[0]
