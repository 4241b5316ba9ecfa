"""Tiny GF(2) linear algebra on int bitmasks."""

from __future__ import annotations


def set_bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def solve_unit_columns(rows: list[int]) -> list[int | None]:
    """Solve ``A x = e_u`` over GF(2) for every unit vector ``e_u``.

    ``rows[i]`` is the bitmask of row *i* of ``A`` (bit *j* = column *j*).
    Entry *u* of the result is one solution bitmask for ``e_u`` (1 in row
    *u*) with free variables set to 0, or ``None`` when that system is
    inconsistent.  One Gauss-Jordan pass on ``[A | I]`` serves every
    right-hand side: the pivot columns (ascending, each outside the span of
    the ones before it) depend only on ``A``, and given them the solution
    with free variables 0 is unique, so each entry equals a one-column solve.

    The pass touches only the frontier of ``A``: a zero row never pivots
    and leaves only its own ``e_u`` inconsistent, and a column that no row
    holds never pivots, its variable staying 0.
    """
    live = [u for u, row in enumerate(rows) if row]
    m = len(live)
    aug = [(rows[u] << m) | (1 << i) for i, u in enumerate(live)]
    held = 0
    for row in rows:
        held |= row
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in set_bits(held):
        bit = 1 << (c + m)
        pivot = next((i for i in range(r, m) if aug[i] & bit), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        for i in range(m):
            if i != r and aug[i] & bit:
                aug[i] ^= aug[r]
        pivots.append((c, r))
        r += 1
    # rows without a pivot read 0 = (transformed e_u) bit: any 1 is inconsistent
    inconsistent = 0
    for i in range(r, m):
        inconsistent |= aug[i]
    solutions: list[int | None] = [None] * len(rows)
    for j, u in enumerate(live):
        if inconsistent >> j & 1:
            continue
        x = 0
        for c, i in pivots:
            if aug[i] >> j & 1:
                x |= 1 << c
        solutions[u] = x
    return solutions


def kernel_filter(basis: list[int], constraint: int) -> list[int]:
    """Basis of ``{v in span(basis) : parity(v & constraint) == 0}``.

    Standard one-constraint reduction: pick one basis vector with odd
    overlap as pivot, fold it into the others, drop it.
    """
    odd = [v for v in basis if (v & constraint).bit_count() & 1]
    even = [v for v in basis if not (v & constraint).bit_count() & 1]
    if not odd:
        return list(basis)
    pivot = odd[0]
    return even + [v ^ pivot for v in odd[1:]]


def symplectic_product(a: int, b: int, n: int) -> int:
    """``<a, b> = x_a . z_b + z_a . x_b`` (mod 2) for vectors ``x | z << n``:
    1 exactly when the two Pauli strings anticommute."""
    mask = (1 << n) - 1
    return ((a & (b >> n) & mask) ^ ((a >> n) & b & mask)).bit_count() & 1


def maximal_isotropic(basis: list[int], n: int) -> list[int]:
    """Basis of a maximal isotropic subspace of ``span(basis)``: a largest set
    of independent, pairwise commuting Pauli strings in the span.

    Symplectic Gram-Schmidt: a vector with a partner ``b`` (``<a, b> = 1``)
    makes a hyperbolic pair, of which ``a`` is kept and the rest of the work
    list is made orthogonal to both; a vector with no partner lies in the
    radical and is kept too.
    """
    work = list(basis)
    chosen = []
    while work:
        a = work.pop()
        b = next((w for w in work if symplectic_product(a, w, n)), None)
        if b is not None:
            work.remove(b)
            work = [
                w
                ^ (a if symplectic_product(w, b, n) else 0)
                ^ (b if symplectic_product(w, a, n) else 0)
                for w in work
            ]
        chosen.append(a)
    return chosen
