"""The simulator's memory budget.

Every method that allocates state- or matrix-sized arrays checks its own
estimate against :data:`MEMORY_BUDGET` before allocating.  An estimate over
budget raises :class:`SizeCapError`, which the CLI reports as exit 2.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Iterable

#: Bytes that the arrays of one simulation may hold at once.
MEMORY_BUDGET = 1 << 30

#: Bytes of one stacked chunk of block exponentials or spectra.
CHUNK_BYTES = 1 << 18


class SizeCapError(ValueError):
    """The request would allocate past :data:`MEMORY_BUDGET`."""


def approx(n: float | Decimal) -> str:
    """``n`` (an int of any size, a float or a Decimal) to three significant
    digits, so that a count past the float range prints short, not as inf."""
    d = Decimal(n)
    if d.is_finite() and d.adjusted() >= 300:  # near or past the float range
        mantissa, exponent = f"{d:.2e}".split("e")
        return f"{float(mantissa):g}e{exponent}"
    return f"{float(d):.3g}"


def check_bytes(n_bytes: float, what: str) -> None:
    """Raise SizeCapError when ``n_bytes`` (an int of any size, or a float)
    exceeds the budget."""
    if n_bytes > MEMORY_BUDGET:
        raise SizeCapError(
            f"{what} need ~{approx(Decimal(n_bytes) / (1 << 20))} MiB, over the "
            f"{MEMORY_BUDGET >> 20} MiB memory budget"
        )


def check_vectors(n: int, columns: int) -> None:
    """``columns`` ``2^n``-entry state vectors plus their Pauli-action
    temporaries."""
    check_bytes((2 * columns + 4) * 16 << n, f"{columns} {n}-qubit state vectors")


def pass_bytes(n: int, columns: int, block: int, substeps: Iterable[int]) -> int:
    """The charge of an :func:`agqc.sim.evolve_many` pass, set from traced
    peaks: 84 bytes (5.25 vectors) an entry of each of its ``2^n``-entry state
    columns and 64 more, its largest block form (``block``,
    :func:`agqc.sectors.block_bytes`), and 40 bytes a substep of its distinct
    substep counts (16 for each count's CF4 weights, and 24 while one is built)."""
    return ((84 * columns + 64) << n) + block + 40 * sum(substeps)


def evolve_passes(n: int, m: int, block: int, counts: Iterable[list[int]]) -> list[list[list[int]]]:
    """The substep counts of tau specs of ``m`` columns each, drawn from
    ``counts``, in consecutive passes of as many specs as :func:`pass_bytes`
    admits.  Every refusal comes before the first pass: one spec's columns
    and block form before the first count is drawn, and each spec's own pass
    as it is drawn."""
    what = f"a pass of {m} {n}-qubit state vectors, its block forms and CF4 weights"
    check_bytes(pass_bytes(n, m, block, ()), what)
    passes: list[list[list[int]]] = []
    for subs in counts:
        held = [*passes[-1], subs] if passes else []
        if not held or pass_bytes(n, m * len(held), block, set().union(*held)) > MEMORY_BUDGET:
            check_bytes(pass_bytes(n, m, block, set(subs)), what)
            passes.append([])
        passes[-1].append(subs)
    return passes
