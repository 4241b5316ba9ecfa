"""The simulator's memory budget.

Every method that allocates state- or matrix-sized arrays checks its own
estimate against :data:`MEMORY_BUDGET` before allocating.  An estimate over
budget raises :class:`SizeCapError`, which the CLI reports as exit 2.
"""

from __future__ import annotations

from decimal import Decimal

#: Bytes that the arrays of one simulation may hold at once.
MEMORY_BUDGET = 1 << 30

#: Bytes of one stacked chunk of block exponentials or spectra.
CHUNK_BYTES = 1 << 18

#: ``2^n``-entry vectors that each state column of a pass over several tau
#: holds at its peak: the column, ``alpha psi``, ``I_v psi`` and ``beta I_v
#: psi`` on a pair step, or its block coordinates, their Walsh copy and the
#: propagated stack.  On the 12-qubit reordered fixed chain tracemalloc reads,
#: with the state, 7.3 on a blocks step at 2 columns (one tau), 5.4 at 6 and
#: 4.4 at 16, and 6.8, 5.6 and 5.2 on a pair step: none is spare at 2.
PASS_COLUMN_VECTORS = 7


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


def pass_columns(n: int) -> int:
    """The most state columns of ``2^n`` entries that one pass of
    :func:`agqc.sim.evolve_many` may hold (below 1 when none fits), at
    :data:`PASS_COLUMN_VECTORS` vectors a column."""
    return MEMORY_BUDGET // (PASS_COLUMN_VECTORS * 16 << n)
