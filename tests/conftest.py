"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math
from typing import Iterable

import numpy as np
import pytest

from agqc.gflow import Gflow
from agqc.graph import OpenGraph, Plane, make_graph
from agqc.pauli import commutation_masks


def chain_gflow(n: int) -> Gflow:
    """The natural chain gflow g(v) = {v+1}, one vertex per layer."""
    return Gflow(
        {v: frozenset({v + 1}) for v in range(n - 1)},
        {v: v for v in range(n - 1)},
    )


def cluster_gflow(rows: int, cols: int) -> Gflow:
    """Column-by-column cluster gflow g(v) = {right neighbour}."""
    g = {}
    layer = {}
    for c in range(cols - 1):
        for r in range(rows):
            v = c * rows + r
            g[v] = frozenset({(c + 1) * rows + r})
            layer[v] = c
    return Gflow(g, layer)


def in_span(basis: list[int], target: int) -> bool:
    """Membership of ``target`` in the GF(2) span of ``basis``."""
    work = list(basis)
    x = target
    for c in range(max((v.bit_length() for v in work + [x]), default=0)):
        bit = 1 << c
        pivot = next((v for v in work if v & bit), None)
        if pivot is None:
            continue
        work = [v ^ pivot if (v & bit and v is not pivot) else v for v in work]
        if x & bit:
            x ^= pivot
        work.remove(pivot)
    return x == 0


def commuting_replacement_oracle(step) -> bool:
    """The commuting-replacement verdict with every static term checked
    against every mover, whatever their supports: each removed/introduced
    pair anticommutes and every other pairing of step terms commutes."""
    if step.strip or set(step.removed) != set(step.introduced):
        return False
    items = sorted(step.removed)
    removed = [step.removed[v] for v in items]
    introduced = [step.introduced[v] for v in items]
    for i, (r, x) in enumerate(zip(removed, introduced)):
        if commutation_masks(removed, x) != (1 << i, 0):
            return False
        if any(commutation_masks(removed[i + 1:], r)) or any(
            commutation_masks(introduced[i + 1:], x)
        ):
            return False
    return not any(any(commutation_masks(step.static_terms, m)) for m in removed + introduced)


def random_open_graph(rng: np.random.Generator, n: int) -> OpenGraph:
    """Random connected-ish open graph with |I| <= |O|, random XY angles."""
    edges = set()
    for v in range(1, n):
        w = int(rng.integers(0, v))
        edges.add((w, v))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        a, b = rng.choice(n, size=2, replace=False)
        edges.add((min(int(a), int(b)), max(int(a), int(b))))
    n_out = int(rng.integers(1, max(2, n // 2 + 1)))
    n_in = int(rng.integers(0, n_out + 1))
    perm = [int(v) for v in rng.permutation(n)]
    outputs = perm[:n_out]
    inputs = perm[n_out:n_out + n_in]
    angles = {
        v: float(rng.uniform(0, 2 * math.pi))
        for v in range(n)
        if v not in set(outputs)
    }
    return make_graph(n, edges, inputs, outputs, angles)


def odd_connectivity(graph: OpenGraph, vertex_set: Iterable[int], v: int) -> bool:
    """True when ``v`` has an odd number of edges into ``vertex_set``: the
    gflow oracles' own reading of the axioms' Odd(.) sets."""
    if not 0 <= v < graph.n_vertices:
        raise ValueError(f"unknown vertex {v}")
    mask = 0
    for w in vertex_set:
        if not 0 <= w < graph.n_vertices:
            raise ValueError(f"unknown vertex {w}")
        mask |= 1 << w
    return bool((graph.adjacency[v] & mask).bit_count() & 1)


def gflow_exists_bruteforce(graph: OpenGraph) -> bool:
    """Exhaustive gflow existence check for graphs with few non-outputs.

    Enumerates total orders of the non-outputs; given an order, each vertex
    independently needs some correcting set obeying G1-G3 (with layers read
    off the order), so existence factorises per vertex.
    """
    non_out = list(graph.non_outputs)
    assert len(non_out) <= 6, "oracle is exponential; keep it small"
    non_inputs = [v for v in graph.vertices if v not in set(graph.inputs)]
    for order in itertools.permutations(non_out):
        pos = {v: i for i, v in enumerate(order)}
        ok = True
        for v in non_out:
            found = False
            for k in range(1 << len(non_inputs)):
                corr = {non_inputs[i] for i in range(len(non_inputs)) if k >> i & 1}
                if _axioms_hold(graph, pos, v, corr):
                    found = True
                    break
            if not found:
                ok = False
                break
        if ok:
            return True
    return False


def _axioms_hold(graph: OpenGraph, pos: dict[int, int], v: int, corr: set[int]) -> bool:
    inf = len(pos)
    for w in corr:
        if w != v and pos.get(w, inf) <= pos[v]:
            return False
    for w in pos:
        if w != v and pos[w] <= pos[v] and odd_connectivity(graph, corr, w):
            return False
    plane = graph.planes.get(v, Plane.XY)
    in_own = v in corr
    odd_self = odd_connectivity(graph, corr, v)
    if plane is Plane.XY:
        return not in_own and odd_self
    if plane is Plane.XZ:
        return in_own and odd_self
    return in_own and not odd_self


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20231207)
