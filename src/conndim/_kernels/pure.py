"""Pure-Python unit-capacity max-flow kernel for local connectivity.

The compiled kernel in _speedups.c implements the same contract; which one
the package uses is decided at import time in __init__.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence


def kernel_name() -> str:
    return "pure"


def _check_endpoints(kind: str, a: int, b: int, n: int) -> None:
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"{kind} ({a}, {b}) out of range for {n} vertices")
    if a == b:
        raise ValueError(f"{kind} ({a}, {b}) has equal endpoints")


def flow_many(n: int,
              edges: Sequence[tuple[int, int]],
              pairs: Sequence[tuple[int, int]]) -> list[int]:
    """Maximum number of internally vertex-disjoint paths for each (s, t) pair.

    Every vertex v is split into an entry node v and an exit node v+n joined by
    a unit arc; an undirected edge {a,b} becomes the arcs a_exit->b_entry and
    b_exit->a_entry.  The flow for pair (s, t) runs from s's exit node to t's
    entry node, so arc capacities enforce that interior vertices are used by at
    most one path.  Arcs are stored as parallel arrays with arc^1 the reverse.

    Raises ValueError for n < 0, an endpoint outside [0, n), a self-loop edge
    or a pair with s == t, before any flow is computed.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    nn = 2 * n
    arc_to: list[int] = []
    arc_cap: list[int] = []
    head: list[list[int]] = [[] for _ in range(nn)]

    def add_arc(u: int, v: int) -> None:
        head[u].append(len(arc_to))
        arc_to.append(v)
        arc_cap.append(1)
        head[v].append(len(arc_to))
        arc_to.append(u)
        arc_cap.append(0)

    for v in range(n):
        add_arc(v, v + n)          # interior capacity of v
    for a, b in edges:
        _check_endpoints("edge", a, b, n)
        add_arc(a + n, b)
        add_arc(b + n, a)

    pairs = list(pairs)
    for s, t in pairs:
        _check_endpoints("pair", s, t, n)

    init_cap = list(arc_cap)
    parent = [-1] * nn  # arc id used to reach each node

    results = []
    for s, t in pairs:
        src, sink = s + n, t
        arc_cap[:] = init_cap
        value = 0
        while True:
            for i in range(nn):
                parent[i] = -1
            parent[src] = -2
            q = deque([src])
            found = False
            while q:
                u = q.popleft()
                if u == sink:
                    found = True
                    break
                for a in head[u]:
                    w = arc_to[a]
                    if arc_cap[a] > 0 and parent[w] == -1:
                        parent[w] = a
                        q.append(w)
            if not found:
                break
            # unit capacities: augment by exactly one along the parent chain
            u = sink
            while u != src:
                a = parent[u]
                arc_cap[a] -= 1
                arc_cap[a ^ 1] += 1
                u = arc_to[a ^ 1]
            value += 1
        results.append(value)
    return results
