"""Ground truth written without `conndim`: Menger path counts, breadth-first
distances, exhaustive resolving sets and truth tables.

Nothing here imports the package under test, so agreement between these
functions and `conndim` is evidence rather than a tautology.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, product

SELF = float("inf")  # a vertex's own entry in a kappa vector


def _split_digraph(n: int, edges) -> list[set[int]]:
    """Vertex v becomes nodes 2v (in) and 2v+1 (out) joined by one arc;
    edge {a, b} becomes the arcs a_out -> b_in and b_out -> a_in."""
    out = [set() for _ in range(2 * n)]
    for v in range(n):
        out[2 * v].add(2 * v + 1)
    for a, b in edges:
        out[2 * a + 1].add(2 * b)
        out[2 * b + 1].add(2 * a)
    return out


def path_count(base: list[set[int]], s: int, t: int) -> int:
    """Internally vertex-disjoint s-t paths (Menger), by augmenting paths.

    All capacities are one and the split digraph has no antiparallel arcs,
    so the residual graph is the arc set with every saturated arc reversed.
    """
    res = [set(arcs) for arcs in base]
    src, sink = 2 * s + 1, 2 * t
    count = 0
    while True:
        prev = {src: src}
        queue = deque([src])
        while queue and sink not in prev:
            x = queue.popleft()
            for y in res[x]:
                if y not in prev:
                    prev[y] = x
                    queue.append(y)
        if sink not in prev:
            return count
        y = sink
        while y != src:
            x = prev[y]
            res[x].discard(y)
            res[y].add(x)
            y = x
        count += 1


def kappa_table(n: int, edges) -> list[list[float]]:
    """All-pairs local connectivity with SELF on the diagonal."""
    base = _split_digraph(n, edges)
    table = [[SELF] * n for _ in range(n)]
    for u, v in combinations(range(n), 2):
        table[u][v] = table[v][u] = path_count(base, u, v)
    return table


def distance_table(n: int, edges) -> list[list[int]]:
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    table = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        table.append(dist)
    return table


def distinct_vectors(table, landmarks) -> bool:
    """True when every vertex has its own vector of table values."""
    vectors = {tuple(row[w] for w in landmarks) for row in table}
    return len(vectors) == len(table)


def min_resolving_size(table) -> int:
    """Smallest landmark set with distinct vectors, by exhaustive search."""
    n = len(table)
    for k in range(n + 1):
        if any(distinct_vectors(table, c) for c in combinations(range(n), k)):
            return k
    raise AssertionError("the whole vertex set always resolves")


def kappa_resolves(n: int, edges, landmarks) -> bool:
    """Whether the landmarks give distinct kappa vectors.

    A landmark's vector holds SELF in its own column and a finite value in
    every other landmark's column, so landmarks never collide with anyone;
    only the non-landmarks' vectors need their path counts.
    """
    ws = sorted(set(landmarks))
    if any(not 0 <= w < n for w in ws):
        return False
    base = _split_digraph(n, edges)
    rest = [v for v in range(n) if v not in set(ws)]
    vectors = {tuple(path_count(base, v, w) for w in ws) for v in rest}
    return len(vectors) == len(rest)


def satisfying_assignment(n_vars: int, clauses):
    """First satisfying assignment in lexicographic order, or None."""
    for bits in product((False, True), repeat=n_vars):
        if satisfies(clauses, bits):
            return bits
    return None


def satisfies(clauses, bits) -> bool:
    return all(any((lit > 0) == bool(bits[abs(lit) - 1]) for lit in clause)
               for clause in clauses)
