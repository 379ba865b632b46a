"""Independent brute-force oracles the production code is checked against.

Everything here is deliberately naive: generate-and-filter enumeration,
powerset scans, exhaustive DFS.  None of it shares code paths with the
algorithms under test.
"""

from __future__ import annotations

import itertools

from annigraph.graphcore import INF, UGraph
from annigraph.topo import Topology


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def brute_topologies(n: int) -> list[tuple[int, ...]]:
    """All union/intersection-closed families containing the empty set and
    the whole space, by filtering every candidate family of proper subsets."""
    full = (1 << n) - 1
    proper = [m for m in range(1, full)]
    out = []
    for pick in range(1 << len(proper)):
        fam = {0, full}
        for i, m in enumerate(proper):
            if pick >> i & 1:
                fam.add(m)
        ok = True
        for a in fam:
            for b in fam:
                if a | b not in fam or a & b not in fam:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(sorted(fam)))
    out.sort()
    return out


def closure_stream(n: int) -> list[tuple[int, ...]]:
    """All topologies on n labeled points, in lexicographic order, by the
    closure-completion search: decide the masks in increasing order, take
    each one in before leaving it out, and complete the family under union
    and intersection, pruning on any forced member already left out."""
    full = (1 << n) - 1
    out = []

    def dfs(m, fam_bits, fam, excl):
        while m < full and fam_bits >> m & 1:
            m += 1
        if m == full:
            out.append(fam)
            return
        members = list(fam)
        members.append(m)
        bits = fam_bits | (1 << m)
        i = len(fam)
        ok = True
        while ok and i < len(members):
            a = members[i]
            for j in range(i):
                b = members[j]
                for c in (a | b, a & b):
                    if not bits >> c & 1:
                        if excl >> c & 1:
                            ok = False
                            break
                        bits |= 1 << c
                        members.append(c)
                if not ok:
                    break
            i += 1
        if ok:
            dfs(m + 1, bits, tuple(sorted(members)), excl)
        dfs(m + 1, fam_bits, fam, excl | (1 << m))

    dfs(1, 1 | 1 << full, (0, full), 0)
    return out


def brute_classes(n: int) -> list[tuple[int, ...]]:
    """One family per homeomorphism class: the lexicographically minimal
    relabeling of every labeled topology, deduplicated and sorted."""
    classes = set()
    for fam in brute_topologies(n):
        classes.add(min(
            tuple(sorted(_union(1 << p[i] for i in _bits(m)) for m in fam))
            for p in itertools.permutations(range(n))
        ))
    return sorted(classes)


def brute_weight(t: Topology) -> int:
    """Minimum cardinality of a base, by scanning all subfamilies."""
    opens = [m for m in t.opens]
    nonempty = [m for m in opens if m]
    for r in range(1, len(nonempty) + 1):
        for fam in itertools.combinations(nonempty, r):
            if all(
                g == 0 or _union(b for b in fam if b & ~g == 0) == g
                for g in opens
            ):
                return r
    raise AssertionError("the full family is always a base")


def _union(it) -> int:
    out = 0
    for m in it:
        out |= m
    return out


def brute_cellularity(t: Topology) -> int:
    """Maximum pairwise-disjoint family of nonempty opens, exhaustively
    over the whole family of opens."""
    opens = [m for m in t.opens if m]
    best = 0

    def rec(i: int, used: int, count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        for j in range(i, len(opens)):
            if opens[j] & used == 0:
                rec(j + 1, used | opens[j], count + 1)

    rec(0, 0, 0)
    return best


def brute_two_valued_function_count(t: Topology) -> int:
    """Functions to a two-point discrete space that are constant on every
    minimal neighborhood."""
    count = 0
    for f in range(1 << t.n):
        if all(
            t._min_nbhd[x] & ~f == 0 or t._min_nbhd[x] & f == 0
            for x in range(t.n)
        ):
            count += 1
    return count


def brute_girth(g: UGraph):
    best = None

    def rec(start: int, cur: int, vis: int, length: int) -> None:
        nonlocal best
        for nxt in _bits(g.adj[cur]):
            if nxt == start:
                if length >= 2 and (best is None or length + 1 < best):
                    best = length + 1
            elif nxt > start and not vis >> nxt & 1:
                rec(start, nxt, vis | 1 << nxt, length + 1)

    for s in range(g.vertex_count):
        rec(s, s, 1 << s, 0)
    return INF if best is None else best


def brute_gi(g: UGraph, u, v):
    iu, iv = g.index[u], g.index[v]
    best = None

    def rec(cur: int, vis: int, length: int) -> None:
        nonlocal best
        for nxt in _bits(g.adj[cur]):
            if nxt == iu:
                if length >= 2 and vis >> iv & 1:
                    if best is None or length + 1 < best:
                        best = length + 1
            elif not vis >> nxt & 1:
                rec(nxt, vis | 1 << nxt, length + 1)

    rec(iu, 1 << iu, 0)
    return INF if best is None else best


def brute_dominating(g: UGraph) -> int:
    n = g.vertex_count
    if n == 0:
        return 0
    closed = [g.adj[i] | (1 << i) for i in range(n)]
    full = (1 << n) - 1
    for size in range(n + 1):
        for pick in itertools.combinations(range(n), size):
            if _union(closed[i] for i in pick) == full:
                return size
    raise AssertionError("the full vertex set always dominates")


def brute_clique(g: UGraph) -> int:
    n = g.vertex_count
    best = 0
    for mask in range(1 << n):
        members = list(_bits(mask))
        if len(members) <= best:
            continue
        if all(g.adj[a] >> b & 1 for a, b in itertools.combinations(members, 2)):
            best = len(members)
    return best


def brute_chromatic(g: UGraph) -> int:
    n = g.vertex_count
    if n == 0:
        return 0

    def colorable(k: int) -> bool:
        color = [-1] * n

        def rec(i: int) -> bool:
            if i == n:
                return True
            for c in range(k):
                if all(color[j] != c for j in _bits(g.adj[i])):
                    color[i] = c
                    if rec(i + 1):
                        return True
                    color[i] = -1
            return False

        return rec(0)

    for k in range(1, n + 1):
        if colorable(k):
            return k
    raise AssertionError("n colors always suffice")
