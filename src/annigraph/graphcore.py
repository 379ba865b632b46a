"""Exact invariants of small labeled simple graphs.

Vertices carry opaque hashable labels; adjacency is stored as one bit mask
per vertex, which keeps BFS and the branch-and-bound searches (clique,
coloring, domination) fast enough to be exhaustive at desk scale.

Two sentinels are used instead of numeric stand-ins:

* ``INF`` marks "no path" / "no cycle" and is never a large integer.
* ``DEGENERATE`` is returned for radius, diameter and girth of graphs with
  fewer than two vertices, so downstream reports can mark claims as not
  applicable instead of silently comparing against zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence


class _Sentinel:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


INF = _Sentinel("INF")
DEGENERATE = _Sentinel("DEGENERATE")

Distance = int | _Sentinel


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class UGraph:
    """Labeled simple undirected graph (no self-loops, symmetric adjacency)."""

    def __init__(self, labels: Sequence, edges: Sequence[tuple]):
        labels = tuple(labels)
        index = {}
        for i, lab in enumerate(labels):
            if lab in index:
                raise ValueError(f"duplicate vertex label {lab!r}")
            index[lab] = i
        adj = [0] * len(labels)
        for a, b in edges:
            ia, ib = index[a], index[b]
            if ia == ib:
                raise ValueError(f"self-loop at {a!r}")
            adj[ia] |= 1 << ib
            adj[ib] |= 1 << ia
        self.labels = labels
        self.index = index
        self.adj = tuple(adj)

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def edges(self) -> list[tuple]:
        out = []
        for i in range(len(self.labels)):
            for j in _bits(self.adj[i]):
                if j > i:
                    out.append((self.labels[i], self.labels[j]))
        return out

    def has_edge(self, u, v) -> bool:
        return bool(self.adj[self.index[u]] >> self.index[v] & 1)

    def __repr__(self) -> str:
        return f"UGraph(vertices={self.vertex_count}, edges={self.edge_count})"


# -- distances -------------------------------------------------------------


def _bfs(adj: Sequence[int], src: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[src] = 0
    frontier = 1 << src
    seen = frontier
    d = 0
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= adj[v]
        nxt &= ~seen
        d += 1
        for v in _bits(nxt):
            dist[v] = d
        seen |= nxt
        frontier = nxt
    return dist


def distance_matrix(g: UGraph) -> list[list[int]]:
    """All-pairs BFS distances; -1 encodes unreachable."""
    return [_bfs(g.adj, i) for i in range(g.vertex_count)]


def eccentricity(g: UGraph, u) -> Distance:
    """Number of BFS levels below u, walked as masks; INF when some vertex
    is unreachable."""
    adj = g.adj
    frontier = seen = 1 << g.index[u]
    levels = -1
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= adj[v]
        frontier = nxt & ~seen
        seen |= frontier
        levels += 1
    return levels if seen == (1 << len(adj)) - 1 else INF


def _extremes(n: int, eccs) -> tuple[Distance, Distance]:
    """(radius, diameter) from the eccentricity of every vertex."""
    if n < 2:
        return DEGENERATE, DEGENERATE
    eccs = list(eccs)
    if INF in eccs:
        return INF, INF
    return min(eccs), max(eccs)


def radius(g: UGraph) -> Distance:
    return _extremes(g.vertex_count, (eccentricity(g, u) for u in g.labels))[0]


def diameter(g: UGraph) -> Distance:
    return _extremes(g.vertex_count, (eccentricity(g, u) for u in g.labels))[1]


def is_connected(g: UGraph) -> bool:
    if g.vertex_count == 0:
        return True
    return all(d >= 0 for d in _bfs(g.adj, 0))


# -- girth and cycles through a vertex pair ---------------------------------


def girth(g: UGraph) -> Distance:
    """Length of the shortest cycle, by one level-by-level BFS per root
    (Itai & Rodeh 1978).  An edge inside level d closes a walk of length
    2d+1, a vertex reached twice from level d one of length 2d+2; both
    contain a cycle, and a root on a shortest cycle finds its length."""
    n = g.vertex_count
    if n < 2:
        return DEGENERATE
    adj = g.adj
    best = n + 1
    for root in range(n):
        frontier = seen = 1 << root
        d = 0
        while frontier and 2 * d + 1 < best:
            if any(adj[v] & frontier for v in _bits(frontier)):
                best = 2 * d + 1
                break
            nxt = twice = 0
            for v in _bits(frontier):
                fresh = adj[v] & ~seen
                twice |= nxt & fresh
                nxt |= fresh
            if twice:
                best = 2 * d + 2
                break
            seen |= nxt
            frontier = nxt
            d += 1
    return INF if best > n else best


def gi(g: UGraph, u, v) -> Distance:
    """Length of the shortest cycle containing both u and v.

    Exhaustive search over simple cycles of length at most 8 with
    branch-and-bound pruning; beyond that the disjoint-path method
    ``gi_two_paths`` gives the exact answer, INF when there is none.
    """
    iu, iv = g.index[u], g.index[v]
    if iu == iv:
        raise ValueError("gi requires two distinct vertices")
    adj = g.adj
    du = _bfs(adj, iu)
    dv = _bfs(adj, iv)
    if du[iv] < 0:
        return INF
    best = 9  # the search answers cycles of length at most 8

    def rec(c: int, vis: int, length: int, seen_v: bool) -> None:
        nonlocal best
        for x in _bits(adj[c]):
            if x == iu:
                if length >= 2 and seen_v and length + 1 < best:
                    best = length + 1
                continue
            if vis >> x & 1:
                continue
            nl = length + 1
            if seen_v:
                lb = nl + du[x]
            else:
                if dv[x] < 0:
                    continue
                lb = nl + dv[x] + dv[iu]
            if lb >= best:
                continue
            rec(x, vis | 1 << x, nl, seen_v or x == iv)

    rec(iu, 1 << iu, 0, False)
    return best if best <= 8 else gi_two_paths(g, u, v)


def gi_two_paths(g: UGraph, u, v) -> Distance:
    """Certified-complete gi: minimum total length of two internally
    vertex-disjoint u-v paths, via min-cost flow on the node-split graph."""
    iu, iv = g.index[u], g.index[v]
    if iu == iv:
        raise ValueError("gi requires two distinct vertices")
    n = g.vertex_count
    # Node splitting: 2i = in-copy, 2i+1 = out-copy.
    size = 2 * n
    heads: list[int] = []
    caps: list[int] = []
    costs: list[int] = []
    first: list[list[int]] = [[] for _ in range(size)]

    def add_arc(a: int, b: int, cap: int, cost: int) -> None:
        first[a].append(len(heads))
        heads.append(b)
        caps.append(cap)
        costs.append(cost)
        first[b].append(len(heads))
        heads.append(a)
        caps.append(0)
        costs.append(-cost)

    for i in range(n):
        if i != iu and i != iv:
            add_arc(2 * i, 2 * i + 1, 1, 0)
    for i in range(n):
        for j in _bits(g.adj[i]):
            add_arc(2 * i + 1, 2 * j, 1, 1)
    s, t = 2 * iu + 1, 2 * iv
    total = 0
    for _ in range(2):
        # Bellman-Ford shortest augmenting path on the residual graph.
        dist = [None] * size
        pred_arc = [-1] * size
        dist[s] = 0
        changed = True
        while changed:
            changed = False
            for a in range(size):
                da = dist[a]
                if da is None:
                    continue
                for e in first[a]:
                    b = heads[e]
                    if caps[e] > 0 and (dist[b] is None or da + costs[e] < dist[b]):
                        dist[b] = da + costs[e]
                        pred_arc[b] = e
                        changed = True
        if dist[t] is None:
            return INF
        total += dist[t]
        node = t
        while node != s:
            e = pred_arc[node]
            caps[e] -= 1
            caps[e ^ 1] += 1
            node = heads[e ^ 1]
    return total


# -- local structure ---------------------------------------------------------


def degree(g: UGraph, u) -> int:
    return g.adj[g.index[u]].bit_count()


def is_leaf(g: UGraph, u) -> bool:
    return degree(g, u) == 1


def is_star(g: UGraph) -> bool:
    """True when some vertex is adjacent to every other vertex."""
    n = g.vertex_count
    return any(m.bit_count() == n - 1 for m in g.adj)


def _two_color(g: UGraph) -> tuple[bool, int, int]:
    n = g.vertex_count
    color = [-1] * n
    for start in range(n):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            a = queue.pop()
            for b in _bits(g.adj[a]):
                if color[b] < 0:
                    color[b] = color[a] ^ 1
                    queue.append(b)
                elif color[b] == color[a]:
                    return False, 0, 0
    part0 = sum(1 << i for i in range(n) if color[i] == 0)
    part1 = sum(1 << i for i in range(n) if color[i] == 1)
    return True, part0, part1


def is_bipartite(g: UGraph) -> bool:
    return _two_color(g)[0]


def is_complete_bipartite(g: UGraph) -> bool:
    """Complete bipartite with two nonempty parts (hence connected)."""
    ok, a, b = _two_color(g)
    if not ok or a == 0 or b == 0:
        return False
    if not is_connected(g):
        return False
    return g.edge_count == a.bit_count() * b.bit_count()


def _in_triangle_vertex(g: UGraph, i: int) -> bool:
    for j in _bits(g.adj[i]):
        if g.adj[i] & g.adj[j]:
            return True
    return False


def is_triangulated(g: UGraph) -> bool:
    """Every vertex lies in a triangle (vacuously true when empty)."""
    return all(_in_triangle_vertex(g, i) for i in range(g.vertex_count))


def is_hypertriangulated(g: UGraph) -> bool:
    """Every edge lies in a triangle (vacuously true when edgeless)."""
    for i in range(g.vertex_count):
        for j in _bits(g.adj[i]):
            if j > i and not g.adj[i] & g.adj[j]:
                return False
    return True


def orthogonal(g: UGraph, u, v) -> bool:
    """Adjacent with no common neighbor."""
    iu, iv = g.index[u], g.index[v]
    if not g.adj[iu] >> iv & 1:
        return False
    return g.adj[iu] & g.adj[iv] == 0


def is_complemented(g: UGraph) -> bool:
    """Every vertex has an orthogonal partner."""
    n = g.vertex_count
    for i in range(n):
        if not any(g.adj[i] & g.adj[j] == 0 for j in _bits(g.adj[i])):
            return False
    return True


# -- exact optimization invariants -------------------------------------------


def dominating_number(g: UGraph) -> int:
    """Exact minimum dominating set size, branch and bound with a greedy
    upper bound; branches on the dominators of a least-coverable vertex."""
    n = g.vertex_count
    if n == 0:
        return 0
    closed = [g.adj[i] | (1 << i) for i in range(n)]
    fullm = (1 << n) - 1

    covered = 0
    ub = 0
    while covered != fullm:
        bestv = max(range(n), key=lambda x: ((closed[x] & ~covered).bit_count(), -x))
        covered |= closed[bestv]
        ub += 1
    best = ub

    def rec(size: int, cov: int) -> None:
        nonlocal best
        if cov == fullm:
            if size < best:
                best = size
            return
        if size + 1 >= best:
            return
        rem = fullm & ~cov
        maxcov = max((closed[x] & rem).bit_count() for x in range(n))
        if size + -(-rem.bit_count() // maxcov) >= best:
            return
        u = min(_bits(rem), key=lambda x: (closed[x].bit_count(), x))
        for w in _bits(closed[u]):
            rec(size + 1, cov | closed[w])

    rec(0, 0)
    return best


def clique_number(g: UGraph) -> int:
    """Exact maximum clique, bitset branch and bound with a greedy
    coloring bound."""
    n = g.vertex_count
    if n == 0:
        return 0
    adj = g.adj
    best = 0

    def expand(cand: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if not cand or size + cand.bit_count() <= best:
            return
        q = cand
        colors = 0
        while q:
            colors += 1
            avail = q
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                q ^= low
                avail &= ~(adj[v] | low)
        if size + colors <= best:
            return
        rest = cand
        while rest:
            if size + rest.bit_count() <= best:
                return
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            expand(rest & adj[v], size + 1)

    expand((1 << n) - 1, 0)
    return best


def _k_colorable(g: UGraph, k: int) -> bool:
    """DSATUR backtracking with an explicit stack of [vertex, next color to
    try, highest color used before it, neighbors its color was added to]."""
    n = g.vertex_count
    adj = g.adj
    color = [-1] * n
    nbr_colors = [0] * n
    degs = [m.bit_count() for m in adj]

    def pick() -> int:
        # max saturation, then max degree, then min index
        return max((x for x in range(n) if color[x] < 0),
                   key=lambda x: (nbr_colors[x].bit_count(), degs[x], -x))

    stack = [[pick(), 0, -1, []]]
    while stack:
        frame = stack[-1]
        v, c, used, touched = frame
        if color[v] >= 0:
            for w in touched:
                nbr_colors[w] &= ~(1 << color[v])
            color[v] = -1
        limit = min(used + 1, k - 1)
        while c <= limit and nbr_colors[v] >> c & 1:
            c += 1
        if c > limit:
            stack.pop()
            continue
        color[v] = c
        touched = [w for w in _bits(adj[v]) if color[w] < 0 and not nbr_colors[w] >> c & 1]
        for w in touched:
            nbr_colors[w] |= 1 << c
        frame[1], frame[3] = c + 1, touched
        if len(stack) == n:
            return True
        stack.append([pick(), 0, max(used, c), []])
    return False


def chromatic_number(g: UGraph) -> int:
    """Exact chromatic number by iterative deepening from the clique bound."""
    n = g.vertex_count
    if n == 0:
        return 0
    if g.edge_count == 0:
        return 1
    for k in range(max(clique_number(g), 1), n + 1):
        if _k_colorable(g, k):
            return k
    raise AssertionError("unreachable: n colors always suffice")


# -- reports and exports ------------------------------------------------------


@dataclass
class InvariantReport:
    """All computed invariants of one graph."""

    vertex_count: int
    edge_count: int
    is_connected: bool
    diameter: Distance
    radius: Distance
    girth: Distance
    dominating_number: int
    clique_number: int
    chromatic_number: int
    is_star: bool
    is_triangulated: bool
    is_hypertriangulated: bool
    is_complemented: bool
    is_bipartite: bool
    is_complete_bipartite: bool
    eccentricity: dict = field(default_factory=dict)
    degree: dict = field(default_factory=dict)
    is_leaf: dict = field(default_factory=dict)

    @property
    def is_degenerate(self) -> bool:
        return self.vertex_count < 2

    def to_json_dict(self) -> dict:
        def enc(x):
            return x.name if isinstance(x, _Sentinel) else x

        per_vertex = lambda d: {str(k): enc(v) for k, v in d.items()}
        return {
            "vertex_count": self.vertex_count,
            "edge_count": self.edge_count,
            "is_connected": self.is_connected,
            "degenerate": self.is_degenerate,
            "diameter": enc(self.diameter),
            "radius": enc(self.radius),
            "girth": enc(self.girth),
            "dominating_number": self.dominating_number,
            "clique_number": self.clique_number,
            "chromatic_number": self.chromatic_number,
            "is_star": self.is_star,
            "is_triangulated": self.is_triangulated,
            "is_hypertriangulated": self.is_hypertriangulated,
            "is_complemented": self.is_complemented,
            "is_bipartite": self.is_bipartite,
            "is_complete_bipartite": self.is_complete_bipartite,
            "eccentricity": per_vertex(self.eccentricity),
            "degree": per_vertex(self.degree),
            "is_leaf": per_vertex(self.is_leaf),
        }


def compute_invariants(g: UGraph) -> InvariantReport:
    eccs = {u: eccentricity(g, u) for u in g.labels}
    rad, diam = _extremes(g.vertex_count, eccs.values())
    return InvariantReport(
        vertex_count=g.vertex_count,
        edge_count=g.edge_count,
        is_connected=INF not in eccs.values(),
        diameter=diam,
        radius=rad,
        girth=girth(g),
        dominating_number=dominating_number(g),
        clique_number=clique_number(g),
        chromatic_number=chromatic_number(g),
        is_star=is_star(g),
        is_triangulated=is_triangulated(g),
        is_hypertriangulated=is_hypertriangulated(g),
        is_complemented=is_complemented(g),
        is_bipartite=is_bipartite(g),
        is_complete_bipartite=is_complete_bipartite(g),
        eccentricity=eccs,
        degree={u: degree(g, u) for u in g.labels},
        is_leaf={u: is_leaf(g, u) for u in g.labels},
    )


def to_dot(g: UGraph) -> str:
    lines = ["graph g {"]
    for i, lab in enumerate(g.labels):
        lines.append(f'  v{i} [label="{lab}"];')
    for i in range(g.vertex_count):
        for j in _bits(g.adj[i]):
            if j > i:
                lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_dimacs(g: UGraph, comment: str = "") -> str:
    lines = []
    if comment:
        lines.append(f"c {comment}")
    lines.append(f"p edge {g.vertex_count} {g.edge_count}")
    for i in range(g.vertex_count):
        for j in _bits(g.adj[i]):
            if j > i:
                lines.append(f"e {i + 1} {j + 1}")
    return "\n".join(lines) + "\n"
