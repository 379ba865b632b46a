"""Finite topological spaces on small labeled ground sets.

The ground set is always {0, ..., n-1} and subsets are bit masks (bit i is
set iff point i is a member).  A Topology stores its full family of open
sets together with the minimal neighborhood of every point, i.e. the
smallest open set containing it.  Interior, closure, density, weight,
cellularity and the weak components all reduce to minimal-neighborhood
arithmetic.  Real-valued continuous functions on a finite space are exactly
the functions constant on each weak component, so collapsing the components
to points gives the discrete reflection, which carries the whole ring of
functions; ``classify`` reports its size as ``component_count``.

Enumeration of all topologies on n labeled points is a depth-first
search over masks in increasing order by the meet rule: a family takes m
iff m meets every minimal neighborhood in a member or in m, and then gains
the unions a | m.  It is capped at ``DEFAULT_ENUM_CAP`` points unless told
otherwise (6942 topologies at n = 5, 209 527 at n = 6), and emits the
families in lexicographic order as it finds them, without collecting them.
Homeomorphism classes come from orbit marking on that ordered stream, and
the test suite keeps independent generate-and-filter oracles for small n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

MAX_POINTS = 16
DEFAULT_ENUM_CAP = 5


class UsageError(ValueError):
    """Input from outside the program was refused: a count or option out of
    range, an unknown claim, or a malformed topology.  Every other exception
    the engine raises is a defect."""


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, order=True)
class PointSet:
    """An immutable subset of the ground set {0, ..., n-1}."""

    n: int
    mask: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_POINTS:
            raise ValueError(f"ground set size must be in 1..{MAX_POINTS}, got {self.n}")
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError(f"mask {self.mask:#x} out of range for n={self.n}")

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(_bits(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, point: int) -> bool:
        return 0 <= point < self.n and bool(self.mask >> point & 1)

    def __bool__(self) -> bool:
        return self.mask != 0

    def _check(self, other: "PointSet") -> None:
        if self.n != other.n:
            raise ValueError("point sets live on different ground sets")

    def __or__(self, other: "PointSet") -> "PointSet":
        self._check(other)
        return PointSet(self.n, self.mask | other.mask)

    def __and__(self, other: "PointSet") -> "PointSet":
        self._check(other)
        return PointSet(self.n, self.mask & other.mask)

    def __sub__(self, other: "PointSet") -> "PointSet":
        self._check(other)
        return PointSet(self.n, self.mask & ~other.mask)

    def render(self) -> str:
        return "{" + ",".join(str(p) for p in self.members) + "}"

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class SpaceClass:
    """Classification flags of a finite space, used to scope claim checks."""

    is_discrete: bool
    is_t0: bool
    is_t1: bool
    has_isolated_point: bool
    component_count: int


class Topology:
    """A topology on {0, ..., n-1}: opens closed under union and intersection.

    ``opens`` is kept as a sorted tuple of masks, which doubles as the
    canonical encoding of the family.  Instances are immutable and hashable.
    """

    def __init__(self, n: int, opens, validate: bool = True):
        if not 1 <= n <= MAX_POINTS:
            raise UsageError(f"point count must be in 1..{MAX_POINTS}, got {n}")
        fam = tuple(sorted({int(m) for m in opens}))
        full = (1 << n) - 1
        min_nbhd = []
        for x in range(n):
            acc = full
            for o in fam:
                if o >> x & 1:
                    acc &= o
            min_nbhd.append(acc)
        if validate:
            for m in fam:
                if not 0 <= m <= full:
                    raise UsageError(f"open set {m:#x} out of range for n={n}")
            if not fam or fam[0] != 0 or fam[-1] != full:
                raise UsageError("opens must contain the empty set and the whole space")
            # A family is a topology iff it is exactly the set of unions of
            # its minimal neighborhoods.
            unions = {0}
            for b in set(min_nbhd):
                unions |= {u | b for u in unions}
                if len(unions) > len(fam):
                    break
            if unions != set(fam):
                raise UsageError("opens not closed under union/intersection")
        self.n = n
        self.opens = fam
        self._full = full
        self._open_set = frozenset(fam)
        self._min_nbhd = tuple(min_nbhd)

    # -- basic protocol -------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Topology)
            and self.n == other.n
            and self.opens == other.opens
        )

    def __hash__(self) -> int:
        return hash((self.n, self.opens))

    def __repr__(self) -> str:
        return f"Topology(n={self.n}, opens={len(self.opens)})"

    def is_open(self, a: PointSet) -> bool:
        self._check(a)
        return a.mask in self._open_set

    def is_open_mask(self, mask: int) -> bool:
        return mask in self._open_set

    def _check(self, a: PointSet) -> None:
        if a.n != self.n:
            raise ValueError("point set does not live on this space's ground set")

    # -- constructors ----------------------------------------------------

    @classmethod
    def discrete(cls, n: int) -> "Topology":
        return cls(n, range(1 << n), validate=False)

    @classmethod
    def indiscrete(cls, n: int) -> "Topology":
        return cls(n, (0, (1 << n) - 1), validate=False)

    @classmethod
    def sierpinski(cls) -> "Topology":
        return cls(2, (0, 1, 3), validate=False)

    # -- serialization ---------------------------------------------------
    #
    # Text format, one topology per line:
    #     n=<k>; opens=<comma-separated masks in hex>
    # The JSON form mirrors it: {"n": <k>, "opens": ["0x0", ...]}.

    def to_text(self) -> str:
        return f"n={self.n}; opens=" + ",".join(map(hex, self.opens))

    @classmethod
    def from_text(cls, line: str) -> "Topology":
        try:
            left, right = line.strip().split(";")
            n = int(left.strip().removeprefix("n="))
            body = right.strip().removeprefix("opens=")
            opens = [int(tok.strip(), 16) for tok in body.split(",") if tok.strip()]
        except (ValueError, AttributeError) as exc:
            raise UsageError(f"malformed topology line: {line!r}") from exc
        return cls(n, opens)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "opens": [f"{m:#x}" for m in self.opens]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Topology":
        try:
            n = int(data["n"])
            opens = [int(str(m), 16) if isinstance(m, str) else int(m) for m in data["opens"]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise UsageError(f"malformed topology JSON: {data!r}") from exc
        return cls(n, opens)


# -- point-set operators -------------------------------------------------


def interior_mask(t: Topology, mask: int) -> int:
    # Largest open inside the set: keep the points whose minimal
    # neighborhood fits.  The result is a union of opens, hence open.
    out = 0
    rem = mask
    while rem:
        low = rem & -rem
        x = low.bit_length() - 1
        if t._min_nbhd[x] & ~mask == 0:
            out |= low
        rem ^= low
    return out


def closure_mask(t: Topology, mask: int) -> int:
    return t._full & ~interior_mask(t, t._full & ~mask)


def is_dense(t: Topology, a: PointSet) -> bool:
    t._check(a)
    return closure_mask(t, a.mask) == t._full


def isolated_points(t: Topology) -> PointSet:
    mask = 0
    for x in range(t.n):
        if t._min_nbhd[x] == 1 << x:
            mask |= 1 << x
    return PointSet(t.n, mask)


def weight(t: Topology) -> int:
    # The distinct minimal neighborhoods form the unique minimal base.
    return len(set(t._min_nbhd))


def cellularity(t: Topology) -> int:
    # Any disjoint family of nonempty opens shrinks to a family of
    # pairwise-disjoint minimal neighborhoods, so a maximum set packing
    # over the minimal base is exact.
    base = sorted(set(t._min_nbhd))
    best = 0

    def pack(i: int, used: int, count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if count + (len(base) - i) <= best:
            return
        for j in range(i, len(base)):
            b = base[j]
            if b & used == 0:
                pack(j + 1, used | b, count + 1)

    pack(0, 0, 0)
    return best


def clopen_count(t: Topology) -> int:
    """Number of clopen subsets; equals the count of continuous maps to a
    discrete two-point space."""
    return sum(1 for m in t.opens if t.is_open_mask(t._full ^ m))


def classify(t: Topology) -> SpaceClass:
    n = t.n
    discrete = len(t.opens) == 1 << n
    t0 = len(set(t._min_nbhd)) == n
    t1 = all(closure_mask(t, 1 << x) == 1 << x for x in range(n))
    isolated = any(t._min_nbhd[x] == 1 << x for x in range(n))
    return SpaceClass(
        is_discrete=discrete,
        is_t0=t0,
        is_t1=t1,
        has_isolated_point=isolated,
        component_count=_component_count(t),
    )


def _component_labels(t: Topology) -> tuple[int, ...]:
    # Weak components of the digraph x -> y iff y in min_nbhd(x).
    parent = list(range(t.n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x in range(t.n):
        for y in _bits(t._min_nbhd[x]):
            ra, rb = find(x), find(y)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    index: dict[int, int] = {}
    labels = []
    for x in range(t.n):
        r = find(x)
        if r not in index:
            index[r] = len(index)
        labels.append(index[r])
    return tuple(labels)


def _component_count(t: Topology) -> int:
    return max(_component_labels(t)) + 1


# -- canonical forms and enumeration --------------------------------------


def _relabel(opens: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for o in opens:
        nm = 0
        rem = o
        while rem:
            low = rem & -rem
            nm |= 1 << perm[low.bit_length() - 1]
            rem ^= low
        out.append(nm)
    return tuple(sorted(out))


def canonical_form(t: Topology) -> str:
    """Canonical key: the lexicographically minimal of all n! relabelings,
    as text.  Callers handed spaces from outside bound n themselves."""
    best = min(_relabel(t.opens, p) for p in itertools.permutations(range(t.n)))
    return Topology(t.n, best, validate=False).to_text()


def enumerate_topologies(
    n: int,
    space_filter: Callable[[SpaceClass], bool] | None = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> Iterator[Topology]:
    """All topologies on n labeled points, each exactly once.

    Families are emitted in lexicographic order of their sorted mask
    tuples, each as soon as the search completes it; nothing is collected
    or sorted, so the stream is deterministic and starts at once.
    """
    if not 1 <= n <= MAX_POINTS:
        raise UsageError(f"point count must be in 1..{MAX_POINTS}, got {n}")
    if n > cap:
        raise UsageError(
            f"enumeration cap is {cap} (got n={n}); raise the cap explicitly"
        )
    full = (1 << n) - 1

    # When the loop reaches m, every mask below m outside ``fam`` was left
    # out, so m may join iff fam and m generate no new member below m.  By
    # distributivity they generate {a | (b & m) : a, b in fam}.  Each meet
    # b & m is a subset of m, so at most m, and a union of the nbhd[x] & m,
    # nbhd[x] being the minimal neighborhood of x.  If every nbhd[x] & m is
    # in fam or is m, the lattice is fam with {a | m}, all above m;
    # otherwise some meet is a new member below m.  Families whose least new
    # member is m sort before those with a larger one, and all before fam.
    def dfs(start: int, bits: int, fam: tuple[int, ...],
            nbhd: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        for m in range(start, full):
            if bits >> m & 1:
                continue
            for b in nbhd:
                c = b & m
                if c != m and not bits >> c & 1:
                    break
            else:
                grown = set(fam).union([a | m for a in fam])
                yield from dfs(m + 1, sum(1 << a for a in grown), tuple(sorted(grown)),
                               tuple(b & m if m >> x & 1 else b for x, b in enumerate(nbhd)))
        yield fam

    for fam in dfs(1, 1 | 1 << full, (0, full), (full,) * n):
        t = Topology(n, fam, validate=False)
        if space_filter is None or space_filter(classify(t)):
            yield t


def canonical_topologies(
    n: int,
    space_filter: Callable[[SpaceClass], bool] | None = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> Iterator[Topology]:
    """One representative per homeomorphism class, in stream order.

    The labeled stream is in lexicographic order, so the first member of a
    class to appear is its lexicographically minimal relabeling; it is
    yielded and its orbit is marked as seen (McKay's orbit method of
    isomorph rejection).  The filter sees the representative only:
    ``classify`` is a homeomorphism invariant.
    """
    seen: set[tuple[int, ...]] = set()
    for t in enumerate_topologies(n, cap=cap):
        if t.opens in seen:
            continue
        seen.update(_relabel(t.opens, p) for p in itertools.permutations(range(n)))
        if space_filter is None or space_filter(classify(t)):
            yield t
