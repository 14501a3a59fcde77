"""Rooted trees truncated at a depth horizon, and the Cheeger theory on them.

A live leaf sits at depth exactly D and stands for an isometric ray that
continues beyond the horizon; dead leaves (any depth < D) are genuine ends.
All asymptotic notions -- the maximal geodesically complete subtree, the
pseudo-regularity constant K, the complementedness constant C, the end space
-- are evaluated exactly on this represented prefix and reported together
with D.  The analyses never re-root: the declared root is used as given.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Container, Iterable, Mapping, NamedTuple

from .errors import DEFAULT_SUBSET_BUDGET, EmptyWindowError, InvalidInputError
from .frozen import Frozen

# graphs is imported where a tree becomes a graph or a bound (RootedTree.graph,
# essential_boundary, tree_cheeger_bounds), so endspace never compiles it.
if TYPE_CHECKING:
    from .graphs import CheegerBound, Graph
    from .metric import FiniteMetricSpace


class RootedTree(Frozen):
    """Finite rooted tree with horizon D and live-leaf markers."""

    root: str
    children: dict[str, tuple[str, ...]]
    live: frozenset[str]
    _fields = ("root", "children", "live")

    def __init__(self, root: str, children: dict[str, tuple[str, ...]], live: frozenset[str]):
        self.__dict__.update(root=root, children=children, live=live)
        if self.root not in self.children:
            raise InvalidInputError("children map must cover the root")
        seen = {self.root}
        order = [self.root]
        depth = {self.root: 0}
        parent: dict[str, str] = {}
        stack = [self.root]
        while stack:
            x = stack.pop()
            for c in self.children[x]:
                if c in seen:
                    raise InvalidInputError(f"vertex {c!r} reached twice; not a tree")
                if c not in self.children:
                    raise InvalidInputError(f"children map missing vertex {c!r}")
                seen.add(c)
                order.append(c)
                parent[c] = x
                depth[c] = depth[x] + 1
                stack.append(c)
        if len(seen) != len(self.children):
            extra = sorted(set(self.children) - seen)
            raise InvalidInputError(f"unreachable vertices: {extra[:3]}")
        self._keep_walk(tuple(order), parent, depth)

    @classmethod
    def _walked(
        cls,
        root: str,
        children: dict[str, tuple[str, ...]],
        live: frozenset[str],
        order: tuple[str, ...],
        parent: dict[str, str],
        depth: dict[str, int],
    ) -> RootedTree:
        """A tree whose caller has already walked ``children`` from ``root``
        as ``__init__`` does (pop a vertex, visit its children in order, push
        them) and proved that the walk reaches every key exactly once;
        ``order``, ``parent`` and ``depth`` are that walk's.  The live-leaf
        and horizon checks still run.  Only a caller whose docstring gives
        that proof may call it."""
        tree = object.__new__(cls)
        tree.__dict__.update(root=root, children=children, live=live)
        tree._keep_walk(order, parent, depth)
        return tree

    def _keep_walk(
        self, order: tuple[str, ...], parent: dict[str, str], depth: dict[str, int]
    ) -> None:
        """Keep the walk and check the live markers against it: they sit on
        leaves at the horizon, and every leaf there is live."""
        self.__dict__.update(_order=order, _parent=parent, _depth=depth)
        horizon = max(depth.values())
        leaves = {v for v in order if not self.children[v]}
        if not self.live <= leaves:
            raise InvalidInputError("live markers must sit on leaves")
        if self.live:
            if horizon < 1:
                raise InvalidInputError("horizon must be >= 1")
            # an offender is named by walk order, whatever the hash seed
            off = {v for v in self.live if depth[v] != horizon}
            if off:
                first = next(v for v in order if v in off)
                raise InvalidInputError(f"live leaf {first!r} not at the horizon depth {horizon}")
            dead_deep = {v for v in leaves - self.live if depth[v] == horizon}
            if dead_deep:
                first = next(v for v in order if v in dead_deep)
                raise InvalidInputError(f"leaf {first!r} reaches the horizon but is not live")

    # -- structure --------------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._order

    @property
    def parent(self) -> dict[str, str]:
        return self._parent

    @property
    def depth(self) -> dict[str, int]:
        return self._depth

    @cached_property
    def horizon(self) -> int:
        return max(self._depth.values())

    @cached_property
    def _complete_subtree(self) -> frozenset[str]:
        """See :func:`maximal_complete_subtree`; computed once per tree."""
        keep: set[str] = set()
        for leaf in self.live:
            x = leaf
            while x not in keep:
                keep.add(x)
                if x == self.root:
                    break
                x = self._parent[x]
        return frozenset(keep)

    def sphere(self, t: int) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if self._depth[v] == t)

    def root_path(self, x: str) -> tuple[str, ...]:
        if x not in self.children:
            raise InvalidInputError(f"unknown vertex {x!r}")
        path = [x]
        while path[-1] != self.root:
            path.append(self._parent[path[-1]])
        return tuple(reversed(path))

    @cached_property
    def graph(self) -> Graph:
        """Underlying graph; the live leaves are the truncation frontier."""
        from .graphs import Graph, normalize_edge

        edges = frozenset(
            normalize_edge(v, c) for v in self.vertices for c in self.children[v]
        )
        return Graph(self.vertices, edges, frozenset(self.live))


def tree_from_parents(
    root: str, parents: Mapping[str, str], live: Iterable[str] = ()
) -> RootedTree:
    kids: dict[str, list[str]] = {root: []}
    for c, p in parents.items():
        kids.setdefault(p, []).append(c)
        kids.setdefault(c, [])
    return RootedTree(root, {v: tuple(sorted(cs)) for v, cs in kids.items()}, frozenset(live))


def subtree_past(t: RootedTree, x: str) -> frozenset[str]:
    """The cone past x: x together with all of its descendants."""
    if x not in t.children:
        raise InvalidInputError(f"unknown vertex {x!r}")
    out = []
    stack = [x]
    while stack:
        y = stack.pop()
        out.append(y)
        stack.extend(t.children[y])
    return frozenset(out)


def maximal_complete_subtree(t: RootedTree) -> frozenset[str]:
    """Vertices on some root-to-live-leaf path: the unique maximal subtree in
    which every root-anchored segment extends to the horizon.  Empty when the
    tree is bounded (no live leaves)."""
    return t._complete_subtree


# ---------------------------------------------------------------------------
# Pseudo-regularity and complementedness
# ---------------------------------------------------------------------------


class PseudoRegularityResult(NamedTuple):
    k: int | None  # minimal K within the horizon, or None on defect
    horizon: int
    chain: tuple[str, ...] = ()  # on a defect: the defect vertex, then its single-child chain


def _single_child_runs(t: RootedTree, members: Container[str]) -> dict[str, int]:
    """run[a] = vertices on the chain from a that goes on while the current
    vertex has exactly one child in ``members``, in one bottom-up pass."""
    run: dict[str, int] = {}
    for a in reversed(t.vertices):
        if a in members:
            kids = [c for c in t.children[a] if c in members]
            run[a] = 1 + run[kids[0]] if len(kids) == 1 else 1
    return run


def _single_child_chain(t: RootedTree, a: str) -> list[str]:
    chain = [a]
    while len(t.children[chain[-1]]) == 1:
        chain.append(t.children[chain[-1]][0])
    return chain


def pseudo_regularity_index(t: RootedTree) -> PseudoRegularityResult:
    """Minimal K in [1, horizon] such that every vertex of the complete
    subtree, tested at depths down to horizon - K, has at least two complete
    descendants exactly K levels deeper; defect witness otherwise.

    The condition is evaluated on the maximal complete subtree, matching the
    statements the tree bound relies on.  Values of K close to the horizon
    rest on thin evidence (at K = horizon only the root is testable), which
    is why every downstream bound is flagged horizon-certified: a window
    with two live rays of a bi-infinite chain reports K = horizon even
    though no finite K works for the ambient chain.

    K is read off the single-child runs run(a) over the complete subtree
    T_inf in O(n + horizon).  Every T_inf vertex above the horizon has a
    child in T_inf, so a has exactly one T_inf descendant at relative depth
    j < run(a) and at least two from j = run(a) on, unless the run ends at a
    horizon leaf; then run(a) = horizon - depth(a) + 1 exceeds every k
    testable at a.  So the condition holds at a exactly when run(a) <= K.

    On a defect, ``chain`` is the longest single-child chain off a non-root
    vertex of T_inf (ties to the shallower, then the smaller name): chain[0]
    is the defect vertex, every later vertex is the only child of the one
    before, and the run is len(chain) - 1.  It states the 2/K family by a
    rule: for k = 1 .. len(chain) - 1 the prefix A = chain[:k] has
    |dA| = 2 and ratio 2/k, since its boundary is the defect vertex's parent
    plus chain[k].
    """
    tinf = maximal_complete_subtree(t)
    if not tinf:
        raise EmptyWindowError("tree has no live leaf; complete subtree is empty")
    d, depth = t.horizon, t.depth
    longest = [0] * (d + 1)  # longest T_inf run from depth i, then from depth <= i
    for a, r in _single_child_runs(t, tinf).items():
        longest[depth[a]] = max(longest[depth[a]], r)
    longest = list(accumulate(longest, max))
    for k in range(1, d + 1):
        if longest[d - k] <= k:
            return PseudoRegularityResult(k, d)
    # defect: exhibit the longest single-descendant chain off a non-root vertex
    # the live ray to a horizon leaf puts a non-root vertex in tinf (horizon >= 1)
    runs = _single_child_runs(t, t.children)
    defect_vertex = min(tinf - {t.root}, key=lambda a: (-runs[a], depth[a], a))
    return PseudoRegularityResult(None, d, tuple(_single_child_chain(t, defect_vertex)))


class DeadComponent(NamedTuple):
    attachment: str  # the unique complete-subtree vertex the branch hangs from
    vertices: tuple[str, ...]  # dead vertices only; |component| counts these + 1


class ComplementednessResult(NamedTuple):
    c: int
    components: tuple[DeadComponent, ...]


def complementedness_index(t: RootedTree) -> ComplementednessResult:
    """C = max size of a dead branch, counting its attachment vertex.

    A component of the closure of T minus the complete subtree consists of
    the dead vertices of one hanging branch plus the unique complete vertex
    it attaches to; with no dead vertices at all, C = 1.
    """
    tinf = maximal_complete_subtree(t)
    if not tinf:
        raise EmptyWindowError("tree has no live leaf; complete subtree is empty")
    comps = tuple(
        DeadComponent(t.parent[x], tuple(sorted(subtree_past(t, x))))
        for x in t.vertices
        if x not in tinf and t.parent[x] in tinf  # x tops a dead branch
    )
    c = max((len(b.vertices) + 1 for b in comps), default=1)
    return ComplementednessResult(c, comps)


# ---------------------------------------------------------------------------
# Essential boundaries
# ---------------------------------------------------------------------------


class EssentialBoundary(NamedTuple):
    non_essential: frozenset[str]
    essential: frozenset[str]
    inner: frozenset[str]  # vertices of A adjacent to the essential boundary


def essential_boundary(t: RootedTree, subset: Iterable[str]) -> EssentialBoundary:
    """Split the boundary of a connected set into its single root-side vertex
    (empty when the root belongs to the set) and the essential remainder."""
    from .graphs import boundary

    a = frozenset(subset)
    if not a or not a <= set(t.children):
        raise InvalidInputError("A must be a non-empty set of tree vertices")
    g = t.graph
    if len(g.components(a)) != 1:
        raise InvalidInputError("the induced subgraph on A must be connected")
    bd = boundary(g, a)
    top = min(t.depth[x] for x in a)
    ne = frozenset(w for w in bd if t.depth[w] < top)
    e = bd - ne
    inner = frozenset(x for x in a if g.adjacency[x] & e)
    return EssentialBoundary(ne, e, inner)


# ---------------------------------------------------------------------------
# The tree bound
# ---------------------------------------------------------------------------


class TreeAnalysis(NamedTuple):
    horizon: int
    k: int | None
    c: int | None
    t_infty: frozenset[str]
    bounds: CheegerBound
    pseudo: PseudoRegularityResult | None
    complementedness: ComplementednessResult | None
    sandwich_lower: Fraction | None  # h(T_inf)/(C + (C-1) h(T_inf)) with h(T_inf) >= 1/(7K)


def theorem_lower_bound(k: int, c: int) -> Fraction:
    """1/((7K+1)C - 1); with C = 1 this is the complete-tree value 1/(7K)."""
    if k < 1 or c < 1:
        raise InvalidInputError("need K >= 1 and C >= 1")
    return Fraction(1, (7 * k + 1) * c - 1)


def tree_cheeger_bounds(
    t: RootedTree,
    max_size: int | None = None,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> TreeAnalysis:
    """Certified Cheeger interval for the tree the window represents.

    The lower endpoint comes from the (K, C) theorem when K exists within the
    horizon (flagged horizon-certified: the constants are verified on the
    prefix only); a pseudo-regularity defect pins the lower endpoint to 0 and
    reports the defect chain, whose prefixes are the 2/K witness family.  The
    upper endpoint is the window minimum over admissible sets from
    :func:`~cheegerlab.window.window_bound`, capped at ``max_size`` (largest
    size within the budget when omitted).
    """
    from .graphs import BoundEndpoint, CheegerBound, _check_max_size
    from .window import window_bound

    g = t.graph
    if not t.live:
        # bounded tree: the whole vertex set has empty boundary; with no
        # frontier every vertex is admissible, so a cap is checked against all
        if max_size is not None:
            _check_max_size(max_size, len(g.vertices))
        upper = BoundEndpoint(Fraction(0), "brute-force-window",
                              witness={"set": g.vertices, "boundary_size": 0})
        zero = CheegerBound(BoundEndpoint(Fraction(0), "trivial"), upper)
        return TreeAnalysis(t.horizon, None, None, frozenset(), zero, None, None, None)

    tinf = maximal_complete_subtree(t)
    pseudo = pseudo_regularity_index(t)
    comp = complementedness_index(t)
    upper_bound = window_bound(g, max_size, budget).upper

    if pseudo.k is not None:
        value = theorem_lower_bound(pseudo.k, comp.c)
        lower = BoundEndpoint(
            value,
            "tree-theorem",
            witness={"K": pseudo.k, "C": comp.c},
            horizon_certified=True,
        )
        htinf = Fraction(1, 7 * pseudo.k)
        sandwich = htinf / (comp.c + (comp.c - 1) * htinf)
    else:
        lower = BoundEndpoint(
            Fraction(0),
            "tree-theorem",
            witness={"defect_chain": list(pseudo.chain)},
            horizon_certified=True,
        )
        sandwich = None
    return TreeAnalysis(
        t.horizon, pseudo.k, comp.c, tinf,
        CheegerBound(lower, upper_bound), pseudo, comp, sandwich,
    )


# ---------------------------------------------------------------------------
# End space
# ---------------------------------------------------------------------------


def end_space(t: RootedTree) -> FiniteMetricSpace:
    """Visual ultrametric on the live leaves: d(F, G) = exp(-a(F, G)), where
    the Gromov product a(F, G) is the depth of the branching point of F and G.
    Resolution floor exp(-horizon), so the horizon must stay below 746, where
    exp underflows to 0 in binary64; diameter at most 1.

    Every live leaf sits at the horizon, so a(F, G) counts the shared
    ancestors below the root.  The shared root paths of x, z and of z, y are
    both prefixes of z's, so x and y share the shorter: a(x, y) >=
    min(a(x, z), a(z, y)), and d is an ultrametric by construction.  The
    floats keep that: exp(-a) for whole a are a factor e apart, so their
    roundings keep the order, and d(x, y) <= max(d(x, z), d(z, y)) <= the
    rounded sum.  So the space skips the O(n^3) triangle scan.
    """
    import numpy as np

    from .metric import FiniteMetricSpace

    leaves = [v for v in t.vertices if v in t.live]
    if not leaves:
        raise EmptyWindowError("no live leaves: the end space is empty")
    if math.exp(-t.horizon) == 0.0:
        raise InvalidInputError(
            f"horizon {t.horizon} is too deep for an end space: exp(-{t.horizon}) "
            "underflows to 0 in binary64"
        )
    rank = {v: i for i, v in enumerate(t.vertices)}
    ancestors = np.array([[rank[a] for a in t.root_path(f)[1:]] for f in leaves])
    branch = np.zeros((len(leaves), len(leaves)), dtype=np.intp)
    for level in ancestors.T:  # one n x n comparison per depth: O(n^2) memory
        branch += level[:, None] == level[None, :]
    # math.exp, not np.exp, for the same floats as exp(-a); a = horizon only on the diagonal
    exps = np.array([math.exp(-a) for a in range(t.horizon)] + [0.0])
    return FiniteMetricSpace._exact(
        tuple(leaves), exps[branch], resolution_floor=math.exp(-t.horizon)
    )


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _tree_from_children(root: str, kids: dict[str, list[str]], live: Iterable[str]) -> RootedTree:
    return RootedTree(root, {v: tuple(c) for v, c in kids.items()}, frozenset(live))


def _layered_tree(depth: int, fan: Callable[[int], int], sep: str) -> RootedTree:
    """Grow a tree from the root "v" one level at a time: fan(t) is called
    once per vertex on level t, in level order, and that vertex gets as many
    children, named by appending the child's digit ("v" + sep + digit for the
    root's children).  Names are unique only while every fan is at most 10,
    so each child index is a single digit.  The horizon leaves are live."""
    kids: dict[str, tuple[str, ...]] = {}
    frontier = ["v"]
    for level in range(depth):
        nxt: list[str] = []
        for name in frontier:
            stem = name + sep if level == 0 else name
            kids[name] = tuple(f"{stem}{i}" for i in range(fan(level)))
            nxt.extend(kids[name])
        frontier = nxt
    kids.update((v, ()) for v in frontier)
    return RootedTree("v", kids, frozenset(frontier))


def homogeneous_tree(k: int, depth: int) -> RootedTree:
    """Window of the k-regular tree: the root has k children, every other
    internal vertex k-1; all horizon leaves live."""
    if k < 2 or k > 10:
        raise InvalidInputError("need 2 <= k <= 10")
    if depth < 1:
        raise InvalidInputError("need depth >= 1")
    return _layered_tree(depth, lambda level: k if level == 0 else k - 1, "")


def full_branching_tree(b: int, depth: int) -> RootedTree:
    """Every vertex, root included, has exactly b children; horizon leaves live."""
    if b < 1 or b > 10:
        raise InvalidInputError("need 1 <= b <= 10")
    if depth < 1:
        raise InvalidInputError("need depth >= 1")
    return _layered_tree(depth, lambda level: b, ".")


def even_branching_tree(depth: int) -> RootedTree:
    """Binary splits at even depths only, single child at odd depths: the
    minimal pseudo-regularity constant is 2."""
    if depth < 2:
        raise InvalidInputError("need depth >= 2")
    return _layered_tree(depth, lambda level: 2 if level % 2 == 0 else 1, ".")


def comb_tree(depth: int, tooth: int) -> RootedTree:
    """A live spine to the horizon with dead teeth of the given length hanging
    from every spine vertex where they fit below the horizon."""
    if depth < 2 or tooth < 1:
        raise InvalidInputError("need depth >= 2 and tooth >= 1")
    kids: dict[str, list[str]] = {}
    spine = [f"s{i}" for i in range(depth + 1)]
    for i, name in enumerate(spine):
        kids[name] = [spine[i + 1]] if i < depth else []
    for i in range(depth + 1):
        if i + tooth <= depth - 1:  # teeth must stay strictly below the horizon
            prev = spine[i]
            for j in range(tooth):
                name = f"t{i}.{j}"
                kids[prev].append(name)
                kids[name] = []
                prev = name
    return _tree_from_children("s0", kids, [spine[-1]])


def growing_chain(depth: int) -> RootedTree:
    """A single live chain: every vertex has one descendant, so the window
    exhibits a single-descendant chain of every length up to the horizon."""
    if depth < 2:
        raise InvalidInputError("need depth >= 2")
    names = [f"g{i}" for i in range(depth + 1)]
    kids = {names[i]: [names[i + 1]] if i < depth else [] for i in range(depth + 1)}
    return _tree_from_children(names[0], kids, [names[-1]])


def grafted_dead_branches(base: RootedTree, size: int) -> RootedTree:
    """Attach a dead chain of ``size`` vertices to every vertex where it fits
    strictly below the horizon (complementedness becomes size + 1)."""
    if size < 1:
        raise InvalidInputError("need size >= 1")
    kids = {v: list(cs) for v, cs in base.children.items()}
    d = base.depth
    for v in base.vertices:
        if d[v] + size <= base.horizon - 1:
            prev = v
            for j in range(size):
                name = f"{v}~d{j}"
                kids[prev].append(name)
                kids[name] = []
                prev = name
    return _tree_from_children(base.root, kids, base.live)


def random_branching_tree(
    depth: int, seed: int, min_children: int = 2, max_children: int = 3
) -> RootedTree:
    """Seeded tree where every vertex gets min..max children; all leaves live,
    so the result is 1-pseudo-regular whenever min_children >= 2."""
    if depth < 1 or min_children < 1 or max_children < min_children:
        raise InvalidInputError("bad branching parameters")
    if max_children > 10:
        raise InvalidInputError("need max_children <= 10")
    import numpy as np

    rng = np.random.default_rng(seed)
    return _layered_tree(
        depth, lambda level: int(rng.integers(min_children, max_children + 1)), "."
    )


def random_tree(n: int, seed: int) -> RootedTree:
    """Seeded random attachment tree on n vertices; the deepest leaves are
    marked live."""
    if n < 2:
        raise InvalidInputError("need n >= 2")
    import numpy as np

    rng = np.random.default_rng(seed)
    names = [f"r{i}" for i in range(n)]
    kids: dict[str, list[str]] = {names[0]: []}
    depth = [0] * n
    for i in range(1, n):
        p = int(rng.integers(0, i))
        kids[names[p]].append(names[i])
        kids[names[i]] = []
        depth[i] = depth[p] + 1
    horizon = max(depth)
    return _tree_from_children(names[0], kids, [v for v, dv in zip(names, depth) if dv == horizon])
