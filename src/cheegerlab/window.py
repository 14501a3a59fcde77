"""The window minimum: the least |dA|/|A| over the admissible sets of a
window, with its lex-smallest witness, behind one entry point,
:func:`window_bound`, which picks the size cap.

At full cap it is a parametric minimum cut: Dinkelbach's iteration
(Management Science 13, 1967) over Picard's selection network (Management
Science 22, 1976).  Chosen vertex i is given by ``closed[i]``, the bit set of
its closed neighbourhood N[i] among the window's vertices.  For a ratio p/q
the network has an arc s -> i of capacity p for each chosen i, an unbounded
arc i -> w for each w in N[i], and an arc w -> t of capacity q for each
covered w.  A cut keeping A and N[A] on the source side costs
p(n - |A|) + q|N[A]|, and every finite cut has this form, so a flow of value
p*n proves q|N[A]| >= p|A| for every A.  Everything is an integer; an
unbounded arc gets the total finite capacity + 1, which no cut can afford.

Below full cap it is a branch and bound over the sets connected in G^2.
:func:`converse_scan` runs the window minimum across a family of windows.
Only ``cheeger``, ``tree`` and ``scan`` reach this module, so the other
commands never compile it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DEFAULT_SUBSET_BUDGET,
    LONG_COUNT,
    BudgetExceededError,
    ConstructionError,
    EmptyWindowError,
    InvalidInputError,
)
from .graphs import (
    BoundEndpoint,
    CheegerBound,
    Graph,
    _check_max_size,
    admissible_vertices,
    auto_max_size,
    boundary,
    capped_subset_count,
)


# ---------------------------------------------------------------------------
# Bit sets and the scan below full cap
# ---------------------------------------------------------------------------


def _connected_bitsets(adj: list[int], max_size: int):
    """Yield each connected set of at most ``max_size`` vertices once, as a bit
    set: vertex i is bit i and ``adj[i]`` its neighbours.  Exclusive-
    neighbourhood extension (ESU; Wernicke, IEEE/ACM TCBB 2006) on an explicit
    stack, twice as fast as recursion: each set grows only by vertices above
    its lowest one that no earlier member neighbours."""
    for v in range(len(adj)):
        above = -(2 << v)  # every bit position greater than v
        stack = [(0, 0, 1 << v, 0)]  # (set, its neighbours, extension, size)
        while stack:
            sub, nbrs, ext, size = stack.pop()
            low = ext & -ext
            ext ^= low
            if ext:
                stack.append((sub, nbrs, ext, size))
            w = low.bit_length() - 1
            sub |= low
            yield sub
            grown = ext | (adj[w] & above & ~nbrs)
            if size + 1 < max_size and grown:
                stack.append((sub, nbrs | adj[w], grown, size + 1))


def _members(x: int) -> list[int]:
    """The set bits of ``x``, lowest first: the lists compare as the sets sort
    as increasing tuples, a proper prefix first."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _window_scan(square: list[int], closed: list[int], max_size: int):
    """The scan below full cap: ``(b, s, tied, judged)`` for b/s the least
    ratio |N[S]|/|S| - 1 over the sets S of at most ``max_size`` vertices
    connected in ``square`` (G^2; vertex i is bit i), with N[S] the OR of
    ``closed`` over S; ``tied`` the ``(set, N[set], size)`` of every minimizer,
    and ``judged`` how many sets came within the limit thr[m].  The enumeration
    is :func:`_connected_bitsets`'s, except that each popped set builds its
    children at once, only those that can come within the limit, and judges
    each as it is built."""
    m = max_size
    # thr[k]: the largest |N[S]| with which a k-set ties or beats the best so
    # far; before the first set, every N[S] fits
    thr = [reduce(or_, closed, 0).bit_count()] * (m + 1)
    limit = thr[m]
    best_b, best_s, tied, judged = 1, 0, [], 0
    for v in range(len(square)):
        above = -(2 << v)  # every bit position greater than v
        stack = [(0, 0, 1 << v, 0, 0, 0)]  # (set, its neighbours, extension, N[set], |N[set]|, size)
        # not ``while stack``: CPython 3.11 specializes a function's bytecode
        # only after eight calls or unconditional backward jumps, and a
        # conditional loop ends in a conditional one, so the one call a CLI
        # process makes would run its costly first roots unspecialized
        while True:
            if not stack:
                break
            sub, nbrs, full, acc, count, size = stack.pop()
            size += 1  # each child's size
            cut, grow = thr[size], size < m
            # at the limit, a child outside N[set] would pass it
            ext = full & acc if count >= limit else full
            while ext:  # highest bit first, so the lowest child is popped first
                w = ext.bit_length() - 1
                low = 1 << w
                ext ^= low
                grown = acc | closed[w]
                c = grown.bit_count()
                if c <= limit:
                    judged += 1
                    child = sub | low
                    if c <= cut:
                        b = c - size
                        if b * best_s < best_b * size:
                            best_b, best_s, tied = b, size, []
                            thr = [(b + size) * k // size for k in range(m + 1)]
                            cut, limit = thr[size], thr[m]
                        tied.append((child, grown, size))
                    if grow:
                        # the popped extension's bits above w, and w's
                        # exclusive neighbours
                        x = (full & -(low << 1)) | (square[w] & above & ~nbrs)
                        if x:
                            stack.append((child, nbrs | square[w], x, grown, c, size))
    return best_b, best_s, tied, judged


# ---------------------------------------------------------------------------
# The cut at full cap
# ---------------------------------------------------------------------------


class SelectionNetwork:
    """Picard's network over ``closed``: node 0 is s, nodes 1..n the chosen
    vertices, then one node per covered window vertex, and t last.  Forward
    arc k runs ``tails[k]`` -> ``heads[k]``: first the n source arcs, then the
    unbounded arcs, then one sink arc per covered vertex."""

    def __init__(self, closed: Sequence[int]):
        self.n = n = len(closed)
        covered = reduce(or_, closed, 0)
        node = {j: n + 1 + k for k, j in enumerate(_members(covered))}
        self.t = t = n + 1 + len(node)
        self.tails = [0] * n
        self.heads = list(range(1, n + 1))
        for i, bits in enumerate(closed):
            for j in _members(bits):
                self.tails.append(i + 1)
                self.heads.append(node[j])
        self.first_sink = len(self.tails)
        self.tails += node.values()
        self.heads += [t] * len(node)
        # residual arc 2k runs along forward arc k, 2k + 1 against it
        self.ends = [x for v in self.heads for x in (v, 0)]
        self.ends[1::2] = self.tails
        self.out: list[list[int]] = [[] for _ in range(t + 1)]
        for e in range(len(self.ends)):
            self.out[self.ends[e ^ 1]].append(e)

    def capacities(self, p: int, q: int) -> list[int]:
        """Capacity of each forward arc at the ratio p/q."""
        sinks = len(self.tails) - self.first_sink
        unbounded = p * self.n + q * sinks + 1
        return [p] * self.n + [unbounded] * (self.first_sink - self.n) + [q] * sinks

    def max_flow(self, p: int, q: int) -> tuple[list[int], list[int]]:
        """Dinic's maximum flow at the ratio p/q: (flow on each forward arc,
        the residual capacities, arc 2k forward and 2k + 1 backward)."""
        res = []
        for c in self.capacities(p, q):
            res += (c, 0)
        out, t, ends = self.out, self.t, self.ends
        while True:
            level = [-1] * (t + 1)
            level[0] = 0
            frontier = [0]
            while frontier and level[t] < 0:
                nxt = []
                for u in frontier:
                    for e in out[u]:
                        v = ends[e]
                        if res[e] and level[v] < 0:
                            level[v] = level[u] + 1
                            nxt.append(v)
                frontier = nxt
            if level[t] < 0:
                return res[1::2], res
            ptr = [0] * (t + 1)
            path: list[int] = []  # arcs of the current level-graph path from s
            u = 0
            while True:
                if u == t:
                    push = min(res[e] for e in path)
                    for e in path:
                        res[e] -= push
                        res[e ^ 1] += push
                    path, u = [], 0
                    continue
                arcs = out[u]
                while ptr[u] < len(arcs):
                    e = arcs[ptr[u]]
                    if res[e] and level[ends[e]] == level[u] + 1:
                        break
                    ptr[u] += 1
                else:  # u is a dead end in this phase
                    if not path:
                        break
                    level[u] = -1
                    u = ends[path.pop() ^ 1]
                    ptr[u] += 1
                    continue
                path.append(arcs[ptr[u]])
                u = ends[path[-1]]

    def reaches_sink(self, res: list[int]) -> list[bool]:
        """Which nodes reach t in the residual graph: one reverse search."""
        seen = [False] * (self.t + 1)
        seen[self.t] = True
        stack = [self.t]
        while stack:
            v = stack.pop()
            for e in self.out[v]:  # e leaves v, so e ^ 1 enters v from ends[e]
                u = self.ends[e]
                if res[e ^ 1] and not seen[u]:
                    seen[u] = True
                    stack.append(u)
        return seen

    def verify(self, p: int, q: int, flow: Sequence[int]) -> None:
        """Check in O(arcs) that ``flow`` is feasible at p/q and has value
        p*n, which proves q|N[A]| >= p|A| for every set A; raise
        ConstructionError otherwise."""
        caps = self.capacities(p, q)
        if len(flow) != len(caps):
            raise ConstructionError("flow does not match the network's arcs")
        excess = [0] * (self.t + 1)
        for k, (f, c) in enumerate(zip(flow, caps)):
            if not 0 <= f <= c:
                raise ConstructionError(f"flow {f} on arc {k} is outside [0, {c}]")
            excess[self.tails[k]] -= f
            excess[self.heads[k]] += f
        if any(excess[1:self.t]):
            raise ConstructionError("flow is not conserved at an inner node")
        if excess[self.t] != p * self.n:
            raise ConstructionError(
                f"flow value {excess[self.t]} is not {p * self.n}: the ratio {p}/{q} is not minimal"
            )


def min_closed_ratio(closed: Sequence[int]) -> tuple[int, int, int]:
    """(p, q, U): p/q is the least |N[A]|/|A| over non-empty A, and U (bit i
    for ``closed[i]``) the inclusion-maximal set attaining it.

    Dinkelbach's iteration starts from A = everything and cuts at p/q =
    |N[A]|/|A|; while the flow falls short of p*n the source side of a
    minimum cut is a set of smaller ratio, and it becomes A.  At the optimum
    the chosen vertices that cannot reach t in the final residual graph form
    the largest minimum cut's source side, which is U.  The final flow is
    re-verified before returning."""
    net = SelectionNetwork(closed)
    p, q = reduce(or_, closed, 0).bit_count(), net.n
    while True:
        flow, res = net.max_flow(p, q)
        reach = net.reaches_sink(res)
        side = sum(1 << i for i in range(net.n) if not reach[i + 1])
        if sum(flow[:net.n]) == p * net.n:
            break
        covered = reduce(or_, map(closed.__getitem__, _members(side)), 0)
        if covered.bit_count() * q >= p * side.bit_count():
            raise ConstructionError(f"a cut below {p}/{q} gave no set of smaller ratio")
        p, q = covered.bit_count(), side.bit_count()
    net.verify(p, q, flow)
    return p, q, side


# ---------------------------------------------------------------------------
# The window minimum
# ---------------------------------------------------------------------------


def interior_cheeger_bruteforce(
    g: Graph,
    max_size: int,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> CheegerBound:
    """Exact minimum of |dA|/|A| over every non-empty subset of admissible
    vertices with at most ``max_size`` elements.

    Admissible means distance >= 2 from the frontier, so each window ratio
    equals its value in the ambient graph and the minimum is a true upper
    bound for the ambient Cheeger constant.  The witness reported is the
    lexicographically smallest minimizing set.  ``budget`` bounds the count of
    all subsets up to the cap, checked before any work.

    At full cap (``max_size`` = the admissible count) no set is excluded, and
    the minimum is p/q - 1 for p/q the least |N[A]|/|A|, where N[A] = A + dA.
    A -> |N[A]| is a coverage function, so q|N[A]| - p|A| is submodular, and
    :func:`min_closed_ratio` finds p/q by a few minimum cuts
    (Dinkelbach's iteration over Picard's selection network).  It re-verifies
    the final flow in exact integers, and it returns U, the admissible
    vertices that cannot reach t in the final residual graph: the source side
    of the largest minimum cut, which is the inclusion-maximal minimizer.
    Minimizers are closed under union and intersection (for
    f(A) = |N[A]| - (p/q)|A| >= 0, f(M + U) + f(M & U) <= f(M) + f(U) = 0),
    so every minimizer M lies inside U.  The witness is the shortest prefix P
    of U in name order whose ratio is p/q.  A minimizer M other than P cannot
    sort before it: M is not a shorter prefix of U, by the choice of P; if P
    is a prefix of M, P sorts first; otherwise M and P first differ at a
    position where P holds the next element u of U and M, a subset of U,
    skips u for a larger element, so P sorts first again.  A flow that fails
    its check, or a U with no prefix of ratio p/q, raises ConstructionError.

    Below full cap a scan enumerates the sets connected in G^2 (distance <= 2
    joins): a set's G^2-components lie at distance >= 3, so its ratio is a
    mediant of theirs, and the minimizers are the unions of far-apart
    G^2-connected ones.  The scan returns every G^2-connected minimizer; they
    are sorted once, and the witness is the least of them and their unions.

    The scan (:func:`_window_scan`) is a branch and bound on the closed
    neighbourhood N[S] = S + dS, carried as a bit set along the enumeration.
    Let m = ``max_size`` and b/s the best ratio so far, and keep the table
    thr[k] = floor((b + s)k/s) for k <= m.  A k-set S ties or beats the best
    exactly when |N[S]|/k - 1 <= b/s, that is |N[S]| <= (b + s)k/s, that is
    |N[S]| <= thr[k] (|N[S]| is an integer), so each set is judged by one
    comparison as it is built.  A set S' with |N[S']| > thr[m] has ratio
    |N[S']|/|S'| - 1 >= |N[S']|/m - 1 > b/s, so it can neither beat nor tie the
    best, and nor can any set grown from it, as N[S'] only grows; it is
    dropped and not grown.  So a set S with |N[S]| >= thr[m] tries only the
    children S + w with w in N[S]: any other w adds itself to N[S + w], which
    then passes thr[m].  The table is rebuilt each time the best ratio
    falls, and its entries only fall.  Ties are never lost: a minimizer M of
    ratio r <= b/s has |N[M]| = |M|(1 + r) <= thr[|M|] <= thr[m] at every
    moment of the scan, and the sets M grows from have smaller N[.], so none
    of them is dropped either.
    """
    adm = sorted(admissible_vertices(g))
    if not adm:
        raise EmptyWindowError("no vertex is at distance >= 2 from the frontier")
    _check_max_size(max_size, len(adm))
    # summed up to LONG_COUNT past a small budget, so a short count is still printed
    required = capped_subset_count(len(adm), max_size, max(budget, LONG_COUNT))
    if required is None or required > budget:
        raise BudgetExceededError(required, budget)

    # bit i is adm[i] for i < n, so bit order is name order; other vertices follow
    n = len(adm)
    pos = {v: i for i, v in enumerate(adm + sorted(set(g.vertices) - set(adm)))}
    closed = {v: sum(1 << pos[u] for u in g.adjacency[v] | {v}) for v in pos}
    if max_size == n:
        p, q, maximal = min_closed_ratio([closed[v] for v in adm])
        prefix = covered = 0
        for i in _members(maximal):
            prefix |= 1 << i
            covered |= closed[adm[i]]
            if covered.bit_count() * q == p * prefix.bit_count():
                break
        else:
            raise ConstructionError(f"no prefix of the maximal minimizer has ratio {p}/{q}")
        return _oracle_result(g, adm, prefix, Fraction(p - q, q), max_size)

    square = [  # G^2 on the admissible vertices
        reduce(or_, map(closed.get, g.adjacency[v]), 0) & ((1 << n) - 1) & ~(1 << i)
        for i, v in enumerate(adm)
    ]

    best_b, best_s, tied, _ = _window_scan(square, [closed[v] for v in adm], max_size)
    tied.sort(key=lambda t: _members(t[0]))
    lex_min, least = tied[0][0], min(t[2] for t in tied)

    # Unions of pairwise distance->=3 minimizers, parts in lex order.  Extensions
    # add only bits above the last part's lowest, so a union that differs from
    # lex_min on those bits cannot lead below lex_min.
    tied = [t for t in tied if t[2] + least <= max_size]
    stack = [(0, 0, 0, 0, 0)]  # (next part, union, its closed neighbourhood, size, bits fixed)
    while stack:
        start, union, covered, size, fixed = stack.pop()
        if (union ^ lex_min) & fixed:
            continue
        for i in reversed(range(start, len(tied))):  # lex-smallest part is popped first
            sub, acc, s = tied[i]
            if acc & covered or size + s > max_size:
                continue
            grown = union | sub
            if _members(grown) < _members(lex_min):
                lex_min = grown
            if size + s + least <= max_size:
                stack.append((i + 1, grown, covered | acc, size + s, (sub & -sub) * 2 - 1))
    return _oracle_result(g, adm, lex_min, Fraction(best_b, best_s), max_size)


def _oracle_result(
    g: Graph, adm: list[str], witness_bits: int, value: Fraction, max_size: int
) -> CheegerBound:
    """The window oracle's result: ``value`` with the admissible vertices of
    ``witness_bits`` (bit i is ``adm[i]``) as witness, re-verified: a witness
    whose recounted ratio |dA|/|A| on ``g`` is not ``value`` raises ConstructionError."""
    witness = tuple(adm[i] for i in _members(witness_bits))
    b = len(boundary(g, witness))
    if not witness or Fraction(b, len(witness)) != value:
        raise ConstructionError(f"window witness has ratio {b}/{len(witness)}, not {value}")
    upper = BoundEndpoint(
        value,
        "brute-force-window",
        witness={"set": witness, "boundary_size": b, "max_size": max_size},
        horizon_certified=bool(g.frontier),
    )
    return CheegerBound(lower=BoundEndpoint(Fraction(0), "trivial"), upper=upper)


def window_bound(
    g: Graph, max_size: int | None = None, budget: int = DEFAULT_SUBSET_BUDGET
) -> CheegerBound:
    """The window's upper endpoint: :func:`interior_cheeger_bruteforce` at cap
    ``max_size``, or, when it is None, at the largest cap whose enumeration of
    the admissible vertices fits ``budget``.  The witness records the cap as
    ``max_size``.  Raises EmptyWindowError when no vertex is admissible."""
    if max_size is None:
        adm = admissible_vertices(g)
        if not adm:
            raise EmptyWindowError("no vertex is at distance >= 2 from the frontier")
        max_size = auto_max_size(len(adm), budget)
    return interior_cheeger_bruteforce(g, max_size, budget)


# ---------------------------------------------------------------------------
# Window scans across a family
# ---------------------------------------------------------------------------


class ConverseScanReport(NamedTuple):
    """Interior-Cheeger values across a family of windows.

    ``decay`` flags a non-increasing sequence whose last value dropped to at
    most half of the first (evidence toward a vanishing ambient constant);
    ``floor`` is the smallest value seen.  When an ambient lower bound is
    supplied, every window value must stay above it.
    """

    values: tuple[Fraction, ...]
    witnesses: tuple[tuple[str, ...], ...]
    nonincreasing: bool
    decay: bool
    floor: Fraction
    ambient_lower: Fraction | None = None
    lower_respected: bool | None = None


def converse_scan(
    windows: Iterable[Graph],
    max_size: int | None = None,
    budget: int = DEFAULT_SUBSET_BUDGET,
    ambient_lower: Fraction | None = None,
) -> ConverseScanReport:
    values: list[Fraction] = []
    witnesses: list[tuple[str, ...]] = []
    for g in windows:
        # an explicit cap is clamped to each window's admissible count
        cap = None if max_size is None else min(max_size, len(admissible_vertices(g)))
        bound = window_bound(g, cap, budget)
        values.append(bound.upper.value)
        witnesses.append(tuple(bound.upper.witness["set"]))
    if not values:
        raise InvalidInputError("need at least one window")
    nonincreasing = all(b <= a for a, b in zip(values, values[1:]))
    decay = nonincreasing and len(values) >= 2 and values[-1] * 2 <= values[0]
    floor = min(values)
    respected = None
    if ambient_lower is not None:
        respected = all(v >= ambient_lower for v in values)
    return ConverseScanReport(
        tuple(values), tuple(witnesses), nonincreasing, decay, floor,
        ambient_lower, respected,
    )
