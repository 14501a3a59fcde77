"""Exact minimum of |N[A]|/|A| over every non-empty set A of chosen vertices,
by Dinkelbach's iteration (Management Science 13, 1967) over Picard's
selection network (Management Science 22, 1976).

Chosen vertex i is given by ``closed[i]``, the bit set of its closed
neighbourhood N[i] among the window's vertices.  For a ratio p/q the network
has an arc s -> i of capacity p for each chosen i, an unbounded arc i -> w for
each w in N[i], and an arc w -> t of capacity q for each covered w.  A cut
keeping A and N[A] on the source side costs p(n - |A|) + q|N[A]|, and every
finite cut has this form, so a flow of value p*n proves q|N[A]| >= p|A| for
every A.  Everything is an integer; an unbounded arc gets the total finite
capacity + 1, which no cut can afford.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Sequence

from .errors import ConstructionError
from .graphs import _members


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
