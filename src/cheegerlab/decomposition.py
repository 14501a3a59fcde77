"""Vertex-overlap decompositions of graphs and the explicit Cheeger bounds
they certify, plus the graft construction.

A decomposition covers the ambient graph by induced pieces meeting only in
independent vertex sets.  Pieces in the first class carry a re-verifiable
Cheeger certificate; every piece of the second class must be R-close (in its
own intrinsic metric) to the first class except for components that carry
certificates themselves.  Certificates are always re-verified from the piece
data; declared numbers are never trusted.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .errors import BudgetExceededError, ConstructionError, EmptyWindowError, InvalidInputError
from .frozen import Frozen
from .graphs import BoundEndpoint, CheegerBound, Graph

if TYPE_CHECKING:
    from .trees import RootedTree


# ---------------------------------------------------------------------------
# Theorem formulas
# ---------------------------------------------------------------------------


def _check_bound_args(mu: int, radius: int, rate: Fraction) -> None:
    """Domain of both formulas, plus a size check made before mu^(R+1) is
    computed: either bound's reduced denominator exceeds mu^R, so when mu^R
    has more digits than ``sys.get_int_max_str_digits()`` (0: no limit) the
    exact bound could not be rendered."""
    if mu < 2:
        raise InvalidInputError("the formula needs mu >= 2")
    if radius < 0 or rate <= 0:
        raise InvalidInputError("need R >= 0 and r > 0")
    limit = sys.get_int_max_str_digits()
    digits = radius * math.log10(mu)  # mu^R has floor(digits) + 1 digits
    if limit and digits >= limit + 1:
        raise BudgetExceededError(
            int(digits) + 1, limit, "digits in the exact bound", option="PYTHONINTMAXSTRDIGITS"
        )


def bound_general(mu: int, radius: int, rate: Fraction | int) -> Fraction:
    """Ambient lower bound r^2 (mu-1) / ((mu^{R+1}-1)(mu+r)^2 + 2 r mu (mu-1))."""
    rate = Fraction(rate)
    _check_bound_args(mu, radius, rate)
    num = rate**2 * (mu - 1)
    den = (mu ** (radius + 1) - 1) * (mu + rate) ** 2 + 2 * rate * mu * (mu - 1)
    return num / den


def bound_strong(mu: int, radius: int, rate: Fraction | int) -> Fraction:
    """Strong-decomposition bound r (mu-1) / ((mu^{R+1}-1)(mu+r) + mu (mu-1));
    never below the general bound at the same parameters."""
    rate = Fraction(rate)
    _check_bound_args(mu, radius, rate)
    num = rate * (mu - 1)
    den = (mu ** (radius + 1) - 1) * (mu + rate) + mu * (mu - 1)
    value = num / den
    if value < bound_general(mu, radius, rate):
        raise ConstructionError("strong bound fell below the general bound", witness=value)
    return value


# ---------------------------------------------------------------------------
# Decomposition data and validation
# ---------------------------------------------------------------------------


class PieceCertificate(Frozen):
    """Re-verifiable evidence that a piece has Cheeger constant >= r.

    ``tree-theorem``: the induced piece is a rooted-tree window whose live
    leaves are its ambient-frontier vertices other than the root; its (K, C)
    bound is recomputed from scratch.  ``function``: a vertex function is
    re-run through the gradient/Laplacian certificate on the induced piece.
    """

    kind: str
    root: str | None
    f: Mapping[str, Fraction] | None
    _fields = ("kind", "root", "f")

    def __init__(
        self, kind: str, root: str | None = None, f: Mapping[str, Fraction] | None = None
    ):
        self.__dict__.update(kind=kind, root=root, f=f)
        if self.kind not in ("tree-theorem", "function"):
            raise InvalidInputError(f"unknown certificate kind {self.kind!r}")
        if self.kind == "tree-theorem" and self.root is None:
            raise InvalidInputError("tree-theorem certificate needs a root")
        if self.kind == "function" and self.f is None:
            raise InvalidInputError("function certificate needs the function")


class DecompositionSpec(Frozen):
    ambient: Graph
    pieces: dict[str, frozenset[str]]
    s1: frozenset[str]
    s2: frozenset[str]
    radius: int
    rate: Fraction
    certificates: dict[str, PieceCertificate]
    _fields = ("ambient", "pieces", "s1", "s2", "radius", "rate", "certificates")

    def __init__(
        self,
        ambient: Graph,
        pieces: dict[str, frozenset[str]],
        s1: frozenset[str],
        s2: frozenset[str],
        radius: int,
        rate: Fraction,
        certificates: dict[str, PieceCertificate] | None = None,
    ):
        self.__dict__.update(
            ambient=ambient,
            pieces=pieces,
            s1=s1,
            s2=s2,
            radius=radius,
            rate=rate,
            certificates={} if certificates is None else certificates,
        )


class PieceScan(NamedTuple):
    """Recomputed second-class piece data (functions of ambient, pieces, R)."""

    contact: tuple[str, ...]  # V_s: vertices shared with the certified union
    shield: tuple[str, ...]  # W_s: closed R-ball of the contact set, intrinsic metric
    components: tuple[tuple[str, ...], ...]  # leftover components needing certificates


class ValidationReport(Frozen):
    spec: DecompositionSpec  # the spec object that was validated
    valid: bool
    strong: bool
    violations: tuple[str, ...]
    unverified: tuple[str, ...]  # frontier-crossing components tolerated without proof
    verified_lower: dict[str, Fraction]
    scans: dict[str, PieceScan]
    # repr leaves out the spec
    _fields = ("valid", "strong", "violations", "unverified", "verified_lower", "scans")

    def __init__(
        self,
        spec: DecompositionSpec,
        valid: bool,
        strong: bool,
        violations: tuple[str, ...],
        unverified: tuple[str, ...],
        verified_lower: dict[str, Fraction],
        scans: dict[str, PieceScan],
    ):
        self.__dict__.update(
            spec=spec,
            valid=valid,
            strong=strong,
            violations=violations,
            unverified=unverified,
            verified_lower=verified_lower,
            scans=scans,
        )


def _piece_walk(g: Graph, piece: frozenset[str], root: str) -> tuple[tuple, tuple[int, ...]]:
    """Walk the piece of ``g`` induced on ``piece`` (vertices ``g`` lacks
    dropped) from ``root``, with its other frontier vertices live; return
    the arguments of ``RootedTree._walked`` and the piece's shape key.

    One walk in ``RootedTree``'s own order (pop a vertex, push its children)
    reads each vertex's in-piece neighbours with one ``adj[x] & piece``:
    those other than its parent are its children, sorted.  The piece is a
    tree exactly when no child was reached before and the walk reaches every
    piece vertex: then every in-piece edge joins a vertex to its parent, and
    an edge that did not would close a cycle.  That is the proof
    ``RootedTree._walked`` asks for, so only the live-leaf and horizon checks
    run again.

    The key lists, for each vertex in the order the walk pops it,
    2 x its child count + 1 if it is live.  Equal keys mean isomorphic rooted
    trees with matching live sets.  The pops are a preorder (children taken
    last to first), and a preorder list of child counts rebuilds its tree:
    the first entry is the root's count k, and the rest splits into k runs,
    one per child, each ending where its own counts close.  So matching two
    pieces with equal keys position by position maps the root to the root,
    the i-th child of a vertex to the i-th child of its image, and live
    vertices to live ones.  Depth, leaves and the horizon keep their values
    under that map, and so do the complete subtree, K and C, and whether the
    live-leaf and horizon checks pass; the tree-theorem bound is a function
    of the key."""
    adj = g.adjacency
    piece = piece & adj.keys()
    if not piece:
        raise InvalidInputError("piece is not a tree")
    start = root if root in piece else next(iter(piece))
    live = (g.frontier & piece) - {root}
    order = [start]
    parent: dict[str, str] = {}
    depth = {start: 0}
    children: dict[str, tuple[str, ...]] = {}
    key: list[int] = []
    stack = [start]
    while stack:
        x = stack.pop()
        kids = sorted(adj[x] & piece)
        if x in parent:
            kids.remove(parent[x])
        children[x] = kids = tuple(kids)
        key.append(2 * len(kids) + (x in live))
        below = depth[x] + 1
        for c in kids:
            if c in depth:
                raise InvalidInputError("piece is not a tree")
            order.append(c)
            parent[c] = x
            depth[c] = below
        stack.extend(kids)
    if len(order) != len(piece):
        raise InvalidInputError("piece is not a tree")
    if root not in piece:
        raise InvalidInputError(f"root {root!r} is not a vertex of the piece")
    return (root, children, live, tuple(order), parent, depth), tuple(key)


def _piece_tree(g: Graph, piece: frozenset[str], root: str) -> RootedTree:
    """The piece of ``g`` induced on ``piece``, rooted at ``root``, with its
    other frontier vertices live; see :func:`_piece_walk`."""
    from .trees import RootedTree  # only tree pieces need the tree module

    return RootedTree._walked(*_piece_walk(g, piece, root)[0])


def _verify_certificate(
    g: Graph,
    piece: frozenset[str],
    cert: PieceCertificate,
    rate: Fraction,
    shapes: dict[tuple[int, ...], Fraction],
) -> tuple[bool, Fraction | None, str]:
    """Recompute the certified lower bound on the piece of ``g`` induced on
    ``piece``.

    ``shapes`` maps the shape key of each tree piece verified so far to its
    tree-theorem value.  Every tree piece is still walked, since the walk is
    the proof that it is a tree; a piece whose key is there skips only what
    the key fixes (see :func:`_piece_walk`): the live-leaf and horizon
    checks, K, C and the bound.  Only values are kept, never a failure,
    whose message may name a vertex, and the rate is compared per piece."""
    if cert.kind == "tree-theorem":
        from .trees import (
            RootedTree,
            complementedness_index,
            pseudo_regularity_index,
            theorem_lower_bound,
        )

        try:
            walked, key = _piece_walk(g, piece, cert.root)
            value = shapes.get(key)
            if value is None:
                tree = RootedTree._walked(*walked)
                pseudo = pseudo_regularity_index(tree)
                if pseudo.k is None:
                    return False, Fraction(0), "piece tree is not pseudo-regular in its window"
                comp = complementedness_index(tree)
                value = shapes[key] = theorem_lower_bound(pseudo.k, comp.c)
        except (InvalidInputError, EmptyWindowError) as exc:
            return False, None, f"tree certificate rejected: {exc}"
    else:
        from .certificate import certificate_lower_bound  # only function pieces need it

        res = certificate_lower_bound(g.induced(piece), cert.f)
        if not res.certified:
            return False, Fraction(0), f"function certificate fails at {res.violating_vertex}"
        value = res.bound.lower.value
    if value < rate:
        return False, value, f"re-verified lower bound {value} is below the required {rate}"
    return True, value, ""


def validate(spec: DecompositionSpec) -> ValidationReport:
    """Re-derive every structural clause of the decomposition and re-verify
    every certificate; each violated clause is reported with a witness."""
    g = spec.ambient
    violations: list[str] = []
    unverified: list[str] = []
    verified: dict[str, Fraction] = {}
    scans: dict[str, PieceScan] = {}

    if not spec.s1 or (spec.s1 | spec.s2) != spec.pieces.keys() or spec.s1 & spec.s2:
        violations.append("class labels must partition the piece ids with S1 non-empty")
    if spec.radius < 0 or spec.rate <= 0:
        violations.append("need R >= 0 and r > 0")

    names = sorted(spec.pieces)
    pieces_at: dict[str, list[str]] = {}  # vertex -> the pieces that hold it, by name
    for name in names:
        for v in spec.pieces[name]:
            pieces_at.setdefault(v, []).append(name)
    adj = g.adjacency
    unknown: dict[str, str] = {}  # piece -> its smallest unknown vertex
    for v in sorted(pieces_at.keys() - adj.keys(), reverse=True):
        unknown.update(dict.fromkeys(pieces_at[v], v))
    for name in spec.pieces:
        if name in unknown:
            violations.append(f"piece {name!r} contains unknown vertex {unknown[name]!r}")
    missing = adj.keys() - pieces_at.keys()
    if missing:
        violations.append(f"cover misses vertex {min(missing)!r}")

    # Pieces with equal vertex sets are reported once per group, and the pair
    # clauses below see only each group's smallest name, so k copies of a
    # piece give one message, not k(k - 1) containments.
    groups: dict[frozenset[str], list[str]] = {}
    for name in names:
        groups.setdefault(spec.pieces[name], []).append(name)
    if len(groups) < len(names):
        for group in groups.values():
            if len(group) > 1:
                violations.append(f"pieces {', '.join(map(repr, group))} have equal vertex sets")
        names = [group[0] for group in groups.values()]
        kept = set(names)
        pair_at = {v: [name for name in at if name in kept] for v, at in pieces_at.items()}
    else:
        pair_at = pieces_at

    # A shared edge has both ends in two or more pieces, so only edges at
    # such vertices are read, and of the two piece lists the shorter.
    shared: dict[tuple[str, str], tuple[str, str]] = {}  # piece pair -> smallest shared edge
    for u, at_u in pair_at.items():
        if len(at_u) < 2 or u not in adj:
            continue
        for v in adj[u]:
            at_v = pair_at.get(v, ())
            if u < v and len(at_v) >= 2:
                scan, end = (at_u, v) if len(at_u) <= len(at_v) else (at_v, u)
                both = [name for name in scan if end in spec.pieces[name]]
                for pair in combinations(both, 2):
                    shared[pair] = min(shared.get(pair, (u, v)), (u, v))
    # (a, b, rank) with a < b -> message: the shared edge, "a in b", "b in a"
    found = {
        (a, b, 0): f"pieces {a!r} and {b!r} share the edge {u}--{v}; "
        "intersections must be vertex sets"
        for (a, b), (u, v) in shared.items()
    }
    # A piece that holds piece a holds a's rarest vertex (any piece, if a is
    # empty); the search stops at a vertex that a alone holds.
    for a in names:
        verts = spec.pieces[a]
        rarest = names
        for v in verts:
            at = pair_at[v]
            if len(at) < len(rarest):
                rarest = at
                if len(at) == 1:
                    break
        for b in rarest:
            if b != a and verts <= spec.pieces[b]:
                found[(a, b, 1) if a < b else (b, a, 2)] = f"piece {a!r} is contained in {b!r}"
    violations += [found[key] for key in sorted(found)]

    certified_union = frozenset().union(*(spec.pieces[s] for s in spec.s1 if s in spec.pieces))
    shapes: dict[tuple[int, ...], Fraction] = {}  # tree-piece shape key -> its value

    for s in sorted(spec.s1 & spec.pieces.keys()):  # a label naming no piece is reported above
        cert = spec.certificates.get(s)
        if cert is None:
            violations.append(f"first-class piece {s!r} has no certificate")
            continue
        ok, value, reason = _verify_certificate(g, spec.pieces[s], cert, spec.rate, shapes)
        if value is not None:
            verified[s] = value
        if not ok:
            violations.append(f"piece {s!r}: {reason}")

    strong = True
    for s in sorted(spec.s2):  # read on its known vertices: unknown ones are reported above
        verts = spec.pieces.get(s, frozenset()) & adj.keys()
        piece = g.induced(verts)
        contact = sorted(verts & certified_union)
        if not contact:
            violations.append(f"second-class piece {s!r} does not meet the certified union")
            scans[s] = PieceScan((), (), ())
            continue
        dist = piece.bfs_distances(contact)
        shield = sorted(v for v, d in dist.items() if d <= spec.radius)
        rest = verts - set(shield)
        comps = piece.components(rest)
        if rest:
            strong = False
        scans[s] = PieceScan(tuple(contact), tuple(shield), tuple(tuple(sorted(c)) for c in comps))
        for j, comp in enumerate(sorted(comps, key=min)):
            key = f"{s}/{j}"
            cert = spec.certificates.get(key)
            if cert is None:
                if set(comp) & g.frontier:
                    unverified.append(key)
                else:
                    violations.append(
                        f"component {key!r} (starting {min(comp)!r}) has no certificate"
                    )
                continue
            ok, value, reason = _verify_certificate(g, comp, cert, spec.rate, shapes)
            if value is not None:
                verified[key] = value
            if not ok:
                violations.append(f"component {key!r}: {reason}")

    return ValidationReport(
        spec=spec,
        valid=not violations,
        strong=strong,
        violations=tuple(violations),
        unverified=tuple(unverified),
        verified_lower=verified,
        scans=scans,
    )


def decomposition_bound(spec: DecompositionSpec, report: ValidationReport) -> CheegerBound:
    """Certified ambient lower bound from a decomposition and the report
    :func:`validate` returned for that same spec object; the strong formula
    is used exactly when the shields cover their pieces."""
    if report.spec is not spec:
        raise InvalidInputError("the validation report belongs to another decomposition")
    if not report.valid:
        raise InvalidInputError(
            "decomposition does not validate: " + "; ".join(report.violations)
        )
    mu = spec.ambient.mu
    value = (
        bound_strong(mu, spec.radius, spec.rate)
        if report.strong
        else bound_general(mu, spec.radius, spec.rate)
    )
    limit = sys.get_int_max_str_digits()
    if limit and value.denominator >= 10**limit:
        digits = int(value.denominator.bit_length() * math.log10(2)) + 1
        raise BudgetExceededError(
            digits, limit, "digits in the exact bound", option="PYTHONINTMAXSTRDIGITS"
        )
    endpoint = BoundEndpoint(
        value,
        "decomposition-theorem",
        witness={
            "mu": mu,
            "R": spec.radius,
            "r": spec.rate,
            "strong": report.strong,
            "unverified_components": report.unverified,
        },
        horizon_certified=bool(spec.ambient.frontier) or bool(report.unverified),
    )
    return CheegerBound(lower=endpoint)


# ---------------------------------------------------------------------------
# Graft construction
# ---------------------------------------------------------------------------


#: ``graft`` refuses a result with more vertices plus edges than this, before
#: it builds any copy: the count is a product of two inputs.  Measured with
#: the CLI on 2 vCPUs (Python 3.11): ``graft`` of grid_window(30, 30) and
#: homogeneous_tree(3, 5) (84,600 vertices, 85,440 edges) takes 0.7 s and
#: peaks at 95 MB RSS; with homogeneous_tree(3, 6) (171,000 and 171,840) it
#: takes 1.5 s and 160 MB, or 3.1 s and 180 MB with ``--out`` and
#: ``--decomposition``.  That is about 0.4 KB per vertex or edge, so the cap
#: holds a graft near 250 MB.
MAX_GRAFT_ELEMENTS = 2**19


class GraftResult(Frozen):
    graph: Graph
    pieces: dict[str, frozenset[str]]  # "base" plus one copy piece per base vertex
    copy_roots: dict[str, str]  # piece id -> identified base vertex
    _fields = ("graph", "pieces", "copy_roots")

    def __init__(
        self, graph: Graph, pieces: dict[str, frozenset[str]], copy_roots: dict[str, str]
    ):
        self.__dict__.update(graph=graph, pieces=pieces, copy_roots=copy_roots)


def graft(base: Graph, attachment: Graph, port: str) -> GraftResult:
    """Identify the port of a fresh attachment copy with every base vertex.

    Copy vertices are named ``<base vertex>/<attachment vertex>``; a name
    that collides is rejected by the graph's duplicate-vertex check.  The
    degree bound mu(base) + mu(att) is checked.  The base stays isometrically
    embedded by construction: the copy at w meets the rest of the graph only
    in w, so a path between base vertices that enters that copy leaves it
    through w again, and cutting the excursion out gives a shorter path.  A
    shortest path therefore stays in the base, whose own distances it keeps.

    Each copy is renamed through one name map, and its edges need no
    sorting: two non-port names share the prefix ``w/`` and compare as the
    attachment vertices do, and the port's name ``w`` is a prefix of every
    other name in its copy, so an edge at the port only has to put the port
    first.  A result past :data:`MAX_GRAFT_ELEMENTS` is refused up front.
    """
    n = len(base.vertices)
    size = n * len(attachment.vertices) + len(base.edges) + n * len(attachment.edges)
    if size > MAX_GRAFT_ELEMENTS:
        raise BudgetExceededError(
            size, MAX_GRAFT_ELEMENTS, "graft vertices and edges", option=None
        )
    if port not in attachment.index:
        raise InvalidInputError(f"port {port!r} is not an attachment vertex")
    if port in attachment.frontier:
        raise InvalidInputError("the port must not lie on the attachment frontier")
    if not base.is_connected or not attachment.is_connected:
        raise InvalidInputError("graft needs connected inputs")

    others = [x for x in attachment.vertices if x != port]
    att_edges = [(v, u) if v == port else (u, v) for u, v in attachment.edges]
    vertices = list(base.vertices)
    edges = set(base.edges)
    frontier = set(base.frontier)
    pieces: dict[str, frozenset[str]] = {"base": frozenset(base.vertices)}
    copy_roots: dict[str, str] = {}
    for w in base.vertices:
        name = {x: f"{w}/{x}" for x in others}
        name[port] = w
        members = [name[x] for x in others]
        vertices.extend(members)
        edges.update([(name[u], name[v]) for u, v in att_edges])
        frontier.update([name[x] for x in attachment.frontier])
        pid = f"copy:{w}"
        pieces[pid] = frozenset(name.values())
        copy_roots[pid] = w
    result = Graph(tuple(vertices), frozenset(edges), frozenset(frontier))

    # The degree bound off the inputs, whose adjacency the connectivity check
    # built: a base vertex w gains the port's degree, a copy vertex keeps its
    # own.  It primes the result's cached ``mu``, so no caller builds the
    # result's adjacency to read it.
    att_degree = {x: len(nbrs) for x, nbrs in attachment.adjacency.items()}
    mu = max([base.mu + att_degree[port], *(att_degree[x] for x in others)]) if n else 0
    if mu > base.mu + attachment.mu:
        raise ConstructionError("graft exceeds the degree bound", witness=mu)
    result.__dict__["mu"] = mu
    return GraftResult(result, pieces, copy_roots)


def graft_decomposition(
    base: Graph, attachment: Graph, port: str, radius: int = 0
) -> DecompositionSpec:
    """Package a graft as a decomposition: copies are the certified class
    (via the tree theorem on each copy), the base is the shielded class.
    The rate is the bound that theorem certifies on the attachment (any
    positive bound clears the threshold 0)."""
    ok, rate, reason = _verify_certificate(
        attachment,
        frozenset(attachment.vertices),
        PieceCertificate("tree-theorem", root=port),
        Fraction(0),
        {},
    )
    if not ok:
        raise InvalidInputError(f"the attachment certifies no rate: {reason}")
    g = graft(base, attachment, port)
    return DecompositionSpec(
        ambient=g.graph,
        pieces=g.pieces,
        s1=frozenset(g.copy_roots),
        s2=frozenset({"base"}),
        radius=radius,
        rate=rate,
        certificates={
            pid: PieceCertificate("tree-theorem", root=root) for pid, root in g.copy_roots.items()
        },
    )


def __getattr__(name: str):
    # The benchmark's span list (perfbench/spans.py) traces the window scans
    # as ``decomposition.converse_scan``.  They live in ``window``, imported
    # here on first access only, so ``scan`` never compiles this module.
    # Drop this forwarder once the span list names ``window``.
    if name == "converse_scan":
        from .window import converse_scan

        return converse_scan
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
