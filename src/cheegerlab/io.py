"""Byte-stable JSON file formats for graphs, metric spaces, trees, leveled
graphs and decompositions.

Dumps are canonical: sorted object keys, two-space indent, a trailing
newline, vertex/edge arrays sorted, rationals rendered as fraction strings.
The bytes are exactly those of ``json.dumps(..., sort_keys=True, indent=2,
allow_nan=False)``, written by :func:`canonical_json_bytes` without the
stdlib's generator encoder (the one ``indent`` forces), which it keeps for
what it does not render itself.  Loading re-validates every structural
invariant.  Metric-space point order
and tree child order are preserved (greedy scans depend on them); everything
else is order-free.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .errors import InvalidInputError

if TYPE_CHECKING:
    from .approximation import LeveledGraph
    from .decomposition import DecompositionSpec, PieceCertificate
    from .graphs import Graph
    from .metric import FiniteMetricSpace
    from .trees import RootedTree


_ESCAPE = json.encoder.encode_basestring_ascii
_FLOAT = float.__repr__
_INT = int.__repr__
_NON_FINITE = ("nan", "inf", "-inf")


def canonical_json_bytes(payload: Any) -> bytes:
    """The bytes of ``json.dumps(payload, sort_keys=True, indent=2,
    allow_nan=False) + "\\n"``, built without the generator encoder that
    ``indent`` forces: the same string escaper and float and int reprs, one
    ``join`` per list of strings, of floats or of string pairs.  Whatever it
    does not render itself (keys that are not strings, NaN, infinities,
    unknown types, nesting too deep) goes to ``json.dumps``, which writes or
    rejects it as it always has."""
    try:
        text = _json_value(payload, "\n")
    except (TypeError, ValueError, RecursionError):
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    return (text + "\n").encode()


def _json_value(o: Any, nl: str) -> str:
    """``o`` rendered at the nesting whose line break and indent is ``nl``;
    the type tests follow ``json.encoder`` in kind and order."""
    if isinstance(o, str):
        return _ESCAPE(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return _INT(o)
    if isinstance(o, float):
        text = _FLOAT(o)
        if text in _NON_FINITE:
            raise ValueError(text)
        return text
    inner = nl + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return "[" + inner + _json_items(o, inner) + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        # a key that is not a string fails _ESCAPE (or the sort) with TypeError
        body = ("," + inner).join(
            [_ESCAPE(k) + ": " + _json_value(v, inner) for k, v in sorted(o.items())]
        )
        return "{" + inner + body + nl + "}"
    raise TypeError(type(o).__name__)


def _json_items(seq: list | tuple, nl: str) -> str:
    """The items of a non-empty list joined at indent ``nl``: a list of
    strings, of floats or of string-pair lists in one pass, any other item
    by item.  A fast path that meets an item of another type stops with
    TypeError and the list is redone item by item."""
    sep = "," + nl
    first = seq[0]
    try:
        if type(first) is str:
            return sep.join(map(_ESCAPE, seq))
        if type(first) is float:
            texts = list(map(_FLOAT, seq))
            if any(text in texts for text in _NON_FINITE):
                raise ValueError("non-finite float")
            return sep.join(texts)
        if (
            type(first) is list
            and len(first) == 2
            and {*map(type, seq)} == {list}
            and {*map(len, seq)} == {2}
        ):
            # u1, mid, v1, tail + sep + head, u2, ...: one escape map, one join
            pair = nl + "  "
            head, mid, tail = "[" + pair, "," + pair, nl + "]"
            parts = [None, mid, None, tail + sep + head] * len(seq)
            parts[0::2] = list(map(_ESCAPE, chain.from_iterable(seq)))
            parts[-1] = tail
            return head + "".join(parts)
    except TypeError:
        pass
    return sep.join([_json_value(x, nl) for x in seq])


def write_canonical(path: str | Path, payload: Any) -> None:
    Path(path).write_bytes(canonical_json_bytes(payload))


def read_json(path: str | Path) -> Any:
    """The JSON document in the file ``path``.  ``json.loads`` decodes the
    bytes by JSON's own rule (UTF-8, or UTF-16 or UTF-32 told apart by the
    first bytes), whatever the locale's encoding."""
    try:
        return json.loads(Path(path).read_bytes())
    # ValueError covers bad JSON, bad UTF-8 and integer literals past the
    # int-to-str digit limit; RecursionError covers too deep nesting
    except (ValueError, RecursionError) as exc:
        raise InvalidInputError(f"{path}: not valid JSON ({exc})") from None


def sha256_file(path: str | Path) -> str:
    import hashlib  # loads OpenSSL, which a job on generator inputs never needs

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def fraction_str(x: Fraction) -> str:
    return str(Fraction(x))


_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*\Z")


def parse_fraction(text: str | int) -> Fraction:
    """The rational a numeral or fraction string names.

    ``Fraction`` builds 10**|e| for a decimal exponent e, in time that grows
    faster than |e|, so an exponent whose magnitude exceeds Python's int-digit
    limit is refused, as a numeral with that many digits already is (no check
    when the limit is off).  An error shows at most the first 40 characters
    of the input, and only the first clause of the reason: ``Fraction``'s
    own message goes on to repeat the whole input.
    """
    try:
        exponent = _EXPONENT.search(text) if isinstance(text, str) else None
        limit = sys.get_int_max_str_digits()
        if exponent and limit and abs(int(exponent[1])) > limit:
            raise ValueError(f"decimal exponent beyond the {limit}-digit limit")
        return Fraction(text)
    except ZeroDivisionError:
        reason = "zero denominator"
    except (ValueError, TypeError, OverflowError) as exc:
        reason = str(exc).split(":")[0]
    shown = repr(text)
    if len(shown) > 40:
        shown = f"{str(text)[:40]!r}... ({len(str(text))} characters)"
    raise InvalidInputError(f"bad rational {shown}: {reason}")


# -- graphs -----------------------------------------------------------------


def graph_payload(g: Graph) -> dict:
    payload = {
        "vertices": sorted(g.vertices),
        "edges": [[u, v] for u, v in sorted(g.edges)],  # tuples sort faster than lists
    }
    if g.frontier:
        payload["frontier"] = sorted(g.frontier)
    return payload


def graph_from_payload(data: dict) -> Graph:
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise InvalidInputError("graph document needs 'vertices' and 'edges'")
    for key in ("vertices", "edges", "frontier"):
        if not isinstance(data.get(key, []), list):
            raise InvalidInputError(f"graph document: {key!r} must be a list")
    edges = data["edges"]
    if {*map(type, edges)} - {list} or {*map(len, edges)} - {2}:
        for e in edges:  # name the first offender
            if not isinstance(e, list) or len(e) != 2:
                raise InvalidInputError(f"graph document: edge {e!r} is not a pair [u, v]")
    from .graphs import Graph

    return Graph.from_edges(edges, vertices=data["vertices"], frontier=data.get("frontier", []))


def save_graph(path: str | Path, g: Graph) -> None:
    write_canonical(path, graph_payload(g))


def load_graph(path: str | Path) -> Graph:
    return graph_from_payload(read_json(path))


# -- metric spaces ------------------------------------------------------------


def metric_payload(space: FiniteMetricSpace) -> dict:
    payload = {
        "points": list(space.points),
        "dist": [[float(x) for x in row] for row in space.dist],
    }
    if space.resolution_floor is not None:
        payload["resolution_floor"] = float(space.resolution_floor)
    return payload


def metric_from_payload(data: dict) -> FiniteMetricSpace:
    if not isinstance(data, dict) or "points" not in data or "dist" not in data:
        raise InvalidInputError("metric document needs 'points' and 'dist'")
    for key in ("points", "dist"):
        if not isinstance(data[key], list):
            raise InvalidInputError(f"metric document: {key!r} must be a list")
    # numpy would read a bool or a numeric string as a distance
    if not all(type(row) is list and {int, float}.issuperset(map(type, row)) for row in data["dist"]):
        raise InvalidInputError("metric document: 'dist' must be a matrix of numbers")
    import numpy as np

    from .metric import FiniteMetricSpace

    try:
        dist = np.asarray(data["dist"], dtype=float)
    except ValueError:  # rows of unequal length
        raise InvalidInputError("metric document: 'dist' must be a matrix of numbers") from None
    except OverflowError:
        raise InvalidInputError("metric document: a 'dist' entry is too large for a float") from None
    floor = data.get("resolution_floor")
    if floor is not None and (not isinstance(floor, (int, float)) or isinstance(floor, bool)):
        raise InvalidInputError("metric document: 'resolution_floor' must be a number")
    return FiniteMetricSpace(
        tuple(str(p) for p in data["points"]),
        dist,
        data.get("resolution_floor"),
    )


def save_metric(path: str | Path, space: FiniteMetricSpace) -> None:
    write_canonical(path, metric_payload(space))


def load_metric(path: str | Path) -> FiniteMetricSpace:
    return metric_from_payload(read_json(path))


def load_space(path: str | Path) -> Graph | FiniteMetricSpace:
    """A graph or a metric-space document, read once and told apart by its
    keys: one with 'points' or 'dist' is a metric space, any other a graph."""
    data = read_json(path)
    if isinstance(data, dict) and ("points" in data or "dist" in data):
        return metric_from_payload(data)
    return graph_from_payload(data)


# -- rooted trees -------------------------------------------------------------


def tree_payload(t: RootedTree) -> dict:
    return {
        "root": t.root,
        "children": {v: list(kids) for v, kids in t.children.items()},
        "live": sorted(t.live),
    }


def tree_from_payload(data: dict) -> RootedTree:
    """Only the JSON shape is checked here; ``RootedTree`` validates the tree."""
    if not isinstance(data, dict) or not isinstance(data.get("root"), str):
        raise InvalidInputError("tree document needs a string 'root'")
    children = data.get("children")
    if not isinstance(children, dict) or not all(isinstance(c, list) for c in children.values()):
        raise InvalidInputError("tree document: 'children' must map vertices to lists")
    if not isinstance(data.get("live"), list):
        raise InvalidInputError("tree document: 'live' must be a list")
    from .trees import RootedTree

    return RootedTree(
        data["root"],
        {str(v): tuple(str(c) for c in kids) for v, kids in children.items()},
        frozenset(str(v) for v in data["live"]),
    )


def save_tree(path: str | Path, t: RootedTree) -> None:
    write_canonical(path, tree_payload(t))


def load_tree(path: str | Path) -> RootedTree:
    return tree_from_payload(read_json(path))


# -- leveled graphs -----------------------------------------------------------


def leveled_payload(lg: LeveledGraph) -> dict:
    return {
        "graph": graph_payload(lg.graph),
        "space": metric_payload(lg.space),
        "r": float(lg.r),
        "k0": lg.k0,
        "k_max": lg.k_max,
        "level": {v: lg.level[v] for v in sorted(lg.level)},
        "center": {v: lg.center[v] for v in sorted(lg.center)},
    }


def _integer(x: Any, what: str) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise InvalidInputError(f"leveled document: {what} must be an integer")
    return x


def _finite(x: Any, what: str) -> float:
    if not isinstance(x, (int, float)) or isinstance(x, bool) or not math.isfinite(x):
        raise InvalidInputError(f"leveled document: {what} must be a finite number")
    return float(x)


def leveled_from_payload(data: dict) -> LeveledGraph:
    from .approximation import LeveledGraph

    if not isinstance(data, dict):
        raise InvalidInputError("leveled document must be an object")
    for key in ("graph", "space", "r", "k0", "k_max", "level", "center"):
        if key not in data:
            raise InvalidInputError(f"leveled document misses {key!r}")
    graph = graph_from_payload(data["graph"])
    space = metric_from_payload(data["space"])
    for key in ("level", "center"):
        if not isinstance(data[key], dict) or set(data[key]) != set(graph.vertices):
            raise InvalidInputError(
                f"leveled document: {key!r} must map exactly the graph's vertices"
            )
    k0 = _integer(data["k0"], "'k0'")
    k_max = _integer(data["k_max"], "'k_max'")
    level = {v: _integer(k, f"the level of {v!r}") for v, k in data["level"].items()}
    if any(not k0 <= k <= k_max for k in level.values()):
        raise InvalidInputError("leveled document: levels must lie in [k0, k_max]")
    r = _finite(data["r"], "'r'")
    if not 0 < r < 1:
        raise InvalidInputError("leveled document: 'r' must lie in (0, 1)")
    points = set(space.points)
    for v, p in data["center"].items():
        if not isinstance(p, str) or p not in points:
            raise InvalidInputError(
                f"leveled document: the center of {v!r} names no point of the space"
            )
    return LeveledGraph(
        graph,
        space,
        r,
        k0,
        k_max,
        level,
        dict(data["center"]),
    )


def save_leveled(path: str | Path, lg: LeveledGraph) -> None:
    write_canonical(path, leveled_payload(lg))


def load_leveled(path: str | Path) -> LeveledGraph:
    return leveled_from_payload(read_json(path))


# -- decompositions -----------------------------------------------------------


def certificate_payload(cert: PieceCertificate) -> dict:
    out: dict[str, Any] = {"kind": cert.kind}
    if cert.root is not None:
        out["root"] = cert.root
    if cert.f is not None:
        out["f"] = {v: fraction_str(Fraction(x)) for v, x in sorted(cert.f.items())}
    return out


def certificate_from_payload(data: dict) -> PieceCertificate:
    if not isinstance(data, dict):
        raise InvalidInputError("certificate must be an object")
    if not isinstance(data.get("root"), (str, type(None))):
        raise InvalidInputError("certificate: 'root' must be a string")
    if not isinstance(data.get("f", {}), dict):
        raise InvalidInputError("certificate: 'f' must map vertices to rationals")
    from .decomposition import PieceCertificate

    return PieceCertificate(
        kind=str(data.get("kind", "")),
        root=data.get("root"),
        f={str(v): parse_fraction(x) for v, x in data["f"].items()} if "f" in data else None,
    )


def save_decomposition(path: str | Path, spec: DecompositionSpec) -> None:
    """Write a decomposition document, its certificates inline, plus the
    ambient graph next to it as ``<stem>.ambient.json``."""
    path = Path(path)
    ambient_name = f"{path.stem}.ambient.json"
    save_graph(path.parent / ambient_name, spec.ambient)
    write_canonical(
        path,
        {
            "ambient": ambient_name,
            "pieces": {name: sorted(verts) for name, verts in spec.pieces.items()},
            "S1": sorted(spec.s1),
            "S2": sorted(spec.s2),
            "R": spec.radius,
            "r": fraction_str(spec.rate),
            "certificates": {
                key: certificate_payload(cert) for key, cert in spec.certificates.items()
            },
        },
    )


def decomposition_ambient_path(path: str | Path, data: dict) -> Path:
    """The ambient graph file that the decomposition document ``data``, read
    from ``path``, names, relative to the document's directory."""
    return Path(path).parent / str(data["ambient"])


def decomposition_from_payload(data: dict, path: str | Path) -> DecompositionSpec:
    """The decomposition document ``data``, read from ``path``, with the
    ambient graph file it names loaded."""
    if not isinstance(data, dict):
        raise InvalidInputError("decomposition document must be an object")
    for field_name in ("ambient", "pieces", "S1", "S2", "R", "r"):
        if field_name not in data:
            raise InvalidInputError(f"decomposition document misses {field_name!r}")
    pieces = data["pieces"]
    if not isinstance(pieces, dict) or not all(isinstance(v, list) for v in pieces.values()):
        raise InvalidInputError("decomposition document: 'pieces' must map ids to vertex lists")
    for key in ("S1", "S2"):
        if not isinstance(data[key], list):
            raise InvalidInputError(f"decomposition document: {key!r} must be a list")
    radius = data["R"]
    if not isinstance(radius, int) or isinstance(radius, bool) or radius < 0:
        raise InvalidInputError("decomposition document: 'R' must be a non-negative integer")
    if not isinstance(data.get("certificates", {}), dict):
        raise InvalidInputError("decomposition document: 'certificates' must be an object")
    ambient = load_graph(decomposition_ambient_path(path, data))
    certs = {
        str(key): certificate_from_payload(cert)
        for key, cert in data.get("certificates", {}).items()
    }
    from .decomposition import DecompositionSpec

    return DecompositionSpec(
        ambient=ambient,
        pieces={str(name): frozenset(map(str, verts)) for name, verts in pieces.items()},
        s1=frozenset(map(str, data["S1"])),
        s2=frozenset(map(str, data["S2"])),
        radius=radius,
        rate=parse_fraction(data["r"]),
        certificates=certs,
    )


def load_decomposition(path: str | Path) -> DecompositionSpec:
    return decomposition_from_payload(read_json(path), path)
