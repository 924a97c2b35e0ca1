"""Core graph data structure for the Tuple-model security game.

The paper plays the game on a finite, undirected, simple graph ``G(V, E)``
with no isolated vertices.  This module provides :class:`Graph`, a small,
immutable adjacency-set representation tailored to the needs of the rest of
the library:

* vertices may be any hashable, mutually orderable objects (ints, strings);
* edges are canonicalized as sorted 2-tuples so that ``(u, v)`` and
  ``(v, u)`` denote the same edge everywhere in the code base;
* the structure is immutable after construction, which lets games,
  configurations and equilibria safely share one graph object.

The class knows nothing about games; structural predicates (covers,
independent sets, expanders, ...) live in :mod:`repro.graphs.properties`.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]

__all__ = [
    "Vertex",
    "Edge",
    "Graph",
    "canonical_edge",
    "GraphError",
    "vertex_sort_key",
    "edge_sort_key",
    "tuple_sort_key",
]


class GraphError(ValueError):
    """Raised for structurally invalid graph constructions or queries."""


class _SortKey:
    """Total order over mixed vertex types.

    Vertices of the same type compare by their natural order when they
    have one (so integers sort numerically, strings lexicographically);
    different or unorderable types fall back to ``(type name, repr)``,
    which is stable across runs.  Only the comparison protocol needed by
    ``sorted`` (plus ``<=`` for edge canonicalization) is implemented.
    :func:`vertex_sort_key` uses it only for vertices that are not an
    exact ``int`` or ``str``.
    """

    __slots__ = ("type_name", "value")

    def __init__(self, value: Vertex) -> None:
        self.type_name = type(value).__name__
        self.value = value

    def _fallback(self) -> Tuple[str, str]:
        return (self.type_name, repr(self.value))

    def __lt__(self, other: "_SortKey") -> bool:
        if self.type_name == other.type_name:
            try:
                return bool(self.value < other.value)
            except TypeError:
                pass
        return self._fallback() < other._fallback()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _SortKey):
            return NotImplemented
        return self.type_name == other.type_name and self.value == other.value

    def __le__(self, other: "_SortKey") -> bool:
        return self == other or self < other


_NATIVE_TYPES = (int, str)

_Key = Tuple[str, object]


def _sort_key(vertex: Vertex) -> _Key:
    """Key function for the library's deterministic vertex order.

    The key is ``(type name, value)``: an exact ``int`` or ``str`` stands
    as itself, so ``sorted`` compares it at C speed, and any other value
    is wrapped in :class:`_SortKey`.  The two groups meet only under
    different type names (assuming no other vertex type is named ``int``
    or ``str``), so the order is exactly :class:`_SortKey`'s.
    """
    kind = type(vertex)
    if kind in _NATIVE_TYPES:
        return (kind.__name__, vertex)
    return (kind.__name__, _SortKey(vertex))


#: Public alias, for callers outside this module that want to sort
#: vertices (or vertex-keyed rows) in the library's canonical order.
vertex_sort_key = _sort_key


def edge_sort_key(edge: Edge) -> Tuple[_Key, _Key]:
    """Sort key placing edges in the library's canonical (lexicographic)
    order.

    Bare ``sorted(edges)`` compares endpoint values directly and raises
    ``TypeError`` on graphs that mix vertex types (ints and strings);
    this key routes every comparison through :func:`vertex_sort_key`, so
    edge order is total and agrees with :meth:`Graph.sorted_edges` on any
    graph the library accepts.
    """
    return (_sort_key(edge[0]), _sort_key(edge[1]))


def tuple_sort_key(edges: Iterable[Edge]) -> Tuple[Tuple[_Key, _Key], ...]:
    """Sort key for edge *tuples* (defender strategies) — lexicographic on
    :func:`edge_sort_key`, total even across mixed vertex types."""
    return tuple(edge_sort_key(e) for e in edges)


def canonical_edge(u: Vertex, v: Vertex) -> Edge:
    """Return the canonical (sorted) representation of the edge ``{u, v}``.

    Raises :class:`GraphError` for self-loops, which the model (a simple
    graph) does not allow.
    """
    if u == v:
        raise GraphError(f"self-loop ({u!r}, {u!r}) is not a valid edge")
    if _sort_key(u) <= _sort_key(v):
        return (u, v)
    return (v, u)


class Graph:
    """An immutable, undirected, simple graph.

    Parameters
    ----------
    edges:
        Iterable of 2-tuples.  Duplicate edges (in either orientation) are
        collapsed; self-loops are rejected.
    vertices:
        Optional extra vertices.  The model forbids isolated vertices, so by
        default every vertex listed here must also appear in some edge;
        pass ``allow_isolated=True`` to lift that restriction (useful for
        intermediate constructions, never for game instances).
    allow_isolated:
        Permit vertices with degree zero.  Game constructors reject such
        graphs regardless; see :meth:`validate_for_game`.

    Examples
    --------
    >>> g = Graph([(1, 2), (2, 3)])
    >>> g.n, g.m
    (3, 2)
    >>> sorted(g.neighbors(2))
    [1, 3]
    """

    __slots__ = (
        "_adjacency", "_edges", "_vertices", "_hash",
        "_sorted_vertices", "_sorted_edges",
    )

    def __init__(
        self,
        edges: Iterable[Edge] = (),
        vertices: Iterable[Vertex] = (),
        allow_isolated: bool = False,
    ) -> None:
        adjacency: Dict[Vertex, Set[Vertex]] = {}
        edge_set: Set[Edge] = set()
        for item in edges:
            try:
                u, v = item
            except (TypeError, ValueError):
                raise GraphError(f"edge {item!r} is not a 2-tuple") from None
            edge = canonical_edge(u, v)
            edge_set.add(edge)
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
        for vertex in vertices:
            adjacency.setdefault(vertex, set())
        if not allow_isolated:
            isolated = [v for v, nbrs in adjacency.items() if not nbrs]
            if isolated:
                raise GraphError(
                    f"isolated vertices are not allowed: {sorted(isolated, key=_sort_key)!r}"
                )
        self._adjacency: Dict[Vertex, FrozenSet[Vertex]] = {
            v: frozenset(nbrs) for v, nbrs in adjacency.items()
        }
        self._edges: FrozenSet[Edge] = frozenset(edge_set)
        self._vertices: FrozenSet[Vertex] = frozenset(adjacency)
        self._hash: int = hash((self._vertices, self._edges))
        # Canonical orders, each sorted once on first use.  A memo is
        # written once with a value every thread would compute alike, so
        # threads sharing the graph need no lock.
        self._sorted_vertices: Optional[Tuple[Vertex, ...]] = None
        self._sorted_edges: Optional[Tuple[Edge, ...]] = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices, ``|V(G)|``."""
        return len(self._vertices)

    @property
    def m(self) -> int:
        """Number of edges, ``|E(G)|``."""
        return len(self._edges)

    def vertices(self) -> FrozenSet[Vertex]:
        """The vertex set ``V(G)``."""
        return self._vertices

    def edges(self) -> FrozenSet[Edge]:
        """The edge set ``E(G)``, each edge in canonical orientation."""
        return self._edges

    def sorted_vertices(self) -> List[Vertex]:
        """Vertices in the library's deterministic total order (a fresh
        list on every call)."""
        if self._sorted_vertices is None:
            self._sorted_vertices = tuple(sorted(self._vertices, key=_sort_key))
        return list(self._sorted_vertices)

    def sorted_edges(self) -> List[Edge]:
        """Edges in deterministic order (lexicographic on canonical form;
        a fresh list on every call)."""
        if self._sorted_edges is None:
            self._sorted_edges = tuple(sorted(self._edges, key=edge_sort_key))
        return list(self._sorted_edges)

    def has_vertex(self, v: Vertex) -> bool:
        return v in self._vertices

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        if u == v:
            return False
        return canonical_edge(u, v) in self._edges

    def neighbors(self, v: Vertex) -> FrozenSet[Vertex]:
        """``Neigh_G({v})`` — the open neighborhood of ``v``."""
        try:
            return self._adjacency[v]
        except KeyError:
            raise GraphError(f"vertex {v!r} is not in the graph") from None

    def degree(self, v: Vertex) -> int:
        return len(self.neighbors(v))

    def incident_edges(self, v: Vertex) -> List[Edge]:
        """All edges incident to ``v``, in deterministic order."""
        return sorted(
            (canonical_edge(v, u) for u in self.neighbors(v)),
            key=edge_sort_key,
        )

    def neighborhood(self, vertices: Iterable[Vertex]) -> FrozenSet[Vertex]:
        """``Neigh_G(X)`` as in the paper: all endpoints of edges leaving X.

        Note the paper's definition is the *open* neighborhood union — a
        vertex of ``X`` appears in the result only if it has a neighbor
        inside ``X``.
        """
        result: Set[Vertex] = set()
        for v in vertices:
            result.update(self.neighbors(v))
        return frozenset(result)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph_from_edges(self, edges: Iterable[Edge]) -> "Graph":
        """The graph *obtained by* an edge set ``T`` in the paper's sense.

        ``V(G_T) = V(T)`` (endpoints only) and ``E(G_T) = T``.  Every edge
        must exist in this graph.
        """
        chosen: List[Edge] = []
        for u, v in edges:
            edge = canonical_edge(u, v)
            if edge not in self._edges:
                raise GraphError(f"edge {edge!r} is not an edge of the graph")
            chosen.append(edge)
        return Graph(chosen)

    def induced_subgraph(self, vertices: Iterable[Vertex]) -> "Graph":
        """Subgraph induced by a vertex subset (isolated vertices kept)."""
        keep = set(vertices)
        missing = keep - self._vertices
        if missing:
            raise GraphError(f"vertices not in graph: {sorted(missing, key=_sort_key)!r}")
        edges = [e for e in self._edges if e[0] in keep and e[1] in keep]
        return Graph(edges, vertices=keep, allow_isolated=True)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate_for_game(self) -> None:
        """Check the model's preconditions: non-empty, no isolated vertices.

        Raises :class:`GraphError` when the graph cannot host an instance of
        the Tuple model (Definition 2.1 requires at least one edge and no
        isolated vertices).
        """
        if self.m == 0:
            raise GraphError("the game requires a graph with at least one edge")
        for v, nbrs in self._adjacency.items():
            if not nbrs:
                raise GraphError(f"vertex {v!r} is isolated; the model forbids this")

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __contains__(self, v: Vertex) -> bool:
        return v in self._vertices

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self.sorted_vertices())

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_list(cls, pairs: Sequence[Sequence[Vertex]]) -> "Graph":
        """Build a graph from any sequence of vertex pairs."""
        return cls((tuple(p) for p in pairs))
