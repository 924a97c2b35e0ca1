"""Unit tests for the Graph data structure (repro.graphs.core)."""

from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.core import (
    Graph,
    GraphError,
    canonical_edge,
    edge_sort_key,
    tuple_sort_key,
    vertex_sort_key,
)


class TestCanonicalEdge:
    def test_orders_endpoints(self):
        assert canonical_edge(2, 1) == (1, 2)
        assert canonical_edge(1, 2) == (1, 2)

    def test_strings(self):
        assert canonical_edge("b", "a") == ("a", "b")

    def test_mixed_types_are_deterministic(self):
        assert canonical_edge(1, "a") == canonical_edge("a", 1)

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            canonical_edge(3, 3)


class TestConstruction:
    def test_basic_counts(self):
        g = Graph([(1, 2), (2, 3)])
        assert g.n == 3
        assert g.m == 2

    def test_duplicate_edges_collapse(self):
        g = Graph([(1, 2), (2, 1), (1, 2)])
        assert g.m == 1

    def test_rejects_isolated_vertices_by_default(self):
        with pytest.raises(GraphError, match="isolated"):
            Graph([(1, 2)], vertices=[5])

    def test_allow_isolated_flag(self):
        g = Graph([(1, 2)], vertices=[5], allow_isolated=True)
        assert g.n == 3
        assert g.degree(5) == 0

    def test_rejects_non_pair_edge(self):
        with pytest.raises(GraphError, match="not a 2-tuple"):
            Graph([(1, 2, 3)])

    def test_empty_graph(self):
        g = Graph()
        assert g.n == 0
        assert g.m == 0

    def test_from_edge_list(self):
        g = Graph.from_edge_list([[1, 2], [2, 3]])
        assert g.has_edge(1, 2)
        assert g.has_edge(3, 2)


class TestAccessors:
    def test_neighbors(self):
        g = Graph([(1, 2), (2, 3), (2, 4)])
        assert g.neighbors(2) == frozenset({1, 3, 4})
        assert g.neighbors(1) == frozenset({2})

    def test_neighbors_of_missing_vertex(self):
        g = Graph([(1, 2)])
        with pytest.raises(GraphError, match="not in the graph"):
            g.neighbors(9)

    def test_degree(self):
        g = Graph([(1, 2), (2, 3)])
        assert g.degree(2) == 2
        assert g.degree(1) == 1

    def test_has_edge_both_orientations(self):
        g = Graph([(1, 2)])
        assert g.has_edge(1, 2)
        assert g.has_edge(2, 1)
        assert not g.has_edge(1, 3)

    def test_has_edge_self_pair_is_false(self):
        g = Graph([(1, 2)])
        assert not g.has_edge(1, 1)

    def test_sorted_vertices_and_edges_are_deterministic(self):
        g = Graph([(3, 1), (2, 3)])
        assert g.sorted_vertices() == [1, 2, 3]
        assert g.sorted_edges() == [(1, 3), (2, 3)]

    def test_incident_edges(self):
        g = Graph([(2, 1), (2, 3), (4, 2)])
        assert g.incident_edges(2) == [(1, 2), (2, 3), (2, 4)]

    def test_neighborhood_of_set(self):
        g = Graph([(1, 2), (2, 3), (3, 4)])
        assert g.neighborhood({1, 4}) == frozenset({2, 3})
        # paper semantics: open neighborhood union
        assert g.neighborhood({2, 3}) == frozenset({1, 2, 3, 4})

    def test_contains_iter_len(self):
        g = Graph([(1, 2), (2, 3)])
        assert 1 in g
        assert 9 not in g
        assert list(g) == [1, 2, 3]
        assert len(g) == 3


class TestDerivedGraphs:
    def test_subgraph_from_edges_vertex_set_is_endpoints_only(self):
        g = Graph([(1, 2), (2, 3), (3, 4)])
        sub = g.subgraph_from_edges([(1, 2)])
        assert sub.vertices() == frozenset({1, 2})
        assert sub.m == 1

    def test_subgraph_from_edges_rejects_foreign_edge(self):
        g = Graph([(1, 2), (2, 3)])
        with pytest.raises(GraphError, match="not an edge"):
            g.subgraph_from_edges([(1, 3)])

    def test_induced_subgraph_keeps_isolated(self):
        g = Graph([(1, 2), (2, 3), (3, 4)])
        sub = g.induced_subgraph({1, 3, 4})
        assert sub.vertices() == frozenset({1, 3, 4})
        assert sub.edges() == frozenset({(3, 4)})
        assert sub.degree(1) == 0

    def test_induced_subgraph_rejects_missing(self):
        g = Graph([(1, 2)])
        with pytest.raises(GraphError, match="not in graph"):
            g.induced_subgraph({1, 7})


class TestEqualityAndHash:
    def test_equal_graphs(self):
        assert Graph([(1, 2), (2, 3)]) == Graph([(3, 2), (1, 2)])

    def test_unequal_graphs(self):
        assert Graph([(1, 2)]) != Graph([(1, 3)])

    def test_hash_consistency(self):
        a = Graph([(1, 2), (2, 3)])
        b = Graph([(2, 3), (2, 1)])
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_not_equal_to_other_types(self):
        assert Graph([(1, 2)]) != "graph"


class TestValidateForGame:
    def test_accepts_valid_graph(self):
        Graph([(1, 2)]).validate_for_game()

    def test_rejects_edgeless(self):
        with pytest.raises(GraphError, match="at least one edge"):
            Graph().validate_for_game()

    def test_rejects_isolated(self):
        g = Graph([(1, 2)], vertices=[9], allow_isolated=True)
        with pytest.raises(GraphError, match="isolated"):
            g.validate_for_game()

    def test_repr(self):
        assert repr(Graph([(1, 2)])) == "Graph(n=2, m=1)"


# --------------------------------------------------------------------------
# the canonical order against a reference comparator
# --------------------------------------------------------------------------


def reference_cmp(a, b):
    """The library's vertex order as a plain comparator: natural order
    within one type when the values compare, else ``(type name, repr)``."""
    ta, tb = type(a).__name__, type(b).__name__
    if ta == tb:
        try:
            return (b < a) - (a < b)
        except TypeError:
            pass
    fa, fb = (ta, repr(a)), (tb, repr(b))
    return (fb < fa) - (fa < fb)


def reference_edge_cmp(e, f):
    return reference_cmp(e[0], f[0]) or reference_cmp(e[1], f[1])


def reference_tuple_cmp(s, t):
    for e, f in zip(s, t):
        c = reference_edge_cmp(e, f)
        if c:
            return c
    return (len(s) > len(t)) - (len(s) < len(t))


def typed(values):
    # ``True == 1`` and ``1 == 1.0``: compare types too, not just values.
    return [(type(v), repr(v)) for v in values]


vertex_values = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-(10 ** 30), max_value=10 ** 30),
    st.text(max_size=4),
    st.sampled_from(["", "é", "ß", "中", "a", "A", "\x00", "😀"]),
    st.booleans(),
    st.floats(allow_nan=False),
    st.none(),
    st.sampled_from([(1, "a"), ("a", 1), (0, 0), (1, 2), ("a", "b")]),
    st.tuples(st.integers(min_value=-3, max_value=3), st.text(max_size=2)),
)
orders = settings(max_examples=200, deadline=None)


class TestCanonicalOrder:
    """``vertex_sort_key`` compares exact ints and strs natively and every
    other type through ``_SortKey``; the order must be the one rule of
    ``reference_cmp`` either way, alone and mixed."""

    @orders
    @given(st.lists(vertex_values, max_size=12))
    def test_vertex_order_matches_reference(self, values):
        got = sorted(values, key=vertex_sort_key)
        assert typed(got) == typed(sorted(values, key=cmp_to_key(reference_cmp)))

    @orders
    @given(st.lists(st.integers(), max_size=12), st.lists(st.text(), max_size=12))
    def test_native_types_alone_and_mixed(self, ints, strs):
        for values in (ints, strs, ints + strs, strs + ints):
            got = sorted(values, key=vertex_sort_key)
            assert typed(got) == typed(sorted(values, key=cmp_to_key(reference_cmp)))

    @orders
    @given(vertex_values, vertex_values)
    def test_canonical_edge_orientation(self, u, v):
        if u == v:
            with pytest.raises(GraphError):
                canonical_edge(u, v)
            return
        expected = (u, v) if reference_cmp(u, v) < 0 else (v, u)
        assert typed(canonical_edge(u, v)) == typed(expected)
        assert typed(canonical_edge(v, u)) == typed(expected)

    @orders
    @given(st.lists(st.tuples(vertex_values, vertex_values), max_size=10))
    def test_edge_and_tuple_order_match_reference(self, pairs):
        edges = [canonical_edge(u, v) for u, v in pairs if u != v]
        by_edge = cmp_to_key(reference_edge_cmp)
        got = sorted(edges, key=edge_sort_key)
        assert list(map(typed, got)) == list(map(typed, sorted(edges, key=by_edge)))
        tuples = [edges[i:i + 2] for i in range(len(edges))]
        got = sorted(tuples, key=tuple_sort_key)
        want = sorted(tuples, key=cmp_to_key(reference_tuple_cmp))
        assert [list(map(typed, t)) for t in got] == [list(map(typed, t)) for t in want]

    @orders
    @given(st.lists(st.tuples(vertex_values, vertex_values), min_size=1, max_size=10))
    def test_graph_orders_match_reference(self, pairs):
        edges = [(u, v) for u, v in pairs if u != v]
        if not edges:
            return
        g = Graph(edges)
        want_v = sorted(g.vertices(), key=cmp_to_key(reference_cmp))
        want_e = sorted(g.edges(), key=cmp_to_key(reference_edge_cmp))
        assert typed(g.sorted_vertices()) == typed(want_v)
        assert list(map(typed, g.sorted_edges())) == list(map(typed, want_e))

    def test_returned_lists_are_fresh(self):
        g = Graph([(3, 1), (2, 3), ("a", 1)])
        vertices, edges = g.sorted_vertices(), g.sorted_edges()
        vertices.reverse()
        vertices.append(99)
        edges.clear()
        assert g.sorted_vertices() == [1, 2, 3, "a"]
        assert g.sorted_edges() == [(1, 3), (1, "a"), (2, 3)]
        assert g.sorted_vertices() is not g.sorted_vertices()
        assert list(g) == [1, 2, 3, "a"]
