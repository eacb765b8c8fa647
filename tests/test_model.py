import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tomobound.model import (
    Graph,
    MonitoringPath,
    ParseError,
    PathSet,
    build_graph,
    expand_paths_through_links,
    format_edge_list,
    format_path_file,
    links_to_logical_nodes,
    parse_edge_list,
    parse_path_file,
    validate_path_set,
)


class TestBuildGraph:
    def test_line_graph(self):
        g = build_graph([(0, 1), (1, 2)])
        assert g.node_count == 3
        assert len(g.edges) == 2

    def test_edgeless_with_override(self):
        g = build_graph([], node_count=5)
        assert g.node_count == 5
        assert len(g.edges) == 0

    def test_undirected_dedup(self):
        g = build_graph([(0, 1), (1, 0)])
        assert g.node_count == 2
        assert len(g.edges) == 1

    def test_self_loop_rejected_with_pair(self):
        with pytest.raises(ValueError, match=r"\(3, 3\)"):
            build_graph([(0, 1), (3, 3)])

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            build_graph([(-1, 2)])

    def test_override_must_cover_max_id(self):
        with pytest.raises(ValueError):
            build_graph([(0, 9)], node_count=5)

    def test_adjacency_sorted(self):
        g = build_graph([(2, 0), (0, 1)])
        assert [v for v, _ in g.neighbours[0]] == [1, 2]

    def test_equal_graphs_hash_equal(self):
        assert build_graph([(0, 1)]) == build_graph([(1, 0)])
        assert hash(build_graph([(0, 1)])) == hash(build_graph([(1, 0)]))
        # the cached neighbour table is not part of equality or the hash
        a, b = build_graph([(0, 1), (1, 2)]), build_graph([(2, 1), (1, 0)])
        assert a.neighbours == (((1, 1),), ((0, 1), (2, 2)), ((1, 2),))
        assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1


class TestLogicalNodes:
    def test_single_edge(self):
        g, link_of = links_to_logical_nodes(build_graph([(0, 1)]))
        assert g.node_count == 3
        assert len(g.edges) == 2
        assert link_of == {(0, 1): 2}

    def test_triangle(self):
        g, _ = links_to_logical_nodes(build_graph([(0, 1), (1, 2), (0, 2)]))
        assert g.node_count == 6
        assert len(g.edges) == 6

    def test_edgeless_identity(self):
        g, link_of = links_to_logical_nodes(build_graph([], node_count=4))
        assert g.node_count == 4
        assert len(g.edges) == 0
        assert link_of == {}

    def test_link_nodes_have_degree_two(self):
        base = build_graph([(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
        g, link_of = links_to_logical_nodes(base)
        assert g.node_count == base.node_count + len(base.edges)
        for w in link_of.values():
            assert len(g.neighbours[w]) == 2

    def test_path_expansion_fits_transformed_graph(self):
        base = build_graph([(0, 1), (1, 2)])
        g, link_of = links_to_logical_nodes(base)
        ps = expand_paths_through_links(PathSet.from_sequences([[0, 1, 2]]), link_of)
        assert ps.paths[0].nodes == (0, link_of[(0, 1)], 1, link_of[(1, 2)], 2)
        assert validate_path_set(g, ps) == []


class TestValidation:
    def test_valid_path(self):
        g = build_graph([(0, 1), (1, 2)])
        assert validate_path_set(g, PathSet.from_sequences([[0, 1, 2]])) == []

    def test_non_adjacent_step(self):
        g = build_graph([(0, 1), (1, 2)])
        out = validate_path_set(g, PathSet.from_sequences([[0, 2]]))
        assert len(out) == 1
        assert out[0].kind == "non-adjacent-step"
        assert out[0].nodes == (0, 2)

    def test_repeated_node_flagged_only_when_requested(self):
        g = build_graph([(0, 1)])
        ps = PathSet.from_sequences([[0, 1, 0]])
        assert validate_path_set(g, ps) == []
        out = validate_path_set(g, ps, require_simple=True)
        assert [v.kind for v in out] == ["repeated-node"]
        assert out[0].nodes == (0,)

    def test_out_of_range(self):
        g = build_graph([(0, 1)])
        out = validate_path_set(g, PathSet.from_sequences([[0, 5]]))
        assert any(v.kind == "node-out-of-range" for v in out)


class TestStats:
    def test_ica_example_lengths(self):
        ps = PathSet.from_sequences([[0, 1, 2, 3, 4], [0, 1, 2, 3], [4, 3, 2, 1], [0, 2, 4, 6]])
        assert ps.m == 4
        assert Fraction(sum(ps.lengths()), ps.m) == Fraction(17, 4)
        assert Fraction(sum(ps.lengths()), ps.m) == 4.25
        assert max(ps.lengths()) == 5

    def test_uniform_lengths(self):
        ps = PathSet.from_sequences([list(range(8)) for _ in range(8)])
        assert Fraction(sum(ps.lengths()), ps.m) == 8
        assert max(ps.lengths()) == 8

    def test_single_node_path(self):
        ps = PathSet.from_sequences([[0]])
        assert (ps.m, Fraction(sum(ps.lengths()), ps.m), max(ps.lengths())) == (1, 1, 1)

    def test_empty_path_set_rejected(self):
        with pytest.raises(ValueError):
            PathSet(())

    def test_dbar_between_min_and_max(self):
        rng = random.Random(5)
        for _ in range(50):
            lengths = [rng.randint(1, 9) for _ in range(rng.randint(1, 6))]
            ps = PathSet.from_sequences([list(range(l)) for l in lengths])
            assert ps.lengths() == tuple(lengths)
            assert min(lengths) <= Fraction(sum(ps.lengths()), ps.m) <= max(lengths)


class TestFileFormats:
    def test_edge_list_round_trip(self):
        g = build_graph([(0, 1), (1, 2), (4, 2)], node_count=6)
        g2 = parse_edge_list(format_edge_list(g))
        assert g2.node_count == g.node_count
        assert g2.edges == g.edges

    def test_path_file_round_trip(self):
        ps = PathSet.from_sequences([[0, 1, 2], [2, 1], [5]])
        ps2 = parse_path_file(format_path_file(ps))
        assert ps2 == ps

    def test_comments_and_crlf(self):
        text = "# a comment\r\nnodes 4\r\n0 1 # trailing\r\n\r\n2 3\r\n"
        g = parse_edge_list(text)
        assert g.node_count == 4
        assert g.edges == frozenset({(0, 1), (2, 3)})

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError, match="edges.txt:2"):
            parse_edge_list("0 1\n0 1 2\n", source="edges.txt")

    def test_header_anywhere(self):
        g = parse_edge_list("0 1\nnodes 7\n")
        assert g.node_count == 7

    def test_self_loop_in_file(self):
        with pytest.raises(ParseError, match=":1"):
            parse_edge_list("2 2\n")

    def test_unresolvable_token(self):
        with pytest.raises(ParseError, match="bogus"):
            parse_path_file("0 bogus\n")

    @pytest.mark.parametrize("token", ["--1", "\u00b2"])
    def test_path_token_int_rejects_names_file_and_line(self, token):
        with pytest.raises(ParseError, match=rf"^p\.txt:2: unresolvable node token '{token}'$"):
            parse_path_file(f"0 1\n0 {token}\n", source="p.txt")

    def test_header_int_rejects_names_file_and_line(self):
        with pytest.raises(ParseError, match=r"^g\.txt:2: malformed header 'nodes \u00b2'"):
            parse_edge_list("0 1\nnodes \u00b2\n", source="g.txt")

    def test_labels_written_as_comments_and_skipped_on_read(self):
        g = build_graph([(0, 1)])
        text = format_edge_list(g, ("a", "b"))
        assert text == "nodes 2\n# node 0 a\n# node 1 b\n0 1\n"
        assert parse_edge_list(text) == g

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(lambda e: e[0] != e[1]),
            min_size=1,
            max_size=40,
        )
    )
    def test_serialization_identity(self, pairs):
        g = build_graph(pairs)
        g2 = parse_edge_list(format_edge_list(g))
        assert (g2.node_count, g2.edges) == (g.node_count, g.edges)


class TestPathType:
    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            MonitoringPath(())

    def test_simple_flag(self):
        assert MonitoringPath((0, 1, 2)).is_simple
        assert not MonitoringPath((0, 1, 0)).is_simple

    def test_graph_rejects_unnormalized_edge(self):
        with pytest.raises(ValueError):
            Graph(node_count=3, edges=frozenset({(2, 1)}))
