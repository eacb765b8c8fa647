import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import adjacency, random_connected_graph, reference_validate_path_set
from tomobound.construct import fat_tree, fat_tree_route
from tomobound.model import (
    Graph,
    ParseError,
    PathSet,
    build_graph,
    format_edge_list,
    format_path_file,
    links_as_nodes,
    parse_edge_list,
    parse_path_file,
    validate_path_set,
)
from tomobound.routing import shortest_path_tree


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

    @pytest.mark.parametrize("pair", [(-5, -3), (-3, -5)])
    def test_negative_id_named_in_normalised_pair(self, pair):
        # 1 + the largest id is -2: the edge is named, not the node count derived from it
        with pytest.raises(ValueError, match=r"^negative node id in pair \(-5, -3\)$"):
            build_graph([pair])

    def test_override_must_cover_max_id(self):
        with pytest.raises(ValueError):
            build_graph([(0, 9)], node_count=5)

    def test_adjacency_sorted(self):
        g = build_graph([(2, 0), (0, 1)])
        assert [v for v, _ in g.neighbours[0]] == [1, 2]

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(lambda e: e[0] != e[1]),
            max_size=60,
        ),
        st.integers(0, 5),
    )
    def test_neighbour_rows_sorted_by_neighbour(self, pairs, extra):
        # the table is built unsorted, in edge-rank order, and must still come out sorted
        g = build_graph(pairs, node_count=1 + max(map(max, pairs), default=-1) + extra)
        ranked = sorted(g.edges)
        for u, row in enumerate(g.neighbours):
            assert [v for v, _ in row] == sorted(adjacency(g)[u])
            assert all(ranked[rank] == (min(u, v), max(u, v)) for v, rank in row)

    def test_isolated_nodes_have_empty_neighbour_rows(self):
        g = build_graph([(3, 1)], node_count=5)
        assert g.neighbours == ((), ((3, 0),), (), ((1, 0),), ())
        assert shortest_path_tree(g, 0) == {0: 0}

    def test_equal_graphs_hash_equal(self):
        assert build_graph([(0, 1)]) == build_graph([(1, 0)])
        assert hash(build_graph([(0, 1)])) == hash(build_graph([(1, 0)]))
        # the cached neighbour table is not part of equality or the hash
        a, b = build_graph([(0, 1), (1, 2)]), build_graph([(2, 1), (1, 0)])
        assert a.neighbours == (((1, 0),), ((0, 0), (2, 1)), ((1, 1),))
        assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1


class TestLogicalNodes:
    def test_single_edge(self):
        g, ps = links_as_nodes(build_graph([(0, 1)]), PathSet.from_sequences([[0, 1]]))
        assert g.node_count == 3
        assert g.edges == {(0, 2), (1, 2)}
        assert ps.paths[0] == (0, 2, 1)

    def test_triangle(self):
        g, _ = links_as_nodes(build_graph([(0, 1), (1, 2), (0, 2)]), PathSet.from_sequences([[0]]))
        assert g.node_count == 6
        assert len(g.edges) == 6

    def test_edgeless_identity(self):
        g, ps = links_as_nodes(build_graph([], node_count=4), PathSet.from_sequences([[3]]))
        assert g.node_count == 4
        assert len(g.edges) == 0
        assert ps.paths[0] == (3,)

    def test_link_nodes_have_degree_two(self):
        base = build_graph([(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
        g, _ = links_as_nodes(base, PathSet.from_sequences([[0]]))
        assert g.node_count == base.node_count + len(base.edges)
        for w in range(base.node_count, g.node_count):
            assert len(g.neighbours[w]) == 2

    def test_path_expansion_fits_transformed_graph(self):
        # edge (0, 1) has rank 0 and becomes node 3, edge (1, 2) node 4
        base = build_graph([(0, 1), (1, 2)])
        g, ps = links_as_nodes(base, PathSet.from_sequences([[0, 1, 2], [2, 1]]))
        assert ps.paths[0] == (0, 3, 1, 4, 2)
        assert ps.paths[1] == (2, 4, 1)
        assert validate_path_set(g, ps) == []

    def test_step_off_the_graph_rejected(self):
        base = build_graph([(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=r"^path 1: step \(0, 2\) is not an edge of the original graph$"):
            links_as_nodes(base, PathSet.from_sequences([[0, 1], [0, 2]]))


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

    def test_matches_walk_oracle(self):
        rng = random.Random(5)
        outcomes = set()
        for _ in range(400):
            g = random_connected_graph(rng, max_n=10)
            adj = adjacency(g)
            seqs = []
            for _ in range(rng.randint(1, 5)):
                seq = [rng.randrange(g.node_count + 2)]  # may start out of range
                for _ in range(rng.randint(0, 8)):
                    r, u = rng.random(), seq[-1]
                    if r < 0.75 and u < g.node_count:
                        seq.append(rng.choice(adj[u]))  # a step along an edge
                    elif r < 0.85:
                        seq.append(u)  # a repeated step such as "3 3"
                    elif r < 0.92:
                        seq.append(g.node_count + rng.randrange(3))
                    else:
                        seq.append(rng.randrange(g.node_count))  # maybe no edge
                seqs.append(seq)
            ps = PathSet.from_sequences(seqs)
            for require_simple in (False, True):
                got = validate_path_set(g, ps, require_simple)
                assert got == reference_validate_path_set(g, ps, require_simple)
                outcomes.add(bool(got))
        assert outcomes == {False, True}


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

    @given(st.lists(st.lists(st.integers(0, 2**70), min_size=1, max_size=12), min_size=1, max_size=10))
    def test_path_file_round_trip_property(self, seqs):
        ps = PathSet.from_sequences(seqs)
        assert parse_path_file(format_path_file(ps)) == ps

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

    def test_negative_id_names_its_line(self):
        with pytest.raises(ParseError, match=r"^g\.txt:2: negative node id in pair \(1, -2\)$"):
            parse_edge_list("0 1\n1 -2\n2 3\n", source="g.txt")
        with pytest.raises(ParseError, match=r"^p\.txt:2: negative node id$"):
            parse_path_file("0 1\n1 -2\n", source="p.txt")

    def test_non_integer_edge_id_names_its_line(self):
        with pytest.raises(ParseError, match=r"^g\.txt:2: non-integer node id in '1 x'$"):
            parse_edge_list("0 1\n1 x\n", source="g.txt")

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
    def test_path_file_without_paths(self, text):
        with pytest.raises(ParseError, match=r"^p\.txt:0: no paths found$"):
            parse_path_file(text, source="p.txt")

    @pytest.mark.parametrize("text", ["# c\nnodes 5\n0 1\n1 5\n", "0 1\n1 5\n# c\nnodes 5\n"])
    def test_header_below_largest_id_names_its_line(self, text):
        lineno = text.splitlines().index("nodes 5") + 1
        with pytest.raises(ParseError, match=rf"^g\.txt:{lineno}: 'nodes 5' leaves out node 5$"):
            parse_edge_list(text, source="g.txt")
        assert parse_edge_list(text.replace("nodes 5", "nodes 6")).node_count == 6

    def test_second_header_names_the_first(self):
        # a second header must not silently replace the first
        text = "nodes 100\n0 1\n# c\nnodes 3\n1 2\n"
        with pytest.raises(ParseError, match=r"^g\.txt:4: second header 'nodes 3', the first is on line 1$"):
            parse_edge_list(text, source="g.txt")

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
    def test_paths_are_plain_tuples(self):
        ps = PathSet.from_sequences([[0, 1]])
        assert ps.paths == ((0, 1),)
        assert type(ps.paths[0]) is tuple
        ft = fat_tree(4)
        assert type(fat_tree_route(ft, ft.hosts[0], ft.hosts[1])) is tuple

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError, match="^a monitoring path must contain at least one node$"):
            PathSet(((0, 1), ()))
        with pytest.raises(ValueError, match=r"^a path set must contain at least one path \(m >= 1\)$"):
            PathSet(())

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError, match="^negative node id in path$"):
            PathSet(((0, 1), (2, -1)))

    def test_simple_flag(self):
        assert PathSet.from_sequences([[0, 1, 2], [3]]).all_simple()
        assert not PathSet.from_sequences([[3], [0, 1, 0]]).all_simple()
        assert PathSet.from_sequences([[0, 1, 2], [3]]).first_repeating_path is None
        assert PathSet.from_sequences([[3], [0, 1, 0], [2, 2]]).first_repeating_path == 1

    def test_columns_built_once_per_path_set(self):
        # the columns of the touched nodes only; fields, equality and hash ignore them
        ps = PathSet.from_sequences([[0, 2], [2, 4, 2]])
        assert ps.columns == {0: 0b01, 2: 0b11, 4: 0b10}
        assert ps.columns is ps.columns
        assert ps == PathSet.from_sequences([[0, 2], [2, 4, 2]])
        assert "columns" not in repr(ps)

    def test_graph_rejects_unnormalized_edge(self):
        with pytest.raises(ValueError):
            Graph(node_count=3, edges=frozenset({(2, 1)}))

    @pytest.mark.parametrize(
        "edge, message",
        [
            ((-1, 2), r"^negative node id in pair \(-1, 2\)$"),
            ((1, 1), r"^self-loop rejected: \(1, 1\)$"),
            ((1, 3), r"^edge \(1, 3\) references a node >= node_count=3$"),
        ],
        ids=["negative-id", "self-loop", "beyond-node-count"],
    )
    def test_graph_names_the_bad_edge(self, edge, message):
        with pytest.raises(ValueError, match=message):
            Graph(3, frozenset({edge}))
