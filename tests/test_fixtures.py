from fractions import Fraction

import pytest

from tomobound.bounds import bound
from tomobound.construct import fat_tree, fat_tree_route
from tomobound.fixtures import (
    INSTANCES,
    fat_tree_cover_pairs,
    load_graph,
    load_instance,
)
from tomobound.identifiability import one_identifiable_set, testing_matrix
from tomobound.model import PathSet, validate_path_set
from tomobound.routing import check_consistency


@pytest.mark.parametrize("name", INSTANCES)
def test_paths_fit_graphs(name):
    g, ps = load_instance(name)
    assert validate_path_set(g, ps, require_simple=True) == []


def test_unknown_name():
    with pytest.raises(KeyError):
        load_instance("nope")


class TestConsistent10:
    def test_counts_and_identifiability(self):
        g, ps = load_instance("consistent10")
        assert (g.node_count, ps.m) == (10, 4)
        t = testing_matrix(ps, 10)
        assert one_identifiable_set(t)[0] == 10
        assert check_consistency(ps).consistent


class TestInconsistent10:
    def test_meets_arbitrary_bound_but_not_consistent(self):
        g, ps = load_instance("inconsistent10")
        dbar = Fraction(sum(ps.lengths()), ps.m)
        assert dbar == Fraction(17, 4)
        t = testing_matrix(ps, 10)
        assert one_identifiable_set(t)[0] == 10
        assert bound("arbitrary-avg", 4, 10, dbar).bound == 10
        assert not check_consistency(ps).consistent


class TestHalfGridPlus38:
    def test_reference_values(self):
        g, ps = load_instance("half_grid_plus38")
        assert g.node_count == 38
        dbar = Fraction(sum(ps.lengths()), ps.m)
        assert sorted(ps.lengths()) == [8, 8, 9, 9, 9, 9, 9, 9]
        assert dbar == Fraction(70, 8)
        assert check_consistency(ps).consistent
        t = testing_matrix(ps, 38)
        assert one_identifiable_set(t)[0] == 38
        assert max(c.bit_count() for c in t) == 3
        assert bound("consistent-avg", 8, 38, dbar).bound == 38


class TestSevenPath39:
    def test_reference_values(self):
        g, ps = load_instance("seven_path39")
        assert g.node_count == 39
        assert ps.m == 7
        assert Fraction(sum(ps.lengths()), ps.m) == Fraction(82, 7)
        assert max(ps.lengths()) == 12
        assert check_consistency(ps).consistent
        t = testing_matrix(ps, 39)
        assert one_identifiable_set(t)[0] == 39
        assert max(c.bit_count() for c in t) == 3

    def test_meets_consistent_bound_exactly(self):
        g, ps = load_instance("seven_path39")
        dbar = Fraction(sum(ps.lengths()), ps.m)
        assert bound("consistent-avg", 7, 39, dbar).bound == 39


class TestIsp108:
    def test_shape(self):
        g = load_graph("isp108")
        assert g.node_count == 108
        assert len(g.edges) == 141
        dangling = [u for u in range(108) if len(g.neighbours[u]) == 1]
        assert len(dangling) == 78


class TestFatTreeCover:
    def test_sixteen_paths_identify_all(self):
        k, pairs = fat_tree_cover_pairs()
        assert k == 4
        assert len(pairs) == 16
        ft = fat_tree(k)
        ps = PathSet(tuple(fat_tree_route(ft, a, b) for a, b in pairs))
        t = testing_matrix(ps, ft.graph.node_count)
        assert one_identifiable_set(t)[0] == 36
