"""Acceptance suite: one test per release criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. All tolerances are exact (integer equality); nothing is calibrated.
"""

import random
import time
from fractions import Fraction

import pytest

from conftest import brute_force_k_identifiable_set, random_connected_graph, random_instance
from tomobound.bounds import (
    Scenario,
    bound,
    bound_single_server,
    layer_bound,
    z_fb,
)
from tomobound.construct import fat_tree, fat_tree_all_pair_paths, fat_tree_route, ica
from tomobound.experiments import ExperimentSpec, run_experiment
from tomobound.fixtures import fat_tree_cover_pairs
from tomobound.identifiability import (
    column_run_counts,
    k_identifiable_set,
    one_identifiable_set,
    path_matrix,
    testing_matrix,
)
from tomobound.model import PathSet
from tomobound.routing import (
    check_consistency,
    consistent_shortest_paths,
    midpoint_cuts,
    verify_segmentation,
)


def report(criterion: int, text: str) -> None:
    print(f"[criterion {criterion}] PASS: {text}")


def test_criterion_1_bound_golden_values():
    assert bound("arbitrary-avg", 4, 100, 3).bound == 8
    assert bound("arbitrary-avg", 4, 100, Fraction(17, 4)).bound == 10
    for n in (38, 50, 1000):
        assert bound("consistent-avg", 8, n, Fraction(35, 4)).bound == 38
    assert bound("consistent-avg", 7, 39, Fraction(82, 7)).bound == 39
    assert bound("consistent-avg", 8, 36, 8).bound == 36
    assert bound_single_server(48, 95, 7).bound == 95
    assert bound_single_server(48, 73, 3).bound == 73
    assert z_fb(48) == 95
    report(1, "all eight golden bound values match exactly (tolerance 0)")


def test_criterion_2_ica_tightness_grid():
    t0 = time.monotonic()
    points = 0
    for m in range(2, 9):
        for d in range(1, min(8, 1 << (m - 1)) + 1):
            inst = ica(m, d)
            t = testing_matrix(inst.paths, inst.graph.node_count)
            phi1 = one_identifiable_set(t)[0]
            expected = layer_bound(m, None, m * d)[1]
            assert phi1 == expected, (m, d, phi1, expected)
            points += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"grid took {elapsed:.1f}s"
    report(2, f"{points} ICA grid points all meet the bound exactly in {elapsed:.2f}s")


def test_criterion_3_consistent_routing_structure():
    graphs = 0
    for seed in range(200):
        rng = random.Random(seed)
        g = random_connected_graph(rng, max_n=40)
        nodes = list(range(g.node_count))
        pairs = [tuple(rng.sample(nodes, 2)) for _ in range(rng.randint(1, 6))]
        ps = consistent_shortest_paths(g, pairs)
        rep = check_consistency(ps)
        assert rep.consistent, (seed, rep.violations[:2])
        t = testing_matrix(ps, g.node_count)
        for i in range(ps.m):
            assert max(column_run_counts(path_matrix(ps, t, i), ps.m)) <= 1, seed
        graphs += 1
    report(3, f"{graphs} random graphs: routed sets consistent, every column a single run")


def test_criterion_4_oracle_equivalence():
    for i in range(100):
        rng = random.Random(1000 + i)
        g, ps = random_instance(rng, max_n=12, max_m=4)
        t = testing_matrix(ps, g.node_count)
        count1, ident1 = one_identifiable_set(t)
        assert ident1 == brute_force_k_identifiable_set(t, 1), i
        counts = [count1] + [k_identifiable_set(t, k)[0] for k in (2, 3)]
        assert counts[0] >= counts[1] >= counts[2], (i, counts)
    report(4, "100 random instances: set equality with the brute-force oracle at k=1, "
              "and phi_1 >= phi_2 >= phi_3")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_5_scenario_dominance_sweep():
    d, n = 12, 78
    ar = {m: bound("arbitrary-max", m, n, d).bound for m in range(1, 25)}
    cr = {m: bound("consistent-max", m, n, d).bound for m in range(1, 25)}
    for m in range(2, 25):
        if m in (2, 3) or m >= 7:
            assert ar[m] == cr[m], m
        else:
            assert ar[m] > cr[m], m
    for m in range(1, 25):
        assert bound("partial-consistent", m, n, d, q=1).bound == cr[m], m
        prev = cr[m]
        for q in (1, 2, 3, 4, 8, 16, 64, 4096):
            pq = bound("partial-consistent", m, n, d, q=q).bound
            assert prev <= pq <= ar[m], (m, q)
            prev = pq
        if m >= 2:  # at m=1 the 2q(m-1) cap is 0 for every q, so no climb
            assert prev == ar[m], m  # the q-curve saturates at the arbitrary bound
    report(5, "m=1..24 at d=12, n=78: AR=CR exactly on {2,3} and [7,24], AR>CR on {4,5,6}; "
              "partial(q=1)=CR, nondecreasing in q, ceiling at AR")


def test_criterion_6_fat_tree():
    ft = fat_tree(4)
    assert ft.graph.node_count == 36
    all_pairs = fat_tree_all_pair_paths(ft)
    assert verify_segmentation(all_pairs, midpoint_cuts(all_pairs), 2) is True
    k, pairs = fat_tree_cover_pairs()
    assert (k, len(pairs)) == (4, 16)
    ps = PathSet(tuple(fat_tree_route(ft, a, b) for a, b in pairs))
    t = testing_matrix(ps, 36)
    assert one_identifiable_set(t)[0] == 36
    report(6, "fat-tree(4) has 36 nodes, all host-pair routes are half-consistent at "
              "upper-node cuts, and the bundled 16-path selection identifies all 36")


def test_criterion_7_multi_server():
    for m in range(1, 13):
        flexible = bound(Scenario.MULTI_FLEXIBLE, m, None, 10**6, s=1)
        fixed = bound(Scenario.MULTI_FIXED, m, None, 10**6, m_s=(m,))
        assert (flexible.n_max, flexible.bound) == (fixed.n_max, fixed.bound), m
    both = [
        bound(Scenario.MULTI_FLEXIBLE, 6, 108, 20, s=2),
        bound(Scenario.MULTI_FIXED, 6, 108, 20, m_s=(3, 3)),
    ]
    for r in both:
        assert r.n_max == 52 and r.bound == 26
    from itertools import combinations_with_replacement

    for m in range(1, 13):
        for s in range(1, min(m, 4) + 1):  # every server has a client
            flexible = bound(Scenario.MULTI_FLEXIBLE, m, None, 10**6, s=s).bound
            for split in combinations_with_replacement(range(1, m + 1), s):
                if sum(split) == m:
                    fixed = bound(Scenario.MULTI_FIXED, m, None, 10**6, m_s=split).bound
                    assert fixed <= flexible, (m, s, split)
    report(7, "flexible(S=1) == fixed((m,)) for m<=12; (m=6,S=2,d=20) gives N=52/bound=26 "
              "both ways; no split ever exceeds the flexible bound")


def test_criterion_8_random_placement_soundness_and_reproducibility():
    spec = ExperimentSpec(
        name="random_placement",
        m_values=(4, 8, 16, 32, 48),
        trials=100,
        seed=7,
        d_max=4,
        topology="isp108",
    )
    table = run_experiment(spec)
    csv_a = table.to_csv()
    csv_b = run_experiment(spec).to_csv()
    assert csv_a == csv_b, "identical spec+seed must be byte-identical"
    phi = {r[0]: r[4] for r in table.rows if r[3] == "phi1_max"}
    used = {r[0]: r[4] for r in table.rows if r[3] == "trials_used"}
    max_len = {r[0]: r[4] for r in table.rows if r[3] == "max_path_len"}
    for m in spec.m_values:
        assert used[m] > 0
        assert max_len[m] <= 4
        ub = bound_single_server(m, 108, 4).bound
        # phi1_max is the max over trials, so this bounds every trial
        assert phi[m] <= ub, (m, phi[m], ub)
    report(8, "synthetic 108-node run (seed 7, 100 trials) is byte-reproducible and every "
              "trial's phi_1 respects the single-server bound at d_max=4")
