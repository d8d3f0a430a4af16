"""Bipartite matching and the Hall-violator decomposition."""

import doctest
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

import mmsalloc.matching as matching_mod
from mmsalloc import (
    GuaranteeError,
    InputError,
    PreferenceGraph,
    build_preference_graph,
    compute_x_plus,
    maximum_matching,
)
from mmsalloc.cli import main


def test_module_doctests():
    assert doctest.testmod(matching_mod).failed == 0


def random_graph(rng, n_left, n_right, density):
    adj = tuple(
        tuple(j for j in range(n_right) if rng.random() < density)
        for _ in range(n_left)
    )
    return PreferenceGraph(n_left=n_left, n_right=n_right, adj=adj)


def matching_size_by_deficiency(graph):
    """Independent maximum matching size: n_left minus the worst Hall
    deficiency max(|S| - |N(S)|) over all left subsets S."""
    worst = 0
    left = range(graph.n_left)
    for r in range(graph.n_left + 1):
        for subset in combinations(left, r):
            nbrs = set()
            for u in subset:
                nbrs.update(graph.adj[u])
            worst = max(worst, len(subset) - len(nbrs))
    return graph.n_left - worst


class TestBuildPreferenceGraph:
    def test_threshold_is_inclusive(self):
        rows = [[3, 2, 1]]
        bundles = [[0], [1], [2]]
        graph = build_preference_graph(rows, bundles, [2])
        assert graph.adj == ((0, 1),)

    def test_fraction_thresholds_exact(self):
        graph = build_preference_graph([[1, 1]], [[0, 1]], [Fraction(2)])
        assert graph.adj == ((0,),)
        graph = build_preference_graph([[1, 1]], [[0, 1]], [Fraction(2_000_001, 1_000_000)])
        assert graph.adj == ((),)

    def test_threshold_count_mismatch(self):
        with pytest.raises(InputError):
            build_preference_graph([[1]], [[0]], [1, 2])

    def test_bad_good_index(self):
        with pytest.raises(InputError):
            build_preference_graph([[1]], [[5]], [0])


class TestMaximumMatching:
    def test_matches_deficiency_formula_on_random_graphs(self):
        rng = random.Random(71)
        for _ in range(150):
            n = rng.randint(1, 6)
            graph = random_graph(rng, n, rng.randint(1, 6), rng.random())
            got = len(maximum_matching(graph))
            assert got == matching_size_by_deficiency(graph)

    def test_pairs_are_real_edges_and_disjoint(self):
        rng = random.Random(72)
        for _ in range(100):
            graph = random_graph(rng, rng.randint(1, 7), rng.randint(1, 7), 0.4)
            pairs = maximum_matching(graph)
            lefts = [u for u, _ in pairs]
            rights = [v for _, v in pairs]
            assert len(set(lefts)) == len(pairs)
            assert len(set(rights)) == len(pairs)
            assert all(v in graph.adj[u] for u, v in pairs)

    def test_deterministic(self):
        graph = PreferenceGraph(3, 3, ((0, 1), (0, 1), (0, 1, 2)))
        assert maximum_matching(graph) == maximum_matching(graph)
        assert maximum_matching(graph) == ((0, 1), (1, 0), (2, 2))

    def test_long_augmenting_chain(self):
        # Greedy matches u to u for u < n - 1; the last agent accepts only
        # bundle 0, so its augmenting path runs through every agent.
        n = 3000
        adj = tuple((u, u + 1) for u in range(n - 1)) + ((0,),)
        pairs = maximum_matching(PreferenceGraph(n, n, adj))
        assert pairs == tuple((u, u + 1) for u in range(n - 1)) + ((n - 1, 0),)

    def test_augment_matches_recursive_search(self):
        rng = random.Random(74)
        for _ in range(300):
            n_left, n_right = rng.randint(1, 9), rng.randint(1, 9)
            graph = random_graph(rng, n_left, n_right, rng.choice([0.2, 0.4, 0.7]))
            match_right = [-1] * n_right
            expected = [-1] * n_right
            for u in range(n_left):
                visited, ref_visited = set(), set()
                got = matching_mod._augment(graph, u, match_right, visited)
                ref = _augment_recursive(graph, u, expected, ref_visited)
                assert (got, match_right, visited) == (ref, expected, ref_visited)


def _augment_recursive(graph, u, match_right, visited):
    """The recursive augmenting-path search, the reference for the
    iterative matching._augment."""
    for v in graph.adj[u]:
        if v in visited:
            continue
        visited.add(v)
        if match_right[v] == -1 or _augment_recursive(
            graph, match_right[v], match_right, visited
        ):
            match_right[v] = u
            return True
    return False


class TestComputeXPlus:
    def test_worked_example(self):
        # Left vertex 0 accepts every bundle, the other two accept only
        # bundle 0. With 0 matched to 1 and 1 matched to 0, vertex 2 is
        # exposed: the violator is {1, 2} with joint neighborhood {0}.
        graph = PreferenceGraph(3, 3, ((0, 1, 2), (0,), (0,)))
        decomposition = compute_x_plus(graph, ((0, 1), (1, 0)))
        assert decomposition.x_plus == (1, 2)
        assert decomposition.gamma == (0,)
        assert decomposition.restricted_matching == ((0, 1),)

    def test_empty_when_matching_saturates_left(self):
        graph = PreferenceGraph(2, 2, ((0,), (1,)))
        decomposition = compute_x_plus(graph, ((0, 0), (1, 1)))
        assert decomposition.x_plus == ()
        assert decomposition.gamma == ()
        assert decomposition.restricted_matching == ((0, 0), (1, 1))

    def test_rejects_non_edge_pair(self):
        graph = PreferenceGraph(2, 2, ((0,), (1,)))
        with pytest.raises(InputError):
            compute_x_plus(graph, ((0, 1),))

    def test_rejects_reused_vertex(self):
        graph = PreferenceGraph(2, 2, ((0, 1), (0, 1)))
        with pytest.raises(InputError):
            compute_x_plus(graph, ((0, 0), (1, 0)))

    def test_rejects_non_maximum_matching(self):
        graph = PreferenceGraph(2, 2, ((0, 1), (0, 1)))
        with pytest.raises(InputError):
            compute_x_plus(graph, ((0, 0),))

    def test_random_graph_invariants(self):
        rng = random.Random(73)
        for _ in range(150):
            n = rng.randint(1, 7)
            graph = random_graph(rng, n, n, rng.choice([0.2, 0.4, 0.7]))
            pairs = maximum_matching(graph)
            decomposition = compute_x_plus(graph, pairs)
            x_plus = set(decomposition.x_plus)
            gamma = set(decomposition.gamma)
            if len(pairs) == n:
                assert not x_plus
            else:
                assert len(x_plus) > len(gamma)
            # Joint neighborhood reported correctly, so nothing in x_plus
            # has an edge into the bundles left for the others.
            assert gamma == {v for u in x_plus for v in graph.adj[u]}
            restricted = decomposition.restricted_matching
            assert {u for u, _ in restricted} == set(range(n)) - x_plus
            assert all(v not in gamma for _, v in restricted)
            assert all(v in graph.adj[u] for u, v in restricted)


class TestGuaranteeChecks:
    """Each check of compute_x_plus, forced to fail."""

    @staticmethod
    def no_augmenting_path(graph, u, match_right, visited):
        return False

    def test_non_maximum_matching_is_no_hall_violator(self, monkeypatch):
        # The empty matching passes as maximum; X+ = {0} then has the one
        # neighbor 0, which is not fewer.
        monkeypatch.setattr(matching_mod, "_augment", self.no_augmenting_path)
        with pytest.raises(GuaranteeError, match="no Hall violator"):
            compute_x_plus(PreferenceGraph(1, 1, ((0,),)), ())

    def test_unmatched_agent_outside_x_plus(self, monkeypatch):
        monkeypatch.setattr(
            matching_mod, "_alternating_reach",
            lambda graph, match_left, match_right: [False] * graph.n_left,
        )
        with pytest.raises(GuaranteeError, match="unmatched"):
            compute_x_plus(PreferenceGraph(1, 1, ((),)), ())

    def test_agent_outside_x_plus_matched_into_gamma(self, monkeypatch):
        # Agents 0 and 2 are free and reach agent 1 through bundle 0; a reach
        # that stops at the free agents leaves 1 matched into X+'s neighbors.
        monkeypatch.setattr(
            matching_mod, "_alternating_reach",
            lambda graph, match_left, match_right: [v == -1 for v in match_left],
        )
        graph = PreferenceGraph(3, 1, ((0,), (0,), (0,)))
        with pytest.raises(GuaranteeError, match="a neighbor of X"):
            compute_x_plus(graph, ((1, 0),))

    def test_failed_check_exits_one(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(
            {"n": 3, "m": 6, "scale": 1, "valuations": [[3, 3, 2, 2, 1, 1]] * 3}
        ))
        monkeypatch.setattr(matching_mod, "_augment", self.no_augmenting_path)
        argv = ["solve", "--algo", "twothirds", "--eps", "1/10",
                "--oracle", "exact", "--instance", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "guarantee violation" in err and "no Hall violator" in err
