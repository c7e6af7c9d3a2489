import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoneroute.autodiff import make_rng
from zoneroute.baselines import (
    brute_force_optimal,
    brute_force_optimal_dfs,
    nearest_neighbor,
    random_tour,
    two_opt,
)
from zoneroute.errors import DomainError
from zoneroute.routegraph import tour_length


def random_travel(n, seed, asym=True):
    rng = np.random.default_rng(seed)
    t = rng.uniform(1.0, 100.0, size=(n, n))
    if not asym:
        t = (t + t.T) / 2
    np.fill_diagonal(t, 0.0)
    return t


def reference_nearest_neighbor(travel, start):
    """The set-based construction `nearest_neighbor` replaced, kept as its oracle."""
    unvisited = set(range(travel.shape[0])) - {start}
    tour = [start]
    while unvisited:
        nxt = min(unvisited, key=lambda j: (travel[tour[-1], j], j))
        tour.append(nxt)
        unvisited.discard(nxt)
    return tour


def reference_two_opt(order, travel):
    """The per-move 2-opt `two_opt` replaced: each candidate is a fresh list
    priced by `tour_length`, and a move wins only if it beats the best so far,
    in (i, j) order, by more than 1e-12."""
    n = travel.shape[0]
    current = list(order)
    best_len = tour_length(current, travel)
    while True:
        best_move = None
        for i in range(1, n):
            for j in range(i + 1, n):
                candidate = current[:i] + current[i:j + 1][::-1] + current[j + 1:]
                cand_len = tour_length(candidate, travel)
                if cand_len < best_len - 1e-12:
                    best_len, best_move = cand_len, candidate
        if best_move is None:
            return current
        current = best_move


def reference_case(seed):
    """A seeded asymmetric matrix of 1 to 30 stops (a third integer-valued, so
    ties are exact), a start stop and a random order from it."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 31))
    if seed % 3 == 0:
        t = rng.integers(0, 5, (n, n)).astype(np.float64)
    else:
        t = rng.uniform(0.0, 100.0, (n, n))
    start = int(rng.integers(n))
    order = [start] + [int(k) for k in rng.permutation(n) if k != start]
    return t, start, order


# --- random_tour ----------------------------------------------------------------

def test_random_tour_valid_and_start():
    rng = make_rng(0)
    for n in (2, 5, 9):
        tour = random_tour(n, n - 1, rng)
        assert sorted(tour) == list(range(n)) and tour[0] == n - 1


def test_random_tour_uniform_over_suffixes():
    # n = 4: the 6 suffix orders must each appear with frequency 1/6 (3 sigma)
    rng = make_rng(1)
    draws = 10_000
    counts = {}
    for _ in range(draws):
        t = tuple(random_tour(4, 0, rng))
        counts[t] = counts.get(t, 0) + 1
    assert len(counts) == 6
    p = 1.0 / 6.0
    sigma = np.sqrt(draws * p * (1 - p))
    for c in counts.values():
        assert abs(c - draws * p) <= 3 * sigma


# --- nearest neighbor -------------------------------------------------------------

def test_nearest_neighbor_forced_order():
    # matrix built so greedy must walk 0 -> 2 -> 1 -> 3
    t = np.array([[0.0, 9.0, 1.0, 9.0],
                  [9.0, 0.0, 9.0, 1.0],
                  [9.0, 1.0, 0.0, 9.0],
                  [9.0, 9.0, 9.0, 0.0]])
    assert nearest_neighbor(t, 0) == [0, 2, 1, 3]


def test_nearest_neighbor_tie_breaks_lowest_index():
    t = np.ones((4, 4)) - np.eye(4)
    assert nearest_neighbor(t, 2) == [2, 0, 1, 3]


@pytest.mark.parametrize("seed", range(0, 240, 40))
def test_nearest_neighbor_matches_reference(seed):
    for case in range(seed, seed + 40):
        t, start, _ = reference_case(case)
        assert nearest_neighbor(t, start) == reference_nearest_neighbor(t, start)


def test_nearest_neighbor_infinite_costs_match_reference():
    # an unreachable stop costs inf; visited stops must never be picked again
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        t = rng.integers(0, 4, (n, n)).astype(np.float64)
        t[rng.uniform(size=(n, n)) < 0.5] = np.inf
        start = int(rng.integers(n))
        assert nearest_neighbor(t, start) == reference_nearest_neighbor(t, start)


def test_nearest_neighbor_at_least_optimal_length():
    for seed in range(30):
        t = random_travel(6, seed)
        nn = nearest_neighbor(t, 0)
        best, _ = brute_force_optimal(t, 0)
        assert tour_length(nn, t) >= tour_length(best, t) - 1e-9


# --- two-opt ---------------------------------------------------------------------

def test_two_opt_planted_improvement():
    # four points on a line; crossing order [0,2,1,3] improves to [0,1,2,3]
    pts = np.array([[0.0], [1.0], [2.0], [3.0]])
    t = np.abs(pts - pts.T)
    assert two_opt([0, 2, 1, 3], t) == [0, 1, 2, 3]


def test_two_opt_never_worse_and_above_optimum():
    for seed in range(40):
        t = random_travel(7, seed)
        start = two_opt(nearest_neighbor(t, 0), t)
        assert tour_length(start, t) <= tour_length(nearest_neighbor(t, 0), t) + 1e-9
        best, _ = brute_force_optimal(t, 0)
        assert tour_length(start, t) >= tour_length(best, t) - 1e-9


@pytest.mark.parametrize("seed", range(0, 240, 40))
def test_two_opt_matches_reference(seed):
    for case in range(seed, seed + 40):
        t, _, order = reference_case(case)
        out = two_opt(order, t)
        assert out == reference_two_opt(order, t)
        assert all(type(k) is int for k in out)


def test_two_opt_first_move_within_threshold_wins():
    # from [0, 1, 2, 3] the moves (i, j) = (1, 2) and (1, 3) give [0, 2, 1, 3]
    # and [0, 3, 2, 1]; the second is shorter by less than 1e-12, so the first
    # wins, where a plain argmin over the sweep would take the second
    t = np.array([[0.0, 10.0, 1.0, 1.0 - 5e-13],
                  [10.0, 0.0, 10.0, 1.0],
                  [10.0, 1.0, 0.0, 10.0],
                  [10.0, 10.0, 1.0, 0.0]])
    gap = tour_length([0, 2, 1, 3], t) - tour_length([0, 3, 2, 1], t)
    assert 0.0 < gap < 1e-12
    assert two_opt([0, 1, 2, 3], t) == reference_two_opt([0, 1, 2, 3], t) == [0, 2, 1, 3]


def test_two_opt_from_a_start_other_than_0():
    t, _, _ = reference_case(7)
    for start in (1, t.shape[0] - 1):
        order = nearest_neighbor(t, start)
        out = two_opt(order, t)
        assert out == reference_two_opt(order, t) and out[0] == start


def test_two_opt_keeps_start_fixed():
    t = random_travel(6, 99)
    out = two_opt(nearest_neighbor(t, 3), t)
    assert out[0] == 3 and sorted(out) == list(range(6))


# --- brute force -------------------------------------------------------------------

def test_brute_force_n3_asymmetric():
    t = np.array([[0.0, 1.0, 10.0],
                  [5.0, 0.0, 1.0],
                  [1.0, 10.0, 0.0]])
    order, length = brute_force_optimal(t, 0)
    # only two candidates: [0,1,2] (cost 2) and [0,2,1] (cost 20)
    assert order == [0, 1, 2] and length == pytest.approx(2.0)


def test_brute_force_enumerators_agree_exactly():
    for seed in range(25):
        n = 4 + seed % 5
        t = random_travel(n, 1000 + seed)
        o1, l1 = brute_force_optimal(t, 0)
        o2, l2 = brute_force_optimal_dfs(t, 0)
        assert o1 == o2 and l1 == l2


def test_brute_force_closed_variant():
    t = random_travel(5, 7)
    order, length = brute_force_optimal(t, 0, closed=True)
    assert length == pytest.approx(tour_length(order, t, closed=True))
    # closed optimum over all permutations
    best = min(tour_length([0] + list(p), t, closed=True)
               for p in itertools.permutations(range(1, 5)))
    assert length == pytest.approx(best)


def test_brute_force_size_guard():
    t = random_travel(11, 0)
    with pytest.raises(DomainError):
        brute_force_optimal(t, 0)


@given(st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_chain_inequality(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    t = random_travel(n, seed + 5000)
    nn = nearest_neighbor(t, 0)
    improved = two_opt(nn, t)
    best, _ = brute_force_optimal(t, 0)
    l_best = tour_length(best, t)
    l_imp = tour_length(improved, t)
    l_nn = tour_length(nn, t)
    assert l_best <= l_imp + 1e-9 <= l_nn + 2e-9
