"""Classical tour constructions used as references and test oracles.

All operate on an asymmetric travel-time matrix over an open path (no return
to the start), with the start stop pinned at position 0.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DomainError
from .routegraph import tour_length

BRUTE_FORCE_MAX_N = 10


def random_tour(n: int, start: int, rng: np.random.Generator) -> list[int]:
    """Start followed by a uniform shuffle of the remaining stops."""
    if n < 1 or not 0 <= start < n:
        raise DomainError(f"random_tour: bad n={n}, start={start}")
    rest = [i for i in range(n) if i != start]
    rng.shuffle(rest)
    return [start] + rest


def nearest_neighbor(travel: np.ndarray, start: int) -> list[int]:
    """Greedy construction; ties, at +inf too, broken toward the lowest stop index."""
    travel = np.asarray(travel, dtype=np.float64)
    n = travel.shape[0]
    if not 0 <= start < n:
        raise DomainError(f"nearest_neighbor: start {start} out of range")
    cost = travel.copy()
    cost[:, start] = np.inf  # visited stops are masked out of every row
    tour = [start]
    for _ in range(n - 1):
        row = cost[tour[-1]]
        nxt = int(np.argmin(row))
        tour.append(nxt if row[nxt] < np.inf else min(set(range(n)) - set(tour)))
        cost[:, tour[-1]] = np.inf
    return tour


def two_opt(order, travel: np.ndarray) -> list[int]:
    """Best-improvement 2-exchange local search on the open path.

    Candidate moves reverse order[i..j] for 1 <= i <= j < n, keeping the
    start pinned.  Costs are recomputed under the asymmetric matrix, so
    reversed arcs are re-priced rather than assumed symmetric.  One i's moves
    are rows of one array, each summed by cumsum to the bits of `tour_length`.
    """
    travel = np.asarray(travel, dtype=np.float64)
    n = travel.shape[0]
    best_len = tour_length(order, travel)
    current = np.array(order, dtype=np.intp)
    cols = np.arange(n)
    while True:
        best_move = None
        for i in range(1, n - 1):
            j = np.arange(i + 1, n)[:, None]
            paths = current[np.where((cols >= i) & (cols <= j), i + j - cols, cols)]
            lens = np.cumsum(travel[paths[:, :-1], paths[:, 1:]], axis=1)[:, -1]
            for r in np.flatnonzero(lens < best_len - 1e-12):
                if lens[r] < best_len - 1e-12:
                    best_len, best_move = lens[r], paths[r]
        if best_move is None:
            return current.tolist()
        current = best_move


def brute_force_optimal(travel: np.ndarray, start: int, closed: bool = False):
    """Exhaustive optimum over all suffix permutations; n <= 10 only.

    Returns (tour, length); among ties, the lexicographically smallest tour.
    """
    travel = np.asarray(travel, dtype=np.float64)
    n = travel.shape[0]
    if n > BRUTE_FORCE_MAX_N:
        raise DomainError(f"brute_force_optimal: n={n} exceeds limit {BRUTE_FORCE_MAX_N}")
    if not 0 <= start < n:
        raise DomainError(f"brute_force_optimal: start {start} out of range")
    rest = [i for i in range(n) if i != start]
    best_tour = None
    best_len = np.inf
    for suffix in itertools.permutations(rest):
        tour = [start] + list(suffix)
        length = tour_length(tour, travel, closed=closed)
        if length < best_len:
            best_len = length
            best_tour = tour
    return best_tour, float(best_len)


def brute_force_optimal_dfs(travel: np.ndarray, start: int, closed: bool = False):
    """Independent second enumerator (recursive DFS) for oracle cross-checks."""
    travel = np.asarray(travel, dtype=np.float64)
    n = travel.shape[0]
    if n > BRUTE_FORCE_MAX_N:
        raise DomainError(f"brute_force_optimal_dfs: n={n} exceeds limit {BRUTE_FORCE_MAX_N}")
    best = {"tour": None, "len": np.inf}

    def visit(tour, remaining, acc):
        if not remaining:
            total = acc + (travel[tour[-1], tour[0]] if closed and n > 1 else 0.0)
            if total < best["len"]:
                best["len"] = total
                best["tour"] = list(tour)
            return
        for j in sorted(remaining):
            tour.append(j)
            visit(tour, remaining - {j}, acc + travel[tour[-2], j])
            tour.pop()

    visit([start], set(range(n)) - {start}, 0.0)
    return best["tour"], float(best["len"])
