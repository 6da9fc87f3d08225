"""Classical route solvers: exact dynamic programming, nearest neighbor, random.

The exact solver finds the cheapest set of at most K closed depot tours that
covers every customer.  Held-Karp gives the cheapest tour of each customer
subset, and a set-partition DP picks at most K disjoint subsets.  The winning
tours are then re-scored as a customer sequence cut into consecutive
per-vehicle segments, so the returned cost carries the rounding of a search
over every permutation and split.  It is the normalization denominator for
small instances; nearest neighbor takes over past 9 customers.
"""

from __future__ import annotations

from itertools import permutations, product

import numpy as np

from .env import VrpInstance, reset, route_cost, step, valid_action_mask

BRUTE_FORCE_LIMIT = 9


def _distances(instance: VrpInstance) -> tuple[list[float], list[list[float]]]:
    diff = instance.customers - instance.depot
    d0 = np.linalg.norm(diff, axis=1).tolist()
    pair = instance.customers[:, None, :] - instance.customers[None, :, :]
    dmat = np.linalg.norm(pair, axis=2).tolist()
    return d0, dmat


def brute_force_optimal(instance: VrpInstance) -> tuple[dict[int, list[int]], float]:
    """Exact optimum by Held-Karp and a set-partition DP; refuses more than 9
    customers.  Vehicle v serves the v-th tour; vehicles without one get []."""
    n, k = instance.n_customers, instance.n_vehicles
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force is capped at {BRUTE_FORCE_LIMIT} customers, got {n}")
    d0, dmat = _distances(instance)
    tours = _optimal_tours(n, k, np.array(d0), np.array(dmat))

    # Every sequence that lists the tours back to back, in any order and
    # orientation, realises this partition; keep the cheapest scoring.
    best_cost = float("inf")
    for order in permutations(tours):
        for flips in product((False, True), repeat=len(order)):
            perm = [c for tour, flip in zip(order, flips) for c in (tour[::-1] if flip else tour)]
            best_cost = min(best_cost, _split_cost(perm, k, d0, dmat))
    routes = {v: tours[v] if v < len(tours) else [] for v in range(k)}
    return routes, float(best_cost)


def _split_cost(perm: list[int], k: int, d0, dmat) -> float:
    """Cheapest cut of ``perm`` into at most k consecutive segments, each a
    closed depot tour, with leg lengths taken as prefix-sum differences."""
    n = len(perm)
    pref = [0.0]
    for a, b in zip(perm, perm[1:]):
        pref.append(pref[-1] + dmat[a][b])
    # DP over vehicles: cost of covering the first j cities with <= m routes.
    prev = [0.0] + [float("inf")] * n
    for _ in range(k):
        cur = [0.0] + [float("inf")] * n
        for j in range(1, n + 1):
            lo = cur[j]
            for i in range(j):
                if prev[i] == float("inf"):
                    continue
                c = prev[i] + d0[perm[i]] + (pref[j - 1] - pref[i]) + d0[perm[j - 1]]
                if c < lo:
                    lo = c
            cur[j] = min(lo, prev[j])
        prev = cur
    return prev[n]


def _optimal_tours(n: int, k: int, d0: np.ndarray, dmat: np.ndarray) -> list[list[int]]:
    """Customer orders of at most k depot tours that together serve all n
    customers at the least total length."""
    size = 1 << n
    masks = np.arange(size, dtype=np.int16)
    bits = 1 << np.arange(n)
    has = (masks[:, None] & bits) != 0                      # (2^n, n)
    popcount = has.sum(axis=1)

    # Held-Karp: path[S, j] is the shortest depot -> S path ending at j in S,
    # and came_from[S, j] the customer visited just before j.
    path = np.full((size, n), np.inf)
    came_from = np.zeros((size, n), dtype=int)
    path[bits, np.arange(n)] = d0
    for count in range(2, n + 1):
        layer = masks[popcount == count]
        before = path[layer[:, None] ^ bits]                # (m, j, i): S \ {j}, ending at i
        legs = before + dmat.T                              # ... then i -> j
        came_from[layer] = legs.argmin(axis=2)
        path[layer] = np.where(has[layer], legs.min(axis=2), np.inf)
    closed = path + d0
    tour = closed.min(axis=1)

    # Partition DP: cover[m][S] is the cheapest cover of S by at most m tours.
    # The tour holding S's lowest customer is T, so each split is counted once.
    s_of, t_of = np.nonzero(((masks[:, None] & masks) == masks)
                            & ((masks[:, None] & -masks[:, None] & masks) != 0))
    starts = np.flatnonzero(np.r_[True, s_of[1:] != s_of[:-1]])
    cover = [np.r_[0.0, np.full(size - 1, np.inf)]]
    for _ in range(k):
        nxt = np.zeros(size)
        nxt[1:] = np.minimum.reduceat(tour[t_of] + cover[-1][s_of ^ t_of], starts)
        cover.append(nxt)

    tours, rest = [], size - 1
    for m in range(k, 0, -1):
        if rest == 0:
            break
        options = t_of[s_of == rest]
        chosen = int(options[np.argmin(tour[options] + cover[m - 1][rest ^ options])])
        rest ^= chosen
        # Walk came_from back from the last customer before the depot.
        end, order = int(closed[chosen].argmin()), []
        while chosen:
            order.append(end)
            chosen, end = chosen ^ (1 << end), int(came_from[chosen, end])
        tours.append(order[::-1])
    return tours


def nearest_neighbor(instance: VrpInstance) -> tuple[dict[int, list[int]], float]:
    """Greedy construction; vehicles take turns claiming their nearest
    unvisited customer, ties broken toward the lowest customer index."""
    n, k = instance.n_customers, instance.n_vehicles
    positions = [instance.depot.copy() for _ in range(k)]
    visited = [False] * n
    routes: dict[int, list[int]] = {v: [] for v in range(k)}
    for turn in range(n):
        v = turn % k
        best, best_d = -1, float("inf")
        for c in range(n):
            if visited[c]:
                continue
            d = float(np.linalg.norm(positions[v] - instance.customers[c]))
            if d < best_d:
                best, best_d = c, d
        routes[v].append(best)
        positions[v] = instance.customers[best]
        visited[best] = True
    return routes, route_cost(instance, routes)


def random_policy_rollout(instance: VrpInstance, seed: int,
                          rule: str = "nearest") -> tuple[dict[int, list[int]], float]:
    """Uniformly random valid actions through the environment."""
    rng = np.random.default_rng(seed)
    state = reset(instance)
    routes: dict[int, list[int]] = {v: [] for v in range(instance.n_vehicles)}
    total = 0.0
    while not state.done:
        valid = np.flatnonzero(valid_action_mask(state))
        action = int(rng.choice(valid))
        outcome = step(instance, state, action, rule)
        routes[outcome.vehicle].append(action)
        total += outcome.reward
        state = outcome.state
    return routes, -total


def oracle_cost(instance: VrpInstance) -> float:
    """Normalization denominator: exact optimum when feasible, else greedy."""
    if instance.n_customers <= BRUTE_FORCE_LIMIT:
        return brute_force_optimal(instance)[1]
    return nearest_neighbor(instance)[1]
