"""Classical route solvers: exact dynamic programming, nearest neighbor, random.

Vehicles have no capacity and depot legs obey the triangle inequality, so
joining two depot tours end to start never makes them longer: the shortest
single closed tour is optimal for every vehicle count K.  The exact solver
finds it by Held-Karp and re-scores it as a sequence cut into at most K
per-vehicle segments, so the cost carries the rounding of a search over every
permutation and split.  It is the normalization denominator for small
instances; nearest neighbor takes over past 9 customers.  Both read their
distances from env.distance_tables.
"""

from __future__ import annotations

import numpy as np

from .env import VrpInstance, distance_tables, reset, route_cost, step, valid_action_mask

BRUTE_FORCE_LIMIT = 9


def brute_force_optimal(instance: VrpInstance) -> tuple[dict[int, list[int]], float]:
    """Exact optimum by Held-Karp; refuses more than 9 customers.  Vehicle 0
    serves the single optimal tour and every other vehicle gets []."""
    n, k = instance.n_customers, instance.n_vehicles
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force is capped at {BRUTE_FORCE_LIMIT} customers, got {n}")
    dax = distance_tables(instance)[1]
    tour = _optimal_tour(n, dax[0, 1:], dax[1:, 1:])
    d0, dmat = dax[0, 1:].tolist(), dax[1:, 1:].tolist()
    cost = min(_split_cost(seq, k, d0, dmat) for seq in (tour, tour[::-1]))
    routes = {v: tour if v == 0 else [] for v in range(k)}
    return routes, float(cost)


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


def _optimal_tour(n: int, d0: np.ndarray, dmat: np.ndarray) -> list[int]:
    """Customer order of the shortest closed depot tour through all n customers."""
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

    # Walk came_from back from the last customer before the depot.
    rest = size - 1
    end, order = int((path[rest] + d0).argmin()), []
    while rest:
        order.append(end)
        rest, end = rest ^ (1 << end), int(came_from[rest, end])
    return order[::-1]


def nearest_neighbor(instance: VrpInstance) -> tuple[dict[int, list[int]], float]:
    """Greedy construction; vehicles take turns claiming their nearest
    unvisited customer, ties broken toward the lowest customer index."""
    n, k = instance.n_customers, instance.n_vehicles
    d1 = distance_tables(instance)[0][:, 1:]  # from [depot | customers] to each customer
    where = [0] * k  # table rows: 0 the depot, c + 1 customer c
    visited = np.zeros(n, dtype=bool)
    routes: dict[int, list[int]] = {v: [] for v in range(k)}
    for turn in range(n):
        v = turn % k
        best = int(np.where(visited, np.inf, d1[where[v]]).argmin())
        routes[v].append(best)
        where[v] = best + 1
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
