"""Environment contract tests: generation, masking, rewards, returns, costs.

Geometry cases use hand-placed coordinates so expected distances are exact;
the corner-tour optimum is verified against an exhaustive permutation oracle
written here rather than trusted from any solver.
"""

from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hqrl.env import (VEHICLE_RULES, EnvState, VrpInstance, discounted_returns, distance_tables,
                      encode_state, generate_instance, instance_from_json, instance_to_json,
                      load_instance, reset, route_cost, save_instance, select_vehicle, state_dim,
                      step, table_step, valid_action_mask)


def _line_instance(depot, customers, n_vehicles=1, seed=0) -> VrpInstance:
    customers = np.asarray(customers, dtype=float)
    return VrpInstance(len(customers), n_vehicles, np.asarray(depot, dtype=float),
                       customers, seed)


def test_generate_instance_determinism_and_shapes():
    a = generate_instance(8, 2, 77)
    b = generate_instance(8, 2, 77)
    np.testing.assert_array_equal(a.depot, b.depot)
    np.testing.assert_array_equal(a.customers, b.customers)

    c = generate_instance(8, 2, 78)
    assert not np.array_equal(a.customers, c.customers)

    d = generate_instance(12, 3, 88)
    assert d.n_customers == 12 and d.n_vehicles == 3
    assert d.customers.shape == (12, 2)
    assert np.all(d.customers >= 0.0) and np.all(d.customers <= 1.0)
    assert np.all(d.depot >= 0.0) and np.all(d.depot <= 1.0)


def test_generate_instance_validation():
    with pytest.raises(ValueError):
        generate_instance(0, 1, 7)
    with pytest.raises(ValueError):
        generate_instance(3, 0, 7)
    with pytest.raises(ValueError):
        generate_instance(3, 4, 7)


def test_reset_state():
    instance = generate_instance(8, 2, 7)
    state = reset(instance)
    assert state.vehicle_positions.shape == (2, 2)
    np.testing.assert_array_equal(state.vehicle_positions[0], instance.depot)
    np.testing.assert_array_equal(state.vehicle_positions[1], instance.depot)
    assert not state.visited.any() and state.step_count == 0 and not state.done
    assert valid_action_mask(state).all()


def test_encode_state_layout():
    instance = generate_instance(8, 2, 7)
    obs = encode_state(instance, reset(instance))
    assert obs.shape == (28,)
    assert state_dim(8, 2) == 28
    assert state_dim(12, 3) == 42
    mask_part = obs[-8:]
    assert set(np.unique(mask_part)) <= {0.0, 1.0}
    for k in range(1, 4):
        for n in range(k, 9):
            inst = generate_instance(n, k, 1)
            assert encode_state(inst, reset(inst)).shape == (2 * k + 3 * n,)


def test_valid_action_mask_transitions():
    instance = generate_instance(5, 1, 3)
    state = reset(instance)
    state = step(instance, state, 2).state
    mask = valid_action_mask(state)
    assert not mask[2] and mask.sum() == 4

    for action in (0, 1, 3):
        state = step(instance, state, action).state
    assert valid_action_mask(state).sum() == 1

    state = step(instance, state, 4).state
    assert state.done
    with pytest.raises(ValueError):
        valid_action_mask(state)


def test_select_vehicle_rules():
    instance = _line_instance([0.0, 0.0], [[1.0, 0.0], [0.2, 0.0]], n_vehicles=1)
    state = reset(instance)
    assert select_vehicle(state, instance, 0) == 0

    two = _line_instance([0.5, 0.5], [[0.1, 0.5], [0.9, 0.5]], n_vehicles=2)
    state = reset(two)
    state = step(two, state, 0).state  # nearest vehicle 0 moves to the left city
    assert select_vehicle(state, two, 1) == 1  # vehicle 1 still at depot, nearer to the right

    positions = np.array([[0.9, 0.5], [0.9, 0.5]])
    tied = EnvState(positions, np.zeros(2, dtype=bool), 0, False)
    assert select_vehicle(tied, two, 1) == 0  # exact tie goes to the lowest index

    visited_state = step(two, reset(two), 0).state
    with pytest.raises(ValueError):
        select_vehicle(visited_state, two, 0)

    rr = EnvState(np.array([[0.5, 0.5], [0.5, 0.5]]), np.zeros(2, dtype=bool), 3, False)
    assert select_vehicle(rr, two, 0, rule="round-robin") == 1
    with pytest.raises(ValueError):
        select_vehicle(rr, two, 0, rule="zigzag")


def test_step_rewards():
    instance = _line_instance([0.0, 0.0], [[0.3, 0.4], [0.6, 0.8]])
    first = step(instance, reset(instance), 0)
    assert first.reward == pytest.approx(-0.5)
    assert not first.done

    again = step(instance, first.state, 0)
    assert again.reward == pytest.approx(-10.0)
    assert not again.done
    np.testing.assert_array_equal(again.state.vehicle_positions, first.state.vehicle_positions)
    np.testing.assert_array_equal(again.state.visited, first.state.visited)
    assert again.state.step_count == first.state.step_count + 1

    with pytest.raises(ValueError):
        step(instance, reset(instance), 2)


def test_single_customer_at_depot_costs_nothing():
    instance = _line_instance([0.4, 0.4], [[0.4, 0.4]])
    outcome = step(instance, reset(instance), 0)
    assert outcome.done
    assert outcome.reward == pytest.approx(0.0)


def test_final_step_charges_return_to_depot():
    instance = _line_instance([0.0, 0.0], [[0.3, 0.4]])
    outcome = step(instance, reset(instance), 0)
    assert outcome.done
    assert outcome.reward == pytest.approx(-1.0)  # 0.5 out plus 0.5 back
    with pytest.raises(ValueError):
        step(instance, outcome.state, 0)


def test_rewards_never_positive():
    rng = np.random.default_rng(0)
    for seed in range(10):
        instance = generate_instance(6, 2, seed)
        state = reset(instance)
        while not state.done:
            action = int(rng.choice(np.flatnonzero(valid_action_mask(state))))
            outcome = step(instance, state, action)
            assert outcome.reward <= 0.0
            state = outcome.state


def test_discounted_returns_cases():
    returns, normalized = discounted_returns(np.array([1.0, 1.0]), 0.99)
    np.testing.assert_allclose(returns, [1.99, 1.0])
    np.testing.assert_allclose(normalized, [(0.99 / 2) / (0.495 + 1e-8),
                                            (-0.99 / 2) / (0.495 + 1e-8)])

    returns, normalized = discounted_returns(np.array([-5.0]), 0.99)
    np.testing.assert_allclose(returns, [-5.0])
    np.testing.assert_array_equal(normalized, [0.0])

    returns, _ = discounted_returns(np.array([2.0, 0.0, 0.0]), 0.5)
    np.testing.assert_allclose(returns, [2.0, 0.0, 0.0])

    with pytest.raises(ValueError):
        discounted_returns(np.array([]), 0.99)
    with pytest.raises(ValueError):
        discounted_returns(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        discounted_returns(np.array([1.0]), 1.5)


def test_returns_satisfy_backward_recursion():
    rng = np.random.default_rng(8)
    rewards = rng.normal(size=12)
    gamma = 0.9
    returns, normalized = discounted_returns(rewards, gamma)
    for t in range(11):
        assert returns[t] == pytest.approx(rewards[t] + gamma * returns[t + 1])
    assert returns[11] == pytest.approx(rewards[11])
    assert normalized.mean() == pytest.approx(0.0, abs=1e-12)
    assert normalized.std() == pytest.approx(1.0, rel=1e-6)


def test_route_cost_basics():
    instance = _line_instance([0.0, 0.0], [[0.0, 0.25]], n_vehicles=1)
    assert route_cost(instance, {0: [0]}) == pytest.approx(0.5)

    two_vehicles = _line_instance([0.0, 0.0], [[0.0, 0.25]], n_vehicles=2)
    assert route_cost(two_vehicles, {0: [0], 1: []}) == pytest.approx(0.5)

    with pytest.raises(ValueError):
        route_cost(instance, {0: []})
    with pytest.raises(ValueError):
        route_cost(instance, {0: [0, 0]})


def test_corner_tour_matches_exhaustive_oracle():
    corners = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    instance = _line_instance([0.5, 0.5], corners, n_vehicles=1)
    best = min(route_cost(instance, {0: list(order)}) for order in permutations(range(4)))
    assert best == pytest.approx(np.sqrt(2.0) + 3.0, abs=1e-12)


def test_reward_telescopes_to_route_cost():
    rng = np.random.default_rng(21)
    for seed in range(8):
        instance = generate_instance(7, 2, seed)
        state = reset(instance)
        routes = {0: [], 1: []}
        total = 0.0
        while not state.done:
            action = int(rng.choice(np.flatnonzero(valid_action_mask(state))))
            routes[select_vehicle(state, instance, action)].append(action)
            outcome = step(instance, state, action)
            total += outcome.reward
            state = outcome.state
        assert -total == pytest.approx(route_cost(instance, routes), abs=1e-9)


def test_step_reports_the_vehicle_that_served_the_city():
    rng = np.random.default_rng(33)
    for rule in ("nearest", "round-robin"):
        for seed in range(10):
            instance = generate_instance(7, 3, seed)
            state = reset(instance)
            while not state.done:
                action = int(rng.choice(np.flatnonzero(valid_action_mask(state))))
                expected = select_vehicle(state, instance, action, rule)
                outcome = step(instance, state, action, rule)
                assert outcome.vehicle == expected
                np.testing.assert_array_equal(outcome.state.vehicle_positions[expected],
                                              instance.customers[action])
                state = outcome.state
    instance = generate_instance(4, 2, 1)
    served = step(instance, reset(instance), 2).state
    assert step(instance, served, 2).vehicle == -1  # penalty step: nobody moves


def test_masked_play_never_revisits_and_runs_n_steps():
    rng = np.random.default_rng(100)
    for seed in range(100):
        instance = generate_instance(5, 2, seed)
        state = reset(instance)
        seen = set()
        steps = 0
        while not state.done:
            action = int(rng.choice(np.flatnonzero(valid_action_mask(state))))
            assert action not in seen
            seen.add(action)
            state = step(instance, state, action).state
            steps += 1
        assert steps == instance.n_customers


def test_instance_json_roundtrip(tmp_path):
    instance = generate_instance(6, 2, 42)
    again = instance_from_json(instance_to_json(instance))
    np.testing.assert_array_equal(again.depot, instance.depot)
    np.testing.assert_array_equal(again.customers, instance.customers)
    assert (again.n_customers, again.n_vehicles, again.seed) == (6, 2, 42)

    path = tmp_path / "instance.json"
    save_instance(instance, path)
    loaded = load_instance(path)
    np.testing.assert_array_equal(loaded.customers, instance.customers)


def _bad_instance(**changes) -> dict:
    data = instance_to_json(generate_instance(4, 2, 3))
    data.update(changes)
    return data


def test_instance_from_json_rejects_bad_depot_shape():
    with pytest.raises(ValueError, match="'depot'.*shape"):
        instance_from_json(_bad_instance(depot=[0.5, 0.5, 0.5]))
    with pytest.raises(ValueError, match="'depot'"):
        instance_from_json(_bad_instance(depot=[[0.5], [0.5, 0.1]]))


def test_instance_from_json_rejects_bad_customer_shape():
    # Three rows for four declared customers used to fail only at the first
    # forward pass, as an encoder-dimension mismatch.
    short = _bad_instance()
    short["customers"] = short["customers"][:3]
    with pytest.raises(ValueError, match=r"'customers'.*\(3, 2\).*\(4, 2\)"):
        instance_from_json(short)
    with pytest.raises(ValueError, match="'customers'.*shape"):
        instance_from_json(_bad_instance(customers=[[0.1, 0.2, 0.3]] * 4))
    with pytest.raises(ValueError, match="'customers' is not a coordinate array"):
        instance_from_json(_bad_instance(customers=[[0.1, 0.2]] * 3 + [[0.1]]))


def test_instance_from_json_rejects_non_finite_coordinates():
    for bad in (float("nan"), float("inf")):
        data = _bad_instance()
        data["customers"][2][1] = bad
        with pytest.raises(ValueError, match="'customers'.*non-finite"):
            instance_from_json(data)
        with pytest.raises(ValueError, match="'depot'.*non-finite"):
            instance_from_json(_bad_instance(depot=[bad, 0.5]))


def test_instance_from_json_rejects_vehicle_count_outside_range():
    for k in (0, 5):
        with pytest.raises(ValueError, match="'n_vehicles'"):
            instance_from_json(_bad_instance(n_vehicles=k))
    assert instance_from_json(_bad_instance(n_vehicles=4)).n_vehicles == 4


def test_instance_from_json_rejects_non_integer_counts_and_seed():
    # These used to load through int(): 4.9 as 4, true as 1, 2.5 as 2, "7" as 7.
    for key, bad in (("n_customers", 4.9), ("n_vehicles", True), ("seed", 2.5),
                     ("seed", "7"), ("n_customers", None)):
        with pytest.raises(ValueError, match=f"'{key}'"):
            instance_from_json(_bad_instance(**{key: bad}))
    for key in instance_to_json(generate_instance(4, 2, 3)):
        data = _bad_instance()
        del data[key]
        with pytest.raises(ValueError, match=f"'{key}' is missing"):
            instance_from_json(data)
    with pytest.raises(ValueError, match="instance file is not a JSON object"):
        instance_from_json([_bad_instance()])


def _with_coincident_points(instance: VrpInstance, rng) -> VrpInstance:
    """The instance with one customer moved onto the depot and one onto another customer."""
    customers = instance.customers.copy()
    n = instance.n_customers
    customers[rng.integers(0, n)] = instance.depot
    customers[rng.integers(0, n)] = customers[rng.integers(0, n)]
    return VrpInstance(n, instance.n_vehicles, instance.depot, customers, instance.seed)


def test_distance_tables_equal_both_per_pair_norm_forms():
    """d1 is the 1-D norm step measures a leg with, dax the axis=1 norm of select_vehicle
    and the depot return, entry by entry; the two forms differ in the last bit for
    some pairs, so neither table can stand in for the other."""
    rng = np.random.default_rng(5)
    forms_differ = False
    for n in range(1, 26):
        plain = generate_instance(n, 1, 1000 + n)
        for instance in (plain, _with_coincident_points(plain, rng)):
            pts = np.vstack([instance.depot, instance.customers])
            d1, dax = distance_tables(instance)
            assert d1.shape == dax.shape == (n + 1, n + 1)
            for i in range(n + 1):
                for j in range(n + 1):
                    assert d1[i, j] == float(np.linalg.norm(pts[i] - pts[j]))
                    assert dax[i, j] == np.linalg.norm(pts[[i]] - pts[j], axis=1)[0]
            forms_differ |= bool((d1 != dax).any())
    assert forms_differ


def test_table_step_moves_as_step():
    """Vehicle, reward and positions equal env.step's at every step, for both rules,
    coincident points, and all vehicles at the depot, where the nearest-vehicle
    tie goes to the lowest index as np.argmin breaks it."""
    rng = np.random.default_rng(6)
    for n in range(1, 26):
        for k in sorted({1, min(n, 2), min(n, 3)}):
            plain = generate_instance(n, k, 2000 + n)
            for instance, rule in product((plain, _with_coincident_points(plain, rng)),
                                          VEHICLE_RULES):
                tables = distance_tables(instance)
                pts = np.vstack([instance.depot, instance.customers])
                state, where = reset(instance), np.zeros(k, dtype=int)
                for t, action in enumerate(rng.permutation(n).tolist()):
                    outcome = step(instance, state, action, rule)
                    vehicle, reward = table_step(tables, where, action, t, outcome.done, rule)
                    if t == 0 and rule == "nearest":
                        assert vehicle == 0  # every vehicle is at the depot
                    assert (vehicle, reward) == (outcome.vehicle, outcome.reward)
                    np.testing.assert_array_equal(pts[where], outcome.state.vehicle_positions)
                    state = outcome.state
    with pytest.raises(ValueError, match="unknown vehicle rule"):
        table_step(distance_tables(plain), np.zeros(k, dtype=int), 0, 0, False, "farthest")


def _returns_over_numpy_scalars(rewards: np.ndarray, gamma: float):
    """discounted_returns as it ran before its loop moved to Python floats."""
    returns = np.empty_like(rewards)
    acc = 0.0
    for t in range(rewards.size - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        returns[t] = acc
    std = returns.std()
    if std < 1e-8:
        return returns, np.zeros_like(returns)
    return returns, (returns - returns.mean()) / (std + 1e-8)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rewards=arrays(np.float64, st.integers(1, 40),
                      elements=st.floats(-1e3, 1e3, allow_nan=False)),
       gamma=st.floats(0.0, 1.0, exclude_min=True))
def test_discounted_returns_equal_the_numpy_scalar_loop(rewards, gamma):
    returns, normalized = discounted_returns(rewards, gamma)
    expected_returns, expected_normalized = _returns_over_numpy_scalars(rewards, gamma)
    assert returns.tobytes() == expected_returns.tobytes()
    assert normalized.tobytes() == expected_normalized.tobytes()
