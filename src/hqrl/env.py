"""Vehicle routing as an episodic MDP.

One instance is a depot plus N customers on the unit square, served by K
vehicles.  Each step picks an unserved customer; the nearest vehicle (or the
round-robin one, if configured) drives there and pays the travel distance as
negative reward.  Picking an already-served customer costs a flat penalty of
-10 and moves nothing.  When the last customer is served, the summed
return-to-depot distances are charged on that final step, so the undiscounted
episode reward of a penalty-free episode is exactly minus the route cost.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

INVALID_PENALTY = 10.0
DISCOUNT = 0.99
VEHICLE_RULES = ("nearest", "round-robin")


@dataclass(frozen=True)
class VrpInstance:
    n_customers: int
    n_vehicles: int
    depot: np.ndarray
    customers: np.ndarray
    seed: int


@dataclass
class EnvState:
    vehicle_positions: np.ndarray  # (K, 2)
    visited: np.ndarray            # (N,) bool
    step_count: int
    done: bool


@dataclass(frozen=True)
class StepOutcome:
    state: EnvState
    reward: float
    done: bool
    vehicle: int  # the vehicle that served the city; -1 on a penalty step


@dataclass
class Trajectory:
    """One episode: per-step flat states, actions, rewards and returns."""

    states: np.ndarray             # (T, D)
    actions: np.ndarray            # (T,) int
    rewards: np.ndarray            # (T,)
    returns: np.ndarray            # (T,)
    normalized_returns: np.ndarray # (T,)


def generate_instance(n_customers: int, n_vehicles: int, seed: int) -> VrpInstance:
    """Uniform coordinates on [0, 1]^2; the depot is drawn before customers."""
    if n_customers < 1:
        raise ValueError("need at least one customer")
    if not 1 <= n_vehicles <= n_customers:
        raise ValueError("need 1 <= n_vehicles <= n_customers")
    rng = np.random.default_rng(seed)
    depot = rng.random(2)
    customers = rng.random((n_customers, 2))
    return VrpInstance(n_customers, n_vehicles, depot, customers, seed)


def reset(instance: VrpInstance) -> EnvState:
    positions = np.tile(instance.depot, (instance.n_vehicles, 1))
    return EnvState(positions, np.zeros(instance.n_customers, dtype=bool), 0, False)


def state_dim(n_customers: int, n_vehicles: int) -> int:
    return 2 * n_vehicles + 3 * n_customers


def encode_state(instance: VrpInstance, state: EnvState) -> np.ndarray:
    """Flat observation [vehicle coords | customer coords | visited flags]."""
    return np.concatenate([
        state.vehicle_positions.ravel(),
        instance.customers.ravel(),
        state.visited.astype(float),
    ])


def valid_action_mask(state: EnvState) -> np.ndarray:
    """True for customers that may still be chosen."""
    if state.done:
        raise ValueError("episode is over; no valid actions remain")
    return ~state.visited


def select_vehicle(state: EnvState, instance: VrpInstance, city: int, rule: str = "nearest") -> int:
    """Which vehicle serves a city: closest one (ties to the lowest index),
    or step_count mod K under the round-robin rule."""
    if state.visited[city]:
        raise ValueError(f"city {city} is already visited")
    if rule == "round-robin":
        return state.step_count % instance.n_vehicles
    if rule != "nearest":
        raise ValueError(f"unknown vehicle rule {rule!r}")
    dists = np.linalg.norm(state.vehicle_positions - instance.customers[city], axis=1)
    return int(np.argmin(dists))


def step(instance: VrpInstance, state: EnvState, action: int, rule: str = "nearest",
         penalty: float = INVALID_PENALTY) -> StepOutcome:
    if state.done:
        raise ValueError("cannot step a finished episode")
    if not 0 <= action < instance.n_customers:
        raise ValueError(f"action {action} out of range")

    if state.visited[action]:
        # No movement; the step is burned and the flat penalty applies.
        nxt = EnvState(state.vehicle_positions.copy(), state.visited.copy(),
                       state.step_count + 1, False)
        return StepOutcome(nxt, -penalty, False, -1)

    k = select_vehicle(state, instance, action, rule)
    target = instance.customers[action]
    travel = float(np.linalg.norm(state.vehicle_positions[k] - target))

    positions = state.vehicle_positions.copy()
    positions[k] = target
    visited = state.visited.copy()
    visited[action] = True
    done = bool(visited.all())

    reward = -travel
    if done:
        reward -= float(np.linalg.norm(positions - instance.depot, axis=1).sum())
    nxt = EnvState(positions, visited, state.step_count + 1, done)
    return StepOutcome(nxt, reward, done, k)


def distance_tables(instance: VrpInstance) -> tuple[np.ndarray, np.ndarray]:
    """(N+1, N+1) distances over [depot | customers], bit-equal to step's two norm
    forms: d1 to the 1-D norm of a leg, dax to the axis=1 norm of select_vehicle
    and the depot return."""
    pts = np.vstack([instance.depot, instance.customers])
    diff = pts[:, None] - pts[None]
    return np.sqrt(np.vecdot(diff, diff)), np.linalg.norm(diff, axis=2)


def table_step(tables: tuple[np.ndarray, np.ndarray], where: np.ndarray, action: int,
               step_count: int, done: bool, rule: str = "nearest") -> tuple[int, float]:
    """step of an unvisited city on distance_tables, vehicles held as table indices
    (0 the depot, c + 1 customer c) and moved in place: (vehicle, reward)."""
    d1, dax = tables
    if rule not in VEHICLE_RULES:
        raise ValueError(f"unknown vehicle rule {rule!r}")
    k = (step_count % where.size if rule == "round-robin"
         else int(dax[action + 1][where].argmin()))
    reward = -float(d1[where[k], action + 1])
    where[k] = action + 1
    if done:
        reward -= float(dax[0][where].sum())
    return k, reward


def discounted_returns(rewards: np.ndarray, gamma: float = DISCOUNT) -> tuple[np.ndarray, np.ndarray]:
    """Backward-accumulated returns G_t and their per-episode normalization.

    Normalization is (G - mean) / (std + 1e-8); a flat return vector
    (std < 1e-8) normalizes to all zeros.
    """
    rewards = np.asarray(rewards, dtype=float)
    if rewards.size == 0:
        raise ValueError("empty reward sequence")
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    acc, backward = 0.0, []
    for r in reversed(rewards.tolist()):
        acc = r + gamma * acc
        backward.append(acc)
    returns = np.array(backward[::-1])
    std = returns.std()
    if std < 1e-8:
        return returns, np.zeros_like(returns)
    return returns, (returns - returns.mean()) / (std + 1e-8)


def route_cost(instance: VrpInstance, routes: dict[int, list[int]]) -> float:
    """Total closed-tour length: depot -> cities in order -> depot, per vehicle.

    Routes must partition the customer set; a vehicle with no cities adds 0.
    """
    served = sorted(c for cities in routes.values() for c in cities)
    if served != list(range(instance.n_customers)):
        raise ValueError("routes must visit every customer exactly once")
    total = 0.0
    for cities in routes.values():
        if not cities:
            continue
        pos = instance.depot
        for c in cities:
            total += float(np.linalg.norm(pos - instance.customers[c]))
            pos = instance.customers[c]
        total += float(np.linalg.norm(pos - instance.depot))
    return total


def instance_to_json(instance: VrpInstance) -> dict:
    return {
        "n_customers": instance.n_customers,
        "n_vehicles": instance.n_vehicles,
        "seed": instance.seed,
        "depot": [float(x) for x in instance.depot],
        "customers": [[float(x) for x in row] for row in instance.customers],
    }


def _coordinates(data: dict, key: str, shape: tuple[int, ...]) -> np.ndarray:
    try:
        coords = np.array(data[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"instance field {key!r} is not a coordinate array: {exc}") from None
    if coords.shape != shape:
        raise ValueError(f"instance field {key!r} has shape {coords.shape}, expected {shape}")
    if not np.isfinite(coords).all():
        raise ValueError(f"instance field {key!r} holds a non-finite value")
    return coords


def instance_from_json(data: dict) -> VrpInstance:
    """Inverse of instance_to_json; a malformed file raises ValueError naming the field."""
    if not isinstance(data, dict):
        raise ValueError("instance file is not a JSON object")
    for key in ("n_customers", "n_vehicles", "seed", "depot", "customers"):
        if key not in data:
            raise ValueError(f"instance field {key!r} is missing")
    for key in ("n_customers", "n_vehicles", "seed"):
        if isinstance(data[key], bool) or not isinstance(data[key], int):
            raise ValueError(f"instance field {key!r} = {data[key]!r} is not an integer")
    n_customers, n_vehicles = data["n_customers"], data["n_vehicles"]
    if not 1 <= n_vehicles <= n_customers:
        raise ValueError(f"instance field 'n_vehicles' = {n_vehicles} is outside "
                         f"[1, n_customers={n_customers}]")
    return VrpInstance(n_customers, n_vehicles, _coordinates(data, "depot", (2,)),
                       _coordinates(data, "customers", (n_customers, 2)), data["seed"])


def write_atomic(path: str | Path, text: str) -> None:
    """Write text to a temporary file beside path, then os.replace it into place."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_instance(instance: VrpInstance, path: str | Path) -> None:
    write_atomic(path, json.dumps(instance_to_json(instance), indent=2) + "\n")


def load_instance(path: str | Path) -> VrpInstance:
    return instance_from_json(json.loads(Path(path).read_text()))
