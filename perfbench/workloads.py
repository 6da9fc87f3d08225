"""The benchmark's three workloads.

A workload makes its inputs from the workload seed alone, runs them in
rounds of identical operations, times each operation, and then checks every
output against ``reference`` or against a property the method must have.
Checks run outside the timed region and outside the traced region.

- ``train-n8``: one ``training.train`` call (hqrl-qaoa, N=8, K=2, 250
  episodes) per round; an operation is one episode.
- ``evaluate-exact``: greedy ``training.evaluate`` on one fresh instance per
  shape in ``SHAPES`` per round; an operation is one evaluation.
- ``warmstart-batch``: ``warmstart.run_warmstart`` on ``WARMSTARTS_PER_ROUND``
  fresh N=8 instances per round; an operation is one warm start.

Every workload reports a ``cost_ratio``: its result divided by the exact
optimum, so 1.0 is perfect and lower is better.  It is averaged over the
first ``MIN_ROUNDS`` rounds, which every run makes, so it depends on the seed
and nothing else.
"""

from __future__ import annotations

import math
import sys
import traceback
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

import reference


@dataclass
class RoundResult:
    attempted: int
    failed: int
    seconds: float
    quality: dict[str, float] = field(default_factory=dict)
    wrong: list[str] = field(default_factory=list)


def _timed(recorder, fn, *args):
    """(result or None, error or None, seconds), tracing only the call itself."""
    if recorder is not None:
        recorder.active = True
    start = perf_counter()
    try:
        result, error = fn(*args), None
    except Exception as exc:  # an operation that raises counts as failed
        result, error = None, exc
    seconds = perf_counter() - start
    if recorder is not None:
        recorder.active = False
    if error is not None:
        traceback.print_exception(error, file=sys.stderr)
    return result, error, seconds


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


def _instance(hq, rng: np.random.Generator, n: int, k: int, label: int):
    """Uniform depot and customers on the unit square, drawn by the benchmark."""
    depot = rng.random(2)
    customers = rng.random((n, 2))
    return hq.env.VrpInstance(n, k, depot, customers, label)


class TrainN8:
    """The reference training run: the simulator, policy and gradient path."""

    name = "train-n8"
    rate_metric = ("episodes_per_s", "episodes/s")
    quality_metric = ("final_route_cost", "tour length")
    N, K, EPISODES = 8, 2, 250
    MIN_ROUNDS = 2  # one instance per round; two narrow the seed-to-seed spread
    REPEAT_EPISODES = 10
    GRAD_TOL = 1e-6

    def __init__(self, hq, seed: int):
        self.hq, self.seed = hq, seed

    def setup(self) -> None:
        pass  # a round's only input is its config seed, drawn when it starts

    def config(self, r: int):
        seed = int(np.random.default_rng([self.seed, 0, r]).integers(0, 2**31))
        return self.hq.training.RunConfig(method="hqrl-qaoa", n_customers=self.N,
                                          n_vehicles=self.K, episodes=self.EPISODES,
                                          seed=seed)

    def run_round(self, r: int, recorder=None) -> RoundResult:
        training = self.hq.training
        cfg = self.config(r)
        out, error, seconds = _timed(recorder, training.train, cfg)
        result = RoundResult(self.EPISODES, 0, seconds)
        if error is not None:
            result.failed = self.EPISODES
            return result
        log, ck = out
        records = log.records
        if len(records) != self.EPISODES:
            result.failed = self.EPISODES
            result.wrong.append(f"{len(records)} episode records, expected {self.EPISODES}")
            return result

        instance = self.hq.env.generate_instance(self.N, self.K, cfg.seed)
        optimum = reference.exact_vrp_cost(instance.depot, instance.customers, self.K)
        bad = [rec.episode for rec in records
               if not (abs(rec.route_cost + rec.total_reward) <= 1e-12
                       and rec.route_cost >= optimum * (1 - 1e-12)
                       and math.isfinite(rec.policy_loss) and math.isfinite(rec.value_loss))]
        if bad:
            result.wrong.append(f"episodes {bad[:5]} break cost = -reward >= optimum "
                                f"{optimum!r} or have non-finite losses")
        round_faults = self._round_checks(cfg, ck, instance, records)
        result.wrong += round_faults
        result.failed = self.EPISODES if round_faults else len(bad)

        final = float(np.mean([rec.route_cost for rec in records[-self.EPISODES // 10:]]))
        result.quality = {"final_route_cost": final, "cost_ratio": final / optimum}
        return result

    def _round_checks(self, cfg, ck, instance, records) -> list[str]:
        hq = self.hq
        faults = []
        p, v = ck.params, ck.vparams
        if not _finite(p.encoder_w, p.encoder_b, p.rotation_angles, p.qaoa_angles,
                       p.head_w, p.head_b, v.w1, v.b1, v.w2, v.b2):
            faults.append("non-finite parameters after training")
            return faults

        # Circuit-angle gradient against central differences of the dense policy.
        h_policy = hq.training.policy_hamiltonian(cfg)
        traj, _, _, _ = hq.training.rollout(instance, p, h_policy,
                                            np.random.default_rng([cfg.seed, 2]),
                                            rule=cfg.vehicle_rule, discount=cfg.discount,
                                            penalty=cfg.invalid_penalty)
        grads, _, loss, _ = hq.policy.reinforce_gradients(traj, p, v, h_policy, True)
        terms = reference.depot_subgraph_terms(instance.depot, instance.customers, 4)
        advantages = [g - reference.value_estimate(s, v.w1, v.b1, v.w2, v.b2)
                      for s, g in zip(traj.states, traj.normalized_returns)]
        n_rot = p.rotation_angles.size

        def ref_loss(x):
            return reference.policy_loss(traj.states, traj.actions, advantages,
                                         p.encoder_w, p.encoder_b,
                                         x[:n_rot].reshape(p.rotation_angles.shape),
                                         x[n_rot:].reshape(p.qaoa_angles.shape),
                                         p.head_w, p.head_b, terms)

        x0 = np.concatenate([p.rotation_angles.ravel(), p.qaoa_angles.ravel()])
        fd = reference.central_difference(ref_loss, x0)
        got = np.concatenate([grads["rotation_angles"].ravel(), grads["qaoa_angles"].ravel()])
        err = float(np.abs(got - fd).max())
        if not err <= self.GRAD_TOL * max(1.0, float(np.abs(fd).max())):
            faults.append(f"circuit-angle gradient differs from central differences by {err!r}")
        if not abs(ref_loss(x0) - loss) <= 1e-9 * max(1.0, abs(loss)):
            faults.append(f"policy loss {loss!r} differs from the dense reference")

        # The same seed must give the same episodes.
        again, _ = hq.training.train(replace(cfg, episodes=self.REPEAT_EPISODES))
        if again.records != records[:self.REPEAT_EPISODES]:
            faults.append("a repeat with the same seed gave different episode records")
        return faults


class EvaluateExact:
    """Greedy evaluation, whose time is almost all the exact oracle."""

    name = "evaluate-exact"
    rate_metric = ("evaluations_per_s", "evaluations/s")
    quality_metric = ("normalized_cost", "ratio")
    # (9, 3) alone takes 22 s on the reference machine; the repeated N=8 shapes
    # steady the mean normalized cost across seeds.
    SHAPES = ((8, 2), (8, 3), (9, 2), (8, 2), (8, 3))
    MIN_ROUNDS = 1
    CHECKPOINT_SEED = 11
    CHECKPOINT_EPISODES = 10

    def __init__(self, hq, seed: int):
        self.hq, self.seed = hq, seed

    def setup(self) -> None:
        training = self.hq.training
        self.checkpoints = {}
        for n, k in sorted(set(self.SHAPES)):
            cfg = training.RunConfig(method="hqrl-qaoa", n_customers=n, n_vehicles=k,
                                     episodes=self.CHECKPOINT_EPISODES,
                                     seed=self.CHECKPOINT_SEED)
            self.checkpoints[(n, k)] = training.train(cfg)[1]

    def run_round(self, r: int, recorder=None) -> RoundResult:
        rng = np.random.default_rng([self.seed, 1, r])
        instances = [_instance(self.hq, rng, n, k, r) for n, k in self.SHAPES]
        result = RoundResult(len(instances), 0, 0.0)
        ratios = []
        for inst in instances:
            ck = self.checkpoints[(inst.n_customers, inst.n_vehicles)]
            out, error, seconds = _timed(recorder, self.hq.training.evaluate, ck, inst)
            result.seconds += seconds
            faults = ["raised"] if error is not None else self._check(inst, out)
            if faults:
                result.failed += 1
                if error is None:
                    result.wrong += faults
            else:
                ratios.append(out.normalized_cost)
        if ratios:
            mean = float(np.mean(ratios))
            result.quality = {"normalized_cost": mean, "cost_ratio": mean}
        return result

    def _check(self, inst, out) -> list[str]:
        n, k = inst.n_customers, inst.n_vehicles
        shape = f"N={n} K={k}"
        optimum = reference.exact_vrp_cost(inst.depot, inst.customers, k)
        faults = []
        if not abs(out.oracle - optimum) <= 1e-9:
            faults.append(f"{shape}: oracle {out.oracle!r} != reference optimum {optimum!r}")
        if not reference.is_partition(out.routes, n, k):
            faults.append(f"{shape}: routes {out.routes} do not visit each customer once")
            return faults
        length = reference.tour_length(inst.depot, inst.customers, out.routes)
        if not abs(out.cost - length) <= 1e-9:
            faults.append(f"{shape}: cost {out.cost!r} != recomputed tour length {length!r}")
        if not (out.normalized_cost >= 1 - 1e-12
                and abs(out.normalized_cost - out.cost / out.oracle) <= 1e-12):
            faults.append(f"{shape}: normalized cost {out.normalized_cost!r} is below 1 "
                          "or is not cost / oracle")
        nn_routes, _ = self.hq.solvers.nearest_neighbor(inst)
        nn_length = reference.tour_length(inst.depot, inst.customers, nn_routes)
        if not out.oracle <= nn_length + 1e-12:
            faults.append(f"{shape}: oracle {out.oracle!r} exceeds nearest neighbor {nn_length!r}")
        return faults


class WarmstartBatch:
    """Many QAOA warm starts: the single-state simulator path."""

    name = "warmstart-batch"
    rate_metric = ("warmstarts_per_s", "warm starts/s")
    quality_metric = ("qaoa_approx_ratio", "ratio")
    N, K = 8, 2
    N_QUBITS, P, BUDGET = 4, 2, 150
    WARMSTARTS_PER_ROUND = 40
    MIN_ROUNDS = 5  # approximation ratios vary widely; 200 warm starts steady the mean

    def __init__(self, hq, seed: int):
        self.hq, self.seed = hq, seed

    def setup(self) -> None:
        pass  # inputs are drawn per round; there is nothing to prepare

    def run_round(self, r: int, recorder=None) -> RoundResult:
        rng = np.random.default_rng([self.seed, 2, r])
        jobs = [(_instance(self.hq, rng, self.N, self.K, r), int(rng.integers(0, 2**31)))
                for _ in range(self.WARMSTARTS_PER_ROUND)]
        result = RoundResult(len(jobs), 0, 0.0)
        ratios = []
        for inst, ws_seed in jobs:
            out, error, seconds = _timed(recorder, self.hq.warmstart.run_warmstart, inst,
                                         self.N_QUBITS, self.P, self.BUDGET, ws_seed)
            result.seconds += seconds
            if error is not None:
                result.failed += 1
                continue
            ratio, faults = self._check(inst, out[0])
            if faults:
                result.failed += 1
                result.wrong += faults
            else:
                ratios.append(ratio)
        if ratios:
            mean = float(np.mean(ratios))
            result.quality = {"qaoa_approx_ratio": mean, "cost_ratio": 1.0 / mean}
        return result

    def _check(self, inst, angles) -> tuple[float, list[str]]:
        terms = reference.depot_subgraph_terms(inst.depot, inst.customers, self.N_QUBITS)
        energy = reference.qaoa_energy(self.N_QUBITS, terms, angles.gammas, angles.betas)
        ground = reference.ground_energy(self.N_QUBITS, terms)
        final, history = angles.final_cost, angles.cost_history
        faults = []
        if not abs(final - energy) <= 1e-10:
            faults.append(f"final cost {final!r} != dense reference energy {energy!r}")
        if not final >= ground - 1e-12:
            faults.append(f"final cost {final!r} is below the ground energy {ground!r}")
        if not (history and history[-1] == final
                and all(b <= a for a, b in zip(history, history[1:]))):
            faults.append("cost history increases or does not end at the final cost")
        if not 1 <= angles.iterations_used <= self.BUDGET:
            faults.append(f"{angles.iterations_used} evaluations used, budget {self.BUDGET}")
        return final / ground, faults


WORKLOADS = {w.name: w for w in (TrainN8, EvaluateExact, WarmstartBatch)}
