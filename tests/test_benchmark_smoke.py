"""Smoke test of the benchmark's call surface.

Each workload in perfbench/workloads.py, shrunk to toy sizes, runs one round
against this package, and its outputs must pass the benchmark's own checks.
A change that breaks a name, a signature or a result the benchmark relies on
fails here, in the unit suite, rather than only in `python3 perfbench/run.py`.
"""

import sys
import types
from pathlib import Path

import pytest

from hqrl import env, policy, sim, solvers, training, warmstart

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (imports perfbench's reference module by its bare name)

HQ = types.SimpleNamespace(training=training, policy=policy, sim=sim, env=env,
                           warmstart=warmstart, solvers=solvers)


class TinyTrain(workloads.TrainN8):
    EPISODES, REPEAT_EPISODES = 5, 2


class TinyEvaluate(workloads.EvaluateExact):
    SHAPES = ((5, 2), (6, 3))
    CHECKPOINT_EPISODES = 2


class TinyWarmstart(workloads.WarmstartBatch):
    WARMSTARTS_PER_ROUND = 2


@pytest.mark.parametrize("workload", [TinyTrain, TinyEvaluate, TinyWarmstart],
                         ids=lambda w: w.name)
def test_workload_round_passes_its_checks(workload):
    bench = workload(HQ, seed=1)
    bench.setup()
    result = bench.run_round(0)
    assert result.failed == 0
    assert result.wrong == []
    assert result.attempted > 0 and result.quality["cost_ratio"] >= 1.0
