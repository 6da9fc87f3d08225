"""In-memory span recorder for the benchmark's traced runs.

``SpanRecorder.install`` replaces each named public function of hqrl with a
timing wrapper in every hqrl module that binds it, so a call is recorded
wherever its caller looks the function up (``hqrl.policy.run_circuit`` and
``hqrl.training.policy_forward`` alike).  The wrappers record only while
``active`` is set; otherwise they pass straight through.  A name that the
program no longer has is listed in ``absent`` and its metrics read 0.

Each span keeps its name, start, end and the span open when it began.  A
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self.active = False
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, on_result=None):
        names, starts, ends, parents, open_ = (self.names, self.starts, self.ends,
                                               self.parents, self._open)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                open_.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def install(self, boundaries: dict[str, list[str]], on_result: dict | None = None) -> None:
        """Wrap ``hqrl.<module>.<function>`` for every listed pair."""
        on_result = on_result or {}
        loaded = [m for key, m in list(sys.modules.items())
                  if m is not None and (key == "hqrl" or key.startswith("hqrl."))]
        for module_name, functions in boundaries.items():
            module = sys.modules.get(f"hqrl.{module_name}")
            for fn_name in functions:
                name = f"{module_name}.{fn_name}"
                original = getattr(module, fn_name, None) if module else None
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original, on_result.get(name))
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, value))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def top_level_time(self) -> float:
        return sum(e - s for s, e, p in zip(self.starts, self.ends, self.parents) if p < 0)

    def summary(self, names: list[str]) -> dict[str, dict[str, float]]:
        """calls, total self seconds and median inclusive microseconds per name."""
        own = self.self_times()
        durations: dict[str, list[float]] = {n: [] for n in names}
        self_s: dict[str, float] = dict.fromkeys(names, 0.0)
        for i, name in enumerate(self.names):
            durations[name].append(self.ends[i] - self.starts[i])
            self_s[name] += own[i]
        return {n: {"calls": len(durations[n]),
                    "self_s": self_s[n],
                    "median_us": statistics.median(durations[n]) * 1e6 if durations[n] else 0.0}
                for n in names}

    def write(self, path) -> None:
        table = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(table)}
        with open(path, "w") as fh:
            json.dump({"names": table, "name": [ids[n] for n in self.names],
                       "start": self.starts, "end": self.ends, "parent": self.parents,
                       "counters": self.counters, "absent": self.absent}, fh)
