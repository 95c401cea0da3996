"""Spans around calls into relaysel's layers, recorded from outside the package.

``Tracer.install`` rebinds each traced public function, in every relaysel
module that holds it, to a wrapper that records a span (name, start, end,
parent) in flat arrays; ``uninstall`` puts the originals back.  Probes of the
drift clock become child spans named ``bench.probe``, so they leave the self
time of the span they interrupted.  A span's self time is its duration minus
its children's durations.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("cli", "experiments", "pgf", "geometry", "simulator")
PROBE = "bench.probe"


def _slots(args, result):
    return result.slots


def _episodes(args, result):
    return args[1]


def _coeffs(args, result):
    return len(result.coeffs)


def _points(args, result):
    return args[1] * args[2]


# (module, attribute, span name, counter name, counter) for every traced function
TRACED = (
    ("cli", "cli_main", "cli.cli_main", None, None),
    ("experiments", "run_experiment", "experiments.run_experiment", None, None),
    ("experiments", "validate_agreement", "experiments.validate_agreement", None, None),
    ("pgf", "build_pgf", "pgf.build_pgf", "pgf.build_pgf.coeffs", _coeffs),
    ("pgf", "sta_pgf_binary", "pgf.builder", None, None),
    ("pgf", "sta_pgf_qary", "pgf.builder", None, None),
    ("pgf", "auction_pgf", "pgf.builder", None, None),
    ("pgf", "auction_skip_pgf", "pgf.builder", None, None),
    ("pgf", "moments", "pgf.moments", None, None),
    ("pgf", "invert_fourier", "pgf.invert_fourier", None, None),
    ("geometry", "sample_topology", "geometry.sample_topology", None, None),
    ("geometry", "nth_neighbor_ccdf", "geometry.nth_neighbor_ccdf", None, None),
    ("geometry", "nth_neighbor_pdf", "geometry.nth_neighbor_pdf", None, None),
    ("geometry", "sample_sorted_separations", "geometry.sample_sorted_separations", "geometry.sample_sorted_separations.points", _points),
    ("geometry", "expected_nth_distance", "geometry.expected_nth_distance", None, None),
    ("geometry", "partition_region", "geometry.partition_region", None, None),
    ("simulator", "as_generator", "simulator.as_generator", None, None),
    ("simulator", "episode_seeds", "simulator.episode_seeds", None, None),
    ("simulator", "run_single_episode", "simulator.run_single_episode", None, None),
    ("simulator", "run_sta", "simulator.run_sta", "simulator.slots", _slots),
    ("simulator", "run_auction", "simulator.run_auction", "simulator.slots", _slots),
    ("simulator", "run_episode_batch", "simulator.run_episode_batch", "simulator.run_episode_batch.episodes", _episodes),
    ("simulator", "total_variation", "simulator.total_variation", None, None),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = [-1]
        self._probes: list[tuple[float, float, int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, counter: str | None, count):
        nid = self._id(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counters[counter] += count(args, result)
            return result

        return traced

    def on_probe(self, start: float, end: float) -> None:
        """Record a drift-clock probe as a child of the span it interrupted."""
        self._probes.append((start, end, self._stack[-1]))

    def install(self) -> None:
        modules = [importlib.import_module(f"relaysel.{m}") for m in MODULES]
        modules.append(importlib.import_module("relaysel"))
        for module_name, attr, span, counter, count in TRACED:
            original = getattr(importlib.import_module(f"relaysel.{module_name}"), attr)
            wrapper = self._wrap(original, span, counter, count)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def count(self, name: str, amount: int) -> None:
        self.counters[name] += amount

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as arrays, drift-clock probes included."""
        names = np.frombuffer(self.name_ids, dtype=np.int32).copy()
        parents = np.frombuffer(self.parents, dtype=np.int64).copy()
        starts = np.frombuffer(self.starts, dtype=np.float64).copy()
        ends = np.frombuffer(self.ends, dtype=np.float64).copy()
        if self._probes:
            probe = np.array(self._probes, dtype=np.float64).reshape(-1, 3)
            names = np.concatenate([names, np.full(len(probe), self._id(PROBE), dtype=np.int32)])
            parents = np.concatenate([parents, probe[:, 2].astype(np.int64)])
            starts = np.concatenate([starts, probe[:, 0]])
            ends = np.concatenate([ends, probe[:, 1]])
        return {"name": names, "parent": parents, "start": starts, "end": ends}

    def self_times(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name."""
        sp = self.spans()
        duration = sp["end"] - sp["start"]
        child = np.zeros(len(duration))
        has_parent = sp["parent"] >= 0
        np.add.at(child, sp["parent"][has_parent], duration[has_parent])
        own = duration - child
        calls = np.bincount(sp["name"], minlength=len(self.names))
        total = np.bincount(sp["name"], weights=own, minlength=len(self.names))
        return {name: (int(calls[i]), float(total[i])) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())
