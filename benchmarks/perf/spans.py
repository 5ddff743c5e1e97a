"""Outside-in span tracing of the simulator's layers.

The tracer patches the public entry points of each layer (class methods
and module-level functions) from inside the benchmark process, so no file
under ``src/`` changes.  Each patched call is a span with a name, a start,
an end and a parent (the innermost span open when it began).  A span's
*self* time is its duration minus the time its child spans cover.

Spans are reduced as they close: every distinct call path (the chain of
span names from the outermost span down) keeps a call count, total time
and self time in memory, and :meth:`Tracer.summary` writes them out when
the traced run ends.  Keeping every raw span instead would cost ~100 MB
on the largest workload (millions of calls) and distort the run it
measures.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Tuple

from repro.cluster import arrivals as cluster_arrivals
from repro.cluster import cluster as cluster_module
from repro.cluster import shard as cluster_shard
from repro.cluster.ring import HashRing
from repro.core import hierarchy
from repro.core.cache import FlashDiskCache
from repro.core.controller import ProgrammableFlashController
from repro.disk.model import DiskModel
from repro.dram.page_cache import PrimaryDiskCache
from repro.flash.channels import NandScheduler
from repro.flash.device import FlashDevice
from repro.reliability.model import ReliabilityModel
from repro.reliability.scrub import Scrubber
from repro.sim import concurrent as sim_concurrent
from repro.sim import engine as sim_engine
from repro.sim.events import EventLoop
from repro.telemetry import Telemetry, TraceSampler
from repro.workloads import macro

__all__ = ["SPANS", "Tracer"]


def _public_methods(cls: type) -> List[Tuple[Any, str]]:
    return [(cls, name) for name, value in vars(cls).items()
            if callable(value) and not name.startswith("_")]


#: Span name -> the (owner, attribute) bindings it wraps.  A function
#: imported into several modules is patched at every binding the traced
#: code paths call through.
SPANS: Tuple[Tuple[str, List[Tuple[Any, str]]], ...] = (
    ("workloads.build_workload",
     [(macro, "build_workload"), (cluster_arrivals, "build_workload")]),
    ("core.hierarchy.build_flash_system",
     [(hierarchy, "build_flash_system"),
      (cluster_shard, "build_flash_system")]),
    ("core.hierarchy.process", [(hierarchy._SystemBase, "process")]),
    ("core.hierarchy.request", [(hierarchy._SystemBase, "read"),
                                (hierarchy._SystemBase, "write")]),
    ("core.hierarchy.submit", [(hierarchy._SystemBase, "submit_read"),
                               (hierarchy._SystemBase, "submit_write")]),
    ("dram.pdc", [(PrimaryDiskCache, "read"), (PrimaryDiskCache, "write"),
                  (PrimaryDiskCache, "flush")]),
    ("core.cache.read", [(FlashDiskCache, "read")]),
    ("core.cache.insert_clean", [(FlashDiskCache, "insert_clean")]),
    ("core.cache.write", [(FlashDiskCache, "write")]),
    ("core.cache.flush", [(FlashDiskCache, "flush")]),
    ("core.cache.scrub_page", [(FlashDiskCache, "scrub_page")]),
    ("reliability.scrub", [(Scrubber, "maybe_scrub")]),
    ("reliability.read_errors", [(ReliabilityModel, "read_errors")]),
    ("core.controller.read", [(ProgrammableFlashController, "read")]),
    ("core.controller.program", [(ProgrammableFlashController, "program")]),
    ("core.controller.erase", [(ProgrammableFlashController, "erase")]),
    ("flash.device.read_page", [(FlashDevice, "read_page")]),
    ("flash.device.program_page", [(FlashDevice, "program_page")]),
    ("flash.device.erase_block", [(FlashDevice, "erase_block")]),
    ("disk.io", [(DiskModel, "read"), (DiskModel, "write")]),
    ("flash.channels.schedule", [(NandScheduler, "schedule")]),
    ("sim.events.step", [(EventLoop, "step")]),
    ("sim.engine.summarise", [(sim_engine, "summarise_system"),
                              (sim_concurrent, "summarise_system")]),
    ("telemetry.hooks",
     _public_methods(Telemetry) + _public_methods(TraceSampler)),
    ("cluster.build_arrivals", [(cluster_module, "build_arrivals"),
                                (cluster_arrivals, "build_arrivals")]),
    ("cluster.route_replicas", [(HashRing, "route_replicas")]),
    ("cluster.run_shard", [(cluster_module, "run_shard")]),
    ("cluster.run_cluster", [(cluster_module, "run_cluster")]),
)


class Tracer:
    """Patches :data:`SPANS` on :meth:`install`, restores on :meth:`uninstall`.

    Besides spans it records what the traced run built and dispatched:
    every system ``build_flash_system`` returned (so per-layer counts can
    be read from each hierarchy afterwards, cluster shards included) and
    the number of events each :class:`EventLoop` dispatched.
    """

    def __init__(self) -> None:
        self.names = [name for name, _ in SPANS]
        #: Per call path: parent path index (-1 at the top) and name index.
        self.path_parent: List[int] = []
        self.path_name: List[int] = []
        self.calls: List[int] = []
        self.total_s: List[float] = []
        self.self_s: List[float] = []
        self._paths: Dict[Tuple[int, int], int] = {}
        #: Open spans, innermost last: [path, start, time covered by children].
        self._stack: List[List[Any]] = []
        self._restore: List[Tuple[Any, str, Any]] = []
        self.systems: List[Any] = []
        self.events_dispatched = 0

    def _path(self, key: Tuple[int, int]) -> int:
        index = self._paths[key] = len(self.path_parent)
        self.path_parent.append(key[0])
        self.path_name.append(key[1])
        self.calls.append(0)
        self.total_s.append(0.0)
        self.self_s.append(0.0)
        return index

    def _span(self, name_index: int, fn: Callable[..., Any]
              ) -> Callable[..., Any]:
        stack = self._stack
        paths = self._paths
        calls = self.calls
        total_s = self.total_s
        self_s = self.self_s
        new_path = self._path
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            key = (stack[-1][0] if stack else -1, name_index)
            path = paths.get(key)
            if path is None:
                path = new_path(key)
            frame = [path, 0.0, 0.0]
            stack.append(frame)
            frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                calls[path] += 1
                total_s[path] += duration
                self_s[path] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
        return traced

    def _patch(self, owner: Any, attr: str,
               make: Callable[[Any], Any]) -> None:
        original = vars(owner)[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        for index, (_, bindings) in enumerate(SPANS):
            for owner, attr in bindings:
                self._patch(owner, attr,
                            lambda fn, index=index: self._span(index, fn))
        systems = self.systems

        def keep_system(build: Callable[..., Any]) -> Callable[..., Any]:
            def built(*args: Any, **kwargs: Any) -> Any:
                system = build(*args, **kwargs)
                systems.append(system)
                return system
            return built

        for owner in (hierarchy, cluster_shard):
            self._patch(owner, "build_flash_system", keep_system)

        def count_dispatched(run: Callable[[EventLoop], float]
                             ) -> Callable[[EventLoop], float]:
            def counted(loop: EventLoop) -> float:
                end_us = run(loop)
                self.events_dispatched += sum(loop.dispatched.values())
                return end_us
            return counted

        self._patch(EventLoop, "run", count_dispatched)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def span_totals(self) -> Dict[str, Dict[str, float]]:
        """Calls and self time per span name, summed over call paths."""
        totals = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for path, name_index in enumerate(self.path_name):
            entry = totals[self.names[name_index]]
            entry["calls"] += self.calls[path]
            entry["self_s"] += self.self_s[path]
        return totals

    def tree(self) -> List[Dict[str, Any]]:
        """Every call path with its calls, total and self time."""
        rows = []
        for path, name_index in enumerate(self.path_name):
            chain = [self.names[name_index]]
            parent = self.path_parent[path]
            while parent >= 0:
                chain.append(self.names[self.path_name[parent]])
                parent = self.path_parent[parent]
            rows.append({"path": " > ".join(reversed(chain)),
                         "calls": self.calls[path],
                         "total_s": self.total_s[path],
                         "self_s": self.self_s[path]})
        rows.sort(key=lambda row: -row["self_s"])
        return rows
