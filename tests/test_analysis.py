"""simlint tests: the engine, each SIM rule (fire / near-miss / pragma),
baseline round-trips, and the meta-invariant that the committed tree
lints clean.

Fixture modules are written under a synthetic ``repro/...`` directory so
the scope-sensitive rules (SIM001's hard core, SIM006, SIM008) see the
same package names they key on in the real tree — the engine derives a
module's dotted name from its path.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    DEFAULT_BASELINE,
    Finding,
    LintEngine,
    RULES,
    all_rules,
    apply_baseline,
    lint_paths,
    load_baseline,
    write_baseline,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.engine import module_name_for_path

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_fixture(tmp_path: Path, relname: str, source: str,
                 extra: dict | None = None) -> list[Finding]:
    """Write fixture module(s) under tmp_path and lint the whole tree."""
    files = {relname: source}
    files.update(extra or {})
    for name, text in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text), encoding="utf-8")
    engine = LintEngine(all_rules(), root=tmp_path)
    return engine.run([tmp_path]).findings


def codes(findings: list[Finding]) -> list[str]:
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# Engine mechanics
# ---------------------------------------------------------------------------


class TestEngine:
    def test_module_name_derivation(self):
        assert module_name_for_path(
            Path("src/repro/core/cache.py")) == "repro.core.cache"
        assert module_name_for_path(
            Path("/tmp/x/repro/sim/engine.py")) == "repro.sim.engine"
        assert module_name_for_path(
            Path("src/repro/analysis/__init__.py")) == "repro.analysis"
        assert module_name_for_path(Path("scratch.py")) == "scratch"

    def test_syntax_error_becomes_finding(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/sim/broken.py",
                                "def f(:\n")
        assert codes(findings) == ["SIM000"]
        assert "syntax error" in findings[0].message

    def test_relative_import_resolution(self, tmp_path):
        # ``from ..parallel import derive_seed`` inside repro.faults.x
        # must resolve to repro.parallel.derive_seed (an approved seed
        # source for SIM002).
        findings = lint_fixture(tmp_path, "repro/faults/inj.py", """
            from random import Random
            from ..parallel import derive_seed

            def make(seed: int):
                return Random(derive_seed(seed, "stream"))
            """)
        assert findings == []

    def test_rule_registry_is_complete(self):
        # SIM011 is retired, not renumbered: pragmas name rules by code.
        assert sorted(RULES) == [f"SIM{n:03d}" for n in range(1, 14)
                                 if n != 11]
        for code, cls in RULES.items():
            assert cls.description, code
            assert cls.severity in ("error", "warning")

    def test_skip_file_pragma(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/sim/gen.py", """
            # simlint: skip-file
            import time

            def f():
                return time.time()
            """)
        assert findings == []


# ---------------------------------------------------------------------------
# SIM001 — wall clock
# ---------------------------------------------------------------------------


class TestSim001WallClock:
    def test_fires_in_simulation_package(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/sim/clock.py", """
            import time

            def now():
                return time.time()
            """)
        assert codes(findings) == ["SIM001"]
        assert "simulated time" in findings[0].message

    def test_fires_on_from_import_alias(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/experiments/timer.py", """
            from time import perf_counter as pc

            def elapsed():
                return pc()
            """)
        assert codes(findings) == ["SIM001"]

    def test_fires_on_datetime_now(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/core/stamp.py", """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """)
        assert codes(findings) == ["SIM001"]

    def test_near_miss_method_named_time(self, tmp_path):
        # A .time() method on a local object is not the wall clock.
        findings = lint_fixture(tmp_path, "repro/sim/ok.py", """
            def f(simclock):
                return simclock.time()
            """)
        assert findings == []

    def test_pragma_suppresses(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/experiments/rep.py", """
            import time

            def footnote():
                return time.perf_counter()  # simlint: ignore[SIM001] -- orchestration
            """)
        assert findings == []

    def test_standalone_pragma_line_covers_next_line(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/experiments/rep2.py", """
            import time

            def footnote():
                # simlint: ignore[SIM001] -- orchestration
                return time.perf_counter()
            """)
        assert findings == []


# ---------------------------------------------------------------------------
# SIM002 — RNG seeding discipline
# ---------------------------------------------------------------------------


class TestSim002RngSeed:
    def test_fires_on_unseeded_random(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/workloads/gen.py", """
            from random import Random

            def make():
                return Random()
            """)
        assert codes(findings) == ["SIM002"]
        assert "unseeded" in findings[0].message

    def test_fires_on_global_random_function(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/workloads/gen2.py", """
            import random

            def draw():
                return random.random()
            """)
        assert codes(findings) == ["SIM002"]
        assert "process-global" in findings[0].message

    def test_fires_on_module_level_rng(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/workloads/gen3.py", """
            from random import Random

            RNG = Random(1234)
            """)
        assert codes(findings) == ["SIM002"]
        assert "module-level" in findings[0].message

    def test_fires_on_seed_arithmetic(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/faults/gen4.py", """
            from random import Random

            def make(seed: int):
                return Random((seed << 2) | 1)
            """)
        assert codes(findings) == ["SIM002"]
        assert "derive_seed" in findings[0].message

    def test_fires_on_numpy_global(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/workloads/gen5.py", """
            import numpy as np

            def draw(n: int):
                return np.random.rand(n)
            """)
        assert codes(findings) == ["SIM002"]

    def test_near_miss_explicit_seed_forms(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/workloads/ok.py", """
            from random import Random
            from repro.parallel import derive_seed

            def a(seed: int):
                return Random(seed)

            def b(config):
                return Random(config.seed)

            def c(seed: int):
                return Random(derive_seed(seed, "stream"))

            def d():
                return Random(1234)

            def e(rng):
                return rng.random()  # method on a local RNG, not global
            """)
        assert findings == []

    def test_pragma_suppresses(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/workloads/leg.py", """
            from random import Random

            def make(seed: int):
                return Random(seed * 31)  # simlint: ignore[SIM002] -- legacy stream
            """)
        assert findings == []


# ---------------------------------------------------------------------------
# SIM003 — hash/order hazards
# ---------------------------------------------------------------------------


class TestSim003HashOrder:
    def test_fires_on_hash_outside_dunder(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/workloads/h.py", """
            def key(name: str) -> int:
                return hash(name)
            """)
        assert codes(findings) == ["SIM003"]
        assert "PYTHONHASHSEED" in findings[0].message

    def test_fires_on_set_iteration(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/core/s.py", """
            def walk(xs):
                for x in set(xs):
                    yield x
            """)
        assert codes(findings) == ["SIM003"]

    def test_fires_on_list_of_set(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/core/s2.py", """
            def order(xs):
                return list(set(xs))
            """)
        assert codes(findings) == ["SIM003"]

    def test_fires_on_id(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/telemetry/k.py", """
            def key(obj):
                return id(obj)
            """)
        assert codes(findings) == ["SIM003"]

    def test_near_miss_dunder_hash_and_sorted(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/core/ok.py", """
            class Key:
                def __hash__(self) -> int:
                    return hash((self.a, self.b))

            def order(xs):
                return sorted(set(xs))

            def member(xs, x):
                return x in set(xs)  # membership, not iteration
            """)
        assert findings == []

    def test_pragma_suppresses(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/core/p.py", """
            def key(name: str) -> int:
                return hash(name)  # simlint: ignore[SIM003] -- non-sim debug aid
            """)
        assert findings == []

    def test_fires_on_set_annotated_names_and_attributes(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/core/typed.py", """
            from collections import deque
            from typing import Dict, Set

            class Region:
                pinned: Set[int]

                def __init__(self) -> None:
                    self.dirty: Set[int] = set()
                    self.valid: Dict[int, Set[int]] = {}

                def walk(self, block: int, extra: set[int]):
                    for lba in self.dirty:
                        yield lba
                    yield list(self.valid.get(block, ()))
                    yield tuple(self.valid[block])
                    yield deque(extra)
                    yield [p for p in self.pinned]
                    local: Set[int] = set()
                    for page in local:
                        yield page
            """)
        assert codes(findings) == ["SIM003"] * 6
        assert [f.line for f in findings] == [13, 15, 16, 17, 18, 20]
        assert all("set" in f.message for f in findings)

    def test_set_annotations_do_not_over_fire(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/core/typed_ok.py", """
            from collections import OrderedDict
            from typing import Dict, List, Set

            class Region:
                def __init__(self) -> None:
                    self.dirty: Set[int] = set()
                    self.lru: "OrderedDict[int, int]" = OrderedDict()
                    self.runs: Dict[int, List[int]] = {}
                    self.mixed: Set[int] = set()

            class Other:
                def __init__(self) -> None:
                    self.mixed: List[int] = []

            def ordered(region: Region, block: int, items: List[int]):
                yield sorted(region.dirty)
                yield len(region.dirty), block in region.dirty
                yield list(region.lru)
                yield list(region.runs.get(block, ()))
                yield list(region.mixed)
                for item in items:
                    yield item

            def shadow(items: Set[int]):
                return sorted(items)

            def plain(items):
                return list(items)
            """)
        assert findings == []

    def test_set_annotated_pragma_suppresses(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/core/typed_p.py", """
            from typing import Set

            def walk(done: Set[int]):
                # simlint: ignore[SIM003] -- fed to a sum only
                return list(done)
            """)
        assert findings == []


# ---------------------------------------------------------------------------
# SIM004 — picklable sweep tasks
# ---------------------------------------------------------------------------


class TestSim004PicklableTask:
    def test_fires_on_lambda_fn(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/experiments/t.py", """
            from repro.parallel import SweepTask

            def tasks():
                return [SweepTask(key="a", fn=lambda: 1)]
            """)
        assert codes(findings) == ["SIM004"]
        assert "lambda" in findings[0].message

    def test_fires_on_closure_fn(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/experiments/t2.py", """
            from repro.parallel import SweepTask

            def tasks():
                def run_one(seed: int) -> int:
                    return seed
                return [SweepTask(key="a", fn=run_one)]
            """)
        assert codes(findings) == ["SIM004"]
        assert "nested" in findings[0].message

    def test_fires_on_bound_method_fn(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/experiments/t3.py", """
            from repro.parallel import SweepTask

            class Grid:
                def run(self) -> int:
                    return 1

                def tasks(self):
                    return [SweepTask(key="a", fn=self.run)]
            """)
        assert codes(findings) == ["SIM004"]

    def test_fires_on_lambda_in_kwargs(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/experiments/t4.py", """
            from repro.parallel import SweepTask

            def run_one(**kw):
                return 0

            def tasks():
                return [SweepTask(key="a", fn=run_one,
                                  kwargs={"hook": lambda v: v})]
            """)
        assert codes(findings) == ["SIM004"]

    def test_near_miss_module_level_fn(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/experiments/ok.py", """
            from repro.parallel import SweepTask
            from repro.experiments import fig6_ecc

            def run_one(seed: int) -> int:
                return seed

            def tasks():
                return [
                    SweepTask(key="a", fn=run_one, kwargs={"x": 1}),
                    SweepTask(key="b", fn=fig6_ecc.main),
                ]
            """)
        assert findings == []

    def test_pragma_suppresses(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/experiments/p.py", """
            from repro.parallel import SweepTask

            def tasks():
                return [SweepTask(key="a", fn=lambda: 1)]  # simlint: ignore[SIM004] -- serial-only grid
            """)
        assert findings == []


# ---------------------------------------------------------------------------
# SIM005 — unit discipline
# ---------------------------------------------------------------------------


class TestSim005UnitMix:
    def test_fires_on_addition_across_units(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/sim/u.py", """
            def total(latency_us: float, stall_ms: float) -> float:
                return latency_us + stall_ms
            """)
        assert codes(findings) == ["SIM005"]
        assert "_us" in findings[0].message and "_ms" in findings[0].message

    def test_fires_on_comparison_across_units(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/sim/u2.py", """
            def slow(latency_us: float, budget_s: float) -> bool:
                return latency_us > budget_s
            """)
        assert codes(findings) == ["SIM005"]

    def test_fires_on_assignment_across_units(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/sim/u3.py", """
            def convert(total_us: float) -> float:
                total_ms = total_us
                return total_ms
            """)
        assert codes(findings) == ["SIM005"]

    def test_fires_on_keyword_across_units(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/sim/u4.py", """
            def record(hist, elapsed_ms: float):
                hist.observe(latency_us=elapsed_ms)
            """)
        assert codes(findings) == ["SIM005"]

    def test_near_miss_same_unit_and_conversions(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/sim/ok.py", """
            def f(a_us: float, b_us: float) -> float:
                return a_us + b_us

            def g(a_us: float, b_s: float) -> float:
                return a_us + b_s * 1e6  # factor clears the unit

            def h(x_ms: float) -> float:
                total_us = ms_to_us(x_ms)  # conversion call carries unit
                return total_us

            def ms_to_us(v: float) -> float:
                return v * 1e3
            """)
        assert findings == []

    def test_pragma_suppresses(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/sim/p.py", """
            def f(a_us: float, b_ms: float) -> float:
                return a_us + b_ms  # simlint: ignore[SIM005] -- unit checked upstream
            """)
        assert findings == []


# ---------------------------------------------------------------------------
# SIM006 — telemetry guards
# ---------------------------------------------------------------------------


class TestSim006TelemetryGuard:
    def test_fires_on_unguarded_attribute_call(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/core/hot.py", """
            class Cache:
                def read(self, lba: int) -> None:
                    self.telemetry.flash_read(1.0, 0, False)
            """)
        assert codes(findings) == ["SIM006"]
        assert "unguarded" in findings[0].message

    def test_fires_on_unguarded_local_call(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/flash/hot2.py", """
            class Device:
                def read(self) -> None:
                    telemetry = self.telemetry
                    telemetry.page_read(0)
            """)
        assert codes(findings) == ["SIM006"]

    def test_near_miss_guarded_patterns(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/core/ok.py", """
            class Cache:
                def read(self, lba: int) -> None:
                    telemetry = self.telemetry
                    if telemetry is not None:
                        telemetry.flash_read(1.0, 0, False)

                def reconfig(self, kind: str) -> None:
                    if self.telemetry is not None:
                        self.telemetry.reconfig(kind)

                def gc(self) -> None:
                    t = self.telemetry
                    telemetry = t
                    telemetry is not None and telemetry.gc(1)
            """)
        assert findings == []

    def test_near_miss_inverted_guard(self, tmp_path):
        # ``if telemetry is None: ... else: telemetry.attach(...)`` — the
        # run_trace shape: the orelse branch is the guarded one.
        findings = lint_fixture(tmp_path, "repro/sim/run.py", """
            def run(system, telemetry=None):
                if telemetry is None:
                    system.run()
                else:
                    telemetry.attach(system)
                    system.run()
            """)
        assert findings == []

    def test_near_miss_outside_hot_packages(self, tmp_path):
        # Experiments aggregate telemetry after the run; no guard needed.
        findings = lint_fixture(tmp_path, "repro/experiments/agg.py", """
            def collect(handle):
                handle.telemetry.export()
            """)
        assert findings == []

    def test_pragma_suppresses(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/core/p.py", """
            class Cache:
                def read(self) -> None:
                    self.telemetry.flash_read(1.0)  # simlint: ignore[SIM006] -- cold path
            """)
        assert findings == []


# ---------------------------------------------------------------------------
# SIM007 — dead counters
# ---------------------------------------------------------------------------


class TestSim007DeadCounter:
    def test_fires_on_never_written_field(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/core/stats.py", """
            from dataclasses import dataclass

            @dataclass
            class ControllerStats:
                reads: int = 0
                phantom_counter: int = 0

            class Controller:
                def read(self) -> None:
                    self.stats.reads += 1
            """)
        assert codes(findings) == ["SIM007"]
        assert "phantom_counter" in findings[0].message
        assert findings[0].severity == "warning"

    def test_near_miss_written_in_other_module(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/core/stats.py", """
            from dataclasses import dataclass

            @dataclass
            class CacheStats:
                remote_hits: int = 0
            """, extra={"repro/sim/driver.py": """
            def drive(cache) -> None:
                cache.stats.remote_hits += 1
            """})
        assert findings == []

    def test_near_miss_written_via_constructor_kwarg(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/sim/rep.py", """
            from dataclasses import dataclass

            @dataclass
            class SimulationReport:
                requests: int = 0

            def build() -> SimulationReport:
                return SimulationReport(requests=7)
            """)
        assert findings == []

    def test_non_stats_classes_ignored(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/core/cfg.py", """
            from dataclasses import dataclass

            @dataclass
            class SomeConfig:
                never_written_anywhere: int = 0
            """)
        assert findings == []


# ---------------------------------------------------------------------------
# SIM008 — exception discipline
# ---------------------------------------------------------------------------


class TestSim008ExceptionDiscipline:
    def test_fires_on_bare_except(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/core/x.py", """
            def f():
                try:
                    risky()
                except:
                    return None
            """)
        assert codes(findings) == ["SIM008"]
        assert "bare" in findings[0].message

    def test_fires_on_swallowed_core_error(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/sim/x2.py", """
            from repro.core.errors import CacheDegradedError

            def f(cache):
                try:
                    cache.read(0)
                except CacheDegradedError:
                    pass
            """)
        assert codes(findings) == ["SIM008"]
        assert "swallowed" in findings[0].message

    def test_fires_on_except_exception_pass(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/core/x3.py", """
            def f():
                try:
                    risky()
                except Exception:
                    pass
            """)
        assert codes(findings) == ["SIM008"]

    def test_near_miss_handled_core_error(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/core/ok.py", """
            from .errors import CacheDegradedError

            def f(cache):
                try:
                    cache.read(0)
                except CacheDegradedError:
                    cache.stats.degraded_events += 1
                except ValueError:
                    pass
            """)
        assert findings == []

    def test_near_miss_outside_core_packages(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/experiments/x.py", """
            def f():
                try:
                    risky()
                except Exception:
                    pass
            """)
        assert findings == []

    def test_pragma_suppresses(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/core/p.py", """
            def f():
                try:
                    risky()
                except Exception:  # simlint: ignore[SIM008] -- boundary shim
                    pass
            """)
        assert findings == []


# ---------------------------------------------------------------------------
# SIM009 — atomic artifact writes
# ---------------------------------------------------------------------------


class TestSim009AtomicWrite:
    def test_fires_on_truncating_open(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/experiments/w.py", """
            def dump(path, text):
                with open(path, "w") as stream:
                    stream.write(text)
            """)
        assert codes(findings) == ["SIM009"]
        assert "atomic_write_text" in findings[0].message

    def test_fires_on_binary_and_mode_keyword(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/telemetry/w2.py", """
            def dump(path, blob, text):
                with open(path, mode="wb") as stream:
                    stream.write(blob)
                with open(path, mode="x") as stream:
                    stream.write(text)
            """)
        assert codes(findings) == ["SIM009", "SIM009"]

    def test_fires_on_path_write_text(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/analysis/w3.py", """
            from pathlib import Path

            def dump(path, text):
                Path(path).write_text(text, encoding="utf-8")
            """)
        assert codes(findings) == ["SIM009"]
        assert ".write_text()" in findings[0].message

    def test_near_miss_read_and_append(self, tmp_path):
        # Reads, appends (the journal's own durability design), and
        # dynamic modes the rule cannot judge are all exempt.
        findings = lint_fixture(tmp_path, "repro/experiments/ok9.py", """
            def roundtrip(path, text, mode):
                with open(path) as stream:
                    stream.read()
                with open(path, "r", encoding="utf-8") as stream:
                    stream.read()
                with open(path, "a") as stream:
                    stream.write(text)
                with open(path, mode) as stream:
                    stream.write(text)
            """)
        assert findings == []

    def test_near_miss_atomicio_module_itself(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/atomicio.py", """
            import os

            def atomic_write_text(path, content):
                tmp = f"{path}.tmp.{os.getpid()}"
                with open(tmp, "w") as stream:
                    stream.write(content)
                os.replace(tmp, path)
            """)
        assert findings == []

    def test_pragma_suppresses(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/experiments/p9.py", """
            def scratch(path, text):
                with open(path, "w") as stream:  # simlint: ignore[SIM009] -- throwaway scratch file
                    stream.write(text)
            """)
        assert findings == []


# ---------------------------------------------------------------------------
# SIM010 — event-handler time discipline
# ---------------------------------------------------------------------------


class TestSim010EventHandlerTime:
    def test_fires_on_advance_clock_in_handler(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/sim/h1.py",
                                """
            from enum import Enum

            class EventType(Enum):
                ARRIVE = "arrive"
                COMPLETE = "complete"

            class Engine:
                def __init__(self, loop, device):
                    self.loop = loop
                    self.device = device
                    loop.register(EventType.ARRIVE, self._on_arrive)

                def _on_arrive(self, event):
                    self.device.advance_clock(10.0)
            """)
        assert codes(findings) == ["SIM010"]
        assert "advance_clock" in findings[0].message

    def test_fires_on_clock_attribute_write(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/sim/h2.py",
                                """
            from enum import Enum

            class EventType(Enum):
                ARRIVE = "arrive"
                COMPLETE = "complete"

            class Engine:
                def __init__(self, loop, device):
                    self.loop = loop
                    self.device = device
                    loop.register(EventType.COMPLETE, self._on_complete)

                def _on_complete(self, event):
                    self.device.clock_us = self.loop.now_us
                    self.device.now_us += 5.0
            """)
        assert codes(findings) == ["SIM010", "SIM010"]
        assert "post an event" in findings[0].message

    def test_fires_on_wall_clock_in_handler(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/sim/h3.py",
                                """
            import time

            from enum import Enum

            class EventType(Enum):
                ARRIVE = "arrive"
                COMPLETE = "complete"

            class Engine:
                def __init__(self, loop):
                    loop.register(EventType.ARRIVE, self._on_arrive)

                def _on_arrive(self, event):
                    return time.perf_counter()
            """)
        # SIM001 (wall clock in a sim package) fires alongside the
        # handler-discipline finding.
        assert sorted(set(codes(findings))) == ["SIM001", "SIM010"]

    def test_near_miss_clean_handler_and_non_handler(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/sim/ok10.py",
                                """
            from enum import Enum

            class EventType(Enum):
                ARRIVE = "arrive"
                COMPLETE = "complete"

            class Engine:
                def __init__(self, loop, device):
                    self.loop = loop
                    self.device = device
                    loop.register(EventType.ARRIVE, self._on_arrive)

                def _on_arrive(self, event):
                    event.payload.arrive_us = self.loop.now_us
                    self.loop.post(1.0, event)

                def reset(self):
                    # not a registered handler: free to manage clocks
                    self.device.advance_clock(1.0)
            """)
        assert "SIM010" not in codes(findings)

    def test_near_miss_outside_sim_package(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/experiments/h4.py",
                                """
            from enum import Enum

            class EventType(Enum):
                ARRIVE = "arrive"
                COMPLETE = "complete"

            class Driver:
                def __init__(self, loop, device):
                    self.device = device
                    loop.register(EventType.ARRIVE, self._on_arrive)

                def _on_arrive(self, event):
                    self.device.advance_clock(10.0)
            """)
        assert "SIM010" not in codes(findings)

    def test_pragma_suppresses(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/sim/p10.py",
                                """
            from enum import Enum

            class EventType(Enum):
                ARRIVE = "arrive"
                COMPLETE = "complete"

            class Engine:
                def __init__(self, loop, device):
                    self.loop = loop
                    self.device = device
                    loop.register(EventType.ARRIVE, self._on_arrive)

                def _on_arrive(self, event):
                    self.device.advance_clock(1.0)  # simlint: ignore[SIM010] -- legacy bridge, reviewed
            """)
        assert "SIM010" not in codes(findings)


# ---------------------------------------------------------------------------
# SIM012 — set iteration order escaping into output paths
# ---------------------------------------------------------------------------


class TestSim012SetOrderEscape:
    def test_fires_on_sink_iterating_helper_set(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/telemetry/export.py", """
            def hot_keys():
                return {1, 2, 3}

            def write_keys(out):
                for key in hot_keys():
                    out.write(str(key))
            """)
        sim012 = [f for f in findings if f.rule == "SIM012"]
        assert len(sim012) == 1
        assert "hot_keys" in sim012[0].message
        assert "sorted" in sim012[0].message
        assert sim012[0].chain

    def test_fires_through_local_variable(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/cluster/feed.py", """
            def live_shards():
                return set([1, 2])

            def render_feed(out):
                shards = live_shards()
                return [str(s) for s in shards]
            """)
        assert "SIM012" in codes(findings)

    def test_near_miss_sorted_clears(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/telemetry/export.py", """
            def hot_keys():
                return {1, 2, 3}

            def write_keys(out):
                for key in sorted(hot_keys()):
                    out.write(str(key))
            """)
        assert "SIM012" not in codes(findings)

    def test_near_miss_non_output_path(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/core/scan.py", """
            def hot_keys():
                return {1, 2, 3}

            def total(out):
                acc = 0
                for key in hot_keys():
                    acc += key
                return acc
            """)
        assert "SIM012" not in codes(findings)

    def test_pragma_suppresses(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/telemetry/export.py", """
            def hot_keys():
                return {1, 2, 3}

            def write_keys(out):
                for key in hot_keys():  # simlint: ignore[SIM012] -- summed, order-free
                    out.write(str(key))
            """)
        assert "SIM012" not in codes(findings)


# ---------------------------------------------------------------------------
# SIM013 — module-level mutables written by worker-side code
# ---------------------------------------------------------------------------


class TestSim013SharedMutableGlobal:
    def test_fires_on_direct_write(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/experiments/wrk.py", """
            CACHE = {}

            def run_shard(config):
                CACHE[config] = 1
                return config
            """)
        sim013 = [f for f in findings if f.rule == "SIM013"]
        assert len(sim013) == 1
        assert "CACHE" in sim013[0].message
        assert "run_shard" in sim013[0].message

    def test_fires_transitively_across_modules(self, tmp_path):
        findings = lint_fixture(
            tmp_path, "repro/experiments/wrk2.py", """
            from repro.experiments.state import remember

            def run_shard(config):
                remember(config)
                return config
            """,
            extra={"repro/experiments/state.py": """
            SEEN = []

            def remember(x):
                SEEN.append(x)
            """})
        sim013 = [f for f in findings if f.rule == "SIM013"]
        assert len(sim013) == 1
        assert "SEEN" in sim013[0].message
        assert "reached from worker entry run_shard()" in sim013[0].message
        assert sim013[0].path == "repro/experiments/state.py"
        assert sim013[0].chain

    def test_near_miss_local_shadow_and_reads(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/experiments/wrk3.py", """
            CACHE = {}
            LIMITS = {"max": 4}

            def run_shard(config):
                CACHE = {}
                CACHE[config] = 1
                return LIMITS.get("max")
            """)
        assert "SIM013" not in codes(findings)

    def test_near_miss_not_worker_side(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/experiments/wrk4.py", """
            CACHE = {}

            def orchestrate(config):
                CACHE[config] = 1
                return config
            """)
        assert "SIM013" not in codes(findings)

    def test_pragma_suppresses(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/experiments/wrk5.py", """
            CACHE = {}

            def run_shard(config):
                CACHE[config] = 1  # simlint: ignore[SIM013] -- memo, rebuilt per process
                return config
            """)
        assert "SIM013" not in codes(findings)


# ---------------------------------------------------------------------------
# Whole-program (transitive) extensions of SIM001/SIM002/SIM004/SIM010
# ---------------------------------------------------------------------------


class TestTransitiveTaint:
    ENTRY_FIXTURE = {
        "repro/cluster/entry.py": """
            from repro.cluster.stamp import stamp

            def run_shard(config):
                return stamp(config)
            """,
        "repro/cluster/stamp.py": """
            import time

            def stamp(config):
                return time.time()
            """,
    }

    def test_sim001_entry_point_reaches_clock(self, tmp_path):
        fixture = dict(self.ENTRY_FIXTURE)
        first = fixture.pop("repro/cluster/entry.py")
        findings = lint_fixture(tmp_path, "repro/cluster/entry.py",
                                first, extra=fixture)
        sim001 = [f for f in findings if f.rule == "SIM001"]
        # file-local finding at the read + transitive finding at the entry
        assert len(sim001) == 2
        entry = [f for f in sim001
                 if f.path == "repro/cluster/entry.py"]
        assert len(entry) == 1
        assert "run_shard() reaches time.time()" in entry[0].message
        assert "stamp" in entry[0].message
        assert any("time.time" in hop for hop in entry[0].chain)

    def test_sim001_pragma_at_source_kills_taint(self, tmp_path):
        findings = lint_fixture(
            tmp_path, "repro/cluster/entry.py",
            self.ENTRY_FIXTURE["repro/cluster/entry.py"],
            extra={"repro/cluster/stamp.py": """
            import time

            def stamp(config):
                return time.time()  # simlint: ignore[SIM001] -- interval timing, reviewed
            """})
        assert "SIM001" not in codes(findings)

    def test_sim002_cross_module_seed_arith(self, tmp_path):
        findings = lint_fixture(
            tmp_path, "repro/faults/use.py", """
            from random import Random

            from repro.faults.seeds import shifted

            def make(seed: int):
                return Random(shifted(seed))
            """,
            extra={"repro/faults/seeds.py": """
            def shifted(seed):
                return seed * 2 + 1
            """})
        sim002 = [f for f in findings if f.rule == "SIM002"]
        assert len(sim002) == 1
        assert "shifted" in sim002[0].message
        assert "derive_seed" in sim002[0].message
        assert sim002[0].path == "repro/faults/use.py"

    def test_sim002_near_miss_plain_forwarder(self, tmp_path):
        findings = lint_fixture(
            tmp_path, "repro/faults/use2.py", """
            from random import Random

            from repro.faults.fwd import same

            def make(seed: int):
                return Random(same(seed))
            """,
            extra={"repro/faults/fwd.py": """
            def same(seed):
                return seed
            """})
        assert "SIM002" not in codes(findings)

    def test_sim004_payload_calls_lambda_factory(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/experiments/tk.py", """
            def work(x):
                return x

            def make_cb():
                return lambda x: x + 1

            def build():
                return SweepTask("k", work, {"cb": make_cb()})
            """)
        sim004 = [f for f in findings if f.rule == "SIM004"]
        assert len(sim004) == 1
        assert "make_cb" in sim004[0].message
        assert "returns a lambda" in sim004[0].message

    def test_sim004_forwarding_factory_is_transitive(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/experiments/tk2.py", """
            def work(x):
                return x

            def make_cb():
                return lambda x: x + 1

            def wrap_cb():
                return make_cb()

            def build():
                return SweepTask("k", work, {"cb": wrap_cb()})
            """)
        assert "SIM004" in codes(findings)

    def test_sim004_near_miss_data_factory(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/experiments/tk3.py", """
            def work(x):
                return x

            def make_cfg():
                return {"a": 1}

            def build():
                return SweepTask("k", work, {"cfg": make_cfg()})
            """)
        assert "SIM004" not in codes(findings)

    def test_sim010_handler_reaches_advance_clock_via_helper(
            self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/sim/hx.py", """
            from enum import Enum

            class EventType(Enum):
                ARRIVE = "arrive"

            class Engine:
                def __init__(self, loop, device):
                    self.loop = loop
                    self.device = device
                    loop.register(EventType.ARRIVE, self._on_arrive)

                def _on_arrive(self, event):
                    self._bump()

                def _bump(self):
                    self.device.advance_clock(5.0)
            """)
        sim010 = [f for f in findings if f.rule == "SIM010"]
        assert len(sim010) == 1
        assert "_on_arrive" in sim010[0].message
        assert "_bump" in sim010[0].message
        assert any("advance_clock" in hop for hop in sim010[0].chain)

    def test_sim010_helper_clock_with_sim001_pragma_still_flags(
            self, tmp_path):
        # An orchestration-timing pragma names SIM001 only: it waives the
        # wall-clock read itself, not an event handler reaching it.
        findings = lint_fixture(tmp_path, "repro/cluster/hz.py", """
            import time
            from enum import Enum

            class EventType(Enum):
                COMPLETE = "complete"

            class Shard:
                def __init__(self, loop):
                    loop.register(EventType.COMPLETE, self._on_complete)

                def _on_complete(self, now_us):
                    return self._stamp()

                def _stamp(self):
                    return time.perf_counter()  # simlint: ignore[SIM001] -- orchestration timing
            """)
        assert codes(findings) == ["SIM010"]
        assert "_on_complete" in findings[0].message
        assert "_stamp" in findings[0].message


# ---------------------------------------------------------------------------
# Pragma edge cases
# ---------------------------------------------------------------------------


# A decorated event handler that reaches advance_clock through a helper:
# the whole-program SIM010 finding anchors on the handler's def line, so
# a pragma anywhere from the first decorator to the def line covers it.
_DECORATED_HANDLER = """
    import functools
    from enum import Enum

    class EventType(Enum):
        ARRIVE = "arrive"

    class Engine:
        def __init__(self, loop, device):
            self.device = device
            loop.register(EventType.ARRIVE, self._on_arrive)

        {above}
        @functools.lru_cache(maxsize=None){on_decorator}
        def _on_arrive(self, event):{on_def}
            self._bump()

        def _bump(self):
            self.device.advance_clock(5.0)
    """

_REVIEWED = "# simlint: ignore[SIM010] -- legacy bridge, reviewed"


def _decorated_handler(tmp_path, relname, above="", on_decorator="",
                       on_def=""):
    return lint_fixture(tmp_path, relname, _DECORATED_HANDLER.format(
        above=above, on_decorator=on_decorator, on_def=on_def))


class TestPragmaEdgeCases:
    def test_decorated_handler_fires_without_pragma(self, tmp_path):
        findings = _decorated_handler(tmp_path, "repro/sim/dec0.py")
        assert codes(findings) == ["SIM010"]

    def test_pragma_above_decorated_def(self, tmp_path):
        findings = _decorated_handler(tmp_path, "repro/sim/dec.py",
                                      above=_REVIEWED)
        assert "SIM010" not in codes(findings)

    def test_pragma_on_decorator_line(self, tmp_path):
        findings = _decorated_handler(tmp_path, "repro/sim/dec1.py",
                                      on_decorator="  " + _REVIEWED)
        assert "SIM010" not in codes(findings)

    def test_pragma_on_decorated_def_line(self, tmp_path):
        findings = _decorated_handler(tmp_path, "repro/sim/dec2.py",
                                      on_def="  " + _REVIEWED)
        assert "SIM010" not in codes(findings)

    def test_pragma_inside_multi_line_call_span(self, tmp_path):
        findings = lint_fixture(tmp_path, "repro/experiments/ml.py", """
            import time

            def interval():
                return time.perf_counter(
                )  # simlint: ignore[SIM001] -- interval timing, reviewed
            """)
        assert "SIM001" not in codes(findings)

    def test_unknown_rule_id_warns(self, tmp_path):
        # SIM011 (async-blocking) was retired: a leftover pragma naming
        # it is as stale as a typo and gets the same warning.
        for code in ("SIM999", "SIM011"):
            root = tmp_path / code
            findings = lint_fixture(root, "repro/sim/badp.py", f"""
                def f():
                    return 1  # simlint: ignore[{code}] -- no such rule
                """)
            assert codes(findings) == ["SIM000"], code
            assert code in findings[0].message
            assert "unknown rule id" in findings[0].message
            assert findings[0].severity == "warning"


# ---------------------------------------------------------------------------
# Baseline round-trip
# ---------------------------------------------------------------------------


class TestBaseline:
    def _dirty_tree(self, tmp_path: Path) -> list[Finding]:
        return lint_fixture(tmp_path, "repro/sim/dirty.py", """
            import time

            def a():
                return time.time()

            def b():
                return time.time()
            """)

    def test_round_trip_suppresses_recorded_findings(self, tmp_path):
        findings = self._dirty_tree(tmp_path)
        assert codes(findings) == ["SIM001", "SIM001"]
        baseline_path = tmp_path / "baseline.json"
        entries = write_baseline(baseline_path, findings)
        assert entries == 1  # two identical findings fold into one entry
        baseline = load_baseline(baseline_path)
        fresh, suppressed = apply_baseline(findings, baseline)
        assert fresh == [] and suppressed == 2

    def test_new_finding_escapes_baseline(self, tmp_path):
        findings = self._dirty_tree(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, findings[:1])
        # Baseline recorded count=1; the second identical finding is new.
        baseline = load_baseline(baseline_path)
        fresh, suppressed = apply_baseline(findings, baseline)
        assert len(fresh) == 1 and suppressed == 1

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == {}

    def test_cli_baseline_flow(self, tmp_path, monkeypatch, capsys):
        self._dirty_tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert lint_main(["repro"]) == 1
        assert lint_main(["repro", "--write-baseline"]) == 0
        assert (tmp_path / DEFAULT_BASELINE).exists()
        assert lint_main(["repro", "--baseline"]) == 0
        capsys.readouterr()


# ---------------------------------------------------------------------------
# CLI + meta-invariants
# ---------------------------------------------------------------------------


class TestCliAndMeta:
    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "repro" / "sim").mkdir(parents=True)
        (tmp_path / "repro" / "sim" / "m.py").write_text(
            "import time\n\ndef f():\n    return time.time()\n")
        assert lint_main([str(tmp_path), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["errors"] == 1
        assert document["summary"]["by_rule"] == {"SIM001": 1}
        assert document["findings"][0]["rule"] == "SIM001"

    def test_missing_path_is_usage_error(self, capsys):
        assert lint_main(["definitely/not/a/path"]) == 2
        capsys.readouterr()

    def test_committed_tree_lints_clean(self):
        """`repro lint src/` must exit 0 on the committed tree."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "src",
             "--format", "json"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        document = json.loads(proc.stdout)
        assert document["summary"]["errors"] == 0
        assert document["summary"]["warnings"] == 0

    def test_committed_baseline_is_empty(self):
        baseline = load_baseline(REPO_ROOT / DEFAULT_BASELINE)
        assert sum(baseline.values()) == 0

    def test_lint_paths_api(self):
        result = lint_paths([REPO_ROOT / "src" / "repro" / "analysis"],
                            root=REPO_ROOT)
        assert result.findings == []
        assert result.files >= 5

    def test_scoped_mypy_passes(self):
        """CI's scoped mypy gate, runnable locally when mypy exists."""
        pytest.importorskip("mypy")
        env = dict(os.environ)
        env["MYPYPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "mypy", "-p", "repro.core",
             "-p", "repro.parallel", "-p", "repro.cluster",
             "-m", "repro.sim.events", "-m", "repro.sim.concurrent"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr


# ---------------------------------------------------------------------------
# Whole-program CLI: --why, --graph-out, --changed, sarif, baselines
# ---------------------------------------------------------------------------


DIRTY_CHAIN = {
    "repro/cluster/entry.py": ("from repro.cluster.stamp import stamp\n"
                               "\n\n"
                               "def run_shard(config):\n"
                               "    return stamp(config)\n"),
    "repro/cluster/stamp.py": ("import time\n"
                               "\n\n"
                               "def stamp(config):\n"
                               "    return time.time()\n"),
}


def write_tree(tmp_path: Path, files: dict) -> None:
    for name, text in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text), encoding="utf-8")


class TestWholeProgramCli:
    def test_why_prints_call_chain(self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path, DIRTY_CHAIN)
        monkeypatch.chdir(tmp_path)
        assert lint_main(["repro", "--why",
                          "SIM001:repro/cluster/entry.py"]) == 0
        out = capsys.readouterr().out
        assert "run_shard() reaches time.time()" in out
        assert "[0]" in out and "[1]" in out
        assert "calls repro.cluster.stamp.stamp" in out
        assert "time.time" in out

    def test_why_no_match_is_usage_error(self, tmp_path, monkeypatch,
                                         capsys):
        write_tree(tmp_path, DIRTY_CHAIN)
        monkeypatch.chdir(tmp_path)
        assert lint_main(["repro", "--why",
                          "SIM004:repro/cluster/entry.py"]) == 2
        assert "no live finding" in capsys.readouterr().err

    def test_graph_out_dumps_json(self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path, DIRTY_CHAIN)
        monkeypatch.chdir(tmp_path)
        lint_main(["repro", "--graph-out", "graph.json"])
        capsys.readouterr()
        document = json.loads((tmp_path / "graph.json").read_text())
        assert document["version"] == 1
        assert "repro.cluster.entry.run_shard" in document["functions"]
        edges = [(e["caller"], e["callee"]) for e in document["edges"]]
        assert ("repro.cluster.entry.run_shard",
                "repro.cluster.stamp.stamp") in edges
        assert 0.0 <= document["resolution_rate"] <= 1.0

    def test_sarif_format(self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path, DIRTY_CHAIN)
        monkeypatch.chdir(tmp_path)
        assert lint_main(["repro", "--format", "sarif"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "simlint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"SIM000", "SIM001", "SIM012", "SIM013"} <= rule_ids
        assert "SIM011" not in rule_ids
        results = run["results"]
        assert all(r["ruleId"] == "SIM001" for r in results)
        chained = [r for r in results if "relatedLocations" in r]
        assert chained, "entry-point finding should embed its chain"
        uris = [loc["physicalLocation"]["artifactLocation"]["uri"]
                for loc in chained[0]["relatedLocations"]]
        assert "repro/cluster/stamp.py" in uris

    def test_write_baseline_refused_under_strict(self, tmp_path,
                                                 monkeypatch, capsys):
        write_tree(tmp_path, DIRTY_CHAIN)
        monkeypatch.chdir(tmp_path)
        assert lint_main(["repro", "--strict", "--write-baseline"]) == 1
        assert not (tmp_path / DEFAULT_BASELINE).exists()
        assert "NOT writing baseline" in capsys.readouterr().err
        # Without --strict the same invocation records the debt.
        assert lint_main(["repro", "--write-baseline"]) == 0
        assert (tmp_path / DEFAULT_BASELINE).exists()
        capsys.readouterr()

    def test_changed_requires_git(self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path, DIRTY_CHAIN)
        monkeypatch.chdir(tmp_path)
        assert lint_main(["repro", "--changed"]) == 2
        assert "git work tree" in capsys.readouterr().err

    def test_changed_scopes_to_neighbours(self, tmp_path, monkeypatch,
                                          capsys):
        write_tree(tmp_path, {
            "repro/sim/util.py": """
                import time


                def tick():
                    return time.time()
                """,
            "repro/sim/driver.py": """
                from repro.sim.util import tick


                def go():
                    return tick()
                """,
            "repro/sim/other.py": """
                import time


                def other():
                    return time.perf_counter()
                """,
        })
        git = ["git", "-c", "user.email=t@t", "-c", "user.name=t"]
        subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
        subprocess.run(["git", "add", "-A"], cwd=tmp_path, check=True)
        subprocess.run(git + ["commit", "-q", "-m", "base"],
                       cwd=tmp_path, check=True)
        driver = tmp_path / "repro" / "sim" / "driver.py"
        driver.write_text(driver.read_text() + "\n# touched\n")
        monkeypatch.chdir(tmp_path)
        assert lint_main(["repro", "--changed"]) == 1
        out = capsys.readouterr().out
        # util.py is one call edge from the changed driver.py: in scope.
        assert "repro/sim/util.py" in out
        # other.py has a finding too, but is unchanged and unconnected.
        assert "repro/sim/other.py" not in out

    def test_call_graph_resolution_rate_on_src(self):
        """Meta-invariant: >=95% of intra-repro calls resolve."""
        result = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
        assert result.project is not None
        graph = result.project.analysis().graph
        assert graph.stats["resolved"] >= 1000
        assert graph.resolution_rate >= 0.95, graph.stats
