"""Golden digests of the fig11 and fig12 aging grids.

Both figures drive :class:`~repro.sim.lifetime.LifetimeSimulator`: fig11
reads each frame's first repair choice, fig12 the host accesses to total
failure under both controllers.  At the quick grid's geometry
(``num_blocks=8, frames_per_block=4``) the SHA-256 of their rows pins the
event-driven aging loop, its FPST priming and the probe read's
erase-and-restore step, just as ``test_fig13_golden.py`` pins the
time-stepped regime loop.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from repro.experiments import fig11_reconfig, fig12_lifetime
from repro.parallel import sweep

FIG11_DIGEST = (
    "5f5ed4bb908045127d7c687bd20735d95e04b3b3cc09dc9520080a9295b3114f")
FIG12_DIGEST = (
    "ccad0db488046119d1bf8a1c4bb5acb0327cd892955fc8bb4e96c677c51fbc6c")


def _digest(rows) -> str:
    text = json.dumps([asdict(row) for row in rows], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_fig11_reconfig_golden():
    rows = fig11_reconfig.combine(sweep(
        fig11_reconfig.tasks(num_blocks=8, frames_per_block=4)))
    assert len(rows) == 10
    assert _digest(rows) == FIG11_DIGEST


def test_fig12_lifetime_golden():
    rows = fig12_lifetime.combine(sweep(
        fig12_lifetime.tasks(num_blocks=8, frames_per_block=4)))
    assert len(rows) == 9
    assert _digest(rows) == FIG12_DIGEST
