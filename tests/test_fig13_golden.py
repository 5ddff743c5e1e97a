"""Golden digest of the fig13 error-regime comparison.

The fig13 grid drives :class:`~repro.sim.lifetime.RegimeSimulator`,
which deposits bulk history into the reliability model (``accumulate``),
wipes it on rewrite (``note_erase``) and polls it for scrub candidates
(``retention_age_us``) — paths no engine or benchmark digest reaches.
The SHA-256 of its nine rows pins every one of them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from repro.experiments.fig13_error_regimes import combine, tasks
from repro.parallel import sweep

FIG13_DIGEST = (
    "cc269b55d8e543912cdb0a8c11e05bfe27f671da1cc2532caeb066cb572ffc69")


def test_fig13_error_regimes_golden():
    rows = combine(sweep(tasks()))
    assert len(rows) == 9
    text = json.dumps([asdict(row) for row in rows], sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == FIG13_DIGEST
