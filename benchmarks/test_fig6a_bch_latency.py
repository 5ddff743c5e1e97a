"""Figure 6(a): BCH decode latency vs correctable errors.

Also times the *functional* software decoder on a real corrupted page to
document why the paper needed the hardware accelerator in the first place
(their software decoder took 0.1-1 s per page).
"""

from __future__ import annotations

import random

from repro.ecc.bch import design_code_for_page
from repro.experiments.fig6_ecc import (
    combine_decode_latency,
    decode_latency_tasks,
)
from repro.parallel import sweep


def test_fig6a_accelerator_latency(benchmark):
    series = benchmark(
        lambda: combine_decode_latency(sweep(decode_latency_tasks())))

    print("\nFigure 6(a): accelerator decode latency (us)")
    for point in series:
        print(f"  t={point.t:2d}: syndrome={point.syndrome_us:6.1f} "
              f"chien={point.chien_us:6.1f} total={point.total_us:6.1f}")

    totals = [p.total_us for p in series]
    # Shape: near-linear growth, Chien-dominated, inside the paper's
    # 58-400us envelope.
    assert totals == sorted(totals)
    assert all(40.0 <= total <= 400.0 for total in totals)
    assert series[-1].chien_us > series[-1].syndrome_us


def test_fig6a_functional_decode_cost(benchmark):
    """The software codec this library ships is the paper's 'too slow'
    baseline: time one real 2KB-page decode with injected errors."""
    code = design_code_for_page(2048, t=4)
    rng = random.Random(3)
    payload = bytes(rng.randrange(256) for _ in range(2048))
    _, parity = code.encode(payload)
    corrupted = bytearray(payload)
    for index in rng.sample(range(2048), 4):
        corrupted[index] ^= 1 << rng.randrange(8)
    corrupted = bytes(corrupted)

    decoded, corrected = benchmark(code.decode, corrupted, parity)
    assert decoded == payload
    assert corrected == 4
