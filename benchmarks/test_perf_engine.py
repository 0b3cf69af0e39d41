"""Performance: throughput of the analysis pipeline itself.

Unlike the figure/table benches (which run an experiment once and assert
its shape), these measure the *speed* of the reproduction's own stages —
simulation, lifetime extraction, and the MB-AVF engine — over multiple
rounds, so regressions in the deduplicating group enumerator or the
interval sweeps show up in CI.
"""

import pathlib
import sys
import time

import pytest

from repro.core import (
    AvfStudy,
    FaultMode,
    Interleaving,
    Parity,
    SecDed,
    compute_mb_avf,
)
from repro.core.avf import StructureLifetimes
from repro.core.intervals import IntervalSet
from repro.core.layout import build_cache_array
from repro.experiments import scaled_apu_kwargs
from repro.workloads import run

# The per-bit layout oracle lives with the tests it backs.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
from tests.core import layout_oracle  # noqa: E402


@pytest.fixture(scope="module")
def prepared():
    """One finished study plus the L1 lifetimes and geometry of CU 0."""
    result = run("minife", apu_kwargs=scaled_apu_kwargs())
    study = AvfStudy(result.apu, result.output_ranges)
    lifetimes = study.l1_lifetimes()[0]
    cfg = result.apu.memsys.l1s[0].config
    return study, cfg, lifetimes


def cold(cfg, lifetimes):
    """``benchmark.pedantic`` setup: a fresh layout and fresh lifetimes.

    The engine memoizes canonical ids on the lifetimes and enumerations
    and results on the layout; new objects every round keep each round
    cold, so ``min`` measures the engine rather than a memo lookup.
    """

    def setup():
        layout = build_cache_array(
            cfg.n_sets, cfg.n_ways, cfg.line_bytes,
            style=Interleaving.WAY_PHYSICAL, factor=2,
        )
        isets = [IntervalSet._from_arrays(*s._arrays()) for s in lifetimes.byte_isets]
        fresh = StructureLifetimes(
            lifetimes.name, isets, lifetimes.start_cycle, lifetimes.end_cycle
        )
        return (layout, fresh), {}

    return setup


@pytest.mark.benchmark(group="perf")
def test_perf_simulation(benchmark):
    """End-to-end workload simulation + verification."""
    benchmark.pedantic(
        lambda: run("matmul", apu_kwargs=scaled_apu_kwargs()),
        rounds=3, iterations=1,
    )


@pytest.mark.benchmark(group="perf")
def test_perf_lifetime_analysis(benchmark):
    """Cache event stream -> classed ACE intervals."""
    result = run("matmul", apu_kwargs=scaled_apu_kwargs())

    def fresh_study_lifetimes():
        study = AvfStudy(result.apu, result.output_ranges)
        # A new AvfStudy would re-run liveness; reuse the device but force
        # the lifetime extraction itself.
        study._l1_lifetimes = None
        return study.l1_lifetimes()

    benchmark.pedantic(fresh_study_lifetimes, rounds=3, iterations=1)


@pytest.mark.benchmark(group="perf")
def test_perf_engine_2x1(benchmark, prepared):
    _, cfg, lifetimes = prepared
    res = benchmark.pedantic(
        lambda layout, lts: compute_mb_avf(
            layout, lts, FaultMode.linear(2), Parity()
        ),
        setup=cold(cfg, lifetimes), rounds=5, iterations=1,
    )
    assert res.n_groups > 0


@pytest.mark.benchmark(group="perf")
def test_perf_engine_8x1(benchmark, prepared):
    _, cfg, lifetimes = prepared
    benchmark.pedantic(
        lambda layout, lts: compute_mb_avf(
            layout, lts, FaultMode.linear(8), SecDed()
        ),
        setup=cold(cfg, lifetimes), rounds=5, iterations=1,
    )


@pytest.mark.benchmark(group="perf")
def test_perf_engine_rect(benchmark, prepared):
    """A 2-D rectangular mode through the same windowed enumerator."""
    _, cfg, lifetimes = prepared
    benchmark.pedantic(
        lambda layout, lts: compute_mb_avf(
            layout, lts, FaultMode.rect(2, 2), Parity()
        ),
        setup=cold(cfg, lifetimes), rounds=3, iterations=1,
    )


@pytest.mark.benchmark(group="perf")
def test_perf_vgpr_stack(benchmark, prepared):
    """Stacked register file; setup drops the study's stacked layout and
    lifetimes so every round rebuilds them and runs the engine cold."""
    study, _, _ = prepared

    def setup():
        study._layout_cache.pop(("vgpr-stack", Interleaving.INTER_THREAD, 2), None)
        return (), {}

    benchmark.pedantic(
        lambda: study.vgpr_avf(
            FaultMode.linear(2), Parity(),
            style=Interleaving.INTER_THREAD, factor=2,
        ),
        setup=setup, rounds=3, iterations=1,
    )


#: The scaled L2 layouts of the cache sweeps: none, way x4, logical x2.
L2_LAYOUTS = [
    (Interleaving.NONE, 1),
    (Interleaving.WAY_PHYSICAL, 4),
    (Interleaving.LOGICAL, 2),
]


def _build_l2_layouts(build):
    cfg = scaled_apu_kwargs()["l2_config"]
    return [
        build(cfg.n_sets, cfg.n_ways, cfg.line_bytes, style=style, factor=factor)
        for style, factor in L2_LAYOUTS
    ]


def _min_seconds(fn, rounds):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.benchmark(group="perf")
def test_perf_layout_build(benchmark):
    """Cold scaled-L2 layout builds, gated on a same-run ratio.

    Layouts are never cached across studies, so every round builds all
    three from scratch.  The gate compares the broadcast builders with
    the per-bit oracle in this process, which holds on any machine.
    """
    benchmark.pedantic(
        _build_l2_layouts, args=(build_cache_array,), rounds=5, iterations=1
    )
    fast = _min_seconds(lambda: _build_l2_layouts(build_cache_array), 5)
    slow = _min_seconds(
        lambda: _build_l2_layouts(layout_oracle.build_cache_array), 2
    )
    assert slow / fast >= 5.0, f"broadcast {fast:.4f}s vs per-bit {slow:.4f}s"
