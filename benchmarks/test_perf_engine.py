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
from repro.core.avf import StructureLifetimes, _canonical_iset_ids
from repro.core.layout import build_cache_array
from repro.core.lifetime import (
    analyze_cache,
    analyze_vgpr,
    merge_fill_maps,
)
from repro.experiments import scaled_apu_kwargs
from repro.workloads import run

# The per-bit layout and per-byte lifetime oracles live with the tests
# they back.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
from tests.core import layout_oracle, lifetime_oracle  # noqa: E402


@pytest.fixture(scope="module")
def prepared():
    """One finished study (VGPR lifetimes built) plus the L1 lifetimes and
    geometry of CU 0."""
    result = run("minife", apu_kwargs=scaled_apu_kwargs())
    study = AvfStudy(result.apu, result.output_ranges)
    study.vgpr_lifetimes()
    lifetimes = study.l1_lifetimes()[0]
    cfg = result.apu.memsys.l1s[0].config
    return study, cfg, lifetimes


def copied(lifetimes):
    """New lifetimes over copies of the CSR arrays: no canonical table."""
    return StructureLifetimes.from_csr(
        lifetimes.name,
        tuple(getattr(lifetimes, col).copy()
              for col in ("offsets", "starts", "ends", "classes")),
        lifetimes.start_cycle,
        lifetimes.end_cycle,
    )


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
        return (layout, copied(lifetimes)), {}

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
    """Stacked register file; the per-wavefront lifetimes are built in the
    fixture, and setup drops the study's stacked layout and stacked
    lifetimes, so every round stacks, computes canonical ids and runs the
    engine cold."""
    study, _, _ = prepared

    def setup():
        study._layout_cache.pop(("vgpr-stack", Interleaving.INTER_THREAD, 2), None)
        study._vgpr_stack = None
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


def _vgpr_build(study, vgpr, stack, canon):
    """Every wavefront's VGPR lifetimes, stacked, with canonical ids."""
    lts = [
        vgpr(study.apu.records, wf, study.vgpr_regs, study.end_cycle)
        for wf in sorted(study.apu.wf_programs)
    ]
    return canon(stack(lts))


def _cache_build(study, cache, canon, memcons):
    """Every L1's and the L2's lifetimes, with canonical ids."""
    memsys, by_uid, end = study.apu.memsys, study._records_by_uid, study.end_cycle
    l1s = [cache(l1, by_uid, end) for l1 in memsys.l1s]
    l2, _ = cache(
        memsys.l2, by_uid, end, memcons=memcons,
        upstream_fills=merge_fill_maps([fills for _, fills in l1s]),
    )
    return [canon(lt) for lt, _ in l1s] + [canon(l2)]


def _csr_stack(study):
    def stack(lts):
        study._vgpr_lifetimes, study._vgpr_stack = lts, None
        return study._stacked_vgpr_lifetimes()
    return stack


def _oracle_canon(lt):
    return lifetime_oracle.canonical_ids(list(lt.byte_isets))


@pytest.mark.benchmark(group="perf")
def test_perf_lifetime_build(benchmark):
    """Cold lifetime extraction + canonical ids, gated on same-run ratios.

    Times the CSR builders (VGPR file of every wavefront, stacked; then
    every L1 and the L2) on matmul, and compares them in this process
    with the per-byte ``IntervalSet`` oracle doing the same work.  Each
    side answers the L2's write-back queries with its own memory
    consumption index, built before timing.
    """
    result = run("matmul", apu_kwargs=scaled_apu_kwargs())
    study = AvfStudy(result.apu, result.output_ranges)
    end = study.end_cycle
    oracle_memcons = lifetime_oracle.MemoryConsumption(
        result.apu.records, result.apu.memory.size, result.output_ranges
    )

    def both():
        _vgpr_build(study, analyze_vgpr, _csr_stack(study), _canonical_iset_ids)
        _cache_build(study, analyze_cache, _canonical_iset_ids, study.memcons)

    benchmark.pedantic(both, rounds=3, iterations=1)
    vgpr_fast = _min_seconds(lambda: _vgpr_build(
        study, analyze_vgpr, _csr_stack(study), _canonical_iset_ids), 3)
    vgpr_slow = _min_seconds(lambda: _vgpr_build(
        study, lifetime_oracle.analyze_vgpr,
        lambda lts: lifetime_oracle.stack("vgpr", lts, end), _oracle_canon,
    ), 2)
    cache_fast = _min_seconds(lambda: _cache_build(
        study, analyze_cache, _canonical_iset_ids, study.memcons), 3)
    cache_slow = _min_seconds(lambda: _cache_build(
        study, lifetime_oracle.analyze_cache, _oracle_canon, oracle_memcons), 2)
    assert vgpr_slow / vgpr_fast >= 3.0, (
        f"VGPR: CSR {vgpr_fast:.4f}s vs per-byte {vgpr_slow:.4f}s")
    assert cache_slow / cache_fast >= 2.0, (
        f"L1+L2: CSR {cache_fast:.4f}s vs per-byte {cache_slow:.4f}s")
