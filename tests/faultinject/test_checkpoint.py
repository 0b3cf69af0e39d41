"""Checkpointed injection vs the full re-simulation oracle.

Every verdict of :meth:`GoldenRun.inject_at` (restore a golden
snapshot, replay the launch log, exit at golden convergence) must equal
the verdict of re-running the workload from cycle 0 (:mod:`.oracle`).
"""

import numpy as np
import pytest

from repro.arch import Apu, GlobalMemory
from repro.arch.gpu import SNAPSHOT_CAP
from repro.faultinject import InjectionOutcome, InjectionSpec, run_campaign
from repro.faultinject import validation
from repro.faultinject.campaign import _Runner
from repro.obs import observe
from repro.workloads import REGISTRY
from repro.workloads.base import run_workload

from .oracle import resimulate_memory, resimulate_register

MASKED, SDC, CRASH, HANG = (
    InjectionOutcome.MASKED, InjectionOutcome.SDC,
    InjectionOutcome.CRASH, InjectionOutcome.HANG,
)


@pytest.fixture(scope="module")
def transpose():
    return _Runner(REGISTRY["transpose"], seed=0, n_cus=2)


def test_register_verdicts_match_full_resimulation():
    """Seeded 1-4 bit register faults on four OpenCL samples."""
    seen = set()
    for name in ("transpose", "histogram", "matmul", "recursivegaussian"):
        runner = _Runner(REGISTRY[name], seed=0, n_cus=2)
        rng = np.random.default_rng(11)
        for i in range(12):
            spec = runner.random_spec(rng, n_bits=1 + i % 4)
            verdict = runner.inject(spec)
            assert verdict == resimulate_register(runner, spec), (name, spec)
            seen.add(verdict)
    assert {MASKED, SDC, CRASH} <= seen


def test_memory_verdicts_match_full_resimulation(monkeypatch):
    """Seeded memory faults, driven through ``validate_memory_avf``."""
    fast = validation._MemRunner.inject
    verdicts, mismatches = [], []

    def checked(self, point):
        verdict = fast(self, point)
        if verdict != resimulate_memory(self, point):
            mismatches.append(point)
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(validation._MemRunner, "inject", checked)
    result = validation.validate_memory_avf(
        "histogram", n_injections=40, n_cus=2
    )
    assert result.n_failed == 0
    assert mismatches == []
    assert len(verdicts) == 40 and {MASKED, SDC} <= set(verdicts)


def test_edge_cycles_match_full_resimulation(transpose):
    """Faults at cycle 0, exactly on every snapshot cycle, on the last
    cycle and after the last instruction."""
    snaps = transpose.snapshots
    end = transpose.golden_run.end_cycle
    cycles = [0] + [s.cycle for s in snaps] + [end - 1, end, end + 100]
    assert snaps[0].cycle == 0
    rng = np.random.default_rng(3)
    base = [transpose.random_spec(rng, n_bits=2) for _ in range(3)]
    out_base, out_size = transpose.golden_run.output_ranges[0]
    for cycle in cycles:
        for spec in base:
            spec = InjectionSpec(spec.wf, spec.reg, spec.lane, spec.bits, cycle)
            assert transpose.inject(spec) == resimulate_register(
                transpose, spec
            ), spec
        for addr in (64, out_base + cycle % out_size):
            point = (addr, cycle % 8, cycle)
            assert transpose.inject_at(
                cycle,
                lambda apu: apu.inject_memory_fault(
                    point[0], 1 << point[1], cycle
                ),
            ) == resimulate_memory(transpose, point), point


def test_fault_on_a_snapshot_cycle_restores_that_snapshot(transpose):
    snap = transpose.snapshots[len(transpose.snapshots) // 2]
    with observe() as (_, tracer):
        transpose.inject(InjectionSpec(0, 200, 0, (0,), snap.cycle))
    (span,) = [e for e in tracer.events if e.name == "inject"]
    assert span.args["restored_from"] == snap.cycle


def test_budget_below_golden_is_hang_never_early_masked():
    runner = _Runner(REGISTRY["transpose"], seed=0, n_cus=2, max_cycles=400)
    assert runner.golden_run.end_cycle > 400
    rng = np.random.default_rng(5)
    specs = [runner.random_spec(rng) for _ in range(4)] + [
        InjectionSpec(0, 200, 0, (0,), 0),        # no-op fault
        InjectionSpec(0, 200, 0, (0,), 300),      # no-op, inside budget
        InjectionSpec(0, 200, 0, (0,), 600),      # no-op, past budget
    ]
    with observe() as (metrics, _):
        for spec in specs:
            assert runner.inject(spec) == HANG
            assert resimulate_register(runner, spec) == HANG
    counters = metrics.snapshot()["counters"]
    assert counters.get("inject.early_exit", 0) == 0
    assert counters["inject.ran_to_end"] == len(specs)


def test_converged_runs_exit_early_and_report_it():
    with observe() as (metrics, tracer):
        run_campaign(
            "transpose", n_single=12, max_groups_per_mode=2, seed=0, n_cus=2
        )
    counters = metrics.snapshot()["counters"]
    injects = [e for e in tracer.events if e.name == "inject"]
    early = [e for e in injects if e.args["early_exit"]]
    assert early
    assert len(injects) == counters["campaign.injections"]
    assert counters["inject.early_exit"] == len(early)
    assert counters["inject.early_exit"] + counters["inject.ran_to_end"] == (
        len(injects)
    )
    assert all(isinstance(e.args["restored_from"], int) for e in injects)
    # Each resumed launch runs under a kernel span counting real work.
    kernels = [
        k for k in tracer.events if k.name == "kernel" and any(
            e.start <= k.start and k.start + k.duration <= e.start + e.duration
            for e in injects
        )
    ]
    assert len(kernels) >= len(injects)
    assert sum(k.args.get("instructions", 0) for k in kernels) > 0


def _snapshot_bytes(snapshots):
    """Bytes held by a run's snapshot arrays, shared arrays once."""
    arrays = {}
    for snap in snapshots:
        parts = [snap.memory] + [a for c in snap.caches for a in c[:3]]
        for _, resident, pending in snap.cus:
            for wf in resident + pending:
                parts += [wf.vregs, wf.vcc, wf.exec_mask, wf.lds.data]
        for a in parts:
            arrays[id(a)] = a.nbytes
    return sum(arrays.values())


def test_every_workload_replays_from_its_launch_log():
    """Replaying the recorded launches on a fresh device from the
    post-setup memory reproduces the run: no workload's host code reads
    device state between launches.  The same golden runs show that the
    snapshot cap holds on every workload, the longest included, and that
    the cycle-0 snapshot survives thinning."""
    for name in sorted(REGISTRY):
        ref = run_workload(
            REGISTRY[name](seed=0), n_cus=2, apu_kwargs={"snapshots": True}
        )
        mem = GlobalMemory()
        REGISTRY[name](seed=0).setup(mem)
        apu = Apu(n_cus=2, memory=mem)
        for launch in ref.stats:
            apu.launch(
                launch.program, launch.n_threads, launch.args, launch.name
            )
        apu.finish()
        assert np.array_equal(mem.data, ref.memory.data), name
        assert [(s.cycles, s.instructions) for s in apu.launches] == [
            (s.cycles, s.instructions) for s in ref.stats
        ], name
        cycles = [s.cycle for s in ref.apu.snapshots]
        assert 1 <= len(cycles) <= SNAPSHOT_CAP, name
        assert cycles[0] == 0 and cycles == sorted(set(cycles)), name


@pytest.mark.parametrize("name", ["transpose", "histogram"])
def test_snapshot_memory_bound(name):
    runner = _Runner(REGISTRY[name], seed=0, n_cus=2)
    assert _snapshot_bytes(runner.snapshots) <= 4 * 2**20
    for snap in runner.snapshots:
        assert not snap.memory.flags.writeable
