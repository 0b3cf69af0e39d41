"""Full re-simulation: the slow oracle for checkpointed injection.

Every oracle run rebuilds the workload, re-runs its host code and
simulates from cycle 0 with the fault planted up front, then classifies
the outcome the way injection campaigns always have.
"""

from repro.arch import Apu, GlobalMemory
from repro.faultinject import InjectionOutcome, InjectionSpec
from repro.runtime import TaskOutcome, classify_exception


def resimulate(golden, plant) -> str:
    """Verdict of one faulty run of ``golden``'s workload from cycle 0.

    ``golden`` is a :class:`~repro.faultinject.checkpoint.GoldenRun`;
    ``plant(apu)`` schedules the fault on the fresh device.
    """
    wl = golden.workload_cls(seed=golden.seed)
    mem = GlobalMemory()
    wl.setup(mem)
    apu = Apu(n_cus=golden.n_cus, memory=mem, max_cycles=golden.max_cycles)
    plant(apu)
    try:
        wl.launch(apu)
        apu.finish()
    except Exception as exc:
        outcome = classify_exception(exc)
        if outcome == TaskOutcome.SIM_HANG:
            return InjectionOutcome.HANG
        if outcome == TaskOutcome.SIM_CRASH:
            return InjectionOutcome.CRASH
        raise
    got = b"".join(
        mem.data[b : b + sz].tobytes() for b, sz in golden.golden_run.output_ranges
    )
    return InjectionOutcome.MASKED if got == golden.golden else InjectionOutcome.SDC


def resimulate_register(runner, spec: InjectionSpec) -> str:
    return resimulate(runner, lambda apu: apu.inject_fault(
        spec.wf, spec.reg, spec.lane, spec.bitmask, spec.cycle
    ))


def resimulate_memory(runner, point) -> str:
    addr, bit, cycle = point
    return resimulate(
        runner, lambda apu: apu.inject_memory_fault(addr, 1 << bit, cycle)
    )
