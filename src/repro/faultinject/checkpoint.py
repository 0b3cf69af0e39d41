"""Checkpointed fault injection: the one routine every injection runs.

A :class:`GoldenRun` simulates its workload once on a device that keeps
golden snapshots (:class:`~repro.arch.gpu.Snapshot`) and logs every
launch's program, thread count and arguments.  An injection then never
re-runs the workload's host code or the fault-free prefix:

1. it restores the latest snapshot at or before the fault's cycle (and
   at or before the cycle budget) into a fresh device;
2. it finishes that launch and replays the later launches from the log;
3. it stops with MASKED as soon as the faulty state equals the golden
   snapshot of the same cycle while no fault is still pending.  The
   simulator is deterministic, so equal state means an equal future.
   This exit is only taken when the golden run fits in the cycle
   budget; otherwise the run continues into the budget's HANG.

Everything else is classified exactly as a full re-simulation from
cycle 0 would be: a cycle-budget overrun is a HANG, a simulator trap a
CRASH, and the output bytes decide between MASKED and SDC.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Type

from ..arch.gpu import Apu
from ..arch.memory import GlobalMemory
from ..obs import get_metrics, get_tracer
from ..runtime import TaskOutcome, classify_exception
from ..workloads.base import Workload, run_workload

__all__ = ["InjectionOutcome", "GoldenRun"]


class InjectionOutcome:
    """Semantic outcome labels for a single injection run."""

    MASKED = "masked"      # output identical to golden
    SDC = "sdc"            # output silently corrupted
    CRASH = "crash"        # simulator trapped (bad address, illegal op...)
    HANG = "hang"          # simulator exceeded its cycle budget

    #: Table II counts crash and hang alike as non-SDC detections
    ALL = (MASKED, SDC, CRASH, HANG)


class GoldenRun:
    """One workload's golden run, snapshots and launch log."""

    def __init__(
        self, workload_cls: Type[Workload], seed: int, n_cus: int,
        max_cycles: int,
    ) -> None:
        self.workload_cls = workload_cls
        self.seed = seed
        self.n_cus = n_cus
        self.max_cycles = max_cycles
        self.golden_run = run_workload(
            workload_cls(seed=seed), n_cus=n_cus,
            apu_kwargs={"snapshots": True},
        )
        #: the output bytes the host reads back
        self.golden = self._output(self.golden_run.memory)
        self.snapshots = self.golden_run.apu.snapshots
        self._cycles = [s.cycle for s in self.snapshots]
        # A run that converges repeats golden from there on, so it ends
        # as golden would under this budget: MASKED only if golden fits.
        fits = self.golden_run.stats[-1].end_cycle <= max_cycles
        self._watch = self.snapshots if fits else []

    def inject_at(
        self, cycle: int, plant: Callable[[Apu], None], **span_args
    ) -> str:
        """Run one faulty execution and return its verdict.

        ``plant`` schedules the fault, due at ``cycle``, on the restored
        device.  ``span_args`` label the ``inject`` span.
        """
        launches = self.golden_run.stats
        with get_tracer().span("inject", **span_args) as span:
            i = bisect_right(self._cycles, min(cycle, self.max_cycles)) - 1
            snap = self.snapshots[max(i, 0)]
            apu = Apu(
                n_cus=self.n_cus,
                memory=GlobalMemory(self.golden_run.memory.size),
                max_cycles=self.max_cycles,
            )
            apu.restore(snap, watch=self._watch)
            plant(apu)
            try:
                apu.resume(launches[snap.launch])
                for launch in launches[snap.launch + 1 :]:
                    if apu.converged:
                        break
                    apu.launch(
                        launch.program, launch.n_threads, launch.args,
                        launch.name,
                    )
                if not apu.converged:
                    apu.finish()
            except Exception as exc:
                # Post-injection exceptions are fault consequences: a cycle
                # budget overrun is a hang, a simulator trap is a crash.
                # Anything the taxonomy pins on the harness still propagates.
                outcome = classify_exception(exc)
                if outcome == TaskOutcome.SIM_HANG:
                    verdict = InjectionOutcome.HANG
                elif outcome == TaskOutcome.SIM_CRASH:
                    verdict = InjectionOutcome.CRASH
                else:
                    raise
            else:
                verdict = (
                    InjectionOutcome.MASKED
                    if apu.converged or self._output(apu.memory) == self.golden
                    else InjectionOutcome.SDC
                )
            span.set(
                restored_from=snap.cycle, early_exit=apu.converged,
                verdict=verdict,
            )
            get_metrics().counter(
                "inject.early_exit" if apu.converged else "inject.ran_to_end"
            ).inc()
            return verdict

    def _output(self, memory: GlobalMemory) -> bytes:
        data = memory.data
        return b"".join(
            data[b : b + sz].tobytes() for b, sz in self.golden_run.output_ranges
        )
