"""Cross-validation of ACE analysis against statistical fault injection.

The original ACE-analysis literature (Mukherjee et al., and the Wang et al.
comparison the paper discusses in Sec. III) validates AVF models by
injecting random faults and comparing the observed error rate against the
model's prediction.  This module runs that experiment on the memory data
image: the model predicts that a uniformly random (byte, bit, cycle) flip
causes SDC with probability equal to the region's ACE fraction; injection
measures it directly.

ACE analysis is conservative by construction — byte-granular lifetimes
ignore bit-level masking at the consumer, and detection-free regions treat
every ACE hit as an SDC — so the observed rate should fall at or below the
prediction, while remaining the right order of magnitude.

Like the ACE-interference campaign, every injection runs through the
checkpointed routine of :mod:`repro.faultinject.checkpoint` (restore a
golden snapshot, replay the launch log, stop at golden convergence) and
is dispatched through the fault-tolerant runtime: ``jobs >= 1`` isolates
simulations in worker processes with timeouts and retries, and a
``journal`` makes the validation run restartable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.analysis import AvfStudy
from ..runtime import Executor, Journal, RetryPolicy, Task, TaskOutcome
from ..workloads.suite import REGISTRY
from .checkpoint import GoldenRun, InjectionOutcome

__all__ = ["ValidationResult", "validate_memory_avf"]

_DEFAULT_MAX_CYCLES = 2_000_000


@dataclass
class ValidationResult:
    """Model-vs-injection comparison for one benchmark."""

    benchmark: str
    region: Tuple[int, int]
    model_avf: float
    n_injections: int
    sdc: int = 0
    masked: int = 0
    crash: int = 0
    hang: int = 0
    #: injections lost to infrastructure failures after retries
    failures: Dict[str, int] = field(default_factory=dict)

    @property
    def n_failed(self) -> int:
        return sum(self.failures.values())

    @property
    def observed_rate(self) -> float:
        n = self.n_injections - self.n_failed
        return self.sdc / n if n else 0.0

    @property
    def stderr(self) -> float:
        """Binomial standard error of the observed SDC rate."""
        p = self.observed_rate
        n = self.n_injections - self.n_failed
        return float(np.sqrt(p * (1 - p) / n)) if n else 0.0


class _MemRunner(GoldenRun):
    """Injections of a single memory bit flip into one benchmark."""

    def __init__(
        self, benchmark: str, seed: int, n_cus: int,
        max_cycles: int = _DEFAULT_MAX_CYCLES,
    ) -> None:
        super().__init__(REGISTRY[benchmark], seed, n_cus, max_cycles)

    def inject(self, point: Tuple[int, int, int]) -> str:
        addr, bit, cycle = point
        return self.inject_at(
            cycle,
            lambda apu: apu.inject_memory_fault(addr, 1 << bit, cycle),
            addr=addr, bit=bit,
        )


# -- worker-process entry points (module-level for spawn pickling) ----------

_WORKER_MEM_RUNNER: Optional[_MemRunner] = None


def _init_memory_worker(
    benchmark: str, seed: int, n_cus: int, max_cycles: int
) -> None:
    global _WORKER_MEM_RUNNER
    _WORKER_MEM_RUNNER = _MemRunner(
        benchmark, seed, n_cus, max_cycles=max_cycles
    )


def _memory_task(point: Tuple[int, int, int]) -> str:
    return _WORKER_MEM_RUNNER.inject(point)


def validate_memory_avf(
    benchmark: str,
    *,
    n_injections: int = 150,
    seed: int = 0,
    n_cus: int = 2,
    region: Optional[Tuple[int, int]] = None,
    jobs: int = 0,
    timeout: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    journal: Optional[Union[Journal, str]] = None,
    max_cycles: int = _DEFAULT_MAX_CYCLES,
) -> ValidationResult:
    """Run the injection-vs-ACE validation for one benchmark.

    ``region`` defaults to the benchmark's full allocated footprint.  The
    model prediction comes from :meth:`AvfStudy.memory_lifetimes`; each
    injection flips one random bit of one random byte at one random cycle
    and compares the program output with the golden run.  The injection
    points are drawn up-front from the seeded generator, so a journaled
    run resumes deterministically.
    """
    if benchmark not in REGISTRY:
        raise KeyError(f"unknown benchmark {benchmark!r}")
    runner = _MemRunner(benchmark, seed, n_cus, max_cycles=max_cycles)
    golden_run = runner.golden_run
    if region is None:
        bases = list(golden_run.memory.buffers().values())
        lo = min(b for b, _ in bases)
        hi = max(b + s for b, s in bases)
        region = (lo, hi - lo)
    study = AvfStudy(golden_run.apu, golden_run.output_ranges)
    lifetimes = study.memory_lifetimes(region)
    result = ValidationResult(
        benchmark, region, lifetimes.sb_ace_fraction(), n_injections
    )
    end_cycle = golden_run.end_cycle
    rng = np.random.default_rng(seed + 0x5EED)
    points: List[Tuple[int, int, int]] = [
        (
            region[0] + int(rng.integers(0, region[1])),
            int(rng.integers(0, 8)),
            int(rng.integers(0, max(end_cycle, 1))),
        )
        for _ in range(n_injections)
    ]
    if jobs >= 1:
        executor = Executor(
            _memory_task,
            jobs=jobs,
            timeout=timeout,
            retry=retry,
            journal=journal,
            initializer=_init_memory_worker,
            initargs=(benchmark, seed, n_cus, max_cycles),
        )
    else:
        executor = Executor(runner.inject, jobs=0, retry=retry, journal=journal)
    tasks = [
        Task(
            id=f"{benchmark}/val/{i:05d}",
            payload=p,
            meta={"addr": p[0], "bit": p[1], "cycle": p[2]},
        )
        for i, p in enumerate(points)
    ]
    with executor:
        results = executor.run(tasks)
    for task in tasks:
        r = results[task.id]
        if r.outcome == TaskOutcome.OK:
            verdict = r.value
        elif r.outcome == TaskOutcome.SIM_CRASH:
            verdict = InjectionOutcome.CRASH
        elif r.outcome == TaskOutcome.SIM_HANG:
            verdict = InjectionOutcome.HANG
        else:
            result.failures[r.outcome] = (
                result.failures.get(r.outcome, 0) + 1
            )
            continue
        if verdict == InjectionOutcome.MASKED:
            result.masked += 1
        elif verdict == InjectionOutcome.SDC:
            result.sdc += 1
        elif verdict == InjectionOutcome.HANG:
            result.hang += 1
        else:
            result.crash += 1
    return result
