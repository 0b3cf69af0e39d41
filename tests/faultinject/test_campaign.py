"""Tests for the fault-injection framework and ACE-interference campaign."""

import numpy as np
import pytest

from repro.arch import Apu, GlobalMemory, ProgramBuilder, imm, s, v
from repro.faultinject import (
    BenchmarkCampaign,
    InjectionOutcome,
    InjectionSpec,
    run_campaign,
)
from repro.faultinject.campaign import _Runner
from repro.runtime import TaskOutcome
from repro.workloads import REGISTRY


class TestInjectionHook:
    def _copy_program(self):
        p = ProgramBuilder()
        p.shl(v(2), v(0), imm(2))
        p.iadd(v(3), v(2), s(2))
        p.load(v(4), v(3))
        p.iadd(v(5), v(2), s(3))
        p.store(v(4), v(5))
        return p.build()

    def _run(self, inject=None):
        mem = GlobalMemory()
        a = mem.alloc("a", 64)
        b = mem.alloc("b", 64)
        mem.view_u32("a")[:] = np.arange(16, dtype=np.uint32)
        apu = Apu(memory=mem, n_cus=1)
        if inject:
            apu.inject_fault(*inject)
        apu.launch(self._copy_program(), 16, [a, b])
        apu.finish()
        return mem.view_u32("b").copy()

    def test_no_injection_is_clean(self):
        assert (self._run() == np.arange(16)).all()

    def test_flip_in_live_register_corrupts_output(self):
        # Flip bit 0 of v0 (the tid register) in lane 3 before execution:
        # lane 3's addresses change, corrupting the copy.
        out = self._run(inject=(0, 0, 3, 1, 0))
        assert not (out == np.arange(16)).all()

    def test_flip_in_unused_register_is_masked(self):
        out = self._run(inject=(0, 9, 3, 1, 0))
        assert (out == np.arange(16)).all()

    def test_flip_after_completion_is_masked(self):
        out = self._run(inject=(0, 0, 3, 1, 10**6))
        assert (out == np.arange(16)).all()

    def test_flip_out_of_range_register_ignored(self):
        out = self._run(inject=(0, 500, 3, 1, 0))
        assert (out == np.arange(16)).all()


class TestInjectionSpec:
    def test_bitmask(self):
        spec = InjectionSpec(0, 1, 2, (0, 3), 5)
        assert spec.bitmask == 0b1001

    def test_bitmask_wraps_at_32(self):
        spec = InjectionSpec(0, 1, 2, (31,), 5)
        assert spec.bitmask == 1 << 31


class TestRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        return _Runner(REGISTRY["transpose"], seed=0, n_cus=1)

    def test_golden_snapshot_nonempty(self, runner):
        assert len(runner.golden) == 32 * 32 * 4

    def test_masked_for_noop_injection(self, runner):
        # Register far beyond anything the kernel uses.
        spec = InjectionSpec(0, 200, 0, (0,), 0)
        assert runner.inject(spec) == InjectionOutcome.MASKED

    def test_deterministic_verdicts(self, runner):
        rng = np.random.default_rng(7)
        spec = runner.random_spec(rng)
        assert runner.inject(spec) == runner.inject(spec)

    def test_random_spec_in_bounds(self, runner):
        rng = np.random.default_rng(1)
        for _ in range(20):
            spec = runner.random_spec(rng, n_bits=3)
            assert 0 <= spec.lane < 16
            assert all(0 <= b < 32 for b in spec.bits)
            assert spec.wf in runner.windows

    @pytest.mark.parametrize("n_bits", [1, 2, 3, 4, 8])
    def test_random_spec_never_collapses_bits(self, runner, n_bits):
        """Regression: near bit 31 the old clamping folded group members
        into duplicates, silently flipping fewer bits than requested."""
        rng = np.random.default_rng(2)
        for _ in range(200):
            spec = runner.random_spec(rng, n_bits=n_bits)
            assert len(spec.bits) == n_bits
            assert len(set(spec.bits)) == n_bits
            assert spec.bits[-1] <= 31
            assert spec.bits == tuple(
                range(spec.bits[0], spec.bits[0] + n_bits)
            )

    def test_cycle_budget_overrun_classified_as_hang(self):
        """An injection that would exceed max_cycles is a HANG, not CRASH."""
        r = _Runner(REGISTRY["transpose"], seed=0, n_cus=1, max_cycles=5)
        spec = InjectionSpec(0, 200, 0, (0,), 0)
        assert r.inject(spec) == InjectionOutcome.HANG


class TestCampaign:
    @pytest.fixture(scope="class")
    def campaign(self):
        return run_campaign(
            "transpose", n_single=24, max_groups_per_mode=6, seed=0, n_cus=1
        )

    def test_outcome_counts_sum(self, campaign):
        assert sum(campaign.single_outcomes.values()) == 24

    def test_finds_some_sdc_bits(self, campaign):
        assert campaign.n_sdc_ace_bits >= 1
        assert campaign.single_outcomes.get(InjectionOutcome.SDC, 0) == (
            campaign.n_sdc_ace_bits
        )

    def test_multibit_modes_run(self, campaign):
        assert set(campaign.multibit) == {2, 3, 4}
        for injected, interfering in campaign.multibit.values():
            assert 0 <= interfering <= injected

    def test_interference_is_rare(self, campaign):
        """The paper's Table II conclusion: ACE interference ~0.1%."""
        injected = sum(n for n, _ in campaign.multibit.values())
        interfering = campaign.interference_total()
        assert injected > 0
        assert interfering <= max(1, injected // 10)

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            run_campaign("nope")

    def test_no_failures_in_clean_run(self, campaign):
        assert campaign.n_failed == 0
        assert campaign.failures == {}

    def test_dict_round_trip(self, campaign):
        assert BenchmarkCampaign.from_dict(campaign.to_dict()) == campaign


class TestCampaignRuntime:
    """The campaign driven through the fault-tolerant runtime."""

    ARGS = dict(n_single=10, max_groups_per_mode=3, seed=0, n_cus=1)

    @pytest.fixture(scope="class")
    def reference(self):
        return run_campaign("transpose", **self.ARGS)

    def test_journaled_run_matches_plain_run(self, reference, tmp_path):
        journaled = run_campaign(
            "transpose", journal=tmp_path / "j.jsonl", **self.ARGS
        )
        assert journaled == reference

    def test_killed_campaign_resumes_identically(self, reference, tmp_path):
        """Truncate the journal mid-record (the SIGKILL signature) and
        re-run: the result must equal the uninterrupted campaign's."""
        journal = tmp_path / "j.jsonl"
        run_campaign("transpose", journal=journal, **self.ARGS)
        lines = journal.read_text().splitlines()
        journal.write_text(
            "\n".join(lines[:5]) + "\n" + lines[5][: len(lines[5]) // 2]
        )
        resumed = run_campaign("transpose", journal=journal, **self.ARGS)
        assert resumed == reference

    def test_process_isolation_matches_inline(self, reference):
        isolated = run_campaign(
            "transpose", jobs=2, timeout=120, **self.ARGS
        )
        assert isolated == reference

    def test_timeout_surfaces_in_failure_breakdown(self):
        """A simulation killed at its wall-clock budget becomes a TIMEOUT
        failure with provenance — the campaign completes regardless.
        The budget is far below one injection's round trip to a worker:
        a checkpointed injection can finish in a few milliseconds."""
        c = run_campaign(
            "transpose", n_single=3, max_groups_per_mode=1, seed=0,
            n_cus=1, jobs=1, timeout=1e-6,
        )
        assert c.failures.get(TaskOutcome.TIMEOUT) == 3
        assert c.n_failed == 3
        assert c.single_outcomes == {}
        assert c.multibit == {2: (0, 0), 3: (0, 0), 4: (0, 0)}
