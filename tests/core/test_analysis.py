"""End-to-end AvfStudy pipeline tests on real workloads."""

import numpy as np
import pytest

from repro.core import (
    AvfConfig,
    AvfStudy,
    FaultMode,
    Interleaving,
    NoProtection,
    Parity,
    SecDed,
)
from repro.core.intervals import Outcome
from repro.core.layout import build_regfile_array
from repro.workloads import run


@pytest.fixture(scope="module")
def matmul_study():
    r = run("matmul")
    return AvfStudy(r.apu, r.output_ranges)


@pytest.fixture(scope="module")
def minife_study():
    r = run("minife")
    return AvfStudy(r.apu, r.output_ranges)


class TestCacheAvf:
    def test_unprotected_sb_is_ace_fraction(self, matmul_study):
        res = matmul_study.cache_avf("l1", FaultMode.linear(1), NoProtection())
        assert 0 < res.sdc_avf < 1
        assert res.due_avf == 0.0

    def test_parity_converts_sdc_to_due(self, matmul_study):
        unprot = matmul_study.cache_avf("l1", FaultMode.linear(1), NoProtection())
        par = matmul_study.cache_avf("l1", FaultMode.linear(1), Parity())
        assert par.sdc_avf == 0.0
        # Parity detects everything a fault would have corrupted, plus dead
        # reads (false DUE), so DUE AVF >= the unprotected SDC AVF.
        assert par.due_avf >= unprot.sdc_avf

    def test_secded_eliminates_single_bit_errors(self, matmul_study):
        res = matmul_study.cache_avf("l1", FaultMode.linear(1), SecDed())
        assert res.total_avf == 0.0

    def test_mb_avf_within_theoretical_bounds(self, matmul_study):
        """Sec. IV-D: SB-AVF <= MB-AVF <= M x SB-AVF (unprotected)."""
        sb = matmul_study.cache_avf("l1", FaultMode.linear(1), NoProtection())
        for m in (2, 3, 4):
            mb = matmul_study.cache_avf("l1", FaultMode.linear(m), NoProtection())
            assert mb.sdc_avf >= sb.sdc_avf - 1e-12
            assert mb.sdc_avf <= m * sb.sdc_avf + 1e-12

    def test_mb_avf_grows_with_fault_mode(self, matmul_study):
        """Sec. VI-C: larger fault modes have larger (unprotected) MB-AVF."""
        avfs = [
            matmul_study.cache_avf("l1", FaultMode.linear(m), NoProtection()).sdc_avf
            for m in (1, 2, 4, 8)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(avfs, avfs[1:]))

    def test_l2_also_measurable(self, matmul_study):
        res = matmul_study.cache_avf("l2", FaultMode.linear(2), Parity())
        assert res.n_groups > 0
        assert 0 <= res.total_avf <= 1

    def test_interleaving_splits_2x1_under_parity(self, matmul_study):
        plain = matmul_study.cache_avf("l1", FaultMode.linear(2), Parity())
        ilv = matmul_study.cache_avf(
            "l1", FaultMode.linear(2), Parity(),
            style=Interleaving.LOGICAL, factor=2,
        )
        # x2 interleaving puts each bit of a 2x1 fault in its own parity
        # word: everything becomes detectable.
        assert ilv.sdc_avf == 0.0
        assert plain.sdc_avf > 0.0

    def test_results_merge_over_cus(self, matmul_study):
        res = matmul_study.cache_avf("l1", FaultMode.linear(1), Parity())
        n_cus = len(matmul_study.apu.memsys.l1s)
        one_cu_groups = res.n_groups // n_cus
        assert res.n_groups == one_cu_groups * n_cus

    def test_invalid_level(self, matmul_study):
        with pytest.raises(ValueError):
            matmul_study.cache_avf("l3", FaultMode.linear(1), Parity())

    def test_series(self, minife_study):
        edges = np.linspace(0, minife_study.end_cycle, 9, dtype=int)
        res = minife_study.cache_avf(
            "l1", FaultMode.linear(2), Parity(), series_edges=edges,
        )
        series = res.series_avf(Outcome.TRUE_DUE)
        assert len(series) == 8
        assert (series >= 0).all() and (series <= 1).all()
        assert series.max() > 0


class TestVgprAvf:
    def test_basic(self, minife_study):
        res = minife_study.vgpr_avf(FaultMode.linear(1), Parity())
        assert 0 < res.due_avf < 1

    def test_inter_thread_preempts_sdc(self, minife_study):
        """Sec. VIII: simultaneous read converts SDC+DUE overlap to DUE."""
        intra = minife_study.vgpr_avf(
            FaultMode.linear(3), Parity(),
            style=Interleaving.INTRA_THREAD, factor=2,
        )
        inter = minife_study.vgpr_avf(
            FaultMode.linear(3), Parity(),
            style=Interleaving.INTER_THREAD, factor=2,
        )
        assert inter.sdc_avf <= intra.sdc_avf + 1e-12

    def test_force_preempt_flag(self, minife_study):
        forced = minife_study.vgpr_avf(
            FaultMode.linear(3), Parity(),
            style=Interleaving.INTRA_THREAD, factor=2, due_preempts_sdc=True,
        )
        plain = minife_study.vgpr_avf(
            FaultMode.linear(3), Parity(),
            style=Interleaving.INTRA_THREAD, factor=2,
        )
        assert forced.sdc_avf <= plain.sdc_avf + 1e-12


class TestAceLocality:
    def test_in_unit_range(self, matmul_study):
        for style, factor in (
            (Interleaving.LOGICAL, 2),
            (Interleaving.WAY_PHYSICAL, 2),
            (Interleaving.INDEX_PHYSICAL, 2),
        ):
            loc = matmul_study.cache_ace_locality("l1", style=style, factor=factor)
            assert 0.0 <= loc <= 1.0

    def test_logical_interleaving_has_higher_locality(self, matmul_study):
        """Sec. VI-B: same-line bits are ACE together more than cross-line."""
        logical = matmul_study.cache_ace_locality(
            "l1", style=Interleaving.LOGICAL, factor=2
        )
        way = matmul_study.cache_ace_locality(
            "l1", style=Interleaving.WAY_PHYSICAL, factor=2
        )
        assert logical >= way - 1e-9


class TestLayoutSpans:
    def test_layout_and_enumerate_spans(self):
        from repro import obs

        r = run("vectoradd", n_cus=1)
        study = AvfStudy(r.apu, r.output_ranges)
        study.l1_lifetimes()
        study.vgpr_lifetimes()
        _, tracer = obs.enable(metrics=False)
        try:
            study.cache_avf(
                "l1", FaultMode.linear(2), Parity(),
                style=Interleaving.WAY_PHYSICAL, factor=2,
            )
            study.vgpr_avf(
                FaultMode.linear(2), Parity(),
                style=Interleaving.INTER_THREAD, factor=2,
            )
            study.tag_avf("l1", FaultMode.linear(2), Parity(), factor=2)
            events = list(tracer.events)
        finally:
            obs.disable()
        layouts = [
            (e.args["structure"], e.args["style"], e.args["factor"])
            for e in events if e.name == "layout"
        ]
        assert layouts == [
            ("l1", "way", 2),
            ("vgpr", "inter_thread", 2),
            ("l1.tags", "way", 2),
        ]
        enumerated = [e.args for e in events if e.name == "enumerate"]
        assert all(a["unique_blocks"] <= a["blocks"] for a in enumerated)
        assert any(a["unique_blocks"] > 0 for a in enumerated)


class TestLifetimeSpans:
    def test_every_lifetime_span_is_sized(self):
        from repro import obs

        r = run("vectoradd", n_cus=1)
        study = AvfStudy(r.apu, r.output_ranges)
        _, tracer = obs.enable(metrics=False)
        try:
            study.cache_avf("l2", FaultMode.linear(2), Parity())
            study.vgpr_avf(FaultMode.linear(2), Parity())
            study.tag_avf("l1", FaultMode.linear(2), Parity())
            mem = study.memory_lifetimes(r.output_ranges[0])
            events = list(tracer.events)
        finally:
            obs.disable()
        spans = {
            e.args["structure"]: e.args for e in events if e.name == "lifetime"
        }
        assert set(spans) == {"l1", "l2", "vgpr", "vgpr.stack", "l1.tags", "memory"}
        assert spans["memory"]["bytes"] == mem.n_bytes
        assert spans["memory"]["intervals"] == len(mem.starts)
        assert spans["l2"]["bytes"] == study.l2_lifetime().n_bytes
        assert spans["vgpr.stack"]["bytes"] == spans["vgpr"]["bytes"]
        assert spans["vgpr.stack"]["intervals"] == spans["vgpr"]["intervals"]
        assert spans["l2"]["intervals"] > 0 and spans["vgpr"]["intervals"] > 0
        canon = [e.args for e in events if e.name == "canon"]
        assert {a["structure"] for a in canon} == {"l2", "vgpr", "l1.0.tags"}
        # Every unique lifetime but the empty one has an interval.
        assert all(a["intervals"] >= a["isets"] - 1 for a in canon)


class TestStackedVgprLifetimesShared:
    LAYOUTS = [
        (Interleaving.INTRA_THREAD, 1),
        (Interleaving.INTRA_THREAD, 2),
        (Interleaving.INTER_THREAD, 4),
    ]

    @staticmethod
    def _misses(layouts):
        """Results and ``avf.batch_cache_misses`` of one config per layout
        on a fresh study."""
        from repro import obs

        r = run("vectoradd", n_cus=1)
        study = AvfStudy(r.apu, r.output_ranges)
        study.vgpr_lifetimes()
        cfg = AvfConfig(FaultMode.linear(2), Parity())
        metrics, _ = obs.enable(tracing=False)
        try:
            results = [
                study.vgpr_avf_batch([cfg], style=style, factor=factor)[0]
                for style, factor in layouts
            ]
            misses = metrics.counter("avf.batch_cache_misses").value
        finally:
            obs.disable()
        return study, results, misses

    def test_layouts_share_one_lifetimes_object(self, matmul_study):
        stacks = [matmul_study._stacked_vgpr(*lay) for lay in self.LAYOUTS]
        assert len({id(layout) for layout, _ in stacks}) == len(self.LAYOUTS)
        assert all(lt is stacks[0][1] for _, lt in stacks)

    def test_canonical_ids_computed_once_per_study(self):
        _, one, m1 = self._misses(self.LAYOUTS[:1])
        study, all_, m3 = self._misses(self.LAYOUTS)
        # Per layout: one enumeration and one result miss; the canonical
        # table misses once per study.
        assert (m1, m3) == (3, 7)
        assert all_[0].outcome_cycles == one[0].outcome_cycles
        for (style, factor), res in zip(self.LAYOUTS, all_):
            _, alone, _ = self._misses([(style, factor)])
            assert res.outcome_cycles == alone[0].outcome_cycles
            assert res.n_groups == alone[0].n_groups


class TestStackedVgprLayout:
    @pytest.mark.parametrize(
        "style,factor",
        [
            (Interleaving.NONE, 1),
            (Interleaving.INTRA_THREAD, 2),
            (Interleaving.INTER_THREAD, 2),
            (Interleaving.INTER_THREAD, 4),
        ],
    )
    def test_stack_is_offset_copies_of_one_wavefront(
        self, matmul_study, style, factor
    ):
        stacked, lifetimes = matmul_study._stacked_vgpr(style, factor)
        base = build_regfile_array(
            16, matmul_study.vgpr_regs, style=style, factor=factor
        )
        n = len(matmul_study.vgpr_lifetimes())
        assert n > 1
        np.testing.assert_array_equal(
            stacked.byte_of,
            np.vstack([base.byte_of + k * base.n_bytes for k in range(n)]),
        )
        np.testing.assert_array_equal(
            stacked.domain_of,
            np.vstack([base.domain_of + k * base.n_domains for k in range(n)]),
        )
        assert stacked.interleave_factor == base.interleave_factor
        assert len(lifetimes.byte_isets) == stacked.n_bytes

    def test_inter_thread_factor_must_divide_wavefront(self, matmul_study):
        with pytest.raises(ValueError, match="divide thread count"):
            matmul_study.vgpr_avf(
                FaultMode.linear(2), Parity(),
                style=Interleaving.INTER_THREAD, factor=3,
            )
