"""The CSR lifetime builders and canonical ids against the per-byte oracle.

Every production builder emits one read-only int64 CSR table; the
oracle (``lifetime_oracle.py``) is the original one-``IntervalSet``-per-
byte code.  Both must give equal tables, equal ``byte2iid`` and equal
unique-lifetime tables on real workloads and on the edge cases below.
"""

import numpy as np
import pytest

from repro.arch import Apu, GlobalMemory, ProgramBuilder, imm, s, v
from repro.core.analysis import AvfStudy
from repro.core.avf import StructureLifetimes, _canonical_iset_ids
from repro.core.intervals import AceClass, IntervalSet, csr_from_intervals
from repro.core.lifetime import (
    MemoryConsumption,
    analyze_cache,
    analyze_memory,
    analyze_vgpr,
    derive_tag_lifetimes,
    merge_fill_maps,
)
from repro.experiments import scaled_apu_kwargs
from repro.workloads import run

from . import lifetime_oracle as oracle

ACE = int(AceClass.ACE)
DEAD = int(AceClass.READ_DEAD)
COLUMNS = ("offsets", "starts", "ends", "classes")


def assert_same_table(got, want):
    """Equal CSR arrays (int64, read-only) and equal window."""
    assert (got.name, got.start_cycle, got.end_cycle) == (
        want.name, want.start_cycle, want.end_cycle,
    )
    for col in COLUMNS:
        arr = getattr(got, col)
        assert arr.dtype == np.int64, col
        assert not arr.flags.writeable, col
        np.testing.assert_array_equal(arr, getattr(want, col), err_msg=col)


def assert_same_canon(got, want):
    """Canonical ids of ``got`` equal the oracle's over ``want``'s sets."""
    canon = _canonical_iset_ids(got)
    byte2iid, unique = oracle.canonical_ids(list(want.byte_isets))
    assert canon.byte2iid.dtype == np.int32
    np.testing.assert_array_equal(canon.byte2iid, byte2iid)
    table = StructureLifetimes("unique", unique, 0, 1)
    for col in COLUMNS:
        arr = getattr(canon, col)
        assert not arr.flags.writeable, col
        np.testing.assert_array_equal(arr, getattr(table, col), err_msg=col)
    assert list(canon.byte_isets) == unique


def assert_same(got, want):
    assert_same_table(got, want)
    assert_same_canon(got, want)


def assert_same_fills(got, want):
    assert got.keys() == want.keys()
    for fid in want:
        for g, w in zip(got[fid], want[fid]):
            np.testing.assert_array_equal(g, w)


@pytest.fixture(
    scope="module", params=["matmul", "histogram", "transpose", "fastwalsh"]
)
def study(request):
    r = run(request.param, apu_kwargs=scaled_apu_kwargs())
    return AvfStudy(r.apu, r.output_ranges)


class TestWorkloadsMatchOracle:
    def test_every_vgpr_wavefront_and_the_stack(self, study):
        args = (study.apu.records,)
        want = [
            oracle.analyze_vgpr(*args, wf, study.vgpr_regs, study.end_cycle)
            for wf in sorted(study.apu.wf_programs)
        ]
        for got, ref in zip(study.vgpr_lifetimes(), want):
            assert_same(got, ref)
        assert_same(
            study._stacked_vgpr_lifetimes(),
            oracle.stack("vgpr", want, study.end_cycle),
        )

    def test_caches_and_tags(self, study):
        memsys = study.apu.memsys
        by_uid = study._records_by_uid
        ref_fills = []
        for l1, got in zip(memsys.l1s, study.l1_lifetimes()):
            ref, fills = oracle.analyze_cache(l1, by_uid, study.end_cycle)
            assert_same(got, ref)
            _, new_fills = analyze_cache(l1, by_uid, study.end_cycle)
            assert_same_fills(new_fills, fills)
            ref_fills.append(fills)
            line = l1.config.line_bytes
            assert_same(
                derive_tag_lifetimes(got, line),
                oracle.derive_tag_lifetimes(ref, line),
            )
        memcons = oracle.MemoryConsumption(
            study.apu.records, study.apu.memory.size, study.output_ranges
        )
        ref, _ = oracle.analyze_cache(
            memsys.l2, by_uid, study.end_cycle,
            memcons=memcons, upstream_fills=merge_fill_maps(ref_fills),
        )
        assert_same(study.l2_lifetime(), ref)
        line = memsys.l2.config.line_bytes
        for tag_bytes in (1, 3):
            assert_same(
                derive_tag_lifetimes(study.l2_lifetime(), line, tag_bytes=tag_bytes),
                oracle.derive_tag_lifetimes(ref, line, tag_bytes=tag_bytes),
            )

    def test_memory_consumption(self, study):
        args = (study.apu.records, study.apu.memory.size, study.output_ranges)
        got, want = MemoryConsumption(*args), oracle.MemoryConsumption(*args)
        top = max(base + size for base, size in study.output_ranges) + 64
        times = sorted({r.t for r in study.apu.records})
        queries = [0] + times[:: max(1, len(times) // 16)] + [
            times[-1], times[-1] + 1, study.end_cycle, study.end_cycle + 9,
        ]
        addrs = np.arange(0, top, 5)
        for t in queries:
            live = [want.live_after(int(a), t) for a in addrs]
            np.testing.assert_array_equal(got.consumed(addrs, t), live)
            assert [got.live_after(int(a), t) for a in addrs] == live
            assert [got.read_after(int(a), t) for a in addrs] == [
                want.read_after(int(a), t) for a in addrs
            ]

    def test_memory_regions(self, study):
        # The outputs, and everything up to just past the last one (the
        # inputs are allocated below it).
        top = max(base + size for base, size in study.output_ranges)
        regions = list(study.output_ranges) + [(0, top + 64)]
        for region in regions:
            args = (study.apu.records, region, study.output_ranges, study.end_cycle)
            got = study.memory_lifetimes(region)
            assert_same(got, oracle.analyze_memory(*args))
            assert got.sb_ace_fraction() == sum(
                iset.total(ACE) for iset in got.byte_isets
            ) / (got.n_bytes * got.window_cycles)


def _increment_kernel_study():
    """v3 is read and rewritten in the same instruction ten times."""
    mem = GlobalMemory()
    out = mem.alloc("out", 64)
    p = ProgramBuilder()
    p.mov(v(3), imm(0))
    for _ in range(10):
        p.iadd(v(3), v(3), imm(1))
    p.shl(v(9), v(0), imm(2))
    p.iadd(v(9), v(9), s(2))
    p.store(v(3), v(9))
    apu = Apu(memory=mem, n_cus=1)
    apu.launch(p.build(), 16, [out])
    return AvfStudy(apu, [mem.buffer("out")])


class TestTargetedCases:
    def test_same_cycle_read_write_coalesces(self):
        study = _increment_kernel_study()
        got = study.vgpr_lifetimes()[0]
        want = oracle.analyze_vgpr(
            study.apu.records, 0, study.vgpr_regs, study.end_cycle
        )
        assert_same(got, want)
        # Eleven ACE segments of v3, back to back: one interval per byte.
        v3 = got.byte_isets[3 * 4]
        assert len(v3) == 1 and v3.intervals()[0][2] == ACE
        assert v3.total(ACE) > 10

    def test_csr_coalescing_matches_append(self):
        rng = np.random.default_rng(7)
        rows, starts, ends, classes = [], [], [], []
        want = [IntervalSet() for _ in range(6)]
        for row in range(5):  # row 5 stays empty
            t = 0
            for _ in range(12):
                t += int(rng.integers(0, 2))  # adjacent half the time
                end = t + int(rng.integers(0, 3))  # some empty
                cls = int(rng.integers(0, 3))  # some class 0
                want[row].append(t, end, cls)
                rows.append(row)
                starts.append(t)
                ends.append(end)
                classes.append(cls)
                t = max(t, end)
        order = rng.permutation(len(rows))  # emitted in any order
        table = csr_from_intervals(
            6, *(np.array(a)[order] for a in (rows, starts, ends, classes))
        )
        got = StructureLifetimes.from_csr("r", table, 0, 100)
        assert_same_table(got, StructureLifetimes("r", want, 0, 100))
        assert [i.intervals() for i in got.byte_isets] == [
            i.intervals() for i in want
        ]

    def test_tag_union_with_gaps_overlaps_and_dead_time(self):
        rng = np.random.default_rng(3)
        isets = []
        for _ in range(4 * 8):  # four lines of eight bytes
            t, ivals = int(rng.integers(0, 5)), []
            for _ in range(int(rng.integers(0, 4))):
                end = t + int(rng.integers(1, 6))
                ivals.append((t, end, int(rng.integers(1, 3))))
                t = end + int(rng.integers(0, 4))
            isets.append(IntervalSet(ivals))
        data = StructureLifetimes("d", isets, 0, 100)
        for tag_bytes in (1, 3):
            got = derive_tag_lifetimes(data, 8, tag_bytes=tag_bytes)
            assert_same(got, oracle.derive_tag_lifetimes(data, 8, tag_bytes=tag_bytes))
            assert (got.classes == DEAD).any() and (got.classes == ACE).any()

    def test_empty_bytes(self):
        for isets in ([], [IntervalSet()] * 5):
            lt = StructureLifetimes("e", isets, 0, 10)
            assert lt.n_bytes == len(isets) == len(lt.byte_isets)
            assert_same(lt, lt)
            assert not _canonical_iset_ids(lt).byte2iid.any()
            np.testing.assert_array_equal(
                _canonical_iset_ids(lt).offsets, [0, 0]
            )

    def test_wavefront_without_records(self):
        got = analyze_vgpr([], 3, 8, 50)
        want = oracle.analyze_vgpr([], 3, 8, 50)
        assert got.n_bytes == 16 * 8 * 4 and got.name == "vgpr.wf3"
        assert_same(got, want)

    def test_runs_differing_only_in_class_get_distinct_ids(self):
        isets = [
            IntervalSet([(0, 10, ACE)]),
            IntervalSet([(0, 10, DEAD)]),
            IntervalSet(),
            IntervalSet([(0, 5, ACE), (5, 10, DEAD)]),
            IntervalSet([(0, 5, DEAD), (5, 10, ACE)]),
            IntervalSet([(0, 10, DEAD)]),
            IntervalSet([(0, 5, ACE), (5, 10, DEAD)]),
        ]
        lt = StructureLifetimes("c", isets, 0, 10)
        assert_same(lt, lt)
        np.testing.assert_array_equal(
            _canonical_iset_ids(lt).byte2iid, [1, 2, 0, 3, 4, 2, 3]
        )

    def test_non_ace_class_is_rejected(self):
        lt = StructureLifetimes("x", [IntervalSet([(0, 4, 3)])], 0, 10)
        with pytest.raises(ValueError, match="not an AceClass"):
            _canonical_iset_ids(lt)


class TestNoPerByteSets:
    def test_l2_lifetimes_and_canonical_ids_build_no_interval_set(
        self, monkeypatch
    ):
        r = run("histogram", apu_kwargs=scaled_apu_kwargs())
        study = AvfStudy(r.apu, r.output_ranges)
        built = []
        init = IntervalSet.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(IntervalSet, "__init__", counting_init)
        for ctor in ("_from_arrays", "_from_sorted"):
            original = getattr(IntervalSet, ctor)
            monkeypatch.setattr(
                IntervalSet, ctor,
                classmethod(lambda cls, *a, _f=original: built.append(1) or _f(*a)),
            )
        lt = study.l2_lifetime()
        _canonical_iset_ids(lt)
        assert study.l1_lifetimes() and len(lt.starts) > 0
        assert len(lt.byte_isets) == lt.n_bytes  # len() builds nothing
        assert built == []
        lt.byte_isets[0]  # the view does build sets, so the probe works
        assert built == [1]
