"""Unit tests for physical layouts and interleaving styles."""

import numpy as np
import pytest

from repro.core.layout import (
    Interleaving,
    SramArray,
    build_cache_array,
    build_regfile_array,
    build_tag_array,
    cache_byte_index,
    regfile_byte_index,
)

from . import layout_oracle as oracle


class TestIndexHelpers:
    def test_cache_byte_index(self):
        assert cache_byte_index(0, 0, 0, n_ways=4, line_bytes=64) == 0
        assert cache_byte_index(0, 1, 0, n_ways=4, line_bytes=64) == 64
        assert cache_byte_index(1, 0, 5, n_ways=4, line_bytes=64) == 4 * 64 + 5

    def test_regfile_byte_index(self):
        assert regfile_byte_index(0, 0, 0, n_regs=8) == 0
        assert regfile_byte_index(0, 1, 0, n_regs=8) == 4
        assert regfile_byte_index(1, 0, 2, n_regs=8) == 8 * 4 + 2


class TestCacheLayoutInvariants:
    @pytest.mark.parametrize(
        "style,factor",
        [
            (Interleaving.NONE, 1),
            (Interleaving.LOGICAL, 2),
            (Interleaving.LOGICAL, 4),
            (Interleaving.WAY_PHYSICAL, 2),
            (Interleaving.WAY_PHYSICAL, 4),
            (Interleaving.INDEX_PHYSICAL, 2),
            (Interleaving.INDEX_PHYSICAL, 4),
        ],
    )
    def test_complete_and_consistent(self, style, factor):
        n_sets, n_ways, line_bytes, domain_bytes = 8, 4, 64, 4
        arr = build_cache_array(
            n_sets, n_ways, line_bytes,
            domain_bytes=domain_bytes, style=style, factor=factor,
        )
        total_bits = n_sets * n_ways * line_bytes * 8
        assert arr.n_bits == total_bits
        # Every byte appears exactly 8 times (once per bit).
        counts = np.bincount(arr.byte_of.ravel())
        assert (counts == 8).all()
        assert len(counts) == n_sets * n_ways * line_bytes
        # Every domain appears exactly domain_bits times.
        dcounts = np.bincount(arr.domain_of.ravel())
        assert (dcounts == domain_bytes * 8).all()
        # Domain/byte maps agree with the domain-covers-consecutive-bytes rule.
        assert (arr.byte_of.ravel() // domain_bytes == arr.domain_of.ravel()).all()

    def test_no_interleave_adjacent_bits_same_domain(self):
        arr = build_cache_array(4, 2, 64, style=Interleaving.NONE)
        # Without interleaving, bits 0..31 of a row share a domain.
        assert len(set(arr.domain_of[0, :32].tolist())) == 1

    def test_x2_alternates_domains(self):
        arr = build_cache_array(
            4, 2, 64, style=Interleaving.LOGICAL, factor=2
        )
        row = arr.domain_of[0]
        # Adjacent bits belong to different domains within a cluster.
        assert row[0] != row[1]
        assert row[0] == row[2]

    def test_logical_keeps_bits_in_same_line(self):
        n_sets, n_ways, line_bytes = 4, 2, 64
        arr = build_cache_array(
            n_sets, n_ways, line_bytes, style=Interleaving.LOGICAL, factor=2
        )
        lines = arr.byte_of // line_bytes
        for r in range(arr.rows):
            assert len(set(lines[r].tolist())) == 1

    def test_way_physical_mixes_ways_not_sets(self):
        n_sets, n_ways, line_bytes = 4, 4, 64
        arr = build_cache_array(
            n_sets, n_ways, line_bytes, style=Interleaving.WAY_PHYSICAL, factor=2
        )
        line_of = arr.byte_of // line_bytes
        set_of = line_of // n_ways
        way_of = line_of % n_ways
        # Adjacent bits: same set, different way.
        assert (set_of[:, :-1] == set_of[:, 1:]).all()
        assert (way_of[0, 0] != way_of[0, 1])

    def test_index_physical_mixes_sets_not_ways(self):
        n_sets, n_ways, line_bytes = 4, 4, 64
        arr = build_cache_array(
            n_sets, n_ways, line_bytes, style=Interleaving.INDEX_PHYSICAL, factor=2
        )
        line_of = arr.byte_of // line_bytes
        set_of = line_of // n_ways
        way_of = line_of % n_ways
        assert (way_of[:, :-1] == way_of[:, 1:]).all()
        assert set_of[0, 0] != set_of[0, 1]
        # Indices in a cluster are adjacent.
        assert abs(int(set_of[0, 0]) - int(set_of[0, 1])) == 1

    def test_bad_factor_rejected(self):
        with pytest.raises(ValueError):
            build_cache_array(4, 2, 64, style=Interleaving.WAY_PHYSICAL, factor=3)
        with pytest.raises(ValueError):
            build_cache_array(3, 2, 64, style=Interleaving.INDEX_PHYSICAL, factor=2)
        with pytest.raises(ValueError):
            build_cache_array(4, 2, 64, factor=0)

    def test_line_not_multiple_of_domain(self):
        with pytest.raises(ValueError):
            build_cache_array(4, 2, 62, domain_bytes=4)

    def test_regfile_style_rejected_for_cache(self):
        with pytest.raises(ValueError):
            build_cache_array(4, 2, 64, style=Interleaving.INTER_THREAD, factor=2)


class TestRegfileLayout:
    @pytest.mark.parametrize(
        "style,factor",
        [
            (Interleaving.NONE, 1),
            (Interleaving.INTRA_THREAD, 2),
            (Interleaving.INTRA_THREAD, 4),
            (Interleaving.INTER_THREAD, 2),
            (Interleaving.INTER_THREAD, 4),
        ],
    )
    def test_complete(self, style, factor):
        n_threads, n_regs = 16, 8
        arr = build_regfile_array(n_threads, n_regs, style=style, factor=factor)
        assert arr.n_bits == n_threads * n_regs * 32
        counts = np.bincount(arr.byte_of.ravel())
        assert (counts == 8).all()
        assert (arr.byte_of.ravel() // 4 == arr.domain_of.ravel()).all()

    def test_intra_thread_adjacency(self):
        arr = build_regfile_array(
            4, 4, style=Interleaving.INTRA_THREAD, factor=2
        )
        n_regs = 4
        thread_of = arr.domain_of // n_regs
        reg_of = arr.domain_of % n_regs
        # Adjacent bits: same thread, different register.
        assert (thread_of[:, :-1] == thread_of[:, 1:]).all()
        assert reg_of[0, 0] != reg_of[0, 1]

    def test_inter_thread_adjacency(self):
        arr = build_regfile_array(
            4, 4, style=Interleaving.INTER_THREAD, factor=2
        )
        n_regs = 4
        thread_of = arr.domain_of // n_regs
        reg_of = arr.domain_of % n_regs
        # Within a cluster: same register, different thread.  (Cluster
        # boundaries switch register, so only check inside the first cluster.)
        assert reg_of[0, 0] == reg_of[0, 1]
        assert thread_of[0, 0] != thread_of[0, 1]
        # A row only mixes threads from one thread-group.
        factor = 2
        assert len(set((thread_of[0] // factor).tolist())) == 1

    def test_group_count(self):
        arr = build_regfile_array(4, 4, style=Interleaving.INTER_THREAD, factor=2)
        # 2x1 groups per row = cols - 1.
        assert arr.n_groups(1, 2) == arr.rows * (arr.cols - 1)

    def test_cache_style_rejected_for_regfile(self):
        with pytest.raises(ValueError):
            build_regfile_array(4, 4, style=Interleaving.WAY_PHYSICAL, factor=2)

    def test_bad_factors(self):
        with pytest.raises(ValueError):
            build_regfile_array(4, 3, style=Interleaving.INTRA_THREAD, factor=2)
        with pytest.raises(ValueError):
            build_regfile_array(3, 4, style=Interleaving.INTER_THREAD, factor=2)


# -- broadcast builders vs the per-bit oracle --------------------------------


CACHE_STYLES = [
    Interleaving.NONE,
    Interleaving.LOGICAL,
    Interleaving.WAY_PHYSICAL,
    Interleaving.INDEX_PHYSICAL,
]
#: (n_sets, n_ways, line_bytes): square, tall, wide and direct-mapped.
CACHE_GEOMETRIES = [(4, 4, 64), (8, 2, 32), (2, 8, 128), (16, 1, 16)]


def _built(build, *args, **kwargs):
    """The builder's SramArray, or the ValueError message it raised."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        return str(exc)


def assert_same_layout(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    for attr in ("byte_of", "domain_of"):
        a = getattr(got, attr)
        assert a.dtype == np.int32
        assert a.flags.c_contiguous
        np.testing.assert_array_equal(a, getattr(want, attr))
    assert (got.name, got.domain_bytes, got.interleave_factor, got.style) == (
        want.name, want.domain_bytes, want.interleave_factor, want.style,
    )


class TestBroadcastMatchesOracle:
    @pytest.mark.parametrize("geometry", CACHE_GEOMETRIES)
    @pytest.mark.parametrize("domain_bytes", [2, 4, 8])
    @pytest.mark.parametrize("factor", [1, 2, 4])
    @pytest.mark.parametrize("style", CACHE_STYLES, ids=lambda s: s.value)
    def test_cache(self, style, factor, domain_bytes, geometry):
        args = geometry
        kwargs = dict(domain_bytes=domain_bytes, style=style, factor=factor, name="c")
        assert_same_layout(
            _built(build_cache_array, *args, **kwargs),
            _built(oracle.build_cache_array, *args, **kwargs),
        )

    @pytest.mark.parametrize(
        "args,kwargs",
        [
            ((4, 2, 64), dict(style=Interleaving.WAY_PHYSICAL, factor=3)),
            ((3, 2, 64), dict(style=Interleaving.INDEX_PHYSICAL, factor=2)),
            ((4, 2, 64), dict(factor=0)),
            ((4, 2, 62), dict(domain_bytes=4)),
            ((4, 2, 64), dict(style=Interleaving.INTER_THREAD, factor=2)),
            ((4, 2, 16), dict(style=Interleaving.LOGICAL, factor=8)),
        ],
    )
    def test_cache_errors(self, args, kwargs):
        with pytest.raises(ValueError) as want:
            oracle.build_cache_array(*args, **kwargs)
        with pytest.raises(ValueError) as got:
            build_cache_array(*args, **kwargs)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("n_sets,n_ways", [(8, 4), (4, 8), (16, 1)])
    @pytest.mark.parametrize("tag_bytes", [2, 3, 4])
    @pytest.mark.parametrize("factor", [0, 1, 2, 4, 3])
    def test_tags(self, factor, tag_bytes, n_sets, n_ways):
        kwargs = dict(tag_bytes=tag_bytes, factor=factor, name="t")
        assert_same_layout(
            _built(build_tag_array, n_sets, n_ways, **kwargs),
            _built(oracle.build_tag_array, n_sets, n_ways, **kwargs),
        )

    @pytest.mark.parametrize("n_threads,n_regs", [(16, 8), (4, 16), (8, 4)])
    @pytest.mark.parametrize("reg_bytes", [2, 4, 8])
    @pytest.mark.parametrize("factor", [0, 1, 2, 4, 3])
    @pytest.mark.parametrize(
        "style",
        [
            Interleaving.NONE,
            Interleaving.INTRA_THREAD,
            Interleaving.INTER_THREAD,
            Interleaving.WAY_PHYSICAL,
        ],
        ids=lambda s: s.value,
    )
    def test_regfile(self, style, factor, reg_bytes, n_threads, n_regs):
        kwargs = dict(reg_bytes=reg_bytes, style=style, factor=factor, name="v")
        assert_same_layout(
            _built(build_regfile_array, n_threads, n_regs, **kwargs),
            _built(oracle.build_regfile_array, n_threads, n_regs, **kwargs),
        )


class TestReadOnlyMaps:
    def test_built_maps_reject_writes(self):
        arr = build_cache_array(4, 2, 64, style=Interleaving.WAY_PHYSICAL, factor=2)
        with pytest.raises(ValueError, match="read-only"):
            arr.byte_of[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            arr.domain_of[:, 0] += 1

    def test_constructor_freezes_given_maps(self):
        domain_of = np.array([[c // 8 for c in range(16)]], dtype=np.int32)
        byte_of = domain_of.copy()
        arr = SramArray("toy", byte_of, domain_of, 1, 1, Interleaving.NONE)
        with pytest.raises(ValueError, match="read-only"):
            byte_of[0, 3] = 7
        with pytest.raises(ValueError, match="read-only"):
            arr.domain_of.fill(0)
