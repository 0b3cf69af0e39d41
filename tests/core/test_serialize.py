"""Tests for lifetime and result serialisation."""

import numpy as np

from repro.core import AvfStudy, FaultMode, Parity, compute_mb_avf
from repro.core.avf import StructureLifetimes
from repro.core.intervals import AceClass, IntervalSet, Outcome
from repro.core.serialize import (
    load_lifetimes,
    load_results,
    result_from_dict,
    result_to_dict,
    save_lifetimes,
    save_results,
)
from repro.workloads import run

ACE = int(AceClass.ACE)
DEAD = int(AceClass.READ_DEAD)


class TestLifetimeRoundtrip:
    def _sample(self):
        return StructureLifetimes(
            "sample",
            [
                IntervalSet([(0, 10, ACE), (12, 20, DEAD)]),
                IntervalSet(),
                IntervalSet([(5, 6, ACE)]),
            ],
            0, 100,
        )

    def test_roundtrip(self, tmp_path):
        lt = self._sample()
        path = tmp_path / "lt.npz"
        save_lifetimes(lt, path)
        back = load_lifetimes(path)
        assert back.name == lt.name
        assert back.start_cycle == lt.start_cycle
        assert back.end_cycle == lt.end_cycle
        assert len(back.byte_isets) == len(lt.byte_isets)
        for a, b in zip(back.byte_isets, lt.byte_isets):
            assert a.intervals() == b.intervals()

    def test_roundtrip_of_real_lifetimes(self, tmp_path):
        r = run("vectoradd", n_cus=1)
        study = AvfStudy(r.apu, r.output_ranges)
        lt = study.l1_lifetimes()[0]
        path = tmp_path / "l1.npz"
        save_lifetimes(lt, path)
        back = load_lifetimes(path)
        for a, b in zip(back.byte_isets, lt.byte_isets):
            assert a.intervals() == b.intervals()

    def test_loads_file_in_the_flat_interval_layout(self, tmp_path):
        """A file in the on-disk layout (per-byte offsets, flat int64
        starts/ends, int8 classes), written here without the saver, loads
        to the same CSR arrays, and the saver writes exactly that layout."""
        path = tmp_path / "flat.npz"
        np.savez_compressed(
            path,
            name=np.array("flat"),
            window=np.array([0, 100]),
            offsets=np.array([0, 2, 2, 3], dtype=np.int64),
            starts=np.array([0, 12, 5], dtype=np.int64),
            ends=np.array([10, 20, 6], dtype=np.int64),
            classes=np.array([ACE, DEAD, ACE], dtype=np.int8),
        )
        back = load_lifetimes(path)
        want = self._sample()
        assert (back.name, back.start_cycle, back.end_cycle) == ("flat", 0, 100)
        for col in ("offsets", "starts", "ends", "classes"):
            got = getattr(back, col)
            np.testing.assert_array_equal(got, getattr(want, col))
            assert got.dtype == np.int64 and not got.flags.writeable
        resaved = tmp_path / "resaved.npz"
        save_lifetimes(back, resaved)
        with np.load(path) as a, np.load(resaved) as b:
            assert sorted(a.files) == sorted(b.files)
            for key in a.files:
                assert a[key].dtype == b[key].dtype
                np.testing.assert_array_equal(a[key], b[key])

    def test_analysis_on_reloaded_lifetimes_matches(self, tmp_path):
        """The decoupled flow: save lifetimes, reload, re-measure."""
        from repro.core.layout import Interleaving, build_cache_array

        r = run("matmul", n_cus=1)
        study = AvfStudy(r.apu, r.output_ranges)
        lt = study.l1_lifetimes()[0]
        cfg = r.apu.memsys.l1s[0].config
        layout = build_cache_array(
            cfg.n_sets, cfg.n_ways, cfg.line_bytes,
            style=Interleaving.LOGICAL, factor=2,
        )
        direct = compute_mb_avf(layout, lt, FaultMode.linear(2), Parity())
        path = tmp_path / "l1.npz"
        save_lifetimes(lt, path)
        reloaded = compute_mb_avf(
            layout, load_lifetimes(path), FaultMode.linear(2), Parity()
        )
        assert reloaded.due_avf == direct.due_avf
        assert reloaded.sdc_avf == direct.sdc_avf


class TestResultRoundtrip:
    def _result(self, with_series=False):
        lt = StructureLifetimes(
            "toy", [IntervalSet([(0, 50, ACE)]), IntervalSet()], 0, 100
        )
        from repro.core.layout import Interleaving, SramArray

        domain_of = np.array([[c % 2 for c in range(16)]], dtype=np.int32)
        arr = SramArray(
            "toy", domain_of.copy(), domain_of, 1, 2, Interleaving.LOGICAL
        )
        edges = [0, 50, 100] if with_series else None
        return compute_mb_avf(
            arr, lt, FaultMode.linear(2), Parity(), series_edges=edges
        )

    def test_dict_roundtrip(self):
        res = self._result()
        back = result_from_dict(result_to_dict(res))
        assert back.due_avf == res.due_avf
        assert back.sdc_avf == res.sdc_avf
        assert back.mode == res.mode
        assert back.n_groups == res.n_groups

    def test_series_roundtrip(self):
        res = self._result(with_series=True)
        back = result_from_dict(result_to_dict(res))
        assert np.allclose(
            back.series_avf(Outcome.TRUE_DUE), res.series_avf(Outcome.TRUE_DUE)
        )

    def test_file_roundtrip(self, tmp_path):
        results = {"a": self._result(), "b": self._result(with_series=True)}
        path = tmp_path / "results.json"
        save_results(results, path)
        back = load_results(path)
        assert set(back) == {"a", "b"}
        assert back["a"].due_avf == results["a"].due_avf
        assert back["b"].series is not None
