"""Serialisation of lifetimes and AVF results.

Industrial AVF infrastructures separate the expensive event-tracking phase
from the cheap analysis phase (Sec. VI-A); this module makes that split
durable: lifetimes extracted from one simulation can be saved and re-used
for any number of later (fault mode x scheme x interleaving) measurements,
and results can be archived alongside the regenerated tables.

Formats: lifetimes use ``.npz`` (flat interval arrays, compact and fast);
results use plain JSON dictionaries.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

import numpy as np

from ..ioutil import atomic_write
from .avf import MbAvfResult, StructureLifetimes
from .faultmodes import FaultMode
from .intervals import Outcome

__all__ = [
    "save_lifetimes",
    "load_lifetimes",
    "result_to_dict",
    "result_from_dict",
    "save_results",
    "load_results",
]

PathLike = Union[str, Path]


def save_lifetimes(lifetimes: StructureLifetimes, path: PathLike) -> None:
    """Write a structure's lifetimes to a compressed ``.npz`` file.

    The CSR table is written as is: a per-byte ``offsets`` index into
    three parallel interval arrays (classes as ``int8``), which keeps files
    compact (one L2's lifetimes are a few hundred KB) and reload exact.
    """
    atomic_write(
        Path(path),
        lambda fh: np.savez_compressed(
            fh,
            name=np.array(lifetimes.name),
            window=np.array([lifetimes.start_cycle, lifetimes.end_cycle]),
            offsets=lifetimes.offsets,
            starts=lifetimes.starts,
            ends=lifetimes.ends,
            classes=lifetimes.classes.astype(np.int8),
        ),
    )


def load_lifetimes(path: PathLike) -> StructureLifetimes:
    """Read lifetimes written by :func:`save_lifetimes`."""
    with np.load(Path(path), allow_pickle=False) as data:
        window = data["window"]
        return StructureLifetimes.from_csr(
            str(data["name"]),
            (data["offsets"], data["starts"], data["ends"], data["classes"]),
            int(window[0]),
            int(window[1]),
        )


def result_to_dict(result: MbAvfResult) -> Dict:
    """JSON-safe dictionary of an :class:`MbAvfResult`."""
    out = {
        "structure": result.structure,
        "mode": {
            "name": result.mode.name,
            "offsets": [list(o) for o in result.mode.offsets],
        },
        "scheme": result.scheme,
        "n_groups": result.n_groups,
        "window_cycles": result.window_cycles,
        "outcome_cycles": {
            o.name: cyc for o, cyc in result.outcome_cycles.items()
        },
        "due_avf": result.due_avf,
        "sdc_avf": result.sdc_avf,
    }
    if result.series is not None:
        out["series_edges"] = result.series_edges.tolist()
        out["series"] = result.series.tolist()
    return out


def result_from_dict(data: Dict) -> MbAvfResult:
    """Inverse of :func:`result_to_dict` (derived fields recomputed)."""
    mode = FaultMode(
        data["mode"]["name"],
        tuple(tuple(o) for o in data["mode"]["offsets"]),
    )
    series = data.get("series")
    edges = data.get("series_edges")
    return MbAvfResult(
        structure=data["structure"],
        mode=mode,
        scheme=data["scheme"],
        n_groups=data["n_groups"],
        window_cycles=data["window_cycles"],
        outcome_cycles={
            Outcome[name]: cyc
            for name, cyc in data["outcome_cycles"].items()
        },
        series_edges=np.asarray(edges, dtype=np.int64) if edges else None,
        series=np.asarray(series, dtype=np.float64) if series else None,
    )


def save_results(results: Dict[str, MbAvfResult], path: PathLike) -> None:
    """Archive a keyed collection of results as JSON."""
    payload = {key: result_to_dict(r) for key, r in results.items()}
    atomic_write(Path(path), json.dumps(payload, indent=2, sort_keys=True))


def load_results(path: PathLike) -> Dict[str, MbAvfResult]:
    """Read results written by :func:`save_results`."""
    payload = json.loads(Path(path).read_text())
    return {key: result_from_dict(d) for key, d in payload.items()}
