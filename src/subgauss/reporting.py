"""Bit-stable report emission: JSON summaries, CSV data files, run manifests.

Data files contain no timestamps, so their digests are reproducible; floats
are written with 17 significant digits (round-trip exact) and JSON keys are
sorted. The manifest is written last and records a digest per emitted file.
Every JSON file is one `json.dumps` of plain values (dataclasses go through
`dataclasses.asdict`); its `default` writes numpy scalars and arrays as
Python values and raises TypeError for anything else json cannot write.
The manifest's scipy version is read from the installed package's metadata
(`importlib.metadata`), once per process at the first `emit_report`, so no
run imports scipy to report it.
"""
from __future__ import annotations

import hashlib
import json
import platform
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__

__all__ = ["RunManifest", "format_float", "emit_report"]

ARTIFACT_VERSION = "0.1.0"


@dataclass(frozen=True)
class RunManifest:
    command: str
    config: dict
    master_seed: int | None
    artifact_version: str
    outputs: tuple[dict, ...]
    versions: dict  # of Python and the libraries the run used
    created_at: str
    timings: dict | None = None  # seconds per stage, where the caller timed them
    counts: dict | None = None  # work counts, where the check reports them


@lru_cache(maxsize=1)
def _versions() -> dict:
    """Versions of Python, numpy, scipy and subgauss; scipy's from its metadata, unimported."""
    from importlib import metadata

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "subgauss": __version__,
    }


def format_float(value) -> str:
    """Render a float with 17 significant digits (binary round-trip exact)."""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _plain(value):
    """`json.dumps`'s `default`: a numpy scalar or array as the Python value(s) it holds."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} {value!r} is not JSON serializable")


def _json(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, default=_plain) + "\n"


def _write(path: Path, text: str) -> dict:
    """Write ``text`` to ``path`` and return its manifest entry: path and sha256."""
    path.write_text(text, encoding="utf-8")
    return {"path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def emit_report(
    command: str,
    summary: dict,
    rows: list[dict],
    out_dir: str | Path,
    fmt: str,
    *,
    config: dict | None = None,
    master_seed: int | None = 0,
    timings: dict | None = None,
    counts: dict | None = None,
) -> RunManifest:
    """Write <cmd>-summary.json and/or <cmd>-data.csv plus manifest.json.

    CSV: header row, comma separator, '.' decimal point, and a comma inside a
    cell written as ';', so every row keeps the header's column count. JSON:
    sorted keys; numpy values are written as Python ones, and a value json
    cannot write (a set, say) raises TypeError. The manifest lists each
    payload file with its sha256 and the versions of Python, numpy, scipy and
    subgauss, and is written last. `timings` (seconds per stage) and `counts`
    (work counts, such as log-MGF evaluations) go into the manifest only, so
    the payload digests do not depend on them; the manifest leaves out either
    key where it is None. Returns the manifest as a `RunManifest`.
    """
    if fmt not in ("json", "csv", "both"):
        raise ValueError(f"unknown format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []

    if fmt in ("json", "both"):
        outputs.append(_write(out / f"{command}-summary.json", _json(summary)))
    if fmt in ("csv", "both") and rows:
        fieldnames = list(rows[0].keys())
        lines = [",".join(fieldnames)]
        for row in rows:
            lines.append(",".join(format_float(row.get(name)).replace(",", ";") for name in fieldnames))
        outputs.append(_write(out / f"{command}-data.csv", "\n".join(lines) + "\n"))

    manifest = {
        "command": command,
        "config": config or {},
        "master_seed": master_seed,
        "artifact_version": ARTIFACT_VERSION,
        "outputs": tuple(outputs),
        "versions": dict(_versions()),
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    for key, value in (("timings", timings), ("counts", counts)):
        if value is not None:
            manifest[key] = value
    _write(out / "manifest.json", _json(manifest))
    return RunManifest(**manifest)
