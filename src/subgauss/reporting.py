"""Bit-stable report emission: JSON summaries, CSV data files, run manifests.

Data files contain no timestamps, so their digests are reproducible; floats
are written with 17 significant digits (round-trip exact) and JSON keys are
sorted. The manifest is written last and records a digest per emitted file.
"""
from __future__ import annotations

import hashlib
import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

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
    created_at: str = field(default="")
    timings: dict | None = None  # seconds per stage, where the caller timed them
    counts: dict | None = None  # work counts, where the check reports them

    def to_json(self) -> dict:
        optional = {"timings": self.timings, "counts": self.counts}
        extra = {name: value for name, value in optional.items() if value is not None}
        return {
            "command": self.command,
            "config": self.config,
            "master_seed": self.master_seed,
            "artifact_version": self.artifact_version,
            "outputs": list(self.outputs),
            "versions": self.versions,
            "created_at": self.created_at,
            **extra,
        }


def format_float(value) -> str:
    """Render a float with 17 significant digits (binary round-trip exact)."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _jsonable(value):
    if isinstance(value, float):
        return value
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    return str(value)


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

    CSV: header row, comma separator, '.' decimal point. JSON: stable key
    ordering. The manifest lists each payload file with its sha256 and the
    versions of Python, numpy, scipy and subgauss, and is written last.
    `timings` (seconds per stage) and `counts` (work counts, such as
    log-MGF evaluations) go into the manifest only, so the payload digests
    do not depend on them.
    """
    if fmt not in ("json", "csv", "both"):
        raise ValueError(f"unknown format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []

    if fmt in ("json", "both"):
        path = out / f"{command}-summary.json"
        payload = json.dumps(_jsonable(summary), sort_keys=True, indent=2)
        path.write_text(payload + "\n", encoding="utf-8")
        outputs.append({"path": str(path), "sha256": _digest(path)})

    if fmt in ("csv", "both") and rows:
        path = out / f"{command}-data.csv"
        fieldnames = list(rows[0].keys())
        lines = [",".join(fieldnames)]
        for row in rows:
            lines.append(",".join(format_float(row.get(name)) for name in fieldnames))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        outputs.append({"path": str(path), "sha256": _digest(path)})

    manifest = RunManifest(
        command=command,
        config=_jsonable(config or {}),
        master_seed=master_seed,
        artifact_version=ARTIFACT_VERSION,
        outputs=tuple(outputs),
        versions={
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "subgauss": __version__,
        },
        created_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        timings=timings,
        counts=counts,
    )
    manifest_path = out / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest.to_json(), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    return manifest
