"""Run manifests: enough metadata to reproduce any run byte-for-byte."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__

FORMAT_VERSION = 1


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    command: str
    config: dict
    seed: int | None = None
    input_digests: dict = field(default_factory=dict)
    timings_ms: dict = field(default_factory=dict)
    #: run counters, such as EM iterations and sub-model fits
    stats: dict = field(default_factory=dict)

    def add_input(self, path):
        self.input_digests[str(path)] = file_digest(path)

    def write(self, out_dir, name: str = "manifest.json"):
        payload = {
            "format_version": FORMAT_VERSION,
            "tool_version": __version__,
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "input_digests": self.input_digests,
            "timings_ms": self.timings_ms,
            "stats": self.stats,
        }
        path = Path(out_dir) / name
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path
