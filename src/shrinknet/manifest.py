"""Run manifests: enough metadata to rerun any command byte-for-byte.

``config`` holds every parameter of the command under its own name, as
parsed, and under ``resolved`` the values the command worked out from
them (thread counts, parsed lists, a simulated graph's parameters).
``cli.manifest_argv`` turns a manifest back into its command line, and
``tests/test_cli.py`` reruns commands that way and compares every output
byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np

from . import __version__

#: 2: ``config`` keys are the command's parameter names, plus ``resolved``
FORMAT_VERSION = 2


def write_json(path, payload):
    """``payload`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(out_dir, command: str, params: dict, resolved: dict,
                   timings_ms: dict, stats: dict):
    """Write ``manifest.json`` for a run of ``command`` with the parsed
    parameters ``params``, which also give its seed and input file.
    ``stats`` are run counters, such as EM iterations and sub-model fits."""
    inputs = [params["input_path"]] if "input_path" in params else []
    write_json(Path(out_dir) / "manifest.json", {
        "format_version": FORMAT_VERSION,
        "tool_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "command": command,
        "config": {**params, "resolved": resolved},
        "seed": params.get("seed"),
        "input_digests": {str(path): hashlib.sha256(
            Path(path).read_bytes()).hexdigest() for path in inputs},
        "timings_ms": timings_ms,
        "stats": stats,
    })
