"""Byte-identity of every toy pipeline output against recorded SHA-256 values.

`manifest.json` is left out: it records absolute input paths and the
Python version.  After a deliberate output change, regenerate the hash
file with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from test_cli import toy_config

from coocstat.cli import run_pipeline

TESTS_DIR = Path(__file__).resolve().parent
HASHES = TESTS_DIR / "data" / "toy_sha256.json"


def toy_output_hashes(toy_paths: dict[str, str], out_dir: Path) -> dict[str, str]:
    run_pipeline(toy_config(toy_paths, out_dir))
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def test_toy_outputs_match_recorded_hashes(tmp_path, toy_paths):
    expected = json.loads(HASHES.read_text(encoding="utf-8"))
    assert toy_output_hashes(toy_paths, tmp_path / "run") == expected


if __name__ == "__main__":
    from conftest import TOY_PATHS

    with tempfile.TemporaryDirectory() as tmp:
        hashes = toy_output_hashes(TOY_PATHS, Path(tmp) / "run")
    text = json.dumps(hashes, indent=2, sort_keys=True) + "\n"
    HASHES.write_text(text, encoding="utf-8")
    print(f"{len(hashes)} hashes -> {HASHES}", file=sys.stderr)
