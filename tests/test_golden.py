"""Byte-identity of toy outputs against recorded SHA-256 values.

Three runs are guarded: `all` (`tests/data/toy_sha256.json`); the
subcommand chain `extract-pairs` (with `--derivations` and
`--dump-freqs`), `sample-unrelated`, `count`, `metrics` and
`report --svg` (`tests/data/toy_chain_sha256.json`); and two more `report`
runs on the chain's `stats.tsv` with the options the other two leave at
their defaults, `--avg-population sig --distance-pooling event --svg
--derived` and `--tables 3,5 --figures order_asym`
(`tests/data/toy_report_options_sha256.json`).  `manifest.json` is left
out: it records absolute input paths and the Python version.  After a
deliberate output change, regenerate all three hash files with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from test_cli import toy_config

from coocstat import counting, lexicon, metrics
from coocstat.cli import main, run_pipeline

TESTS_DIR = Path(__file__).resolve().parent
HASHES = TESTS_DIR / "data" / "toy_sha256.json"
CHAIN_HASHES = TESTS_DIR / "data" / "toy_chain_sha256.json"
REPORT_OPTION_HASHES = TESTS_DIR / "data" / "toy_report_options_sha256.json"


def _hashes(out_dir: Path) -> dict[str, str]:
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def toy_output_hashes(toy_paths: dict[str, str], out_dir: Path) -> dict[str, str]:
    run_pipeline(toy_config(toy_paths, out_dir))
    return _hashes(out_dir)


def toy_chain_hashes(toy_paths: dict[str, str], out_dir: Path) -> dict[str, str]:
    out_dir.mkdir(parents=True)
    d = str(out_dir)
    steps = [
        ["extract-pairs", "--lexicon", toy_paths["lexicon"],
         "--corpus", toy_paths["corpus"], "--derivations", toy_paths["derivations"],
         "--out", f"{d}/pairs.tsv", "--out-derived", f"{d}/derived.tsv",
         "--dump-freqs", f"{d}/freqs.tsv"],
        ["sample-unrelated", "--corpus", toy_paths["corpus"],
         "--lexicon", toy_paths["lexicon"], "--lemma-attrs", toy_paths["lemma_attrs"],
         "--n", "20", "--seed", "7", "--out", f"{d}/unr.tsv"],
        ["count", "--corpus", toy_paths["corpus"],
         "--pairs", f"{d}/pairs.tsv", f"{d}/unr.tsv", "--out", f"{d}/counts"],
        ["metrics", "--obs", f"{d}/counts", "--out", f"{d}/stats.tsv"],
        ["report", "--stats", f"{d}/stats.tsv", "--derived", f"{d}/derived.tsv",
         "--out", f"{d}/report", "--svg"],
    ]
    for argv in steps:
        assert main(argv) == 0, argv[0]
    return _hashes(out_dir)


def toy_report_option_hashes(toy_paths: dict[str, str], out_dir: Path) -> dict[str, str]:
    chain = out_dir / "chain"
    toy_chain_hashes(toy_paths, chain)
    runs = {
        "sig-event-svg": ["--avg-population", "sig", "--distance-pooling", "event",
                          "--svg", "--derived", str(chain / "derived.tsv")],
        "tables-3-5": ["--tables", "3,5", "--figures", "order_asym"],
    }
    reports = out_dir / "reports"
    for name, options in runs.items():
        argv = ["report", "--stats", str(chain / "stats.tsv"), "--out", str(reports / name)]
        assert main(argv + options) == 0, name
    return _hashes(reports)


def test_toy_outputs_match_recorded_hashes(tmp_path, toy_paths):
    expected = json.loads(HASHES.read_text(encoding="utf-8"))
    assert toy_output_hashes(toy_paths, tmp_path / "run") == expected


@pytest.mark.parametrize("block", [1, 7])
def test_toy_outputs_match_recorded_hashes_in_small_blocks(tmp_path, toy_paths, block):
    # The scan and the count walk the toy corpus in many blocks.
    expected = json.loads(HASHES.read_text(encoding="utf-8"))
    with mock.patch.object(counting, "_SCAN_BLOCK", block):
        assert toy_output_hashes(toy_paths, tmp_path / "run") == expected


def test_toy_chain_outputs_match_recorded_hashes(tmp_path, toy_paths):
    expected = json.loads(CHAIN_HASHES.read_text(encoding="utf-8"))
    assert toy_chain_hashes(toy_paths, tmp_path / "chain") == expected


def test_pipeline_reads_only_the_count_columns(tmp_path, toy_paths):
    # `all`, `count` and `metrics` build no per-pair view of the count,
    # neither its observations nor its pairs: with both patched to raise,
    # they still write the recorded bytes.
    def refuse(result):
        raise AssertionError("a per-pair view of CountResult built on the pipeline path")

    with mock.patch.object(counting.CountResult, "observations", property(refuse)), \
            mock.patch.object(counting.CountResult, "pairs", property(refuse)):
        assert toy_output_hashes(toy_paths, tmp_path / "run") == json.loads(
            HASHES.read_text(encoding="utf-8")
        )
        assert toy_chain_hashes(toy_paths, tmp_path / "chain") == json.loads(
            CHAIN_HASHES.read_text(encoding="utf-8")
        )


def test_metrics_builds_no_lemma_pair(tmp_path, toy_paths):
    # `metrics` reads the count's key columns, scores them and writes them
    # back without a `LemmaPair`.
    run_pipeline(toy_config(toy_paths, tmp_path / "run"))

    def refuse(*args, **kwargs):
        raise AssertionError("LemmaPair built on the metrics path")

    out = tmp_path / "stats.tsv"
    with mock.patch.object(lexicon, "LemmaPair", refuse), \
            mock.patch.object(counting, "LemmaPair", refuse), \
            mock.patch.object(metrics, "LemmaPair", refuse):
        assert main(["metrics", "--obs", str(tmp_path / "run"), "--out", str(out)]) == 0
    expected = json.loads(HASHES.read_text(encoding="utf-8"))["stats.tsv"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


def test_toy_report_options_match_recorded_hashes(tmp_path, toy_paths):
    expected = json.loads(REPORT_OPTION_HASHES.read_text(encoding="utf-8"))
    assert toy_report_option_hashes(toy_paths, tmp_path / "run") == expected


if __name__ == "__main__":
    from conftest import TOY_PATHS

    for path, generate in (
        (HASHES, toy_output_hashes),
        (CHAIN_HASHES, toy_chain_hashes),
        (REPORT_OPTION_HASHES, toy_report_option_hashes),
    ):
        with tempfile.TemporaryDirectory() as tmp:
            hashes = generate(TOY_PATHS, Path(tmp) / "run")
        path.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{len(hashes)} hashes -> {path}", file=sys.stderr)
