import gzip
import json
import shutil
from pathlib import Path

import pytest

from coocstat.cli import RunConfig, main, run_pipeline

REPORT_FILES = [
    "table1.csv", "table2.csv", "table3.csv", "table4.csv", "table5.csv",
    "table6.csv", "table2.md", "fig_g2.csv", "fig_order.csv",
    "fig_distance.csv", "comparisons.csv", "distinct.csv",
]


def toy_config(toy_paths, out_dir, **overrides) -> RunConfig:
    defaults = dict(
        corpus=toy_paths["corpus"],
        lexicon=toy_paths["lexicon"],
        out_dir=str(out_dir),
        derivations=toy_paths["derivations"],
        lemma_attrs=toy_paths["lemma_attrs"],
        seed=7,
        unr_n=20,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def read_all(out_dir: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir()) if p.is_file()
    }


class TestRunPipeline:
    def test_toy_pipeline_artifacts(self, tmp_path, toy_paths):
        out = tmp_path / "run"
        run_pipeline(toy_config(toy_paths, out))
        for name in REPORT_FILES + [
            "pairs.tsv", "stats.tsv", "observations.tsv", "events.tsv",
            "manifest.json", "corpus_freqs.tsv", "derived_pairs.tsv",
            "filter_counts.json",
        ]:
            assert (out / name).exists(), name
        assert not (out / "_STALE").exists()
        counts = json.loads((out / "filter_counts.json").read_text())
        assert counts["mwe_abbrev_ne"] == 2
        assert counts["hyp_path"] == 1

    def test_rerun_byte_identical(self, tmp_path, toy_paths):
        out = tmp_path / "run"
        run_pipeline(toy_config(toy_paths, out))
        first = read_all(out)
        run_pipeline(toy_config(toy_paths, out))
        second = read_all(out)
        assert first == second

    def test_different_seed_changes_sample(self, tmp_path, toy_paths):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_pipeline(toy_config(toy_paths, out_a, seed=1))
        run_pipeline(toy_config(toy_paths, out_b, seed=2))
        assert (out_a / "pairs.tsv").read_bytes() != (out_b / "pairs.tsv").read_bytes()

    def test_manifest_round_trip(self, tmp_path, toy_paths):
        out = tmp_path / "run"
        run_pipeline(toy_config(toy_paths, out))
        first = read_all(out)
        rc = main(["all", "--from-manifest", str(out / "manifest.json")])
        assert rc == 0
        assert read_all(out) == first

    def test_manifest_counters(self, tmp_path, toy_paths):
        out = tmp_path / "run"
        run_pipeline(toy_config(toy_paths, out))
        counters = json.loads((out / "manifest.json").read_text())["counters"]
        # The toy corpus has 200 sentences; 8 have fewer than 5 content tokens.
        assert counters == {
            "sentences": 192,
            "sentences_skipped": 8,
            "tokens": 2584,
            "vocabulary": 79,
            "universe_pairs": 570,
            "events": {"ANT": 151, "HOL": 19, "HYP": 35, "SYN": 50, "UNR": 48},
        }
        event_rows = len((out / "events.tsv").read_text().splitlines()) - 1
        assert sum(counters["events"].values()) == event_rows

    def test_manifest_refuses_changed_input(self, tmp_path, toy_paths, capsys):
        corpus = tmp_path / "corpus.tsv"
        shutil.copy(toy_paths["corpus"], corpus)
        out = tmp_path / "run"
        run_pipeline(toy_config(toy_paths, out, corpus=str(corpus)))
        with open(corpus, "a", encoding="utf-8") as handle:
            handle.write("\nextra\textra\tNOUN\n")
        rerun = tmp_path / "rerun"
        rc = main([
            "all", "--from-manifest", str(out / "manifest.json"), "--out", str(rerun),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: corpus input {corpus} changed since the manifest (sha256 "
        )
        assert not rerun.exists()

    def test_stage_failure_names_stage_and_leaves_stale(self, tmp_path, toy_paths):
        out = tmp_path / "run"
        config = toy_config(toy_paths, out, lexicon=str(tmp_path / "missing.tsv"))
        from coocstat.cli import StageError

        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "extract-pairs"
        assert (out / "_STALE").exists()

    def test_config_validation(self, tmp_path, toy_paths):
        with pytest.raises(ValueError):
            run_pipeline(toy_config(toy_paths, tmp_path, alpha=1.5))

    def test_shard_workers_same_output(self, tmp_path, toy_paths):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_pipeline(toy_config(toy_paths, out_a, shards=1))
        run_pipeline(toy_config(toy_paths, out_b, shards=2, block_size=40))
        a, b = read_all(out_a), read_all(out_b)
        del a["manifest.json"], b["manifest.json"]  # configs differ
        assert a == b


class TestSubcommands:
    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["extract-pairs", "--corpus", "x.tsv", "--out", "y.tsv"])
        assert exc.value.code == 2
        assert "--lexicon" in capsys.readouterr().err

    def test_all_missing_inputs_exit_2(self, capsys):
        assert main(["all", "--corpus", "c.tsv"]) == 2
        assert "--lexicon" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["truncated", "corrupt", "not-gzip"])
    def test_damaged_gzip_corpus_exits_1(self, tmp_path, toy_paths, capsys, damage):
        text = Path(toy_paths["corpus"]).read_bytes()
        data = bytearray(gzip.compress(text))
        if damage == "truncated":
            data = data[:3000]
        elif damage == "corrupt":
            data[1000:1100] = bytes(b ^ 0x55 for b in data[1000:1100])
        else:
            data = text
        corpus = tmp_path / "corpus.tsv.gz"
        corpus.write_bytes(data)
        rc = main([
            "extract-pairs", "--lexicon", toy_paths["lexicon"],
            "--corpus", str(corpus), "--out", str(tmp_path / "pairs.tsv"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {corpus}: ")

    @pytest.mark.parametrize(
        "data,message",
        [
            (b"a\ta\tNOUN\nbad\tNOUN\n\n", " line 2: expected 3 tab-separated fields, got 2\n"),
            (b"a\ta\tNOUN\nb\t\xffb\tNOUN\n\n", ": invalid UTF-8: "),
        ],
        ids=["field-count", "invalid-utf8"],
    )
    def test_bad_corpus_error_names_the_file(self, tmp_path, toy_paths, capsys, data, message):
        corpus = tmp_path / "bad.tsv"
        corpus.write_bytes(data)
        rc = main([
            "extract-pairs", "--lexicon", toy_paths["lexicon"],
            "--corpus", str(corpus), "--out", str(tmp_path / "pairs.tsv"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {corpus}{message}")

    def test_stagewise_matches_orchestrator(self, tmp_path, toy_paths):
        # extract-pairs -> sample-unrelated -> count -> metrics -> report
        pairs_f = tmp_path / "pairs.tsv"
        unr_f = tmp_path / "unr.tsv"
        freqs_f = tmp_path / "freqs.tsv"
        derived_f = tmp_path / "derived.tsv"
        rc = main([
            "extract-pairs",
            "--lexicon", toy_paths["lexicon"],
            "--corpus", toy_paths["corpus"],
            "--derivations", toy_paths["derivations"],
            "--out", str(pairs_f),
            "--out-derived", str(derived_f),
            "--dump-freqs", str(freqs_f),
        ])
        assert rc == 0
        rc = main([
            "sample-unrelated",
            "--corpus", toy_paths["corpus"],
            "--lexicon", toy_paths["lexicon"],
            "--lemma-attrs", toy_paths["lemma_attrs"],
            "--n", "20", "--seed", "7",
            "--out", str(unr_f),
        ])
        assert rc == 0
        counts_dir = tmp_path / "counts"
        rc = main([
            "count",
            "--corpus", toy_paths["corpus"],
            "--pairs", str(pairs_f), str(unr_f),
            "--out", str(counts_dir),
            "--shards", "1",
        ])
        assert rc == 0
        stats_f = tmp_path / "stats.tsv"
        rc = main(["metrics", "--obs", str(counts_dir), "--out", str(stats_f)])
        assert rc == 0
        report_dir = tmp_path / "report"
        rc = main([
            "report",
            "--stats", str(stats_f),
            "--derived", str(derived_f),
            "--out", str(report_dir),
        ])
        assert rc == 0

        orchestrated = tmp_path / "orchestrated"
        run_pipeline(toy_config(toy_paths, orchestrated))
        assert (report_dir / "table2.csv").read_bytes() == (
            orchestrated / "table2.csv"
        ).read_bytes()
        assert (tmp_path / "stats.tsv").read_bytes() == (
            orchestrated / "stats.tsv"
        ).read_bytes()

    def test_second_extract_run_can_reuse_freqs(self, tmp_path, toy_paths):
        pairs_a = tmp_path / "a.tsv"
        freqs_f = tmp_path / "freqs.tsv"
        main([
            "extract-pairs", "--lexicon", toy_paths["lexicon"],
            "--corpus", toy_paths["corpus"],
            "--out", str(pairs_a), "--dump-freqs", str(freqs_f),
        ])
        pairs_b = tmp_path / "b.tsv"
        rc = main([
            "extract-pairs", "--lexicon", toy_paths["lexicon"],
            "--corpus-freqs", str(freqs_f),
            "--out", str(pairs_b),
        ])
        assert rc == 0
        assert pairs_a.read_bytes() == pairs_b.read_bytes()

    def test_env_threads_override(self, tmp_path, toy_paths, monkeypatch):
        monkeypatch.setenv("COOCSTAT_THREADS", "2")
        out = tmp_path / "env"
        run_pipeline(toy_config(toy_paths, out, shards=1, block_size=50))
        base = tmp_path / "base"
        monkeypatch.delenv("COOCSTAT_THREADS")
        run_pipeline(toy_config(toy_paths, base, shards=1, block_size=50))
        a, b = read_all(out), read_all(base)
        del a["manifest.json"], b["manifest.json"]
        assert a == b
