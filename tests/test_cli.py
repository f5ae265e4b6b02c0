import gzip
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tomllib
from dataclasses import fields
from pathlib import Path

import pytest

from coocstat import cli, counting, metrics, report
from coocstat.cli import RunConfig, main, run_pipeline
from coocstat.tsv import write_table
from conftest import TOY_PATHS, pair, sent

ROOT = Path(__file__).resolve().parents[1]

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


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory) -> Path:
    """One `all` run on the toy inputs, which the tests below only read."""
    out = tmp_path_factory.mktemp("toy") / "run"
    run_pipeline(toy_config(TOY_PATHS, out))
    return out


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
            "universe_pairs": 540,
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

    def test_svg_skips_a_figure_without_values(self, tmp_path, toy_paths):
        # At this alpha no pair is significant, so the order and distance
        # figures have no values; the G2 figure covers every pair.
        out = tmp_path / "run"
        rc = main([
            "all", "--corpus", toy_paths["corpus"], "--lexicon", toy_paths["lexicon"],
            "--lemma-attrs", toy_paths["lemma_attrs"], "--unr-n", "20",
            "--out", str(out), "--svg", "--alpha", "1e-200",
        ])
        assert rc == 0
        assert not (out / "_STALE").exists()
        assert (out / "fig_g2.svg").exists()
        for metric in ("order", "distance"):
            assert not (out / f"fig_{metric}.svg").exists()
            assert (out / f"fig_{metric}.csv").read_text() == (
                "pos,relation,n,min,q1,median,q3,max\n"
            )
            assert (out / f"fig_{metric}_values.csv").read_text() == "pos,relation,value\n"


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
            (b"a\ta\tNOUN\nb\t\xffb\tNOUN\n\n",
             " line 2: 'utf-8' codec can't decode byte 0xff in position 2: "),
            # A character cut short by its line's end, and by the end of a
            # last line without one.
            (b"a\ta\tNOUN\nb\tb\tNOUN\xc3\n\n", " line 2: 'utf-8' codec can't decode "
             "byte 0xc3 in position 8: invalid continuation byte\n"),
            (b"a\ta\tNOUN\nb\tb\tNOUN\xc3", " line 2: 'utf-8' codec can't decode "
             "byte 0xc3 in position 8: unexpected end of data\n"),
        ],
        ids=["field-count", "invalid-utf8", "cut-character", "cut-character-at-the-end"],
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

    @pytest.mark.parametrize("suffix", [".tsv", ".tsv.gz"], ids=["plain", "gzip"])
    def test_invalid_utf8_corpus_names_the_line(self, tmp_path, toy_paths, capsys, suffix):
        # Under each of the three line ends, the line and the position in it.
        lines = Path(toy_paths["corpus"]).read_bytes().splitlines()
        assert lines[2].count(b"\t") == 2
        lines[2] = b"\xe9" + lines[2]
        corpus = tmp_path / f"bad{suffix}"
        for end in (b"\n", b"\r\n", b"\r"):
            data = b"".join(line + end for line in lines)
            corpus.write_bytes(gzip.compress(data) if suffix.endswith(".gz") else data)
            rc = main([
                "extract-pairs", "--lexicon", toy_paths["lexicon"],
                "--corpus", str(corpus), "--out", str(tmp_path / "pairs.tsv"),
            ])
            assert rc == 1
            assert capsys.readouterr().err == (
                f"error: {corpus} line 3: 'utf-8' codec can't decode byte 0xe9 in position 0: "
                "invalid continuation byte\n"
            ), end

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


class TestMetricsOnCountDir:
    def _metrics(self, counts: Path, tmp_path: Path) -> list[str]:
        out = tmp_path / "stats.tsv"
        assert main(["metrics", "--obs", str(counts), "--out", str(out)]) == 0
        return out.read_text(encoding="utf-8").splitlines()

    def test_header_only(self, tmp_path):
        counts = tmp_path / "counts"
        counts.mkdir()
        write_table(str(counts / "observations.tsv"), counting.OBSERVATIONS, [])
        write_table(str(counts / "events.tsv"), counting.EVENTS, [])
        assert self._metrics(counts, tmp_path) == ["\t".join(metrics.STATS.columns)]

    def test_pair_without_cooccurrence_among_others(self, tmp_path):
        # b and c never share a sentence; a co-occurs with both.
        sentences = [sent(0, "a", "x", "b"), sent(1, "c", "x"), sent(2, "c", "a")]
        pairs = [pair("a", "b"), pair("b", "c"), pair("a", "c")]
        result = counting.count(sentences, pairs)
        counts = tmp_path / "counts"
        counts.mkdir()
        counting.write_observations(
            result, str(counts / "observations.tsv"), str(counts / "events.tsv")
        )
        rows = [line.split("\t") for line in self._metrics(counts, tmp_path)[1:]]
        # n_cooc, then order_p and mean_dist, empty without co-occurrences
        assert [(f[10], f[8] == "", f[9]) for f in rows] == [
            ("1", False, "1.0"), ("0", True, ""), ("1", False, "0.0"),
        ]

    def test_pair_absent_from_the_corpus_names_the_pair(self, tmp_path, capsys):
        # A hand-written count of one pair whose lemmas occur in none of
        # its 10 sentences: G2 is undefined.
        counts = tmp_path / "counts"
        counts.mkdir()
        write_table(str(counts / "observations.tsv"), counting.OBSERVATIONS, [
            ("cat", "dog", "NOUN", "SYN", "", "0", "0", "0", "10", "10"),
        ])
        write_table(str(counts / "events.tsv"), counting.EVENTS, [])
        out = tmp_path / "stats.tsv"
        assert main(["metrics", "--obs", str(counts), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: pair cat dog NOUN SYN: zero marginal (|w|=0, |v|=0): score undefined\n"
        )
        assert not out.exists()


class TestParserDefaults:
    """Each option's default comes from `RunConfig` or `report.ReportOptions`."""

    def test_all_parses_to_run_config_defaults(self):
        args = cli.build_parser().parse_args(
            ["all", "--corpus", "c.tsv", "--lexicon", "l.tsv", "--out", "out"]
        )
        parsed = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
        assert parsed == RunConfig("c.tsv", "l.tsv", "out")

    def test_report_parses_to_report_options_defaults(self):
        args = cli.build_parser().parse_args(["report", "--stats", "s.tsv", "--out", "out"])
        parsed = report.ReportOptions(
            **{name: getattr(args, name) for name in report.ReportOptions._fields}
        )
        assert parsed == report.ReportOptions()

    @pytest.mark.parametrize("argv,dest,field", [
        (["extract-pairs", "--lexicon", "l", "--corpus", "c", "--out", "o"],
         "min_sentence_len", "min_sentence_len"),
        (["sample-unrelated", "--corpus", "c", "--lexicon", "l", "--out", "o"],
         "min_sentence_len", "min_sentence_len"),
        (["sample-unrelated", "--corpus", "c", "--lexicon", "l", "--out", "o"], "n", "unr_n"),
        (["sample-unrelated", "--corpus", "c", "--lexicon", "l", "--out", "o"], "seed", "seed"),
        (["count", "--corpus", "c", "--pairs", "p", "--out", "o"],
         "min_sentence_len", "min_sentence_len"),
        (["metrics", "--obs", "d", "--out", "o"], "alpha", "alpha"),
    ])
    def test_subcommand_default_is_run_config_default(self, argv, dest, field):
        args = cli.build_parser().parse_args(argv)
        assert getattr(args, dest) == getattr(RunConfig("c", "l", "o"), field)


class TestOptionChecks:
    @pytest.mark.parametrize(
        "command,option,message",
        [
            ("metrics", ["--alpha", "2"], "alpha must be in (0, 1), got 2.0"),
            ("report", ["--alpha", "0"], "alpha must be in (0, 1), got 0.0"),
            ("report", ["--figures", "g2,foo"], "unknown figures foo (choose from "),
            ("report", ["--tables", "9"], "unknown tables 9 (choose from 1, 2, 3"),
            ("report", ["--tables", "x"], "unknown tables x (choose from 1, 2, 3"),
            ("report", ["--tables", "1,,2"], "unknown tables '' (choose from 1, 2, 3"),
        ],
    )
    def test_bad_option_exits_1_and_writes_nothing(
        self, tmp_path, toy_run, capsys, command, option, message
    ):
        out = tmp_path / "out"
        out.mkdir()
        if command == "metrics":
            argv = ["metrics", "--obs", str(toy_run), "--out", str(out / "stats.tsv")]
        else:
            argv = ["report", "--stats", str(toy_run / "stats.tsv"), "--out", str(out)]
        assert main(argv + option) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["all", "sample-unrelated"])
    def test_negative_seed_exits_1_and_writes_nothing(self, tmp_path, toy_paths, capsys, command):
        out = tmp_path / "out"
        out.mkdir()
        inputs = ["--corpus", toy_paths["corpus"], "--lexicon", toy_paths["lexicon"]]
        target = out / ("run" if command == "all" else "unr.tsv")
        assert main([command, *inputs, "--out", str(target), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("case, message", [
        ("negative seed", "seed must be >= 0, got -1"),
        ("no sample", "sample size must be positive, got 0"),
        ("all without a sample", "sample size must be positive, got 0"),
        ("no pairs", "pair list must be non-empty"),
        ("dump without scan", "--dump-freqs needs --corpus"),
    ])
    def test_argument_faults_end_before_the_corpus_is_read(
        self, tmp_path, toy_paths, toy_run, capsys, monkeypatch, case, message
    ):
        def no_read(*args, **kwargs):
            raise AssertionError("the corpus was read")

        monkeypatch.setattr(cli.corpus, "read_corpus", no_read)
        no_pairs = str(tmp_path / "pairs.tsv")
        write_table(no_pairs, cli.lexicon.PAIRS, [])
        out = tmp_path / "out"
        out.mkdir()
        sample = ["sample-unrelated", "--corpus", toy_paths["corpus"],
                  "--lexicon", toy_paths["lexicon"], "--out", str(out / "unr.tsv")]
        argv = {
            "negative seed": [*sample, "--seed", "-1"],
            "no sample": [*sample, "--n", "0"],
            "all without a sample": ["all", "--corpus", toy_paths["corpus"],
                                     "--lexicon", toy_paths["lexicon"],
                                     "--out", str(out / "run"), "--unr-n", "0"],
            "no pairs": ["count", "--corpus", toy_paths["corpus"], "--pairs", no_pairs,
                         "--out", str(out / "counts")],
            "dump without scan": ["extract-pairs", "--lexicon", toy_paths["lexicon"],
                                  "--corpus-freqs", str(toy_run / "corpus_freqs.tsv"),
                                  "--out", str(out / "pairs.tsv"),
                                  "--dump-freqs", str(out / "freqs.tsv")],
        }[case]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert list(out.iterdir()) == []


def _rerun(tmp_path: Path, toy_run: Path, edit) -> tuple[int, Path, Path]:
    """Rerun `all` from the toy run's manifest after `edit` changes it."""
    manifest = json.loads((toy_run / "manifest.json").read_text())
    edit(manifest)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "rerun"
    return main(["all", "--from-manifest", str(path), "--out", str(out)]), path, out


class TestFromManifest:
    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda m: m["config"].update(colour="blue"), "unknown config keys: colour"),
            (lambda m: m.pop("inputs"), "no 'inputs' entry"),
            (lambda m: m.pop("config"), "no 'config' entry"),
            (lambda m: m["config"].pop("corpus"), "RunConfig.__init__() missing"),
        ],
        ids=["unknown-key", "no-inputs", "no-config", "no-corpus"],
    )
    def test_malformed_manifest_names_it(self, tmp_path, toy_run, capsys, edit, message):
        rc, path, out = _rerun(tmp_path, toy_run, edit)
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("field", ["avg_population", "distance_pooling"])
    def test_unknown_choice_rejected(self, tmp_path, toy_run, capsys, field):
        rc, _, out = _rerun(tmp_path, toy_run, lambda m: m["config"].update({field: "bogus"}))
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: unknown {field} bogus (choose from ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("alpha", "x", 'config alpha must be float or int, got "x"'),
            ("alpha", True, "config alpha must be float or int, got true"),
            ("unr_n", "5", 'config unr_n must be int, got "5"'),
            ("unr_n", True, "config unr_n must be int, got true"),
            ("seed", 7.0, "config seed must be int, got 7.0"),
            ("svg", "no", 'config svg must be bool, got "no"'),
            ("derivations", 3, "config derivations must be str or null, got 3"),
            ("corpus", None, "config corpus must be str, got null"),
        ],
    )
    def test_wrong_config_type_names_the_manifest(
        self, tmp_path, toy_run, capsys, field, value, message
    ):
        rc, path, out = _rerun(tmp_path, toy_run, lambda m: m["config"].update({field: value}))
        assert rc == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()

    def test_int_accepted_for_float_config(self, tmp_path, toy_run, capsys):
        # The type check passes an int alpha; the range check then refuses 1.
        rc, _, out = _rerun(tmp_path, toy_run, lambda m: m["config"].update(alpha=1))
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: alpha must be in (0, 1), got 1")
        assert not out.exists()

    def test_retired_pool_keys_rerun_to_same_bytes(self, tmp_path, toy_run):
        rc, _, out = _rerun(
            tmp_path, toy_run, lambda m: m["config"].update(shards=2, block_size=40)
        )
        assert rc == 0
        before, after = read_all(toy_run), read_all(out)
        manifests = [json.loads(files.pop("manifest.json")) for files in (before, after)]
        assert before == after
        for manifest in manifests:
            del manifest["config"]["out_dir"]
        assert manifests[0] == manifests[1]  # shards and block_size were dropped


# Per command, the traced library calls up to and including the first data
# read, and the set of traced functions the command reaches.  Recorded on the
# toy inputs before `all` and the subcommands shared one stage layer, except
# for `sample-unrelated`'s verb word list, which it reads since it takes
# `--verb-classes`; the benchmark's set-up probe and tracer rely on both.
_LEXICON_SETUP = [
    "lexicon.load_lexicon", "lexicon.load_verb_classes",
    "lexicon.apply_verb_class_flags", "lexicon.filter_pairs",
]
EXPECTED_CALLS = {
    "all": (
        _LEXICON_SETUP + ["lexicon.load_lemma_attrs", "corpus.read_corpus"],
        {
            *_LEXICON_SETUP, "lexicon.load_lemma_attrs", "corpus.read_corpus",
            "counting.scan_corpus", "counting.write_lemma_freqs", "lexicon.orient_pairs",
            "lexicon.related_pair_set", "lexicon.sample_unrelated",
            "lexicon.load_derivations", "lexicon.derived_pairs", "lexicon.write_pairs",
            "lexicon.write_derived_map", "counting.count_sharded",
            "counting.write_observations", "metrics.compute_all_stats",
            "metrics.write_pair_stats", "report.write_report", "report.compare_all",
        },
    ),
    "extract-pairs": (
        _LEXICON_SETUP + ["corpus.read_corpus"],
        {
            *_LEXICON_SETUP, "corpus.read_corpus", "counting.scan_corpus",
            "counting.write_lemma_freqs", "lexicon.orient_pairs", "lexicon.write_pairs",
            "lexicon.load_derivations", "lexicon.derived_pairs",
            "lexicon.write_derived_map",
        },
    ),
    "sample-unrelated": (
        [
            "lexicon.load_lexicon", "lexicon.load_verb_classes", "lexicon.load_lemma_attrs",
            "corpus.read_corpus",
        ],
        {
            "lexicon.load_lexicon", "lexicon.load_verb_classes", "lexicon.load_lemma_attrs",
            "corpus.read_corpus", "counting.scan_corpus", "lexicon.related_pair_set",
            "lexicon.sample_unrelated", "lexicon.write_pairs",
        },
    ),
    "count": (
        ["lexicon.read_pairs"],
        {
            "lexicon.read_pairs", "corpus.read_corpus", "counting.count_sharded",
            "counting.write_observations",
        },
    ),
    "metrics": (
        ["counting.read_observations"],
        {"counting.read_observations", "metrics.compute_all_stats", "metrics.write_pair_stats"},
    ),
    "report": (
        ["metrics.read_pair_stats"],
        {
            "metrics.read_pair_stats", "lexicon.read_derived_map", "report.write_report",
            "report.compare_all",
        },
    ),
}


def test_word_list_reaches_control_pairs(tmp_path, toy_paths):
    # The toy lemma attributes give `see` VERB no flag, and without it on the
    # word list the seed 7 sample holds the control pair `see fall VERB UNR`.
    classes = tmp_path / "verb_classes.tsv"
    classes.write_text(
        cli.DEFAULT_VERB_CLASSES.read_text(encoding="utf-8") + "see\tlinking\n",
        encoding="utf-8",
    )
    inputs = [
        "--corpus", toy_paths["corpus"], "--lexicon", toy_paths["lexicon"],
        "--lemma-attrs", toy_paths["lemma_attrs"], "--verb-classes", str(classes),
        "--seed", "7",
    ]
    assert main(["all", *inputs, "--unr-n", "20", "--out", str(tmp_path / "all")]) == 0
    unr_path = tmp_path / "unr.tsv"
    assert main(["sample-unrelated", *inputs, "--n", "20", "--out", str(unr_path)]) == 0
    rows = (tmp_path / "all" / "pairs.tsv").read_text(encoding="utf-8").splitlines()[1:]
    unr = [row for row in rows if row.split("\t")[3] == "UNR"]
    assert len(unr) == 20
    assert not [row for row in unr if "see" in row.split("\t")[:2] and "\tVERB\t" in row]
    # The subcommand draws the same sample from the same word list.
    assert unr_path.read_text(encoding="utf-8").splitlines()[1:] == unr


def _recorder(calls: list[str], name: str, inner):
    def record(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    return record


def test_call_order_and_traced_functions(tmp_path, toy_paths, monkeypatch):
    spec = importlib.util.spec_from_file_location("inproc", ROOT / "perfbench" / "inproc.py")
    inproc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inproc)
    calls: list[str] = []
    for module, attr, *_ in inproc.TRACED:
        mod = getattr(cli, module)
        monkeypatch.setattr(mod, attr, _recorder(calls, f"{module}.{attr}", getattr(mod, attr)))
    first_reads = {f"{module}.{attr}" for module, attr in inproc.FIRST_READS}
    counted = []  # what each `count_sharded` call returned
    recorded_count = counting.count_sharded

    def keep_count(*args, **kwargs):
        counted.append(recorded_count(*args, **kwargs))
        return counted[-1]

    monkeypatch.setattr(counting, "count_sharded", keep_count)

    d = str(tmp_path)
    corpus, lexicon = toy_paths["corpus"], toy_paths["lexicon"]
    commands = [
        ["all", "--corpus", corpus, "--lexicon", lexicon,
         "--derivations", toy_paths["derivations"], "--lemma-attrs", toy_paths["lemma_attrs"],
         "--out", f"{d}/all", "--seed", "7", "--unr-n", "20"],
        ["extract-pairs", "--lexicon", lexicon, "--corpus", corpus,
         "--derivations", toy_paths["derivations"], "--out", f"{d}/pairs.tsv",
         "--out-derived", f"{d}/derived.tsv", "--dump-freqs", f"{d}/freqs.tsv"],
        ["sample-unrelated", "--corpus", corpus, "--lexicon", lexicon,
         "--lemma-attrs", toy_paths["lemma_attrs"], "--n", "20", "--seed", "7",
         "--out", f"{d}/unr.tsv"],
        ["count", "--corpus", corpus, "--pairs", f"{d}/pairs.tsv", f"{d}/unr.tsv",
         "--out", f"{d}/counts"],
        ["metrics", "--obs", f"{d}/counts", "--out", f"{d}/stats.tsv"],
        ["report", "--stats", f"{d}/stats.tsv", "--derived", f"{d}/derived.tsv",
         "--out", f"{d}/report"],
    ]
    seen = {}
    for argv in commands:
        calls.clear()
        assert main(argv) == 0, argv[0]
        setup = next(i for i, name in enumerate(calls) if name in first_reads) + 1
        seen[argv[0]] = (calls[:setup], set(calls))
    assert seen == EXPECTED_CALLS

    # The tracer's count counters, on the `all` run's count, agree with the
    # files it wrote.
    pairs_lines = Path(f"{d}/all/pairs.tsv").read_text(encoding="utf-8").splitlines()
    manifest = json.loads(Path(f"{d}/all/manifest.json").read_text(encoding="utf-8"))
    assert inproc._count_counts(counted[0], (), {}) == {
        "pairs": len(pairs_lines) - 1,
        "events": sum(manifest["counters"]["events"].values()),
    }


def test_benchmark_tracer_runs_the_toy_all(tmp_path, toy_paths, toy_run):
    """`perfbench/inproc.py setup` and `trace` as the benchmark runs them, in
    their own processes.  The tracer hands the scan and the count a stream
    of the `Sentence`s that `Corpus.__iter__` gives, which `as_corpus` turns
    back into a `Corpus` with `Corpus.from_sentences`; the traced run still
    writes the toy run's files."""
    argv = [
        "all", "--corpus", toy_paths["corpus"], "--lexicon", toy_paths["lexicon"],
        "--derivations", toy_paths["derivations"], "--lemma-attrs", toy_paths["lemma_attrs"],
        "--out", str(tmp_path / "all"), "--seed", "7", "--unr-n", "20",
    ]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    spans_path = tmp_path / "spans.json"
    for mode in (["setup"], ["trace", str(spans_path)]):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "inproc.py"), *mode, *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, (mode[0], proc.stderr)
    spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
    assert {"corpus.read", "counting.scan_universe", "counting.count_sharded"} <= {
        span["name"] for span in spans
    }
    manifest = json.loads((tmp_path / "all" / "manifest.json").read_text(encoding="utf-8"))
    counters = manifest["counters"]
    reads = [span["counts"] for span in spans if span["name"] == "corpus.read"]
    assert reads == [{"tokens": counters["tokens"], "sentences": counters["sentences"]}] * 2
    traced, plain = read_all(tmp_path / "all"), read_all(toy_run)
    del traced["manifest.json"], plain["manifest.json"]  # they name their own out_dir
    assert traced == plain


def test_process_entry_freezes_the_objects_the_imports_made():
    """The console script and ``python -m coocstat.cli`` go through `entry`,
    which freezes the collector before `main` runs."""
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert pyproject["project"]["scripts"]["coocstat"] == "coocstat.cli:entry"
    script = ("import gc, sys\nfrom coocstat import cli\n"
              "cli.main = lambda: print(gc.get_freeze_count()) or 0\nsys.exit(cli.entry())")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 10_000
