"""The three benchmark workloads: inputs, CLI steps, and output checks.

Sizes are set so one repetition takes a few seconds on a 2-core machine
and the work per repetition barely depends on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import check
import gen


@dataclass
class Inputs:
    dir: Path
    truth: object  # gen.Corpus or gen.CountDir
    rows: int  # input rows the program parses: token lines, or count rows
    file_sentences: int  # sentences in the corpus file (0 without a corpus)


class Workload:
    name = ""
    # Set-up probes (one per step, each a fresh process) run before each
    # repetition, so set-up is timed across the whole run.
    setup_probes_per_rep = 1

    def generate(self, seed: int, where: Path) -> Inputs:
        raise NotImplementedError

    def steps(self, inp: Inputs, out: Path, seed: int) -> list[list[str]]:
        """argv lists for `python -m coocstat.cli`, run in order."""
        raise NotImplementedError

    def check(self, inp: Inputs, out: Path, seed: int) -> list[str]:
        raise NotImplementedError

    def count_args(self, inp: Inputs, out: Path) -> list[str] | None:
        """Arguments of the plain-count diagnostic, None without a corpus."""
        return None


def _corpus_inputs(
    seed: int, where: Path, n_sentences: int, n_lemmas: int, n_rows: int, top: int,
    n_derived: int, skew: float, attrs_from_lexicon: bool,
) -> Inputs:
    where.mkdir(parents=True, exist_ok=True)
    lex = gen.make_lexicon(seed, n_lemmas, n_rows, top, n_derived, skew)
    corpus = gen.make_corpus(seed, n_sentences, n_lemmas, lex.plant, plant_frac=0.3)
    gen.write_corpus(corpus, where / "corpus.tsv")
    gen.write_lexicon(lex, where / "lexicon.tsv")
    gen.write_derivations(lex, where / "derivations.tsv")
    keys = gen.lexicon_keys(lex) if attrs_from_lexicon else gen.vocab_keys(corpus)
    gen.write_lemma_attrs(seed, keys, where / "lemma_attrs.tsv")
    return Inputs(where, corpus, corpus.token_lines, len(corpus.offsets) - 1)


class ZipfAll(Workload):
    name = "zipf-all"
    setup_probes_per_rep = 2

    def generate(self, seed, where):
        # --lemma-attrs covers the whole vocabulary, so the UNR universe is large.
        return _corpus_inputs(seed, where, n_sentences=12_000, n_lemmas=20_000,
                              n_rows=4_000, top=20_000, n_derived=150, skew=0.6,
                              attrs_from_lexicon=False)

    def steps(self, inp, out, seed):
        d = inp.dir
        return [[
            "all", "--corpus", str(d / "corpus.tsv"), "--lexicon", str(d / "lexicon.tsv"),
            "--derivations", str(d / "derivations.tsv"),
            "--lemma-attrs", str(d / "lemma_attrs.tsv"),
            "--out", str(out), "--seed", str(seed), "--unr-n", "4000",
        ]]

    def check(self, inp, out, seed):
        return check.check_counts(inp.truth, out, seed) + check.check_report(out)

    def count_args(self, inp, out):
        return ["--corpus", str(inp.dir / "corpus.tsv"), "--pairs", str(out / "pairs.tsv")]


class DenseChain(Workload):
    name = "dense-chain"

    def generate(self, seed, where):
        # Many pairs spread evenly over the most frequent lemmas, so every
        # sentence touches many pair slots; attributes only for lexicon
        # lemmas, so the UNR universe stays small.
        return _corpus_inputs(seed, where, n_sentences=5_000, n_lemmas=3_000,
                              n_rows=20_000, top=800, n_derived=300, skew=0.0,
                              attrs_from_lexicon=True)

    def steps(self, inp, out, seed):
        d = inp.dir
        corpus, lexicon = str(d / "corpus.tsv"), str(d / "lexicon.tsv")
        return [
            ["extract-pairs", "--lexicon", lexicon, "--corpus", corpus,
             "--derivations", str(d / "derivations.tsv"),
             "--out", str(out / "pairs.tsv"), "--out-derived", str(out / "derived.tsv")],
            ["sample-unrelated", "--corpus", corpus, "--lexicon", lexicon,
             "--lemma-attrs", str(d / "lemma_attrs.tsv"), "--n", "2000",
             "--seed", str(seed), "--out", str(out / "unr.tsv")],
            ["count", "--corpus", corpus, "--pairs", str(out / "pairs.tsv"),
             str(out / "unr.tsv"), "--out", str(out / "obs")],
            ["metrics", "--obs", str(out / "obs"), "--out", str(out / "stats.tsv")],
            ["report", "--stats", str(out / "stats.tsv"), "--derived", str(out / "derived.tsv"),
             "--out", str(out / "report")],
        ]

    def check(self, inp, out, seed):
        return (check.check_counts(inp.truth, out / "obs", seed)
                + check.check_report(out / "report"))

    def count_args(self, inp, out):
        return ["--corpus", str(inp.dir / "corpus.tsv"),
                "--pairs", str(out / "pairs.tsv"), str(out / "unr.tsv")]


class Rescore(Workload):
    name = "rescore"
    setup_probes_per_rep = 1

    def generate(self, seed, where):
        cd = gen.make_count_dir(seed, n_pairs=30_000, mean_events=14, n=6_000_000)
        gen.write_count_dir(cd, where / "counts")
        return Inputs(where, cd, len(cd.w) + len(cd.ev_sid), 0)

    def steps(self, inp, out, seed):
        return [
            ["metrics", "--obs", str(inp.dir / "counts"), "--out", str(out / "stats.tsv")],
            ["report", "--stats", str(out / "stats.tsv"), "--out", str(out / "report")],
        ]

    def check(self, inp, out, seed):
        return (check.check_stats(inp.truth, out / "stats.tsv", seed)
                + check.check_report(out / "report"))


WORKLOADS = {w.name: w for w in (ZipfAll(), DenseChain(), Rescore())}
