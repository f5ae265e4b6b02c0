"""A seeded gate over malformed inputs: mutations of the toy inputs and of
an `all` run's files, each run through `cli.main` with the cheapest
subcommand that reads the file, must end in exit status 0, or in exit
status 1 with exactly one `error: ` line on stderr.  A traceback, or a
warning (which the test settings turn into an error), fails the gate."""

from __future__ import annotations

import gzip
import itertools
import random
import shutil
from pathlib import Path

import pytest

from coocstat.cli import DEFAULT_VERB_CLASSES, main, run_pipeline
from conftest import TOY_PATHS
from test_cli import toy_config
from test_tsv import ASYM_CASES, byte_mutations, mutations

SEED = 17


def _commands(name: str, w: Path) -> list[list[str]]:
    """The cheapest subcommand that reads `name` from the work directory
    `w`, which holds every input and every file of the `all` run, and for
    the verb word list also the cheapest one that applies it to controls."""
    out = str(w / "out")
    extract = ["extract-pairs", "--lexicon", str(w / "lexicon.tsv"),
               "--corpus-freqs", str(w / "corpus_freqs.tsv"), "--out", f"{out}/pairs.tsv"]
    sample = ["sample-unrelated", "--corpus", str(w / "corpus.tsv"),
              "--lexicon", str(w / "lexicon.tsv"), "--lemma-attrs", str(w / "lemma_attrs.tsv"),
              "--n", "20", "--seed", "7", "--out", f"{out}/unr.tsv"]
    if name == "verb_classes.tsv":
        return [argv + ["--verb-classes", str(w / name)] for argv in (extract, sample)]
    return [{
        "corpus.tsv": ["extract-pairs", "--lexicon", str(w / "lexicon.tsv"),
                       "--corpus", str(w / "corpus.tsv"), "--out", f"{out}/pairs.tsv"],
        "corpus.tsv.gz": ["extract-pairs", "--lexicon", str(w / "lexicon.tsv"),
                          "--corpus", str(w / "corpus.tsv.gz"), "--out", f"{out}/pairs.tsv"],
        "lexicon.tsv": extract,
        "derivations.tsv": extract + ["--derivations", str(w / "derivations.tsv"),
                                      "--out-derived", f"{out}/derived.tsv"],
        "corpus_freqs.tsv": extract,
        "lemma_attrs.tsv": sample,
        "pairs.tsv": ["count", "--corpus", str(w / "corpus.tsv"),
                      "--pairs", str(w / "pairs.tsv"), "--out", f"{out}/counts"],
        "observations.tsv": ["metrics", "--obs", str(w), "--out", f"{out}/stats.tsv"],
        "events.tsv": ["metrics", "--obs", str(w), "--out", f"{out}/stats.tsv"],
        "stats.tsv": ["report", "--stats", str(w / "stats.tsv"), "--out", f"{out}/report"],
        "derived_pairs.tsv": ["report", "--stats", str(w / "stats.tsv"),
                              "--derived", str(w / "derived_pairs.tsv"),
                              "--out", f"{out}/report"],
        "manifest.json": ["all", "--from-manifest", str(w / "manifest.json"),
                          "--out", f"{out}/rerun"],
    }[name]]


TARGETS = (
    "corpus.tsv", "corpus.tsv.gz", "lexicon.tsv", "derivations.tsv", "lemma_attrs.tsv",
    "verb_classes.tsv", "pairs.tsv", "derived_pairs.tsv", "observations.tsv",
    "events.tsv", "stats.tsv", "corpus_freqs.tsv", "manifest.json",
)


def _cases(name: str, text: str) -> list[tuple[str, bytes]]:
    """The seeded mutations of the file `name` whose text is `text`, and for
    `stats.tsv` also the asymmetric order edits of `ASYM_CASES`; the
    ``.gz`` corpus gets those of its text, compressed, and byte flips and
    cuts of its compressed bytes."""
    rng = random.Random(f"{SEED}-{name}")
    cases = mutations(text, rng, flips=4, cuts=2, line_edits=2, field_edits=2, odd_fields=4)
    cases += [
        (case, "".join(line + "\n" for line in edit(text.splitlines())).encode("utf-8"))
        for case, names, edit, _ in ASYM_CASES if name in names
    ]
    if name.endswith(".gz"):
        data = gzip.compress(text.encode("utf-8"), mtime=0)
        cases = [(case, gzip.compress(case_data, mtime=0)) for case, case_data in cases]
        cases += [(f"gzip-{case}", flipped) for case, flipped in byte_mutations(data, rng, 4, 2)]
    return cases


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    """A directory with the toy inputs, the bundled verb classes and the
    files of one toy `all` run."""
    w = tmp_path_factory.mktemp("inputs")
    run_pipeline(toy_config(TOY_PATHS, w))
    (w / "out").mkdir()
    for name in ("corpus", "lexicon", "derivations", "lemma_attrs"):
        shutil.copy(TOY_PATHS[name], w / f"{name}.tsv")
    shutil.copy(DEFAULT_VERB_CLASSES, w / "verb_classes.tsv")
    (w / "corpus.tsv.gz").write_bytes(
        gzip.compress((w / "corpus.tsv").read_bytes(), mtime=0)
    )
    return w


@pytest.mark.parametrize("name", TARGETS)
def test_mutated_input_exits_cleanly(work, capsys, name):
    path = work / name
    original = path.read_bytes()
    text = (gzip.decompress(original) if name.endswith(".gz") else original).decode("utf-8")
    commands = _commands(name, work)
    for argv in commands:
        assert main(argv) == 0, capsys.readouterr().err  # the file as written loads
    capsys.readouterr()
    failures = []
    try:
        for (case, data), argv in itertools.product(_cases(name, text), commands):
            path.write_bytes(data)
            try:
                status = main(argv)
            except (Exception, SystemExit) as exc:
                failures.append(f"{case} ({argv[0]}): {type(exc).__name__}: {exc}")
                continue
            err = capsys.readouterr().err
            errors = [line for line in err.splitlines() if line.startswith("error: ")]
            if (status, len(errors)) not in ((0, 0), (1, 1)):
                failures.append(f"{case} ({argv[0]}): exit {status}, stderr {err!r}")
    finally:
        path.write_bytes(original)
    assert not failures, failures
