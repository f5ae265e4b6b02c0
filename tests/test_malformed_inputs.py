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

import reference
from coocstat import lexicon, metrics
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


# The headerless input files, their readers and the row-by-row reference
# readers, a good row of each, and edits of its fields, each making the row
# fail one check, in the order the reference checks a row.
HEADERLESS = {
    "lexicon.tsv": (lexicon.load_lexicon, reference.load_lexicon, "x\tNOUN\ty\tHYP\tb\t1\t5\t5\t\t", [
        {0: ""}, {1: "NOUNS"}, {2: ""}, {3: "MER"}, {2: "X"}, {4: "c"}, {3: "ANT"}, {5: ""},
        {5: "x"}, {5: "-1"}, {6: "+5"}, {7: "+5"}, {8: "FOO"}, {9: "MWE,FOO"},
    ]),
    "lemma_attrs.tsv": (lexicon.load_lemma_attrs, reference.load_lemma_attrs, "x\tNOUN\t5\t", [
        {0: ""}, {1: "X"}, {0: "Appear", 1: "verb"}, {2: "five"}, {3: "FOO"},
    ]),
    "derivations.tsv": (lexicon.load_derivations, reference.load_derivations, "x\tADJ\ty\tADV", [
        {0: ""}, {1: "X"}, {2: ""}, {3: "X"}, {2: "X", 3: "adj"},
    ]),
    "verb_classes.tsv": (lexicon.load_verb_classes, reference.load_verb_classes, "x\tlinking", [
        {0: ""}, {1: "modal"},
    ]),
}


def _edited(row: str, *edits: dict[int, str]) -> str:
    fields = row.split("\t")
    for edit in edits:
        for column, text in edit.items():
            fields[column] = text
    return "\t".join(fields)


def _loaded(load, path: str) -> object:
    """What `load` reads from `path`, dicts as their items in order, or the
    message of the `ValueError` it raises."""
    try:
        result = load(path)
    except ValueError as exc:
        return str(exc)
    return list(result.items()) if isinstance(result, dict) else result


@pytest.mark.parametrize("name", HEADERLESS)
def test_headerless_readers_match_the_row_by_row_reference(work, tmp_path, name):
    # Every mutation of the gate; every two faults of a row on one line,
    # where the check that runs first wins; the last check's fault on a
    # line before the first check's, and after; and blank, whitespace-only
    # and comment lines before a bad row.
    load, load_reference, good, edits = HEADERLESS[name]
    text = (work / name).read_text(encoding="utf-8")
    lines = text.splitlines()
    late, early = _edited(good, edits[-1]), _edited(good, edits[0])
    skipped = ["", " \t", "# a comment\twith a tab", "#"]
    cases = _cases(name, text) + [
        (f"faults-{i}-{j}", [*lines[:2], _edited(good, edits[i], edits[j]), *lines[2:]])
        for i, j in itertools.permutations(range(len(edits)), 2)
        if edits[i].keys().isdisjoint(edits[j])
    ] + [
        ("late-then-early", [*lines[:2], late, *lines[2:4], early, *lines[4:]]),
        ("early-then-late", [*lines[:2], early, *lines[2:4], late, *lines[4:]]),
        ("skipped-then-bad", [*lines[:3], *skipped, early, *lines[3:]]),
        ("skipped-at-the-end", [*lines, good, *skipped]),
    ]
    path = tmp_path / name
    outcomes = set()
    for case, data in cases:
        path.write_bytes(data if isinstance(data, bytes) else "\n".join(data).encode())
        want = _loaded(load_reference, str(path))
        assert _loaded(load, str(path)) == want, case
        outcomes.add(type(want))
    assert outcomes == {str, list}


def _stats_columns(read):
    """`read` of a `stats.tsv` path, as its columns: lists, and each array
    as its type and bytes."""
    def load(path: str) -> list:
        table = read(path)
        columns = [getattr(table, name) for name in metrics.STATS.columns]
        return [c if isinstance(c, list) else (c.dtype.str, c.tobytes()) for c in columns]

    return load


# A co-occurring HOL row with a head that no toy pair has, a flag fault of
# each flag column, and faults that a check before or after each flag's
# finds: a bad label, a bad float and a required field left empty.
STATS_ROW = "xq\tyq\tNOUN\tHOL\t3.5\t1\t0.5\t1\t0.01\t2.0\t4\tw\t0.5\t1\t0.01\t"
FLAG_FAULTS = [{5: "2"}, {7: "x"}, {13: "yes"}]
OTHER_FAULTS = [
    {2: "XYZ"}, {3: "FOO"}, {4: "x"}, {6: "1e400"}, {12: "-"}, {15: "+1.0"}, {8: ""}, {14: ""},
]


def test_stats_reader_matches_the_row_by_row_reference(work, tmp_path):
    # Every mutation of the gate; a flag fault with each other fault on one
    # line, where the check that runs first wins; and an undirected pair
    # with only an asymmetric order flag.
    text = (work / "stats.tsv").read_text(encoding="utf-8")
    lines = text.splitlines()
    undirected = _edited(STATS_ROW, {3: "ANT", 11: "", 12: "", 14: ""})
    cases = _cases("stats.tsv", text) + [
        (f"faults-{flag}-{other}", [*lines[:2], _edited(STATS_ROW, flag, other), *lines[2:]])
        for flag, other in itertools.product(FLAG_FAULTS, OTHER_FAULTS)
    ] + [
        ("good-row", [*lines, STATS_ROW]),
        ("undirected-with-asym-order-pref", [*lines[:2], undirected, *lines[2:]]),
    ]
    path = tmp_path / "stats.tsv"
    load = _stats_columns(metrics.read_pair_stats)
    load_reference = _stats_columns(reference.read_pair_stats)
    outcomes = set()
    for case, data in cases:
        path.write_bytes(data if isinstance(data, bytes) else "\n".join(data).encode())
        want = _loaded(load_reference, str(path))
        assert _loaded(load, str(path)) == want, case
        outcomes.add(type(want))
    assert outcomes == {str, list}
