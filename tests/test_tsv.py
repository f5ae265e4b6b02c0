"""Malformed intermediate files: every reader raises ValueError naming the
file line at fault, and every subcommand turns that into `error:` and
exit status 1."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coocstat import counting, lexicon, metrics
from coocstat.cli import main, run_pipeline
from conftest import TOY_PATHS, pair
from test_cli import toy_config

# Each file the pipeline reads back, with the reader that loads it and a
# subcommand whose first read it is.
READERS = {
    "pairs.tsv": lambda d: lexicon.read_pairs(str(d / "pairs.tsv")),
    "derived_pairs.tsv": lambda d: lexicon.read_derived_map(
        str(d / "derived_pairs.tsv")
    ),
    "observations.tsv": lambda d: counting.read_observations(
        str(d / "observations.tsv"), str(d / "events.tsv")
    ),
    "corpus_freqs.tsv": lambda d: counting.read_lemma_freqs(
        str(d / "corpus_freqs.tsv")
    ),
    "stats.tsv": lambda d: metrics.read_pair_stats(str(d / "stats.tsv")),
}
READERS["events.tsv"] = READERS["observations.tsv"]

COMMANDS = {
    "pairs.tsv": lambda d: [
        "count", "--corpus", TOY_PATHS["corpus"], "--pairs", str(d / "pairs.tsv"),
        "--out", str(d / "out"),
    ],
    "derived_pairs.tsv": lambda d: [
        "report", "--stats", str(d / "stats.tsv"),
        "--derived", str(d / "derived_pairs.tsv"), "--out", str(d / "out"),
    ],
    "observations.tsv": lambda d: [
        "metrics", "--obs", str(d), "--out", str(d / "out.tsv"),
    ],
    "corpus_freqs.tsv": lambda d: [
        "extract-pairs", "--lexicon", TOY_PATHS["lexicon"],
        "--corpus-freqs", str(d / "corpus_freqs.tsv"), "--out", str(d / "out.tsv"),
    ],
    "stats.tsv": lambda d: [
        "report", "--stats", str(d / "stats.tsv"), "--out", str(d / "out"),
    ],
}
COMMANDS["events.tsv"] = COMMANDS["observations.tsv"]

# The first integer column of each file that has one.
INT_COLUMN = {
    "observations.tsv": 5, "events.tsv": 4, "corpus_freqs.tsv": 2, "stats.tsv": 10,
}


def _edit_row(edit, index: int = 1):
    """An edit of one data row, by default the first (file line 2)."""
    return lambda lines: (
        lines[:index] + [edit(lines[index].split("\t"))] + lines[index + 1:]
    )


def _set_field(index: int, value: str):
    return _edit_row(lambda f: "\t".join(f[:index] + [value] + f[index + 1:]))


def _repeat_first_row(lines: list[str]) -> list[str]:
    return lines[:2] + lines[1:]


# (case, files, edit of the file's lines, line named in the error or None)
CASES = [
    ("wrong-header", list(READERS), lambda lines: ["lemma\tpos"] + lines[1:], 1),
    # One field short: for stats.tsv, the 15-column layout without pmi.
    ("short-row", list(READERS), _edit_row(lambda f: "\t".join(f[:-1])), 2),
    # Two fields: shorter than any decoder indexes.
    ("truncated-row", list(READERS), _edit_row(lambda f: "\t".join(f[:2])), 2),
    ("long-row", list(READERS), _edit_row(lambda f: "\t".join(f + ["0"])), 2),
    *[("bad-int", [name], _set_field(i, "x"), 2) for name, i in INT_COLUMN.items()],
    ("bad-flag", ["stats.tsv"], _set_field(5, "yes"), 2),
    # Stats rows: order_p and mean_dist exactly when n_cooc > 0 (the first
    # toy row co-occurs and is significant).
    ("co-occurring-without-mean-dist", ["stats.tsv"], _set_field(9, ""), 2),
    ("co-occurring-without-order-p", ["stats.tsv"], _set_field(8, ""), 2),
    ("no-co-occurrence-with-order", ["stats.tsv"], _set_field(10, "0"), 2),
    ("unknown-pair", ["events.tsv"], _set_field(0, "nosuchlemma"), 2),
    ("event-count-mismatch", ["events.tsv"], lambda lines: lines[:1] + lines[2:], None),
    # Observation rows: cells >= 0 that sum to n, and one n for all rows.
    ("negative-cell", ["observations.tsv"], _edit_row(lambda f: "\t".join(
        f[:6] + ["-1", f[7], str(int(f[8]) + int(f[6]) + 1), f[9]]
    )), 2),
    ("cells-not-summing-to-n", ["observations.tsv"], _set_field(9, "50"), 2),
    ("n-differs-between-rows", ["observations.tsv"], _edit_row(lambda f: "\t".join(
        f[:8] + [str(int(f[8]) + 1), str(int(f[9]) + 1)]
    ), index=2), 3),
    # A copy of the first data row as line 3.
    ("duplicate-pair", ["observations.tsv"], _repeat_first_row, 3),
    # Event rows: values >= 0 that fit int64, pos_w != pos_v, and at most
    # one event per sentence for each pair (a copy of a row repeats both).
    *[(f"negative-{column}", ["events.tsv"], _set_field(i, "-1"), 2)
      for i, column in enumerate(("sentence-id", "pos-w", "pos-v"), start=4)],
    ("equal-positions", ["events.tsv"], _edit_row(lambda f: "\t".join(f[:6] + [f[5]])), 2),
    ("repeated-sentence", ["events.tsv"], _repeat_first_row, 3),
    ("out-of-int64-range", ["events.tsv"], _set_field(4, str(2 ** 63)), 2),
]


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("toy")
    run_pipeline(toy_config(TOY_PATHS, out))
    return out


def _copy_with(toy_run: Path, dest: Path, name: str, lines: list[str]) -> Path:
    shutil.copytree(toy_run, dest)
    (dest / name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return dest


@pytest.mark.parametrize(
    "case,name,edit,line_no",
    [
        pytest.param(case, name, edit, line_no, id=f"{case}-{name}")
        for case, names, edit, line_no in CASES
        for name in names
    ],
)
def test_malformed_file(toy_run, tmp_path, capsys, case, name, edit, line_no):
    lines = (toy_run / name).read_text(encoding="utf-8").splitlines()
    d = _copy_with(toy_run, tmp_path / "run", name, edit(lines))
    with pytest.raises(ValueError) as err:
        READERS[name](d)
    message = str(err.value)
    assert message.startswith(str(d / name))
    if line_no is not None:
        assert f" line {line_no}: " in message

    assert main(COMMANDS[name](d)) == 1
    assert capsys.readouterr().err.startswith(f"error: {d / name}")


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(READERS)),
    cut=st.floats(min_value=0.0, max_value=1.0),
    row=st.integers(min_value=0),
    garbage=st.text(max_size=12),
)
def test_damaged_file_loads_or_raises_value_error(
    toy_run, tmp_path_factory, name, cut, row, garbage
):
    """A file cut short anywhere, with one line replaced by arbitrary text,
    either still loads or raises ValueError."""
    lines = (toy_run / name).read_text(encoding="utf-8").splitlines()
    lines = lines[: round(cut * len(lines))]
    if lines:
        lines[row % len(lines)] = garbage
    d = _copy_with(toy_run, tmp_path_factory.mktemp("damaged") / "run", name, lines)
    try:
        READERS[name](d)
    except ValueError as exc:
        assert str(exc).startswith(str(d / ""))


def test_invalid_utf8_names_the_file(toy_run, tmp_path):
    d = shutil.copytree(toy_run, tmp_path / "run")
    n_lines = len((d / "pairs.tsv").read_bytes().splitlines())
    with open(d / "pairs.tsv", "ab") as handle:
        handle.write(b"a\tb\tNOUN\tANT\t\xff\n")
    with pytest.raises(ValueError, match="can't decode") as err:
        lexicon.read_pairs(str(d / "pairs.tsv"))
    assert str(err.value).startswith(f"{d / 'pairs.tsv'} line {n_lines + 1}: ")


@pytest.mark.parametrize("value", ["x", str(2 ** 63)])
def test_bad_event_value_deep_in_a_long_file_names_its_line(tmp_path, value):
    # NumPy parses the integers in chunks; the line it fails on is still
    # named by its place in the whole file.
    m = 70_000
    events = np.zeros((m, 3), dtype=np.int64)
    events[:, 0] = np.arange(m)
    events[:, 2] = 1
    p = pair("a", "b")
    table = counting.ContingencyTable(m, 0, 0, 0, m)
    result = counting.CountResult({p: counting.PairObservations(p, table, events)}, m, ())
    counting.write_observations(
        result, str(tmp_path / "observations.tsv"), str(tmp_path / "events.tsv")
    )
    assert READERS["events.tsv"](tmp_path).observations[p].events.tolist() == events.tolist()
    lines = (tmp_path / "events.tsv").read_text(encoding="utf-8").splitlines()
    fields = lines[60_001].split("\t")  # file line 60,002
    lines[60_001] = "\t".join(fields[:4] + [value] + fields[5:])
    (tmp_path / "events.tsv").write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    with pytest.raises(ValueError, match=value) as err:
        READERS["events.tsv"](tmp_path)
    assert str(err.value).startswith(f"{tmp_path / 'events.tsv'} line 60002: ")


def test_crlf_events_load_identically(toy_run, tmp_path):
    d = shutil.copytree(toy_run, tmp_path / "run")
    text = (d / "events.tsv").read_bytes()
    (d / "events.tsv").write_bytes(text.replace(b"\n", b"\r\n"))
    loaded, expected = READERS["events.tsv"](d), READERS["events.tsv"](toy_run)
    assert loaded.n == expected.n
    assert list(loaded.observations) == list(expected.observations)
    for p, obs in expected.observations.items():
        assert loaded.observations[p].table == obs.table
        assert np.array_equal(loaded.observations[p].events, obs.events)


def test_header_only_count_files_load_without_warning(toy_run, tmp_path):
    d = shutil.copytree(toy_run, tmp_path / "run")
    for name in ("observations.tsv", "events.tsv"):
        header = (d / name).read_text(encoding="utf-8").splitlines()[0]
        (d / name).write_text(header + "\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = READERS["events.tsv"](d)
    assert result.observations == {} and result.n == 0


def _with_event_cell(toy_run: Path, dest: Path, column: int, value: str) -> Path:
    """A copy of the toy run whose first event row holds `value` in `column`."""
    lines = (toy_run / "events.tsv").read_text(encoding="utf-8").splitlines()
    fields = lines[1].split("\t")
    fields[column] = value
    lines[1] = "\t".join(fields)
    return _copy_with(toy_run, dest, "events.tsv", lines)


@pytest.mark.parametrize(
    "value", ["5.0", "2.7", "1e3", "5_0", "٥", str(2 ** 63), str(-(2 ** 63) - 1)]
)
def test_non_integer_event_value_rejected_with_warnings_ignored(toy_run, tmp_path, value):
    # The check must not depend on the caller's warning filters, which
    # ignore DeprecationWarning outside the test suite.
    d = _with_event_cell(toy_run, tmp_path / "run", 4, value)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError) as err:
            READERS["events.tsv"](d)
    assert str(err.value).startswith(f"{d / 'events.tsv'} line 2: ")


def test_float_fallback_of_older_numpy_is_rejected(toy_run, tmp_path, monkeypatch):
    # NumPy releases with the deprecated float fallback read "3.0" as 3 and
    # only warn; this stand-in does the same, wrapping a raised warning the
    # way loadtxt wraps any conversion error.
    def loadtxt(lines, dtype, delimiter, usecols, comments, ndmin):
        rows = []
        for r, line in enumerate(lines):
            cells = line.rstrip("\n").split(delimiter)
            for c in usecols:
                if cells[c].isdigit():
                    continue
                try:
                    warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                                  DeprecationWarning)
                except DeprecationWarning as exc:
                    raise ValueError(
                        f"could not convert string {cells[c]!r} to int64 at row {r}, column {c + 1}."
                    ) from exc
            rows.append([int(float(cells[c])) for c in usecols])
        return np.array(rows, dtype=dtype).reshape(-1, len(usecols))

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    assert READERS["events.tsv"](toy_run).n > 0  # the stand-in reads plain integers
    pos_w = (toy_run / "events.tsv").read_text(encoding="utf-8").splitlines()[1].split("\t")[5]
    d = _with_event_cell(toy_run, tmp_path / "run", 5, f"{pos_w}.0")  # the same value as a float
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match=f"'{pos_w}.0'") as err:
            READERS["events.tsv"](d)
    assert str(err.value).startswith(f"{d / 'events.tsv'} line 2: ")


def test_cli_rejects_a_float_event_value(toy_run, tmp_path):
    # A real `coocstat metrics` process, with Python's default warning filters.
    d = _with_event_cell(toy_run, tmp_path / "run", 4, "5.0")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "coocstat.cli", *COMMANDS["events.tsv"](d)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {d / 'events.tsv'} line 2: ")
