"""Malformed intermediate files: every reader raises ValueError naming the
file line at fault, and every subcommand turns that into `error:` and
exit status 1."""

from __future__ import annotations

import gc
import itertools
import os
import random
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from coocstat import counting, lexicon, metrics, tsv
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
# The files that hold pairs, with the column of their (first pair's) head.
HEAD_COLUMN = {
    "pairs.tsv": 4, "derived_pairs.tsv": 4, "observations.tsv": 4, "stats.tsv": 11,
}
# The files read as columns whose reader checks a column of values after
# its label columns: a column checked late and one checked early.
LATE_EARLY_COLUMNS = {"observations.tsv": (9, 4), "stats.tsv": (15, 4)}
# A bad cell, (column, value), in each file read as columns.
BAD_CELL = {
    "pairs.tsv": (3, "FOO"), "derived_pairs.tsv": (8, "FOO"),
    "observations.tsv": (5, "x"), "stats.tsv": (13, "2"),
}


def _edit_row(edit, index: int = 1):
    """An edit of one data row, by default the first (file line 2)."""
    return lambda lines: (
        lines[:index] + [edit(lines[index].split("\t"))] + lines[index + 1:]
    )


def _set_field(index: int, value: str, row: int = 1):
    return _edit_row(lambda f: "\t".join(f[:index] + [value] + f[index + 1:]), row)


def _respell_field(index: int, spell):
    return _edit_row(lambda f: "\t".join(f[:index] + [spell(f[index])] + f[index + 1:]))


# Spellings of an integer that `int` reads as the same value, and no table
# takes.
NON_DECIMAL = {
    "plus-sign": lambda text: "+" + text,
    "padded": lambda text: f" {text} ",
    "underscore": lambda text: "0_" + text,
    "arabic-indic-digits": lambda text: text.translate(
        str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
    ),
}


# Fields that `float` reads as a number and no table takes: not finite, or
# not in the form `repr` writes.
NON_FLOAT = {
    "inf": "inf",
    "overflowing": "1e400",
    "infinity": "Infinity",
    "padded": " 60.07",
    "underscore": "6_0.07",
    "plus-sign": "+60.07",
    "arabic-indic-digits": "١٢",
}


def _repeat_first_row(lines: list[str]) -> list[str]:
    return lines[:2] + lines[1:]


def _swap_first_runs(lines: list[str]) -> list[str]:
    """The first two pairs' runs of event lines in the other order."""
    keys = [line.split("\t")[:4] for line in lines[1:]]
    a = keys.count(keys[0])
    b = a + keys.count(keys[a])
    return lines[:1] + lines[1 + a:1 + b] + lines[1:1 + a] + lines[1 + b:]


def _then(*edits):
    def edit(lines):
        for one in edits:
            lines = one(lines)
        return lines

    return edit


# A file that still loads, to the same result as the toy run's.
LOADS = "loads"

# Stats rows: the asym_* fields exactly when the pair is HYP or HOL, has a
# head and co-occurs.  The first toy row is ANT; line 13 is a co-occurring
# HOL pair with head w.
ASYM_CASES = [
    ("undirected-with-asym-order", ["stats.tsv"], _edit_row(lambda f: "\t".join(
        f[:12] + ["0.5", "1", "0.001"] + f[15:]
    )), 2),
    *[(f"directed-without-{column}", ["stats.tsv"], _set_field(i, "", row=12), 13)
      for i, column in ((12, "asym-order-score"), (13, "asym-order-pref"), (14, "asym-order-p"))],
    ("headless-with-asym-order", ["stats.tsv"], _set_field(11, "", row=12), 13),
]

# (case, files, edit of the file's lines, line named in the error or that
# line and the error's text, None, or LOADS)
CASES = [
    ("wrong-header", list(READERS), lambda lines: ["lemma\tpos"] + lines[1:], 1),
    # One field short: for stats.tsv, the 15-column layout without pmi.
    ("short-row", list(READERS), _edit_row(lambda f: "\t".join(f[:-1])), 2),
    # Two fields: shorter than any decoder indexes.
    ("truncated-row", list(READERS), _edit_row(lambda f: "\t".join(f[:2])), 2),
    ("long-row", list(READERS), _edit_row(lambda f: "\t".join(f + ["0"])), 2),
    *[("bad-int", [name], _set_field(i, "x"), 2) for name, i in INT_COLUMN.items()],
    *[(f"{form}-int", [name], _respell_field(i, spell), 2)
      for name, i in INT_COLUMN.items() for form, spell in NON_DECIMAL.items()],
    ("bad-flag", ["stats.tsv"], _set_field(5, "yes"), 2),
    # Stats rows: order_p and mean_dist exactly when n_cooc > 0 (the first
    # toy row co-occurs and is significant).
    ("co-occurring-without-mean-dist", ["stats.tsv"], _set_field(9, ""), 2),
    ("co-occurring-without-order-p", ["stats.tsv"], _set_field(8, ""), 2),
    ("no-co-occurrence-with-order", ["stats.tsv"], _set_field(10, "0"), 2),
    *ASYM_CASES,
    ("unknown-pair", ["events.tsv"], _set_field(0, "nosuchlemma"), 2),
    # One event fewer for the first pair, named by its observations.tsv line.
    ("event-count-mismatch", ["events.tsv"], lambda lines: lines[:1] + lines[2:], 2),
    # Observation rows: cells >= 0 that sum to n, and one n for all rows.
    ("negative-cell", ["observations.tsv"], _edit_row(lambda f: "\t".join(
        f[:6] + ["-1", f[7], str(int(f[8]) + int(f[6]) + 1), f[9]]
    )), 2),
    ("cells-not-summing-to-n", ["observations.tsv"], _set_field(9, "50"), 2),
    # Cells whose sum is n + 2**64, which int64 arithmetic would wrap to n.
    ("cells-summing-past-int64", ["observations.tsv"], _edit_row(lambda f: "\t".join(
        f[:6] + [str(2 ** 63 - 1)] * 2 + [str(int(f[9]) - int(f[5]) + 2), f[9]]
    )), 2),
    ("n-differs-between-rows", ["observations.tsv"], _edit_row(lambda f: "\t".join(
        f[:8] + [str(int(f[8]) + 1), str(int(f[9]) + 1)]
    ), index=2), 3),
    # A copy of the first data row as line 3.
    ("duplicate-pair", ["observations.tsv", "stats.tsv"], _repeat_first_row, 3),
    # Pair rows: two distinct non-empty lemmas, pos in CONTENT_POS, relation
    # in RELATIONS, head w, v or empty.
    ("empty-lemma", list(HEAD_COLUMN), _set_field(0, ""), 2),
    ("identical-lemmas", list(HEAD_COLUMN), _edit_row(lambda f: "\t".join([f[1]] + f[1:])), 2),
    ("unknown-relation", list(HEAD_COLUMN), _set_field(3, "FOO"), 2),
    ("unknown-pos", list(HEAD_COLUMN), _set_field(2, "XYZ"), 2),
    *[("bad-head", [name], _set_field(i, "x"), 2) for name, i in HEAD_COLUMN.items()],
    # Of two faults on one row, the first in the order above is named; an
    # earlier row is named whatever the order of its fault.
    ("empty-lemma-and-unknown-pos", list(HEAD_COLUMN),
     _then(_set_field(0, ""), _set_field(2, "XYZ")), (2, "empty lemma")),
    *[("unknown-relation-and-bad-head", [name], _then(_set_field(3, "FOO"), _set_field(i, "x")),
       (2, "unknown relation 'FOO'")) for name, i in HEAD_COLUMN.items()],
    *[("bad-head-before-empty-lemma", [name],
       _then(_set_field(i, "x"), _set_field(0, "", row=2)),
       (2, "unknown head 'x' (expected w, v or empty)")) for name, i in HEAD_COLUMN.items()],
    # Columns are converted whole; the earlier line is still the one named,
    # whatever the columns of its fault and of a later line's.
    *[("bad-cells-in-two-columns", [name], _then(
        _set_field(late, "x", row=1), _set_field(early, "x", row=2),
    ), 2) for name, (late, early) in LATE_EARLY_COLUMNS.items()],
    *[("bad-cell-before-short-row", [name], _then(
        _set_field(column, value, row=1),
        _edit_row(lambda f: "\t".join(f[:-1]), index=2),
    ), 2) for name, (column, value) in BAD_CELL.items()],
    ("nan-value", ["stats.tsv"], _set_field(4, "nan"), 2),
    # In g2, and in order_p, where an empty field is allowed.
    *[(f"{form}-float", ["stats.tsv"], _set_field(4, value), 2)
      for form, value in NON_FLOAT.items()],
    *[(f"{form}-optional-float", ["stats.tsv"], _set_field(8, value), 2)
      for form, value in NON_FLOAT.items()],
    ("negative-count", ["stats.tsv"], _set_field(10, "-1"), 2),
    # Lemma frequencies: counts >= 0, a lemma and PoS listed once, and a
    # PoS that `scan_corpus` counts.
    ("negative-count", ["corpus_freqs.tsv"], _set_field(2, "-5"), 2),
    ("duplicate-lemma", ["corpus_freqs.tsv"], _repeat_first_row, 3),
    ("unknown-pos", ["corpus_freqs.tsv"], _set_field(1, "PUNCT"), 2),
    # Event rows: values >= 0 that fit int64, pos_w != pos_v, and at most
    # one event per sentence for each pair (a copy of a row repeats both).
    *[(f"negative-{column}", ["events.tsv"], _set_field(i, "-1"), 2)
      for i, column in enumerate(("sentence-id", "pos-w", "pos-v"), start=4)],
    ("equal-positions", ["events.tsv"], _edit_row(lambda f: "\t".join(f[:6] + [f[5]])), 2),
    ("repeated-sentence", ["events.tsv"], _repeat_first_row, 3),
    ("out-of-int64-range", ["events.tsv"], _set_field(4, str(2 ** 63)), 2),
    # An event row's value checks run after the rows are read, which ends
    # at an unknown pair or a wrong field count; line 2 is still named.
    ("negative-sentence-id-before-unknown-pair", ["events.tsv"], _then(
        _set_field(4, "-1"), _set_field(0, "nosuchlemma", row=5),
    ), 2),
    ("equal-positions-before-short-row", ["events.tsv"], _then(
        _edit_row(lambda f: "\t".join(f[:6] + [f[5]])),
        _edit_row(lambda f: "\t".join(f[:-1]), index=7),
    ), 2),
    # The rows stop at the bad integer on line 8; the rows before it are
    # still checked.
    ("negative-pos-w-before-bad-int", ["events.tsv"], _then(
        _set_field(5, "-1"), _set_field(4, "x", row=7),
    ), 2),
    # Events out of pair order are sorted back into it.
    ("swapped-runs", ["events.tsv"], _swap_first_runs, LOADS),
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
    if line_no == LOADS:
        loaded, expected = READERS[name](d), READERS[name](toy_run)
        assert (loaded.pairs, loaded.n) == (expected.pairs, expected.n)
        assert np.array_equal(loaded.cells, expected.cells)
        assert np.array_equal(loaded.events, expected.events)
        assert main(COMMANDS[name](d)) == 0
        return
    with pytest.raises(ValueError) as err:
        READERS[name](d)
    message = str(err.value)
    assert message.startswith(str(d / name))
    if line_no is not None:
        line_no, text = line_no if isinstance(line_no, tuple) else (line_no, "")
        assert f" line {line_no}: {text}" in message

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
    # Under each of the three line ends, the line and the position in it.
    d = shutil.copytree(toy_run, tmp_path / "run")
    shutil.copy(TOY_PATHS["lexicon"], d / "lexicon.tsv")
    readers = {**READERS, "lexicon.tsv": lambda d: lexicon.load_lexicon(str(d / "lexicon.tsv"))}
    for name in ("pairs.tsv", "events.tsv", "stats.tsv", "lexicon.tsv"):
        lines = (d / name).read_bytes().splitlines()
        lines[2] = b"\xff" + lines[2]
        for end in (b"\n", b"\r\n", b"\r"):
            (d / name).write_bytes(b"".join(line + end for line in lines))
            with pytest.raises(ValueError) as err:
                readers[name](d)
            assert str(err.value) == (
                f"{d / name} line 3: 'utf-8' codec can't decode byte 0xff in position 0: "
                "invalid start byte"
            ), (name, end)


@pytest.mark.parametrize(
    "where,message",
    [
        ("middle", "line 3: 'utf-8' codec can't decode byte 0xc3 in position 29: "
                   "invalid continuation byte"),
        ("end", "line 32: 'utf-8' codec can't decode byte 0xc3 in position 33: "
                "unexpected end of data"),
    ],
)
def test_cut_character_in_the_lexicon(tmp_path, where, message):
    # A character cut short by its line's end reads as a bad continuation
    # byte; on a last line without an end, as data that ends too soon.
    lines = Path(TOY_PATHS["lexicon"]).read_bytes().splitlines()
    row = 2 if where == "middle" else len(lines) - 1
    lines[row] += b"\xc3"
    path = tmp_path / "lexicon.tsv"
    path.write_bytes(b"\n".join(lines) + (b"\n" if where == "middle" else b""))
    with pytest.raises(ValueError) as err:
        lexicon.load_lexicon(str(path))
    assert str(err.value) == f"{path} {message}"


def test_bad_byte_comes_before_a_wrong_header(toy_run, tmp_path):
    # Also past the first 8 KiB, where a text-mode read would decode only
    # after it had read the header.
    d = shutil.copytree(toy_run, tmp_path / "run")
    lines = (d / "observations.tsv").read_bytes().splitlines()
    lines = [b"lemma\tpos"] + lines[1:] * (9000 // len(b"\n".join(lines)) + 2)
    assert len(b"\n".join(lines[:-1])) > 8192
    lines[-1] = b"\xff" + lines[-1]
    (d / "observations.tsv").write_bytes(b"".join(line + b"\n" for line in lines))
    with pytest.raises(ValueError) as err:
        READERS["observations.tsv"](d)
    assert str(err.value) == (
        f"{d / 'observations.tsv'} line {len(lines)}: "
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    )


@pytest.mark.parametrize("value", ["x", str(2 ** 63)])
def test_bad_event_value_deep_in_a_long_file_names_its_line(tmp_path, value):
    # The file is read in blocks; the line a fault is on is still named by
    # its place in the whole file.
    m = 70_000
    events = np.zeros((m, 3), dtype=np.int64)
    events[:, 0] = np.arange(m)
    events[:, 2] = 1
    p = pair("a", "b")
    result = counting.CountResult(
        *lexicon.pair_columns([p]), np.array([[m, 0, 0, 0]]), events, m, ()
    )
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


_FIELDS = st.one_of(
    st.integers(-(2 ** 64), 2 ** 64).map(str),
    st.integers(-(2 ** 64), 2 ** 64).map(lambda n: f"{n:025d}"),
    st.text(alphabet="0123456789-+ x\u0665\r", max_size=25),
)


@settings(max_examples=200, deadline=None)
@given(column=st.lists(_FIELDS, max_size=30))
def test_int64s_matches_the_per_field_rule(column):
    faults = tsv.Faults("x")
    values = tsv.int64s(column, faults)
    assert (values.tolist(), faults.found) == reference.int64s(column)


@settings(max_examples=300)
@given(_FIELDS)
def test_decimal_matches_the_reference(text):
    want = reference._integer(text)
    if want is None:
        with pytest.raises(ValueError, match="^not a decimal integer: "):
            tsv.decimal(text)
    else:
        assert tsv.decimal(text) == want


_FLOAT_FIELDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from([
        "", "1e400", "-1e400", "nan", "inf", "-0", "007", "1.5e-05", "1.5.5", "1e+5e+5",
        "1e+5.5", "1.e+5", ".5", "5.", "1e5", "-.5", "1e-", "--1", "1-",
    ]),
    st.text(alphabet="0123456789-+.eE_ \u0665\r", max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(column=st.lists(_FLOAT_FIELDS, max_size=30), optional=st.booleans())
def test_float64s_matches_the_per_field_rule(column, optional):
    faults = tsv.Faults("x")
    values = tsv.float64s(column, faults, optional)
    want, want_faults = reference.float64s(column, optional)
    assert values.tobytes() == np.array(want, dtype=np.float64).tobytes()
    assert faults.found == want_faults


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=30))
def test_every_finite_float_reads_back(floats):
    # `write_pair_stats` writes a float as its `repr`.
    faults = tsv.Faults("x")
    values = tsv.float64s(list(map(repr, floats)), faults)
    assert not faults.found
    assert values.tobytes() == np.array(floats, dtype=np.float64).tobytes()


@pytest.mark.parametrize("optional", [False, True])
def test_float_check_keeps_no_per_field_scratch(optional):
    # One match over the joined column: about 60 bytes per field at the
    # peak, the joined text and the floats read, where a check of byte
    # masks over the text took about 200.
    rng = random.Random(5)
    column = [repr(rng.uniform(-1e6, 1e6)) for _ in range(200_000)]
    gc.collect()
    tracemalloc.start()
    try:
        tsv.float64s(column, tsv.Faults("x"), optional)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(column) <= 100


def _toy_key(toy_run: Path):
    """The toy run's pair lookup that `read_observations` gives `read_keyed_ints`."""
    obs = (toy_run / "observations.tsv").read_text(encoding="utf-8").splitlines()[1:]
    index = {"\t".join(line.split("\t")[:4]): i for i, line in enumerate(obs)}

    def key(text: str) -> int:
        if text not in index:
            raise ValueError("event for unknown pair")
        return index[text]

    return key


def _joined(lines: list[str]) -> bytes:
    return "".join(f"{line}\n" for line in lines).encode("utf-8")


# Odd values for one field: the spellings that the tables reject, and
# values out of any column's range.
ODD_FIELDS = (
    *NON_FLOAT.values(),
    *(spell("7") for spell in NON_DECIMAL.values()),
    "", "x", "-1", "nan", str(2 ** 63), "NOUN",
)


def byte_mutations(
    data: bytes, rng: random.Random, flips: int, cuts: int
) -> list[tuple[str, bytes]]:
    """`flips` seeded copies of `data` with one byte flipped, then `cuts`
    cut short, each named."""
    cases = []
    for _ in range(flips):
        flipped = bytearray(data)
        flipped[rng.randrange(len(data))] ^= rng.randrange(1, 256)
        cases.append(("byte-flip", bytes(flipped)))
    return cases + [("truncated", data[:rng.randrange(len(data))]) for _ in range(cuts)]


def mutations(
    text: str, rng: random.Random, flips: int, cuts: int, line_edits: int, field_edits: int,
    odd_fields: int = 0,
) -> list[tuple[str, bytes]]:
    """Seeded mutations of the lines of a text file, each named: the
    `byte_mutations` of its UTF-8 bytes, `line_edits` each of a line
    dropped, a line repeated and two lines swapped, `field_edits` each of a
    blank line inserted, a field added and the last field taken away, and
    `odd_fields` fields set to one of `ODD_FIELDS`.  The lines edited are
    picked from the second on."""
    lines = text.splitlines()
    cases = byte_mutations(text.encode("utf-8"), rng, flips, cuts)

    def edited(row: int, line: str) -> bytes:
        return _joined(lines[:row] + [line] + lines[row + 1:])

    for _ in range(line_edits):
        row = rng.randrange(1, len(lines))
        cases.append(("dropped-line", _joined(lines[:row] + lines[row + 1:])))
        cases.append(("duplicated-line", _joined(lines[:row] + lines[row - 1:])))
        a, b = sorted(rng.sample(range(1, len(lines)), 2))
        cases.append(("swapped-lines", _joined(
            lines[:a] + [lines[b]] + lines[a + 1:b] + [lines[a]] + lines[b + 1:]
        )))
    for _ in range(field_edits):
        row = rng.randrange(1, len(lines))
        cases.append(("blank-line", _joined(lines[:row] + [""] + lines[row:])))
        cases.append(("extra-field", edited(row, lines[row] + "\t" + rng.choice(("0", "x", "")))))
        cases.append(("missing-field", edited(row, lines[row].rsplit("\t", 1)[0])))
    for _ in range(odd_fields):
        row = rng.randrange(1, len(lines))
        fields = lines[row].split("\t")
        fields[rng.randrange(len(fields))] = rng.choice(ODD_FIELDS)
        cases.append(("odd-field", edited(row, "\t".join(fields))))
    return cases


def _event_mutations(text: str, seed: int = 16) -> list[tuple[str, bytes]]:
    """About 200 seeded mutations of an events.tsv text, each named."""
    rng = random.Random(seed)
    lines = text.splitlines()
    data = text.encode("utf-8")
    cases = mutations(text, rng, flips=40, cuts=10, line_edits=15, field_edits=10)
    # Integer fields respelled or set, and an unknown pair alone and on a
    # line whose integer is also out of range, which is the fault named.
    respellings = [(form, None, spell) for form, spell in NON_DECIMAL.items()] + [
        (value, None, lambda text, value=value: value) for value in (
            "1000000000000000000", str(2 ** 63 - 1), "0" * 24 + "1", str(2 ** 63),
            str(-(2 ** 63)), str(-(2 ** 63) - 1), "-0", "-", "", "1.0",
        )
    ] + [
        ("unknown-pair", "nosuchlemma", str),
        ("unknown-pair-out-of-range", "nosuchlemma", lambda text: str(2 ** 63)),
    ]
    for form, lemma, spell in respellings:
        for _ in range(3):
            row, column = rng.randrange(1, len(lines)), rng.randrange(4, 7)
            fields = lines[row].split("\t")
            fields[0] = lemma or fields[0]
            fields[column] = spell(fields[column])
            cases.append((form, _joined(lines[:row] + ["\t".join(fields)] + lines[row + 1:])))
    cases += [("crlf", data.replace(b"\n", b"\r\n")), ("no-final-newline", data[:-1])]
    cases += [(f"{name}-crlf", case.replace(b"\n", b"\r\n")) for name, case in rng.sample(cases, 10)]
    cases += [(f"{name}-no-final-newline", case.rstrip(b"\n")) for name, case in rng.sample(cases, 10)]
    cases += [("cr", data.replace(b"\n", b"\r"))]
    cases += [(f"{name}-cr", case.replace(b"\n", b"\r")) for name, case in rng.sample(cases, 10)]
    # At the block edges of 64-byte reads: a bad line right after a run of
    # one pair's lines that crosses an edge, and an unknown pair whose run
    # starts a block after the first.
    starts = list(itertools.accumulate((len(line.encode()) + 1 for line in lines), initial=0))
    edges = {data.rfind(b"\n", 0, end) + 1 for end in range(64, len(data), 64)}
    runs = [list(run) for _, run in itertools.groupby(
        range(1, len(lines)), lambda row: lines[row].split("\t")[:4]
    )]
    crossing = next(run for run in runs[:-1] if edges & set(starts[run[0] + 1:run[-1] + 1]))
    bad = lines[crossing[-1] + 1].split("\t")
    bad[4] = "x"
    cases.append(("bad-line-after-crossing-run", _joined(
        lines[:crossing[-1] + 1] + ["\t".join(bad)] + lines[crossing[-1] + 2:]
    )))
    starting = next(run for run in runs[1:] if starts[run[0]] in edges)
    renamed = [
        "nosuchlemma\t" + line.split("\t", 1)[1] for line in lines[starting[0]:starting[-1] + 1]
    ]
    cases.append(("unknown-pair-run-starting-a-block", _joined(
        lines[:starting[0]] + renamed + lines[starting[-1] + 1:]
    )))
    return cases


def _non_ascii_count(toy_run: Path, dest: Path) -> Path:
    """A copy of the toy count whose lemmas, in both files, hold 2-, 3- and
    4-byte characters, so that a line's bytes outnumber its characters."""
    spelled = str.maketrans({"a": "ä", "e": "€", "o": "𝑜"})
    dest.mkdir()
    for name in ("observations.tsv", "events.tsv"):
        header, *lines = (toy_run / name).read_text(encoding="utf-8").splitlines()
        rows = [line.split("\t", 2) for line in lines]
        lines = [f"{w.translate(spelled)}\t{v.translate(spelled)}\t{rest}" for w, v, rest in rows]
        (dest / name).write_bytes(_joined([header, *lines]))
    return dest


@pytest.mark.parametrize("block", [1, 64, tsv._BLOCK])
def test_events_reader_matches_the_reference(toy_run, tmp_path, monkeypatch, block):
    # A block of 1 or 64 bytes splits lines and runs across blocks and puts
    # most faults in a later block than the first, under each line end.
    monkeypatch.setattr(tsv, "_BLOCK", block)
    path = str(tmp_path / "events.tsv")
    outcomes = set()
    for count_dir in (toy_run, _non_ascii_count(toy_run, tmp_path / "non-ascii")):
        key = _toy_key(count_dir)
        for name, data in _event_mutations((count_dir / "events.tsv").read_text(encoding="utf-8")):
            (tmp_path / "events.tsv").write_bytes(data)
            try:
                want = reference.read_events(path, counting.EVENTS, 4, key)
            except ValueError as exc:
                want = str(exc)
            faults = tsv.Faults(path)
            try:
                pair, ints = tsv.read_keyed_ints(path, counting.EVENTS, 4, key, faults)
                got = (pair.tolist(), ints.tolist(), faults.found[0] if faults.found else None)
            except ValueError as exc:
                got = str(exc)
            assert got == want, (count_dir.name, name)
            outcomes.add((count_dir, "raised" if isinstance(want, str) else
                           "fault" if want[2] else "read"))
    assert {outcome for _, outcome in outcomes} == {"raised", "fault", "read"}
    assert len(outcomes) == 6  # each outcome from each count


@pytest.mark.parametrize("block", [64, tsv._BLOCK])
def test_clean_count_dir_reads_without_per_line_python(toy_run, monkeypatch, block):
    # No integer field goes through `decimal`, `key` is called once per run
    # of lines of one pair, also where a run spans blocks, and rows written
    # in pair and sentence order are not sorted.
    def refuse(*args, **kwargs):
        raise AssertionError("called on a clean count directory")

    monkeypatch.setattr(tsv, "_BLOCK", block)
    monkeypatch.setattr(tsv, "decimal", refuse)
    monkeypatch.setattr(np, "lexsort", refuse)
    calls = []
    read = tsv.read_keyed_ints

    def counted(path, table, n_key, key, faults):
        return read(path, table, n_key, lambda text: calls.append(text) or key(text), faults)

    monkeypatch.setattr(counting, "read_keyed_ints", counted)
    result = READERS["events.tsv"](toy_run)
    runs = [p for p, o_wv in zip(result.pairs, result.cells[:, 0].tolist()) if o_wv]
    assert calls == ["\t".join(lexicon.pair_fields(p)[:4]) for p in runs]
    assert len(calls) < len(result.events)
