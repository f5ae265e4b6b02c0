"""The one TSV layer behind every file the pipeline reads.

* `LineBlocks`, the line reader of every input file, the corpus too, alone
  decides where a line ends, and names the first line that is not UTF-8.
* `read_columns` reads each table the pipeline writes and reads back
  (pairs, derived map, observations, lemma frequencies, per-pair stats),
  a header line of column names and then one line per row, and the
  headerless input files (lexicon, derivations, lemma attributes, verb
  classes), whose blank and ``#`` lines it skips.  It splits the file
  whole into one list of text per column, for a decoder to check.
* `read_keyed_ints` reads `events.tsv`, the one long table, in blocks of
  whole lines: one regular expression checks each run of lines of one
  key, and NumPy reads their integers from the block's bytes.

Each number field of every file is checked against one of two patterns:
`_INT`, ASCII digits after an optional ``-``, or `_FLOAT`, that with the
fraction and exponent that `repr` writes (`int` and `float` alone also take
``+``, ``_``, spaces, other scripts' digits, ``inf`` and ``nan``).  Their
repeats are possessive, so one match over a column keeps no state per field.

Every check of a table, each line's field count included, adds the first
bad row it finds to the table's one `Faults`, and the earliest line in
file order is reported as ``<path> line N: ...``; of two faults on one
line, the check added first.  A wrong header is line 1.  A line that is
not UTF-8 comes before every other fault of a table.
"""

from __future__ import annotations

import math
import re
import sys
from itertools import compress, count
from typing import IO, Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
H = TypeVar("H", bound=Hashable)


class Table(NamedTuple):
    """A file kind, named in error messages, and its column names, which
    are the first line of a file with a `header`."""

    kind: str
    columns: tuple[str, ...]
    header: bool = True


def write_table(path: str, table: Table, rows: Iterable[Sequence[str]]) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write("\t".join(table.columns) + "\n")
        for row in rows:
            out.write("\t".join(row) + "\n")


class LineBlocks:
    """The binary file `handle`, named `path`, in blocks of whole lines of
    about `size` bytes, or whole for a negative `size`.  A ``\\r\\n`` or a
    lone ``\\r`` becomes ``\\n``, and a last line without an end gets one.
    The lines that each read completes are yielded before the next read, so
    damage that a read meets in a ``.gz`` file is raised after them."""

    def __init__(self, path: str, handle: IO[bytes], size: int = -1) -> None:
        self.path, self.handle, self.size = path, handle, size
        self.unended = False  # whether the last block's line end was added

    def __iter__(self) -> Iterator[bytes]:
        read = self.handle.read1 if self.size > 0 else self.handle.read
        self.unended, rest = False, b""
        while chunk := read(self.size):
            while chunk.endswith(b"\r") and (more := read(1)):
                chunk += more  # the `\n` of a `\r\n` that the read cut
            if b"\r" in chunk:
                chunk = chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            chunk = rest + chunk
            cut = chunk.rfind(b"\n") + 1
            chunk, rest = chunk[:cut], chunk[cut:]  # no second buffer kept
            if chunk:
                yield chunk
        if rest:
            self.unended = True
            yield rest + b"\n"

    def decode(self, block: bytes, line_no: int) -> str:
        """`block`, the lines after line `line_no`, decoded.  Its first line
        N that is not UTF-8 raises ValueError ``<path> line N: <error>``:
        Python's error for that line's bytes as the file holds them."""
        try:
            return block.decode("utf-8")
        except UnicodeDecodeError as exc:
            start = block.rfind(b"\n", 0, exc.start) + 1
            end = block.index(b"\n", exc.start) + 1
            end -= self.unended and end == len(block)  # the end the file lacks
            line_no += block.count(b"\n", 0, start) + 1
            try:
                block[start:end].decode("utf-8")
            except UnicodeDecodeError as line_exc:
                exc = line_exc
            raise ValueError(f"{self.path} line {line_no}: {exc}") from None


class Faults:
    """The bad data rows of one table, each the first that one check
    found, named by the row's 0-based index among the data rows;
    `raise_first` reports the earliest of them by its file line number,
    ``lines[row]``, by default the row's line after a header line."""

    def __init__(self, path: str, lines: Sequence[int] = range(2, sys.maxsize)) -> None:
        self.path = path
        self.lines = lines
        self.found: list[tuple[int, str]] = []

    def add(self, row: int, message: str) -> None:
        self.found.append((row, message))

    def where(self, bad: np.ndarray, message: Callable[[int], str]) -> None:
        """Add the first row that the mask `bad` marks."""
        if bad.any():
            row = int(np.argmax(bad))
            self.add(row, message(row))

    def first(
        self, values: Sequence[H], bad: Callable[[H], object], message: Callable[[int], str]
    ) -> None:
        """Add the first row whose value `bad` holds for, calling `bad`
        once per distinct value."""
        marked = {value for value in set(values) if bad(value)}
        if marked:
            row = next(compress(count(), map(marked.__contains__, values)))
            self.add(row, message(row))

    def repeats(self, keys: Sequence[H], message: Callable[[H], str]) -> None:
        """Add the first row whose key an earlier row already has."""
        if len(set(keys)) < len(keys):
            seen: set[H] = set()
            for row, key in enumerate(keys):
                if key in seen:
                    self.add(row, message(key))
                    return
                seen.add(key)

    def raise_first(self) -> None:
        """Raise the fault on the earliest row, or the first added of two."""
        if self.found:
            row, message = min(self.found, key=lambda fault: fault[0])
            raise ValueError(f"{self.path} line {self.lines[row]}: {message}")


_INT64 = range(-(1 << 63), 1 << 63)
_INT = re.compile(r"-?+[0-9]++")
_FLOAT = re.compile(_INT.pattern + r"(?:\.[0-9]++)?+(?:e[-+][0-9]++)?+")
_INT_LINES = re.compile(f"(?:{_INT.pattern}\n)*+")
_FLOAT_LINES = re.compile(f"(?:{_FLOAT.pattern}\n)*+")
_OPTIONAL_FLOAT_LINES = re.compile(f"(?:(?:{_FLOAT.pattern})?+\n)*+")


def decimal(text: str) -> int:
    """`int` of a field in the `_INT` form."""
    if not _INT.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def decimals(column: Sequence[str], faults: Faults, empty: int | None) -> list[int | None]:
    """The `decimal` integer of each field of `column`, `empty` for an
    empty field, adding the first field that is neither to `faults` (and
    None for it).  Unlike `int64s`, any size is taken.  Each distinct field
    is read once."""
    values: dict[str, int | None] = {}
    errors: dict[str, str] = {}
    for text in set(column):
        try:
            values[text] = decimal(text) if text else empty
        except ValueError as exc:
            errors[text] = str(exc)
    faults.first(column, errors.__contains__, lambda row: errors[column[row]])
    return list(map(values.get, column))


def _ints(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, int]:
    """The int64 values of the `decimal` fields ``buf[start:end]`` of the
    bytes `buf`, and how many come before the first that does not fit int64.

    Fields of up to 18 digits are read together, a digit place at a time;
    a longer one goes through `int`."""
    neg = buf[start] == ord("-")
    digits = end - start - neg
    longest = int(digits.max(initial=0))
    width = min(longest, 18)
    values = np.zeros(len(start), dtype=np.int64)
    for place in range(width, 0, -1):  # a "0" in the places a field lacks
        values *= 10
        values += np.where(digits >= place, buf[end - place], ord("0"))
    values -= ord("0") * (10**width - 1) // 9  # the "0" of every place
    values = np.where(neg, -values, values)
    for i in np.flatnonzero(digits > 18).tolist() if longest > 18 else ():
        value = int(buf[start[i]:end[i]].tobytes())
        if value not in _INT64:
            return values[:i], i
        values[i] = value
    return values, len(values)


def _lines(pattern: re.Pattern[str], column: Sequence[str]) -> tuple[str, int]:
    """`column` joined by newlines after a leading one, and the index of its
    first field that `pattern`'s one match does not reach, or ``len(column)``."""
    text = "\n".join(["", *column, ""])
    return text, text.count("\n", 1, pattern.match(text, 1).end())


def int64s(column: Sequence[str], faults: Faults) -> np.ndarray:
    """An int64 array of the integers of `column` before the first field
    that is not a `decimal` integer or does not fit int64.  The fields are
    checked by one match of their joined text and read from its bytes."""
    text, rows = _lines(_INT_LINES, column)
    if rows < len(column):
        try:
            decimal(column[rows])
        except ValueError as exc:
            faults.add(rows, str(exc))
    buf = np.frombuffer(text.encode(), dtype=np.uint8)
    newlines = np.flatnonzero(buf == ord("\n"))
    values, fit = _ints(buf, newlines[:rows] + 1, newlines[1:rows + 1])
    if fit < rows:
        faults.add(fit, f"integer out of int64 range: {column[fit]}")
    return values[:fit]


def float64s(column: Sequence[str], faults: Faults, optional: bool = False) -> np.ndarray:
    """A float64 array of the floats of `column` before the first field
    that is not a finite float in the `_FLOAT` form; where `optional`, an
    empty field is NaN.  The fields are checked by one match, as in `int64s`."""
    _, rows = _lines(_OPTIONAL_FLOAT_LINES if optional else _FLOAT_LINES, column)
    if rows < len(column):
        faults.add(rows, f"not a number: {column[rows]!r}")
    values = np.array([float(text) if text else math.nan for text in column[:rows]], np.float64)
    faults.where(np.isinf(values), lambda row: f"not a number: {column[row]!r}")
    return values


def read_columns(
    path: str, table: Table, decode: Callable[[list[list[str]], Faults], T]
) -> T:
    """`decode(columns, faults)` of a `table` file, where each column is a
    list with one field per data row and `faults` collects what `decode`
    finds wrong, to be raised after it returns.

    The file is split whole, making no list or tuple per row.  Without a
    header, blank lines (whitespace only, too) and lines that start with
    ``#`` hold no row.  The first line with a wrong field count is a fault
    that ends the rows.  `decode` may empty the list of columns as it
    converts them, to free their text.
    """
    width = len(table.columns)
    with open(path, "rb") as handle:
        blocks = LineBlocks(path, handle)
        lines = blocks.decode(b"".join(blocks), 0).split("\n")
    lines.pop()  # the empty text after the last line's end
    if table.header:
        if lines[:1] != ["\t".join(table.columns)]:
            raise ValueError(f"{path} line 1: not a {table.kind} file")
        del lines[0]
        faults = Faults(path)
    else:
        numbers = [n for n, line in enumerate(lines, 1) if line.strip() and line[0] != "#"]
        if len(numbers) < len(lines):
            lines = [lines[n - 1] for n in numbers]
        faults = Faults(path, numbers)
    tabs = [line.count("\t") for line in lines]
    n_rows = next((row for row, n in enumerate(tabs) if n != width - 1), len(lines))
    if n_rows < len(lines):
        faults.add(n_rows, f"expected {width} fields, got {tabs[n_rows] + 1}")
    del tabs
    fields = "\t".join(lines[:n_rows]).split("\t") if n_rows else []
    del lines
    columns = [fields[column::width] for column in range(width)]
    del fields
    result = decode(columns, faults)
    faults.raise_first()
    return result


# Bytes per read of `read_keyed_ints`, which bound its scratch arrays.
_BLOCK = 1 << 18


def read_keyed_ints(
    path: str, table: Table, n_key: int, key: Callable[[str], int], faults: Faults
) -> tuple[np.ndarray, np.ndarray]:
    """Read a `table` file whose first `n_key` columns name a key and whose
    other columns are integers, as each row's `key(key fields joined by
    tabs)` and an int64 array of its integers.

    The file is read in blocks of whole lines.  One pattern matches each
    run of lines with equal key fields, checking every line's field count
    and integers by the rule of `int64s`, and `key` is called once per run;
    NumPy reads the matched lines' integers from the block's bytes.  The
    first line that the pattern rejects, that holds an integer outside
    int64 or whose key fields `key` rejects goes to `faults` and ends the
    rows, for the caller's checks of the rows before it to add to `faults`
    too.  A line that is not UTF-8 is reported before any of these.
    """
    width, n_int = len(table.columns), len(table.columns) - n_key
    tail = "\t".join([_INT.pattern] * n_int) + "\n"  # a line's integers
    run = re.compile(f"((?:[^\t\n]*+\t){{{n_key}}}){tail}(?:\\1{tail})*+")
    run_keys: list[int] = []  # the key of each run of lines with equal key fields
    run_lines: list[int] = []  # and its number of lines
    known: tuple[str | None, int] = (None, 0)  # the last run's key fields and key
    rows = 0

    def row_error(line: str) -> str | None:
        fields = line.split("\t")
        if len(fields) != width:
            return f"expected {width} fields, got {len(fields)}"
        cells = Faults(path)
        int64s(fields[n_key:], cells)
        return cells.found[0][1] if cells.found else None

    with open(path, "rb") as handle:
        blocks = LineBlocks(path, handle, _BLOCK)
        # A first pass counts the lines, for the integers to fill one array,
        # and meets any line that is not UTF-8 before a bad row.
        header, n_lines = None, 0
        for block in blocks:
            blocks.decode(block, n_lines)
            header = block[:block.index(b"\n")] if header is None else header
            n_lines += np.count_nonzero(np.frombuffer(block, np.uint8) == 10)
        if header != "\t".join(table.columns).encode():
            raise ValueError(f"{path} line 1: not a {table.kind} file")
        ints = np.empty((n_lines - 1, n_int), np.int64)
        handle.seek(0)
        start = len(header) + 1  # the header line, which starts the first block
        for raw in blocks:
            block = raw.decode("utf-8")
            pos, error, runs = start, None, len(run_lines)
            while pos < len(block):
                match = run.match(block, pos)
                try:
                    if match is None:
                        raise ValueError  # `row_error` tells what is wrong
                    if match[1] != known[0]:
                        known = match[1], key(match[1][:-1])
                except ValueError as exc:
                    error = row_error(block[pos:block.index("\n", pos)]) or str(exc)
                    break
                run_keys.append(known[1])
                run_lines.append(block.count("\n", pos, match.end()))
                pos = match.end()
            buf = np.frombuffer(raw, dtype=np.uint8, offset=start)
            # The matched lines' tabs and newlines: the pattern let no other
            # byte 9 or 10 through, and no UTF-8 character holds one.
            seps = np.flatnonzero(buf - 9 <= 1)[:sum(run_lines[runs:]) * width].reshape(-1, width)
            values, fit = _ints(buf, seps[:, n_key - 1:-1].ravel() + 1, seps[:, n_key:].ravel())
            lines = fit // n_int
            ints[rows:rows + lines] = values[:lines * n_int].reshape(-1, n_int)
            rows += lines
            if lines < len(seps):  # an integer outside int64, before `error`'s line
                error = row_error(block[start:].split("\n", lines + 1)[lines])
            if error is not None:
                faults.add(rows, error)
                break
            start = 0
    pair = np.repeat(np.array(run_keys, dtype=np.int64), run_lines)[:rows]
    return pair, ints[:rows]
