"""The one TSV layer behind every file the pipeline reads.

* `read_columns` reads each table the pipeline writes and reads back
  (pairs, derived map, observations, lemma frequencies, per-pair stats):
  a header line of column names, then one line per row.  It splits the
  file whole into one list of text per column, for a decoder to check.
* `read_keyed_ints` reads `events.tsv`, the one long table, whose integer
  columns go to NumPy's C parser (ASCII decimal integers only).
* `read_rows` reads the headerless input files (lexicon, derivations,
  lemma attributes, verb classes) row by row, skipping blank and ``#``
  lines, and stops at the first bad row.

Every check of a headered table, each line's field count included, adds
the first bad row it finds to the table's one `Faults`, and the earliest
line in file order is reported as ``<path> line N: ...``.  A wrong header
is line 1; a file that is not UTF-8 is reported at its first such line.
"""

from __future__ import annotations

import itertools
import re
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO, TypeVar

import numpy as np

T = TypeVar("T")


class Table(NamedTuple):
    """A file kind, named in error messages, and its column names."""

    kind: str
    columns: tuple[str, ...]


def write_table(path: str, table: Table, rows: Iterable[Sequence[str]]) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write("\t".join(table.columns) + "\n")
        for row in rows:
            out.write("\t".join(row) + "\n")


def _utf8_error(
    path: str, exc: UnicodeDecodeError, opener: Callable[..., IO[bytes]]
) -> ValueError:
    """Locate the first line of `path` that is not UTF-8, reading it as
    bytes through `opener` (`open`, or `gzip.open` for a compressed file).
    Text is decoded in blocks, so `exc` alone does not tell which line it is."""
    with opener(path, "rb") as handle:
        for line_no, line in enumerate(handle, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as line_exc:
                return ValueError(f"{path} line {line_no}: {line_exc}")
    return ValueError(f"{path}: {exc}")


class Faults:
    """The bad data rows of one headered table, each the first that one
    check found, named by the row's 0-based index among the data rows;
    `raise_first` reports the earliest of them."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.found: list[tuple[int, str]] = []

    def add(self, row: int, message: str) -> None:
        self.found.append((row, message))

    def where(self, bad: np.ndarray, message: Callable[[int], str]) -> None:
        """Add the first row that the mask `bad` marks."""
        if bad.any():
            row = int(np.argmax(bad))
            self.add(row, message(row))

    def repeats(self, keys: Sequence[str], message: Callable[[str], str]) -> None:
        """Add the first row whose key an earlier row already has."""
        if len(set(keys)) < len(keys):
            seen: set[str] = set()
            for row, key in enumerate(keys):
                if key in seen:
                    self.add(row, message(key))
                    return
                seen.add(key)

    def raise_first(self) -> None:
        """Raise the fault on the earliest row, or the first added of two."""
        if self.found:
            row, message = min(self.found, key=lambda fault: fault[0])
            raise ValueError(f"{self.path} line {row + 2}: {message}")


def convert(column: Sequence[str], parse: Callable[[str], T], faults: Faults) -> list[T]:
    """`parse` of each field of `column` before the first it rejects."""
    try:
        return list(map(parse, column))
    except ValueError:
        values = []
        for text in column:
            try:
                values.append(parse(text))
            except ValueError as exc:
                faults.add(len(values), str(exc))
                break
        return values


_INT64 = range(-(1 << 63), 1 << 63)


def _decimal(text: str) -> int:
    """`int` of ASCII digits after an optional ``-``, the one integer form
    of every table (`int` alone also takes ``+``, ``_``, spaces and other
    scripts' digits)."""
    if not (text.removeprefix("-").isdigit() and text.isascii()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def int64s(column: Sequence[str], faults: Faults) -> np.ndarray:
    """An int64 array of the integers of `column` before the first field
    that is not a `_decimal` integer or does not fit int64."""
    values = convert(column, _decimal, faults)
    if values and not (min(values) in _INT64 and max(values) in _INT64):
        row = next(row for row, n in enumerate(values) if n not in _INT64)
        faults.add(row, f"integer out of int64 range: {column[row]}")
        del values[row:]
    return np.array(values, dtype=np.int64)


def read_columns(
    path: str, table: Table, decode: Callable[[list[list[str]], Faults], T]
) -> T:
    """`decode(columns, faults)` of a `table` file, where each column is a
    list with one field per data row and `faults` collects what `decode`
    finds wrong, to be raised after it returns.

    The file is split whole, making no list or tuple per row.  The first
    line with a wrong field count is a fault that ends the rows.  `decode`
    may empty the list of columns as it converts them, to free their text.
    """
    width = len(table.columns)
    faults = Faults(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            if handle.readline().rstrip("\n") != "\t".join(table.columns):
                raise ValueError(f"{path} line 1: not a {table.kind} file")
            lines = handle.read().split("\n")
    except UnicodeDecodeError as exc:
        raise _utf8_error(path, exc, open) from None
    if lines[-1] == "":
        lines.pop()  # after the newline that ends the last line
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


def read_keyed_ints(
    path: str, table: Table, n_key: int, key: Callable[[str], int], faults: Faults
) -> tuple[np.ndarray, np.ndarray]:
    """Read a `table` file whose first `n_key` columns name a key and whose
    other columns are integers, as each row's `key(key fields joined by
    tabs)` and an int64 array of its integers.

    A Python pass checks each line's field count and its integers by the
    rule of `int64s`, and calls `key` only where a line's key fields differ
    from the previous line's; the checked lines go to `np.loadtxt`, whose
    C parser reads the integers.  The first wrong field count, bad integer
    or key that `key` rejects goes to `faults` and ends the rows, for the
    caller's checks of the rows before it to add to `faults` too.
    """
    width = len(table.columns)
    # A line's integers after its key fields, each of at most 18 digits, so
    # within int64; `loadtxt` alone would also take "+5" and spaces around one.
    plain = re.compile("\t".join(["-?[0-9]{1,18}"] * (width - n_key)) + "\n?")
    run_keys: list[int] = []  # the key of each run of lines with equal key fields
    run_starts: list[int] = []  # the data row each run starts at

    def row_error(line: str) -> str | None:
        fields = line.rstrip("\n").split("\t")
        if len(fields) != width:
            return f"expected {width} fields, got {len(fields)}"
        cells = Faults(path)
        int64s(fields[n_key:], cells)
        return cells.found[0][1] if cells.found else None

    def checked(handle: TextIO) -> Iterator[str]:
        prefix = ""
        for row, line in enumerate(handle):
            # `count` writes each pair's rows together, so a run starts once per pair
            new_run = not (prefix and line.startswith(prefix))
            if new_run:
                prefix = "\t".join(line.split("\t", n_key)[:n_key]) + "\t"
            error = None if plain.fullmatch(line, len(prefix)) else row_error(line)
            if error is None and new_run:
                try:
                    run_keys.append(key(prefix[:-1]))
                    run_starts.append(row)
                except ValueError as exc:
                    error = str(exc)
            if error is not None:
                faults.add(row, error)
                return
            yield line

    ints = np.empty((0, width - n_key), dtype=np.int64)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            if handle.readline().rstrip("\n") != "\t".join(table.columns):
                raise ValueError(f"{path} line 1: not a {table.kind} file")
            lines = checked(handle)
            first = next(lines, None)
            if first is not None:  # loadtxt warns on a file without data rows
                ints = np.loadtxt(
                    itertools.chain((first,), lines), dtype=np.int64, delimiter="\t",
                    usecols=range(n_key, width), comments=None, ndmin=2,
                )
    except UnicodeDecodeError as exc:
        raise _utf8_error(path, exc, open) from None
    lengths = np.diff(np.array(run_starts + [len(ints)], dtype=np.int64))
    return np.repeat(np.array(run_keys, dtype=np.int64), lengths), ints


def read_rows(path: str, width: int, decode: Callable[[list[str]], T]) -> Iterator[T]:
    """Yield `decode(fields)` per row of a headerless file of `width`
    fields, skipping blank and ``#`` lines; a `ValueError` from `decode`
    comes back prefixed with the file and line number."""
    line_no = 0
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                if not line.strip() or line[0] == "#":
                    continue
                fields = line.rstrip("\n").split("\t")
                if len(fields) != width:
                    raise ValueError(f"expected {width} fields, got {len(fields)}")
                yield decode(fields)
    except UnicodeDecodeError as exc:
        raise _utf8_error(path, exc, open) from None
    except ValueError as exc:
        raise ValueError(f"{path} line {line_no}: {exc}") from None
