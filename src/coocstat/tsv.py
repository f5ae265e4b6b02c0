"""The one TSV layer behind every file the pipeline reads: the
intermediate files it writes and reads back (pairs, derived map,
observations, events, lemma frequencies, per-pair stats), each a header
line of column names and then one line per row, and the headerless input
files (lexicon, derivations, lemma attributes, verb classes), where blank
and ``#`` lines are skipped.  Readers check every row's field count and
report a bad row, or a line that is not UTF-8, as ``<path> line N: ...``.
Integer columns of a long table can be read whole by NumPy's C parser
(`read_keyed_ints`), which takes ASCII decimal integers only.
"""

from __future__ import annotations

import itertools
import re
import warnings
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO, TypeVar

import numpy as np

T = TypeVar("T")

_Lines = Iterable[tuple[int, str]]  # numbered, each with its newline


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


def _read(
    path: str, width: int, decode: Callable[[list[str]], T],
    lines: Callable[[TextIO], _Lines],
) -> Iterator[T]:
    """Yield `decode(fields)` for each row that `lines` picks from the
    open file; a `ValueError` from either comes back prefixed with the
    file and line number."""
    line_no = 1
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_no, line in lines(handle):
                fields = line.rstrip("\n").split("\t")
                if len(fields) != width:
                    raise ValueError(f"expected {width} fields, got {len(fields)}")
                yield decode(fields)
    except UnicodeDecodeError as exc:
        raise _utf8_error(path, exc, open) from None
    except ValueError as exc:
        raise ValueError(f"{path} line {line_no}: {exc}") from None


def _table_rows(table: Table) -> Callable[[TextIO], _Lines]:
    """The numbered data lines of an open `table` file, after its header."""

    def rows(handle: TextIO) -> _Lines:
        if handle.readline().rstrip("\n") != "\t".join(table.columns):
            raise ValueError(f"not a {table.kind} file")
        return enumerate(handle, start=2)

    return rows


def read_table(
    path: str, table: Table, decode: Callable[[list[str]], T]
) -> Iterator[T]:
    """Yield `decode(fields)` per row after checking the header line."""
    return _read(path, len(table.columns), decode, _table_rows(table))


# loadtxt names a bad value's 0-based row among the lines it was given.
_LOADTXT_ROW = re.compile(r" at row (\d+), column")


def read_keyed_ints(
    path: str, table: Table, n_key: int, key: Callable[[list[str]], int]
) -> tuple[np.ndarray, np.ndarray]:
    """Read a `table` file whose first `n_key` columns name a key and whose
    other columns are integers, as each row's `key(key fields)` and an int64
    array of its integers, one row per file row.

    A Python pass checks each line's field count and calls `key` only
    where a line's key fields differ from the previous line's; the same
    lines go to `np.loadtxt`, whose C parser reads the integers.  The first
    bad line in file order is reported, as in `read_table`.
    """
    width = len(table.columns)
    run_keys: list[int] = []  # the key of each run of lines with equal key fields
    run_starts: list[int] = []  # the data row each run starts at
    failure: list[tuple[int, ValueError]] = []  # the line that stopped the pass

    def checked(handle: TextIO) -> Iterator[str]:
        line_no, prefix = 1, None
        try:
            for line_no, line in _table_rows(table)(handle):
                n_fields = line.count("\t") + 1
                if n_fields != width:
                    raise ValueError(f"expected {width} fields, got {n_fields}")
                # `count` writes each pair's rows together, so this runs once per pair
                if prefix is None or not line.startswith(prefix):
                    fields = line.split("\t", n_key)[:n_key]
                    run_keys.append(key(fields))
                    run_starts.append(line_no - 2)
                    prefix = "\t".join(fields) + "\t"
                yield line
        except ValueError as exc:  # UnicodeDecodeError included
            failure.append((line_no, exc))

    parse_error = None
    with open(path, "r", encoding="utf-8") as handle:
        lines = checked(handle)
        first = next(lines, None)
        ints = np.empty((0, width - n_key), dtype=np.int64)
        if first is not None:  # loadtxt warns on a file without data rows
            try:
                with warnings.catch_warnings():
                    # NumPy releases that still have this deprecated fallback
                    # read a non-integer cell ("5.0", "1e3", 2**63) as a float
                    # and truncate it, with only this warning to show for it.
                    warnings.filterwarnings(
                        "error", message=".*integer via a float", category=DeprecationWarning
                    )
                    ints = np.loadtxt(
                        itertools.chain((first,), lines), dtype=np.int64, delimiter="\t",
                        usecols=range(n_key, width), comments=None, ndmin=2,
                    )
            except (ValueError, DeprecationWarning) as exc:
                parse_error = exc
    if failure and isinstance(failure[0][1], UnicodeDecodeError):
        raise _utf8_error(path, failure[0][1], open) from None
    if parse_error is not None:  # loadtxt saw only the lines before `failure`
        row = _LOADTXT_ROW.search(str(parse_error))
        if row is None:
            raise ValueError(f"{path}: {parse_error}") from None
        message = _LOADTXT_ROW.sub(" at column", str(parse_error), count=1)
        raise ValueError(f"{path} line {int(row.group(1)) + 2}: {message}") from None
    if failure:
        line_no, exc = failure[0]
        raise ValueError(f"{path} line {line_no}: {exc}") from None
    lengths = np.diff(np.array(run_starts + [len(ints)], dtype=np.int64))
    return np.repeat(np.array(run_keys, dtype=np.int64), lengths), ints


def read_rows(path: str, width: int, decode: Callable[[list[str]], T]) -> Iterator[T]:
    """Yield `decode(fields)` per row of a headerless file of `width`
    fields, skipping blank and ``#`` lines."""

    def rows(handle: TextIO) -> _Lines:
        return (row for row in enumerate(handle, start=1) if row[1].strip() and row[1][0] != "#")

    return _read(path, width, decode, rows)
