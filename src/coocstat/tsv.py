"""The one TSV layer behind every file the pipeline reads: the
intermediate files it writes and reads back (pairs, derived map,
observations, events, lemma frequencies, per-pair stats), each a header
line of column names and then one line per row, and the headerless input
files (lexicon, derivations, lemma attributes, verb classes), where blank
and ``#`` lines are skipped.  Readers check every row's field count and
report a bad row, or a line that is not UTF-8, as ``<path> line N: ...``.
"""

from __future__ import annotations

from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO, TypeVar

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


def read_table(
    path: str, table: Table, decode: Callable[[list[str]], T]
) -> Iterator[T]:
    """Yield `decode(fields)` per row after checking the header line."""

    def rows(handle: TextIO) -> _Lines:
        if handle.readline().rstrip("\n") != "\t".join(table.columns):
            raise ValueError(f"not a {table.kind} file")
        return enumerate(handle, start=2)

    return _read(path, len(table.columns), decode, rows)


def read_rows(path: str, width: int, decode: Callable[[list[str]], T]) -> Iterator[T]:
    """Yield `decode(fields)` per row of a headerless file of `width`
    fields, skipping blank and ``#`` lines."""

    def rows(handle: TextIO) -> _Lines:
        return (row for row in enumerate(handle, start=1) if row[1].strip() and row[1][0] != "#")

    return _read(path, width, decode, rows)
