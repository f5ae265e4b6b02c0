"""The one TSV layer behind every intermediate file the pipeline writes
and reads back (pairs, derived map, observations, events, lemma
frequencies, per-pair stats).

A file is a header line of tab-joined column names, then one line of
tab-joined fields per row.  Readers check the full header and every
row's field count, and report a bad row as ``<path> line N: ...``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

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


def read_table(
    path: str, table: Table, decode: Callable[[list[str]], T]
) -> Iterator[T]:
    """Yield `decode(fields)` per row; a `ValueError` from `decode`
    comes back prefixed with the file and line number."""
    width = len(table.columns)
    line_no = 1
    try:
        with open(path, "r", encoding="utf-8") as handle:
            if handle.readline().rstrip("\n") != "\t".join(table.columns):
                raise ValueError(f"not a {table.kind} file")
            for line_no, line in enumerate(handle, start=2):
                fields = line.rstrip("\n").split("\t")
                if len(fields) != width:
                    raise ValueError(f"expected {width} fields, got {len(fields)}")
                yield decode(fields)
    except UnicodeDecodeError as exc:
        # Text is decoded in blocks, so the line is not known.
        raise ValueError(f"{path}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path} line {line_no}: {exc}") from None
