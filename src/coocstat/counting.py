"""Sentence counting for a fixed list of lemma pairs, over a `Corpus`.

Counting builds posting lists (sentence index and first position) for
the pairs' keys only, then intersects the two lists of each pair, so a
pair costs time in proportion to its keys' postings, not to the corpus
(the inverted-index layout of Evert 2005, *The Statistics of Word
Cooccurrences*, ch. 2-3).  Any iterable of `Sentence` is compiled into a
`Corpus` first.

Each pair's co-occurrence events are one `(m, 3)` int64 array with the
columns `sentence_id, pos_w, pos_v`, 24 bytes per event, from `count`
through `read_observations` to the metrics; no Python object is built
per event.

`merge` combines the results of disjoint sentence-id ranges exactly as
one pass would count them; `count_sharded` counts contiguous sentence
blocks in one process and merges them in block order.
"""

from __future__ import annotations

import functools
import itertools
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from coocstat.corpus import (
    CONTENT_POS, Corpus, LemmaKey, PairUniverse, Sentence, as_corpus, sorted_unique,
)
from coocstat.lexicon import PAIRS, LemmaPair, pair_fields, pair_from_fields
from coocstat.tsv import Table, read_table, write_table


class ContingencyTable(NamedTuple):
    """Sentence counts for the four joint occurrence events, plus N."""

    o_wv: int
    o_w_notv: int
    o_notw_v: int
    o_notw_notv: int
    n: int

    @property
    def marginal_w(self) -> int:
        return self.o_wv + self.o_w_notv

    @property
    def marginal_v(self) -> int:
        return self.o_wv + self.o_notw_v


class CooccurrenceEvent(NamedTuple):
    """The columns of one row of `PairObservations.events`: the sentence
    and the first-occurrence token positions of both lemmas in it."""

    sentence_id: int
    pos_w: int
    pos_v: int


@dataclass
class PairObservations:
    """One pair's table and its `(o_wv, 3)` int64 array of events, one
    `sentence_id, pos_w, pos_v` row per sentence where both lemmas occur."""

    pair: LemmaPair
    table: ContingencyTable
    events: np.ndarray


class MergeError(ValueError):
    """Shard results that cannot be combined (overlapping ids or pair mismatch)."""


@dataclass
class CountResult:
    """Counts for one corpus segment.

    `id_runs` records the sentence-id intervals the segment covered,
    which is what lets `merge` reject overlapping shards.
    """

    observations: dict[LemmaPair, PairObservations]
    n: int
    id_runs: tuple[tuple[int, int], ...]


def _dedupe(pairs: Sequence[LemmaPair]) -> list[LemmaPair]:
    seen = set()
    out = []
    for p in pairs:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def _postings(
    corpus: Corpus, key_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Posting lists of `key_ids`: one entry per (key, sentence) where the
    key occurs, sorted by key then sentence index, with the key's first
    token position in that sentence."""
    at = np.flatnonzero(np.isin(corpus.token_ids, key_ids))
    sent = np.searchsorted(corpus.offsets, at, side="right") - 1
    n = max(len(corpus), 1)
    codes, first = np.unique(
        corpus.token_ids[at].astype(np.int64) * n + sent, return_index=True
    )
    return codes // n, codes % n, at[first] - corpus.offsets[sent[first]]


def _id_runs(sentence_ids: np.ndarray) -> tuple[tuple[int, int], ...]:
    if not len(sentence_ids):
        return ()
    cut = np.flatnonzero(np.diff(sentence_ids) != 1) + 1
    lo = sentence_ids[np.concatenate(([0], cut))]
    hi = sentence_ids[np.concatenate((cut - 1, [len(sentence_ids) - 1]))]
    return _coalesce(tuple(zip(lo.tolist(), hi.tolist())))


def count(sentences: Iterable[Sentence], pairs: Sequence[LemmaPair]) -> CountResult:
    """Count sentence-level (co-)occurrences of every pair.

    A sentence contributes at most one to each cell no matter how many
    times a lemma repeats; event positions are the first occurrence of
    each lemma with the pair's PoS.  Each pair's table and events come
    from one intersection of its two keys' posting lists.
    """
    if not pairs:
        raise ValueError("pair list must be non-empty")
    pairs = _dedupe(pairs)
    corpus = as_corpus(sentences)
    n = len(corpus)
    ids = {k: i for i, k in enumerate(corpus.keys)}
    wanted = np.array(
        sorted({ids[k] for p in pairs for k in (p.w, p.v) if k in ids}), dtype=np.int64
    )
    key, sent, first = _postings(corpus, wanted)
    span = dict(zip(
        wanted.tolist(),
        zip(np.searchsorted(key, wanted).tolist(),
            np.searchsorted(key, wanted, side="right").tolist()),
    ))

    observations = {}
    for pair in pairs:
        lo_w, hi_w = span.get(ids.get(pair.w), (0, 0))
        lo_v, hi_v = span.get(ids.get(pair.v), (0, 0))
        both, iw, iv = np.intersect1d(
            sent[lo_w:hi_w], sent[lo_v:hi_v], assume_unique=True, return_indices=True
        )
        n_w, n_v, n_wv = hi_w - lo_w, hi_v - lo_v, len(both)
        table = ContingencyTable(n_wv, n_w - n_wv, n_v - n_wv, n - n_w - n_v + n_wv, n)
        events = np.empty((n_wv, 3), dtype=np.int64)
        events[:, 0] = corpus.sentence_ids[both]
        events[:, 1] = first[lo_w:hi_w][iw]
        events[:, 2] = first[lo_v:hi_v][iv]
        observations[pair] = PairObservations(pair, table, events)
    return CountResult(observations, n, _id_runs(corpus.sentence_ids))


def _coalesce(runs: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    ordered = sorted(runs)
    out: list[tuple[int, int]] = []
    for lo, hi in ordered:
        if out and lo <= out[-1][1]:
            raise MergeError(
                f"overlapping sentence-id ranges: {out[-1]} and ({lo}, {hi})"
            )
        if out and lo == out[-1][1] + 1:
            out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return tuple(out)


def merge(a: CountResult, b: CountResult) -> CountResult:
    """Combine two shard results from disjoint sentence-id ranges."""
    if set(a.observations) != set(b.observations):
        raise MergeError("shards were counted over different pair lists")
    runs = _coalesce(tuple(a.id_runs) + tuple(b.id_runs))

    n = a.n + b.n
    observations = {}
    for pair, obs_a in a.observations.items():
        obs_b = b.observations[pair]
        ta, tb = obs_a.table, obs_b.table
        table = ContingencyTable(
            ta.o_wv + tb.o_wv,
            ta.o_w_notv + tb.o_w_notv,
            ta.o_notw_v + tb.o_notw_v,
            ta.o_notw_notv + tb.o_notw_notv,
            n,
        )
        events = np.concatenate((obs_a.events, obs_b.events))
        events = events[np.argsort(events[:, 0], kind="stable")]
        observations[pair] = PairObservations(pair, table, events)
    return CountResult(observations, n, runs)


def count_sharded(
    sentences: Iterable[Sentence],
    pairs: Sequence[LemmaPair],
    block_size: int = 20000,
) -> CountResult:
    """Count contiguous blocks of `block_size` sentences one after another
    and merge them in block order; the outcome is identical to a single
    `count` pass."""
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    pairs = _dedupe(pairs)
    corpus = as_corpus(sentences)
    blocks = [
        corpus.sentence_slice(lo, lo + block_size)
        for lo in range(0, len(corpus), block_size)
    ]
    if not blocks:
        return count(corpus, pairs) if pairs else CountResult({}, 0, ())
    return functools.reduce(merge, map(count, blocks, itertools.repeat(pairs)))


# ---------------------------------------------------------------------------
# Restricted corpus scan: per-lemma frequencies and pair existence

class UniverseScan(NamedTuple):
    freqs: dict[LemmaKey, int]
    pairs: PairUniverse | None
    n_sentences: int


# Sentences per block of the scan, which bounds its scratch arrays.
_SCAN_BLOCK = 1 << 16


def _same_pos_pairs(sent: np.ndarray, key: np.ndarray, pos: np.ndarray, size: int) -> np.ndarray:
    """Sorted distinct codes ``a * size + b`` of the key pairs a < b that
    share a sentence and a PoS, from the distinct (sentence, key) entries
    `sent`, `key` in sorted order; `pos` numbers each key's PoS."""
    group = (np.diff(sent, prepend=-1) != 0) | (np.diff(pos[key], prepend=-1) != 0)
    start = np.flatnonzero(group)
    length = np.diff(np.append(start, len(key)))
    later = np.repeat(start + length, length) - np.arange(len(key)) - 1
    left = np.repeat(np.arange(len(key)), later)
    right = left + 1 + np.arange(len(left)) - np.repeat(np.cumsum(later) - later, later)
    return sorted_unique(key[left] * size + key[right])


def scan_corpus(
    sentences: Iterable[Sentence],
    collect_pairs: bool = False,
    vocab: set[LemmaKey] | None = None,
) -> UniverseScan:
    """Per-lemma sentence frequencies of the content keys and, optionally,
    which same-PoS pairs of content keys in `vocab` ever co-occur in a
    sentence (existence only, no events).

    Pair collection is quadratic in the number of matching lemmas per
    sentence, so callers should restrict it with `vocab` on large
    corpora.  Each block of sentences contributes its distinct pair codes,
    and one sort over all blocks' codes makes the universe.
    """
    corpus = as_corpus(sentences)
    keys, size = corpus.keys, len(corpus.keys)
    content = np.array([k.pos in CONTENT_POS for k in keys], dtype=bool)
    eligible = content & np.array([vocab is None or k in vocab for k in keys], dtype=bool)
    pos = np.unique([k.pos for k in keys], return_inverse=True)[1]
    counts = np.zeros(size, dtype=np.int64)
    found = [np.empty(0, dtype=np.int64)]  # each block's distinct pair codes
    for lo in range(0, len(corpus), _SCAN_BLOCK):
        block = corpus.sentence_slice(lo, lo + _SCAN_BLOCK)
        sent, ids = block.sentence_index(), block.token_ids
        mask = content[ids]
        present = sorted_unique(sent[mask] * size + ids[mask])
        key = present % size
        counts += np.bincount(key, minlength=size)
        if collect_pairs:
            keep = eligible[key]
            found.append(_same_pos_pairs(present[keep] // size, key[keep], pos, size))
    freqs = {keys[i]: int(counts[i]) for i in np.flatnonzero(counts).tolist()}
    pairs = None
    if collect_pairs:
        codes = np.concatenate(found)
        found.clear()  # free the parts before the sort copies `codes`
        pairs = PairUniverse(keys, sorted_unique(codes))
    return UniverseScan(freqs, pairs, len(corpus))


# ---------------------------------------------------------------------------
# File formats

OBSERVATIONS = Table(
    "observations", PAIRS.columns + ("o_wv", "o_w_notv", "o_notw_v", "o_notw_notv", "n")
)
EVENTS = Table("events", PAIRS.columns[:4] + ("sentence_id", "pos_w", "pos_v"))
LEMMA_FREQS = Table("lemma-frequency", ("lemma", "pos", "count"))


def _observation_fields(obs: PairObservations) -> tuple[str, ...]:
    return pair_fields(obs.pair) + tuple(map(str, obs.table))


def _event_rows(obs: PairObservations) -> Iterator[tuple[str, ...]]:
    prefix = pair_fields(obs.pair)[:4]
    for sentence_id, pos_w, pos_v in obs.events.tolist():
        yield (*prefix, str(sentence_id), str(pos_w), str(pos_v))


def write_observations(result: CountResult, obs_path: str, events_path: str) -> None:
    observations = result.observations.values()
    write_table(obs_path, OBSERVATIONS, map(_observation_fields, observations))
    rows = itertools.chain.from_iterable(map(_event_rows, observations))
    write_table(events_path, EVENTS, rows)


def _observation_from_fields(f: list[str]) -> tuple[LemmaPair, ContingencyTable]:
    a, b, c, d, n = int(f[5]), int(f[6]), int(f[7]), int(f[8]), int(f[9])
    if a < 0 or b < 0 or c < 0 or d < 0:
        raise ValueError("negative cell count")
    if a + b + c + d != n:
        raise ValueError(f"cells sum to {a + b + c + d}, not n = {n}")
    return pair_from_fields(f), ContingencyTable(a, b, c, d, n)


def _repeats(pair: np.ndarray, sentence_id: np.ndarray) -> np.ndarray:
    """Mark each row whose (pair, sentence_id) an earlier row already has."""
    order = np.lexsort((sentence_id, pair))
    pair, sentence_id = pair[order], sentence_id[order]
    same = (pair[1:] == pair[:-1]) & (sentence_id[1:] == sentence_id[:-1])
    out = np.zeros(len(order), dtype=bool)
    out[order[1:][same]] = True
    return out


def _check_event_rows(rows: np.ndarray, path: str) -> None:
    """Reject the first of the (pair index, sentence_id, pos_w, pos_v)
    `rows` of `path` that has a negative value, equal positions, or a
    sentence already seen for its pair (counting gives a pair at most one
    event per sentence)."""
    problems = np.stack((
        (rows[:, 1:] < 0).any(axis=1),
        rows[:, 2] == rows[:, 3],
        _repeats(rows[:, 0], rows[:, 1]),
    ))
    bad = np.flatnonzero(problems.any(axis=0))
    if len(bad):
        what = (
            "negative sentence_id, pos_w or pos_v",
            "pos_w equals pos_v",
            "sentence_id repeats within its pair",
        )[int(np.argmax(problems[:, bad[0]]))]
        raise ValueError(f"{path} line {bad[0] + 2}: {what}")


def read_observations(obs_path: str, events_path: str) -> CountResult:
    """Load a dumped count; the result cannot be merged further.

    Every row's cells must be non-negative and sum to its `n`, every row
    must have the first row's `n`, and no pair may repeat.  Every event
    row must name a listed pair and hold non-negative values with
    `pos_w != pos_v`, no pair may have two events in one sentence, and
    each pair must have `o_wv` events.
    """
    tables: list[tuple[LemmaPair, ContingencyTable]] = []
    index: dict[tuple[str, ...], int] = {}  # a pair's event-row key -> its row

    def observation_from_fields(
        f: list[str],
    ) -> tuple[tuple[str, ...], LemmaPair, ContingencyTable]:
        pair, table = _observation_from_fields(f)
        if tables and table.n != tables[0][1].n:
            raise ValueError(f"n = {table.n} differs from the first row's n = {tables[0][1].n}")
        key = (f[0], f[1], f[2], f[3])
        if key in index:
            raise ValueError(f"duplicate pair {' '.join(key)}")
        return key, pair, table

    for key, pair, table in read_table(obs_path, OBSERVATIONS, observation_from_fields):
        index[key] = len(tables)
        tables.append((pair, table))

    def event_from_fields(f: list[str]) -> tuple[int, int, int, int]:
        i = index.get((f[0], f[1], f[2], f[3]))
        if i is None:
            raise ValueError("event for unknown pair")
        return i, int(f[4]), int(f[5]), int(f[6])

    flat = array("q")
    try:
        for row in read_table(events_path, EVENTS, event_from_fields):
            flat.extend(row)
    except OverflowError:
        line_no = len(flat) // 4 + 2
        raise ValueError(f"{events_path} line {line_no}: integer out of int64 range") from None
    rows = np.frombuffer(flat, dtype=np.int64).reshape(-1, 4)
    _check_event_rows(rows, events_path)
    counts = np.bincount(rows[:, 0], minlength=len(tables))
    for (pair, table), m in zip(tables, counts.tolist()):
        if m != table.o_wv:
            raise ValueError(f"{events_path}: event count mismatch for pair {pair}")
    events = rows[np.argsort(rows[:, 0], kind="stable"), 1:]
    observations = {
        pair: PairObservations(pair, table, part)
        for (pair, table), part in zip(tables, np.split(events, np.cumsum(counts)[:-1]))
    }
    return CountResult(observations, tables[0][1].n if tables else 0, ())


def write_lemma_freqs(freqs: Mapping[LemmaKey, int], path: str) -> None:
    rows = ((key.lemma, key.pos, str(freqs[key])) for key in sorted(freqs))
    write_table(path, LEMMA_FREQS, rows)


def _freq_from_fields(f: list[str]) -> tuple[LemmaKey, int]:
    return LemmaKey(f[0], f[1]), int(f[2])


def read_lemma_freqs(path: str) -> dict[LemmaKey, int]:
    return dict(read_table(path, LEMMA_FREQS, _freq_from_fields))
