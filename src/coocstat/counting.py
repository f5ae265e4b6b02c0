"""Sentence counting for a fixed list of lemma pairs, over a `Corpus`.

Counting walks the corpus once in blocks of `_SCAN_BLOCK` sentences.
Each block builds posting lists (sentence and first position) for the
pairs' keys only, and every pair probes its shorter list against the
other in one `np.searchsorted` over the block, so a pair costs time in
proportion to its keys' postings, not to the corpus (the inverted-index
layout of Evert 2005, *The Statistics of Word Cooccurrences*, ch. 2-3).
One stable sort by pair after the walk puts each pair's events in input
order.  Any iterable of `Sentence` is compiled into a `Corpus` first.

A count is one columnar `CountResult` with one row per pair: the five
`PAIRS` key columns as lists of str, a `(P, 4)` int64 array of the
pairs' cells and one `(E, 3)` int64 array of every pair's co-occurrence
events in pair order, with the columns `sentence_id, pos_w, pos_v`, 24
bytes per event.  It goes from `count` through `write_observations` and
`read_observations` to the metrics as it is; no Python object is built
per pair or per event on the way, the keys included.

`merge` combines the results of disjoint sentence-id ranges exactly as
one pass would count them."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from coocstat.corpus import (
    CONTENT_POS, Corpus, LemmaKey, PairUniverse, Sentence, as_corpus, sorted_unique,
)
from coocstat.lexicon import (
    PAIRS, LemmaPair, pair_columns, pair_keys, pair_name, pairs_from_columns,
)
from coocstat.tsv import Faults, Table, int64s, read_columns, read_keyed_ints, write_table


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
    """The columns of one row of `CountResult.events` and
    `PairObservations.events`: the sentence and the first-occurrence token
    positions of both lemmas in it."""

    sentence_id: int
    pos_w: int
    pos_v: int


@dataclass
class PairObservations:
    """One pair's row of `CountResult.observations`: its table and its
    `(o_wv, 3)` int64 array of events, one `sentence_id, pos_w, pos_v` row
    per sentence where both lemmas occur."""

    pair: LemmaPair
    table: ContingencyTable
    events: np.ndarray


class MergeError(ValueError):
    """Shard results that cannot be combined (overlapping ids or pair mismatch)."""


@dataclass(eq=False)
class CountResult:
    """Counts for one corpus segment, one row per pair: the pair's five
    `PAIRS` fields, `head` "" for none; `cells` holds each pair's `o_wv,
    o_w_notv, o_notw_v, o_notw_notv`, and `events` each pair's `o_wv`
    events in turn.  `id_runs` records the sentence-id intervals the
    segment covered, which is what lets `merge` reject overlapping shards;
    a count read back from files has none.
    """

    lemma_w: list[str]
    lemma_v: list[str]
    pos: list[str]
    relation: list[str]
    head: list[str]
    cells: np.ndarray
    events: np.ndarray
    n: int
    id_runs: tuple[tuple[int, int], ...]

    @property
    def key_columns(self) -> list[list[str]]:
        """The five `PAIRS` columns."""
        return [self.lemma_w, self.lemma_v, self.pos, self.relation, self.head]

    def pair_name(self, row: int) -> str:
        """Row `row`'s `pair_name`, spaced for a message."""
        return pair_name([column[row] for column in self.key_columns]).replace("\t", " ")

    @functools.cached_property
    def pairs(self) -> list[LemmaPair]:
        """Each row's pair, built on first access."""
        return pairs_from_columns(self.key_columns)

    @functools.cached_property
    def observations(self) -> dict[LemmaPair, PairObservations]:
        """Each pair's table and events, built on first access."""
        ends = np.cumsum(self.cells[:, 0]).tolist()
        return {
            p: PairObservations(p, ContingencyTable(*cells, self.n), self.events[lo:hi])
            for p, cells, lo, hi in zip(self.pairs, self.cells.tolist(), [0, *ends], ends)
        }


def _id_runs(sentence_ids: np.ndarray) -> tuple[tuple[int, int], ...]:
    if not len(sentence_ids):
        return ()
    cut = np.flatnonzero(np.diff(sentence_ids) != 1) + 1
    lo = sentence_ids[np.concatenate(([0], cut))]
    hi = sentence_ids[np.concatenate((cut - 1, [len(sentence_ids) - 1]))]
    return _coalesce(tuple(zip(lo.tolist(), hi.tolist())))


# Sentences per block of the corpus walks (scan and count), which bounds
# their scratch arrays.
_SCAN_BLOCK = 1 << 16
# Probe entries per batch of the pair join, which bounds its scratch arrays.
_JOIN_BATCH = 1 << 20


def _blocks(corpus: Corpus) -> Iterator[tuple[int, Corpus]]:
    """Consecutive blocks of `_SCAN_BLOCK` sentences, with each block's
    first sentence index."""
    for lo in range(0, len(corpus), _SCAN_BLOCK):
        yield lo, corpus.sentence_slice(lo, lo + _SCAN_BLOCK)


def _postings(
    block: Corpus, rank: np.ndarray, n_ranks: int
) -> tuple[np.ndarray, np.ndarray]:
    """Posting codes ``rank * len(block) + sentence`` of the block's
    distinct (key, sentence) entries whose key rank is below `n_ranks`,
    sorted, with the key's first token position in that sentence."""
    r = rank[block.token_ids]
    at = np.flatnonzero(r < n_ranks)
    # Sorting ``rank * tokens + token`` orders the entries by key, then
    # sentence, then position; ranks never exceed the vocabulary, so the
    # codes fit in int64 for any block that fits in memory.
    key, at = np.divmod(np.sort(r[at] * len(r) + at), len(r))
    sent = block.sentence_index()[at]
    first = np.ones(len(at), dtype=bool)
    first[1:] = (key[1:] != key[:-1]) | (sent[1:] != sent[:-1])
    sent = sent[first]
    return key[first] * len(block) + sent, at[first] - block.offsets[sent]


def _join(
    codes: np.ndarray, first: np.ndarray, start: np.ndarray, nb: int,
    w: np.ndarray, v: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The block's events of the pairs of key ranks `w`, `v`: the pair
    index and a ``sentence, pos_w, pos_v`` row per sentence holding both
    keys, in pair-then-sentence order.  Key rank ``k`` has the postings
    ``codes[start[k]:start[k + 1]]``, and `first` their positions; each
    pair probes its shorter list against the other."""
    len_w, len_v = start[w + 1] - start[w], start[v + 1] - start[v]
    w_probes = len_w <= len_v
    probe, target = np.where(w_probes, w, v), np.where(w_probes, v, w)
    length = np.minimum(len_w, len_v)
    pair = np.repeat(np.arange(len(w)), length)
    entry = np.repeat(start[probe] - np.cumsum(length) + length, length) + np.arange(len(pair))
    sent = codes[entry] % nb
    wanted = target[pair] * nb + sent
    j = np.searchsorted(codes, wanted)
    j[j == len(codes)] = 0
    hit = codes[j] == wanted
    pair, sent, at_probe, at_target = pair[hit], sent[hit], first[entry[hit]], first[j[hit]]
    from_w = w_probes[pair]
    return pair, np.stack((
        sent,
        np.where(from_w, at_probe, at_target),
        np.where(from_w, at_target, at_probe),
    ), axis=1)


def check_pairs(pairs: Sequence[LemmaPair]) -> list[list[str]]:
    """The five `PAIRS` columns of the pairs that `count` counts, the first
    of each `pair_name`; no pairs, or two of one name (one listed with both
    heads), raise ValueError."""
    if not pairs:
        raise ValueError("pair list must be non-empty")
    columns = pair_columns(pairs)
    names = list(map("\t".join, zip(*columns[:4])))
    first = dict(zip(reversed(names), range(len(names) - 1, -1, -1)))  # each name's first row
    if len(first) == len(names):
        return columns
    head = columns[4]
    kept = list(map(head.__getitem__, map(first.__getitem__, names)))
    if kept != head:
        row = next(row for row, side in enumerate(head) if side != kept[row])
        spaced = names[row].replace("\t", " ")
        raise ValueError(
            f"pair {spaced} listed with head {kept[row]!r} and with head {head[row]!r}"
        )
    rows = sorted(first.values())
    return [list(map(column.__getitem__, rows)) for column in columns]


def count(sentences: Iterable[Sentence], pairs: Sequence[LemmaPair]) -> CountResult:
    """Count sentence-level (co-)occurrences of every pair.

    A sentence contributes at most one to each cell no matter how many
    times a lemma repeats; event positions are the first occurrence of
    each lemma with the pair's PoS.  Each pair's events are in input
    order.  The corpus is walked once, joining every pair per block.
    """
    columns = check_pairs(pairs)
    corpus = as_corpus(sentences)
    n, size = len(corpus), len(corpus.keys)
    lemma_w, lemma_v, pos = columns[:3]
    n_pairs = len(pos)
    # A (lemma, pos) tuple finds the `LemmaKey` of those fields.
    keys = itertools.chain(zip(lemma_w, pos), zip(lemma_v, pos))
    key_of = np.fromiter(
        map(corpus.key_ids.get, keys, itertools.repeat(size)), dtype=np.int64, count=2 * n_pairs
    )
    # Rank the pairs' keys densely; a key absent from the corpus, and every
    # token of a key no pair has, gets the empty rank `n_ranks`.
    wanted = sorted_unique(key_of[key_of < size])
    n_ranks = len(wanted)
    rank = np.full(size + 1, n_ranks, dtype=np.int64)
    rank[wanted] = np.arange(n_ranks)
    w, v = rank[key_of[:n_pairs]], rank[key_of[n_pairs:]]

    key_count = np.zeros(n_ranks + 1, dtype=np.int64)
    pair_parts, event_parts = [np.empty(0, dtype=np.int64)], [np.empty((0, 3), dtype=np.int64)]
    for lo, block in _blocks(corpus):
        codes, first = _postings(block, rank, n_ranks)
        per_key = np.bincount(codes // len(block), minlength=n_ranks + 1)
        key_count += per_key
        start = np.concatenate(([0], np.cumsum(per_key)))
        # Batches of pairs with about `_JOIN_BATCH` probes each.
        probes = np.cumsum(np.minimum(per_key[w], per_key[v]))
        cuts = np.searchsorted(probes, np.arange(_JOIN_BATCH, probes[-1], _JOIN_BATCH)) + 1
        bounds = sorted_unique(np.concatenate(([0], cuts, [n_pairs]))).tolist()
        for a, b in itertools.pairwise(bounds):
            pair, events = _join(codes, first, start, len(block), w[a:b], v[a:b])
            events[:, 0] += lo
            pair_parts.append(pair + a)
            event_parts.append(events)

    pair = np.concatenate(pair_parts)
    events = np.concatenate(event_parts)
    del pair_parts, event_parts  # free the parts before the sort copies `events`
    events = events[np.argsort(pair, kind="stable")]
    events[:, 0] = corpus.sentence_ids[events[:, 0]]
    n_wv = np.bincount(pair, minlength=n_pairs)
    n_w, n_v = key_count[w], key_count[v]
    cells = np.stack((n_wv, n_w - n_wv, n_v - n_wv, n - n_w - n_v + n_wv), axis=1)
    return CountResult(*columns, cells, events, n, _id_runs(corpus.sentence_ids))


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
    """Combine two shard results from disjoint sentence-id ranges, over the
    same pairs in any order.  The result has `a`'s pair order, and each
    pair's events are `a`'s and `b`'s ordered stably by `sentence_id`."""
    if any(r.n and not r.id_runs for r in (a, b)):
        raise MergeError("a count read back from files has no sentence-id ranges to merge")
    row = dict(zip(b.pairs, range(len(b.pairs))))
    if len(row) != len(a.pairs) or row.keys() != set(a.pairs):
        raise MergeError("shards were counted over different pair lists")
    runs = _coalesce(tuple(a.id_runs) + tuple(b.id_runs))

    in_b = np.fromiter(map(row.__getitem__, a.pairs), dtype=np.int64, count=len(a.pairs))
    rank = np.concatenate((  # each event's pair, as its row in `a`
        np.repeat(np.arange(len(in_b)), a.cells[:, 0]),
        np.repeat(np.argsort(in_b), b.cells[:, 0]),
    ))
    events = np.concatenate((a.events, b.events))
    events = events[np.lexsort((events[:, 0], rank))]
    return CountResult(*a.key_columns, a.cells + b.cells[in_b], events, a.n + b.n, runs)


# The name the CLI calls and the benchmark's tracer wraps.
count_sharded = count


# ---------------------------------------------------------------------------
# Restricted corpus scan: per-lemma frequencies and pair existence

class UniverseScan(NamedTuple):
    freqs: dict[LemmaKey, int]
    pairs: PairUniverse | None


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
    for _, block in _blocks(corpus):
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
        pairs = PairUniverse(keys, sorted_unique(codes), corpus.key_ids)
    return UniverseScan(freqs, pairs)


# ---------------------------------------------------------------------------
# File formats

OBSERVATIONS = Table(
    "observations", PAIRS.columns + ("o_wv", "o_w_notv", "o_notw_v", "o_notw_notv", "n")
)
EVENTS = Table("events", PAIRS.columns[:4] + ("sentence_id", "pos_w", "pos_v"))
LEMMA_FREQS = Table("lemma-frequency", ("lemma", "pos", "count"))


def write_observations(result: CountResult, obs_path: str, events_path: str) -> None:
    key_columns = result.key_columns
    cells = (map(str, column) for column in result.cells.T.tolist())
    write_table(obs_path, OBSERVATIONS, zip(*key_columns, *cells, itertools.repeat(str(result.n))))
    # Each event row starts with its pair's name, made once per pair.
    keys = map(pair_name, zip(*key_columns[:4]))
    prefixes = itertools.chain.from_iterable(
        map(itertools.repeat, keys, result.cells[:, 0].tolist())
    )
    columns = (map(str, column) for column in result.events.T.tolist())
    write_table(events_path, EVENTS, zip(prefixes, *columns))


def _check_event_rows(pair: np.ndarray, values: np.ndarray, faults: Faults) -> np.ndarray | None:
    """Add to `faults` the first event row, given as its pair index `pair`
    and its `sentence_id, pos_w, pos_v` `values`, that has a negative
    value, equal positions, or a sentence already seen for its pair
    (counting gives a pair at most one event per sentence).  Return the
    row order by pair, then sentence_id, or None for rows already in that
    order, as `count` writes them from a corpus whose ids increase."""
    order = None
    step, gap = np.diff(pair), np.diff(values[:, 0])
    if ((step < 0) | ((step == 0) & (gap < 0))).any():
        order = np.lexsort((values[:, 0], pair))
        step, gap = np.diff(pair[order]), np.diff(values[order, 0])
    later = np.flatnonzero((step == 0) & (gap == 0)) + 1  # the later of two equal rows
    repeats = np.zeros(len(pair), dtype=bool)
    repeats[later if order is None else order[later]] = True
    faults.where((values < 0).any(axis=1), lambda row: "negative sentence_id, pos_w or pos_v")
    faults.where(values[:, 1] == values[:, 2], lambda row: "pos_w equals pos_v")
    faults.where(repeats, lambda row: "sentence_id repeats within its pair")
    return order


def _observations_from_columns(
    columns: list[list[str]], faults: Faults
) -> tuple[list[list[str]], list[str], np.ndarray, int]:
    """The five key columns of an observations table, each row's key fields
    joined by tabs, the `(P, 4)` cells and the count's `n`."""
    keys = pair_keys(columns[:5], faults)
    cells = [int64s(columns.pop(5), faults) for _ in range(5)]  # freeing each text column
    rows = min(map(len, cells))
    cells, n = np.stack([c[:rows] for c in cells[:4]], axis=1), cells[4][:rows]
    faults.where((cells < 0).any(axis=1), lambda row: "negative cell count")
    sums = cells.sum(axis=1, dtype=object)  # exact: four int64 cells can pass 2**63
    faults.where(sums != n, lambda row: f"cells sum to {sums[row]}, not n = {n[row]}")
    faults.where(n != n[:1], lambda row: f"n = {n[row]} differs from the first row's n = {n[0]}")
    return columns, keys, cells, int(n[0]) if rows else 0


def read_observations(obs_path: str, events_path: str) -> CountResult:
    """Load a dumped count; the result has no sentence-id ranges, so it
    cannot be merged further.

    Every row's cells must be non-negative and sum to its `n`, every row
    must have the first row's `n`, and no pair may repeat.  Every event
    row must name a listed pair and hold non-negative values with
    `pos_w != pos_v`, no pair may have two events in one sentence, and
    each pair must have `o_wv` events.  Each pair's events come back
    sorted by `sentence_id`, whatever the row order of `events_path`.
    In each file the first bad line is reported.
    """
    columns, keys, cells, n = read_columns(obs_path, OBSERVATIONS, _observations_from_columns)
    index = {key: i for i, key in enumerate(keys)}

    def event_pair(key: str) -> int:
        i = index.get(key)
        if i is None:
            raise ValueError("event for unknown pair")
        return i

    faults = Faults(events_path)
    pair, values = read_keyed_ints(events_path, EVENTS, 4, event_pair, faults)
    order = _check_event_rows(pair, values, faults)
    faults.raise_first()
    result = CountResult(*columns, cells, values if order is None else values[order], n, ())
    counts = np.bincount(pair, minlength=len(keys))
    wrong = np.flatnonzero(counts != cells[:, 0])
    if len(wrong):
        i = int(wrong[0])
        raise ValueError(
            f"{events_path}: {counts[i]} events for pair {result.pair_name(i)}, not its o_wv;"
            f" {obs_path} line {i + 2}: o_wv = {cells[i, 0]}"
        )
    return result


def write_lemma_freqs(freqs: Mapping[LemmaKey, int], path: str) -> None:
    rows = ((key.lemma, key.pos, str(freqs[key])) for key in sorted(freqs))
    write_table(path, LEMMA_FREQS, rows)


def _freqs_from_columns(columns: list[list[str]], faults: Faults) -> dict[LemmaKey, int]:
    lemma, pos, count = columns
    faults.first(pos, lambda tag: tag not in CONTENT_POS, lambda row: f"unknown pos {pos[row]!r}")
    faults.repeats(list(map(" ".join, zip(lemma, pos))), lambda key: "duplicate lemma " + key)
    counts = int64s(count, faults)
    faults.where(counts < 0, lambda row: "negative count")
    return dict(zip(map(LemmaKey, lemma, pos), counts.tolist()))


def read_lemma_freqs(path: str) -> dict[LemmaKey, int]:
    """Read `corpus_freqs.tsv`, rejecting the first row, in file order,
    with a PoS outside `CONTENT_POS`, a ``lemma pos`` already listed, or a
    count that is negative or not an integer."""
    return read_columns(path, LEMMA_FREQS, _freqs_from_columns)
