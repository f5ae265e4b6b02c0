"""Sentence counting for a fixed list of lemma pairs, over a `Corpus`.

Counting walks the corpus once in blocks of `_SCAN_BLOCK` sentences.
Each block builds posting lists (sentence and first position) for the
pairs' keys only, and every pair probes its shorter list against the
other in one `np.searchsorted` over the block, so a pair costs time in
proportion to its keys' postings, not to the corpus (the inverted-index
layout of Evert 2005, *The Statistics of Word Cooccurrences*, ch. 2-3).
One stable sort by pair after the walk puts each pair's events in input
order.  Any iterable of `Sentence` is compiled into a `Corpus` first.

Each pair's co-occurrence events are one `(m, 3)` int64 array with the
columns `sentence_id, pos_w, pos_v`, 24 bytes per event, from `count`
through `read_observations` to the metrics; no Python object is built
per event.

`merge` combines the results of disjoint sentence-id ranges exactly as
one pass would count them."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from coocstat.corpus import (
    CONTENT_POS, Corpus, LemmaKey, PairUniverse, Sentence, as_corpus, sorted_unique,
)
from coocstat.lexicon import PAIRS, LemmaPair, pair_fields, pair_from_fields
from coocstat.tsv import Table, read_keyed_ints, read_table, write_table


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
    return list(dict.fromkeys(pairs))


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


def _blocks(corpus: Corpus, block_size: int) -> Iterator[tuple[int, Corpus]]:
    """Consecutive blocks of `block_size` sentences, with each block's
    first sentence index."""
    for lo in range(0, len(corpus), block_size):
        yield lo, corpus.sentence_slice(lo, lo + block_size)


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


def _count(corpus: Corpus, pairs: Sequence[LemmaPair], block_size: int) -> CountResult:
    """The pass behind `count` and `count_sharded`: one walk over blocks of
    `block_size` sentences, joining every pair per block."""
    if not pairs:
        raise ValueError("pair list must be non-empty")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    pairs = _dedupe(pairs)
    n, size = len(corpus), len(corpus.keys)
    ids = dict(zip(corpus.keys, range(size)))
    keys = [k for p in pairs for k in (p.w, p.v)]
    key_of = np.fromiter(
        map(ids.get, keys, itertools.repeat(size)), dtype=np.int64, count=len(keys)
    ).reshape(-1, 2)
    # Rank the pairs' keys densely; a key absent from the corpus, and every
    # token of a key no pair has, gets the empty rank `n_ranks`.
    wanted = sorted_unique(key_of[key_of < size])
    n_ranks = len(wanted)
    rank = np.full(size + 1, n_ranks, dtype=np.int64)
    rank[wanted] = np.arange(n_ranks)
    w, v = rank[key_of[:, 0]], rank[key_of[:, 1]]

    key_count = np.zeros(n_ranks + 1, dtype=np.int64)
    pair_parts, event_parts = [np.empty(0, dtype=np.int64)], [np.empty((0, 3), dtype=np.int64)]
    for lo, block in _blocks(corpus, block_size):
        codes, first = _postings(block, rank, n_ranks)
        per_key = np.bincount(codes // len(block), minlength=n_ranks + 1)
        key_count += per_key
        start = np.concatenate(([0], np.cumsum(per_key)))
        # Batches of pairs with about `_JOIN_BATCH` probes each.
        probes = np.cumsum(np.minimum(per_key[w], per_key[v]))
        cuts = np.searchsorted(probes, np.arange(_JOIN_BATCH, probes[-1], _JOIN_BATCH)) + 1
        bounds = sorted_unique(np.concatenate(([0], cuts, [len(pairs)]))).tolist()
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
    n_wv = np.bincount(pair, minlength=len(pairs))
    n_w, n_v = key_count[w], key_count[v]
    tables = map(
        ContingencyTable, n_wv.tolist(), (n_w - n_wv).tolist(), (n_v - n_wv).tolist(),
        (n - n_w - n_v + n_wv).tolist(), itertools.repeat(n),
    )
    ends = np.cumsum(n_wv).tolist()
    observations = {
        p: PairObservations(p, table, events[lo:hi])
        for p, table, lo, hi in zip(pairs, tables, [0, *ends], ends)
    }
    return CountResult(observations, n, _id_runs(corpus.sentence_ids))


def count(sentences: Iterable[Sentence], pairs: Sequence[LemmaPair]) -> CountResult:
    """Count sentence-level (co-)occurrences of every pair.

    A sentence contributes at most one to each cell no matter how many
    times a lemma repeats; event positions are the first occurrence of
    each lemma with the pair's PoS.  Each pair's events are in input
    order.
    """
    return _count(as_corpus(sentences), pairs, _SCAN_BLOCK)


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
    block_size: int | None = None,
) -> CountResult:
    """`count` with blocks of `block_size` sentences (default
    `_SCAN_BLOCK`); the outcome is identical.  An empty corpus with no
    pairs gives an empty result."""
    corpus = as_corpus(sentences)
    if not pairs and not len(corpus):
        return CountResult({}, 0, ())
    return _count(corpus, pairs, _SCAN_BLOCK if block_size is None else block_size)


# ---------------------------------------------------------------------------
# Restricted corpus scan: per-lemma frequencies and pair existence

class UniverseScan(NamedTuple):
    freqs: dict[LemmaKey, int]
    pairs: PairUniverse | None
    n_sentences: int


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
    for _, block in _blocks(corpus, _SCAN_BLOCK):
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


def _check_event_rows(pair: np.ndarray, values: np.ndarray, path: str) -> np.ndarray:
    """Reject the first event row of `path`, given as its pair index `pair`
    and its `sentence_id, pos_w, pos_v` `values`, that has a negative
    value, equal positions, or a sentence already seen for its pair
    (counting gives a pair at most one event per sentence).  Return the
    row order by pair, then sentence_id."""
    order = np.lexsort((values[:, 0], pair))
    same = np.diff(pair[order]) == 0
    same &= np.diff(values[order, 0]) == 0
    repeats = np.zeros(len(order), dtype=bool)
    repeats[order[1:][same]] = True  # the later row of each equal (pair, sentence_id)
    problems = np.stack((
        (values < 0).any(axis=1),
        values[:, 1] == values[:, 2],
        repeats,
    ))
    bad = np.flatnonzero(problems.any(axis=0))
    if len(bad):
        what = (
            "negative sentence_id, pos_w or pos_v",
            "pos_w equals pos_v",
            "sentence_id repeats within its pair",
        )[int(np.argmax(problems[:, bad[0]]))]
        raise ValueError(f"{path} line {bad[0] + 2}: {what}")
    return order


def read_observations(obs_path: str, events_path: str) -> CountResult:
    """Load a dumped count; the result cannot be merged further.

    Every row's cells must be non-negative and sum to its `n`, every row
    must have the first row's `n`, and no pair may repeat.  Every event
    row must name a listed pair and hold non-negative values with
    `pos_w != pos_v`, no pair may have two events in one sentence, and
    each pair must have `o_wv` events.  Each pair's events come back
    sorted by `sentence_id`, whatever the row order of `events_path`.
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

    def event_pair(key: list[str]) -> int:
        i = index.get(tuple(key))
        if i is None:
            raise ValueError("event for unknown pair")
        return i

    pair, values = read_keyed_ints(events_path, EVENTS, 4, event_pair)
    order = _check_event_rows(pair, values, events_path)
    counts = np.bincount(pair, minlength=len(tables))
    for (p, table), m in zip(tables, counts.tolist()):
        if m != table.o_wv:
            raise ValueError(f"{events_path}: event count mismatch for pair {p}")
    events = values[order]
    observations = {
        p: PairObservations(p, table, part)
        for (p, table), part in zip(tables, np.split(events, np.cumsum(counts)[:-1]))
    }
    return CountResult(observations, tables[0][1].n if tables else 0, ())


def write_lemma_freqs(freqs: Mapping[LemmaKey, int], path: str) -> None:
    rows = ((key.lemma, key.pos, str(freqs[key])) for key in sorted(freqs))
    write_table(path, LEMMA_FREQS, rows)


def _freq_from_fields(f: list[str]) -> tuple[LemmaKey, int]:
    return LemmaKey(f[0], f[1]), int(f[2])


def read_lemma_freqs(path: str) -> dict[LemmaKey, int]:
    return dict(read_table(path, LEMMA_FREQS, _freq_from_fields))
