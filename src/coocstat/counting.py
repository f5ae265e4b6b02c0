"""Single-pass sentence counting for a fixed list of lemma pairs.

The per-sentence work is O(sentence length + pairs touched): each
sentence is reduced to a dict of first-occurrence positions per
(lemma, pos) key, which is probed against an index from keys to pair
slots.  This keeps a pass over tens of millions of sentences feasible
for tens of thousands of pairs.

Counting can be sharded over contiguous sentence-id blocks; `merge`
recombines shard results and is exactly equivalent to one pass.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from coocstat.corpus import CONTENT_POS, LemmaKey, Sentence
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
    """First-occurrence token positions of both lemmas in one sentence."""

    sentence_id: int
    pos_w: int
    pos_v: int


@dataclass
class PairObservations:
    pair: LemmaPair
    table: ContingencyTable
    events: list[CooccurrenceEvent]


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


def count(sentences: Iterable[Sentence], pairs: Sequence[LemmaPair]) -> CountResult:
    """Count sentence-level (co-)occurrences of every pair in one pass.

    A sentence contributes at most one to each cell no matter how many
    times a lemma repeats; event positions are the first occurrence of
    each lemma with the pair's PoS.
    """
    if not pairs:
        raise ValueError("pair list must be non-empty")
    pairs = _dedupe(pairs)

    key_map: dict[LemmaKey, list[tuple[int, int]]] = {}
    for idx, pair in enumerate(pairs):
        key_map.setdefault(pair.w, []).append((idx, 0))
        key_map.setdefault(pair.v, []).append((idx, 1))

    n = 0
    n_w = [0] * len(pairs)
    n_v = [0] * len(pairs)
    n_wv = [0] * len(pairs)
    events: list[list[CooccurrenceEvent]] = [[] for _ in pairs]

    runs: list[list[int]] = []
    for sent in sentences:
        n += 1
        sid = sent.id
        if runs and sid == runs[-1][1] + 1:
            runs[-1][1] = sid
        else:
            runs.append([sid, sid])

        first: dict[tuple[str, str], int] = {}
        for i, tok in enumerate(sent.tokens):
            k = (tok.lemma, tok.pos)
            if k not in first:
                first[k] = i

        touched: dict[int, list[int | None]] = {}
        for k, pos_idx in first.items():
            slots = key_map.get(k)  # type: ignore[arg-type]
            if slots:
                for idx, side in slots:
                    cell = touched.get(idx)
                    if cell is None:
                        cell = touched[idx] = [None, None]
                    cell[side] = pos_idx

        for idx, (pw, pv) in touched.items():
            if pw is not None:
                n_w[idx] += 1
                if pv is not None:
                    n_v[idx] += 1
                    n_wv[idx] += 1
                    events[idx].append(CooccurrenceEvent(sid, pw, pv))
            else:
                n_v[idx] += 1

    observations = {}
    for idx, pair in enumerate(pairs):
        both = n_wv[idx]
        table = ContingencyTable(
            o_wv=both,
            o_w_notv=n_w[idx] - both,
            o_notw_v=n_v[idx] - both,
            o_notw_notv=n - n_w[idx] - n_v[idx] + both,
            n=n,
        )
        observations[pair] = PairObservations(pair, table, events[idx])

    merged_runs = _coalesce(tuple((lo, hi) for lo, hi in runs))
    return CountResult(observations, n, merged_runs)


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
        events = sorted(obs_a.events + obs_b.events, key=lambda e: e.sentence_id)
        observations[pair] = PairObservations(pair, table, events)
    return CountResult(observations, n, runs)


def _count_block(args: tuple[list[Sentence], list[LemmaPair]]) -> CountResult:
    block, pairs = args
    return count(block, pairs)


def _blocks(
    sentences: Iterable[Sentence], block_size: int
) -> Iterator[list[Sentence]]:
    it = iter(sentences)
    while True:
        block = list(itertools.islice(it, block_size))
        if not block:
            return
        yield block


def count_sharded(
    sentences: Iterable[Sentence],
    pairs: Sequence[LemmaPair],
    workers: int = 1,
    block_size: int = 20000,
) -> CountResult:
    """Count in contiguous blocks, optionally across worker processes.

    Results are merged in block order, so the outcome is identical to a
    single `count` pass regardless of worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    pairs = _dedupe(pairs)

    result: CountResult | None = None
    if workers == 1:
        for block in _blocks(sentences, block_size):
            part = count(block, pairs)
            result = part if result is None else merge(result, part)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            tasks = ((block, list(pairs)) for block in _blocks(sentences, block_size))
            for part in pool.map(_count_block, tasks):
                result = part if result is None else merge(result, part)
    if result is None:
        result = count([], pairs) if pairs else CountResult({}, 0, ())
    return result


# ---------------------------------------------------------------------------
# Restricted corpus scan: per-lemma frequencies and pair existence

class UniverseScan(NamedTuple):
    freqs: dict[LemmaKey, int]
    pairs: set[tuple[LemmaKey, LemmaKey]] | None
    n_sentences: int


def scan_corpus(
    sentences: Iterable[Sentence],
    collect_pairs: bool = False,
    vocab: set[LemmaKey] | None = None,
) -> UniverseScan:
    """One pass recording per-lemma sentence frequencies and, optionally,
    which same-PoS lemma pairs ever co-occur (existence only, no events).

    Pair collection is quadratic in the number of matching lemmas per
    sentence, so callers should restrict it with `vocab` on large
    corpora.
    """
    freqs: dict[LemmaKey, int] = {}
    pair_set: set[tuple[LemmaKey, LemmaKey]] | None = set() if collect_pairs else None
    n = 0
    content = set(CONTENT_POS)
    for sent in sentences:
        n += 1
        present = set()
        for tok in sent.tokens:
            if tok.pos in content:
                present.add(LemmaKey(tok.lemma, tok.pos))
        for key in present:
            freqs[key] = freqs.get(key, 0) + 1
        if pair_set is None:
            continue
        eligible = [k for k in present if vocab is None or k in vocab]
        by_pos: dict[str, list[LemmaKey]] = {}
        for key in eligible:
            by_pos.setdefault(key.pos, []).append(key)
        for keys in by_pos.values():
            keys.sort()
            for a, b in itertools.combinations(keys, 2):
                pair_set.add((a, b))
    return UniverseScan(freqs, pair_set, n)


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
    for e in obs.events:
        yield (*prefix, str(e.sentence_id), str(e.pos_w), str(e.pos_v))


def write_observations(result: CountResult, obs_path: str, events_path: str) -> None:
    observations = result.observations.values()
    write_table(obs_path, OBSERVATIONS, map(_observation_fields, observations))
    rows = itertools.chain.from_iterable(map(_event_rows, observations))
    write_table(events_path, EVENTS, rows)


def _observation_from_fields(f: list[str]) -> PairObservations:
    table = ContingencyTable(int(f[5]), int(f[6]), int(f[7]), int(f[8]), int(f[9]))
    return PairObservations(pair_from_fields(f), table, [])


def read_observations(obs_path: str, events_path: str) -> CountResult:
    """Load a dumped count; the result cannot be merged further."""
    observations: dict[LemmaPair, PairObservations] = {}
    by_key: dict[tuple[str, ...], list[CooccurrenceEvent]] = {}
    n = 0
    for obs in read_table(obs_path, OBSERVATIONS, _observation_from_fields):
        observations[obs.pair] = obs
        by_key[pair_fields(obs.pair)[:4]] = obs.events
        n = obs.table.n

    def event_from_fields(f: list[str]) -> tuple[list[CooccurrenceEvent], CooccurrenceEvent]:
        events = by_key.get((f[0], f[1], f[2], f[3]))
        if events is None:
            raise ValueError("event for unknown pair")
        return events, CooccurrenceEvent(int(f[4]), int(f[5]), int(f[6]))

    for events, event in read_table(events_path, EVENTS, event_from_fields):
        events.append(event)
    for obs in observations.values():
        if len(obs.events) != obs.table.o_wv:
            raise ValueError(
                f"{events_path}: event count mismatch for pair {obs.pair}"
            )
    return CountResult(observations, n, ())


def write_lemma_freqs(freqs: Mapping[LemmaKey, int], path: str) -> None:
    rows = ((key.lemma, key.pos, str(freqs[key])) for key in sorted(freqs))
    write_table(path, LEMMA_FREQS, rows)


def _freq_from_fields(f: list[str]) -> tuple[LemmaKey, int]:
    return LemmaKey(f[0], f[1]), int(f[2])


def read_lemma_freqs(path: str) -> dict[LemmaKey, int]:
    return dict(read_table(path, LEMMA_FREQS, _freq_from_fields))
