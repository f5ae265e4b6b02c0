"""Plain-Python reference versions of the corpus parser, the frequency and
pair scan, the counter, the control-pair sampler, the event metrics, the
pair scorer, the Brunner-Munzel test, the `events.tsv` decoder and the
row-by-row readers of the headerless input files.

These are the loop implementations the array code in `coocstat.corpus`,
`coocstat.counting`, `coocstat.lexicon` and `coocstat.metrics` replaced:
one Python object per token and per co-occurrence event, a dict of first
positions per sentence, a tuple set for the pair universe, and one
`PairStats` per pair scored one float at a time.
`test_reference.py` and `test_metrics.py` require the library to give
exactly their results.
"""

from __future__ import annotations

import gzip
import itertools
import math
import re
from typing import Callable, Container, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

import numpy as np

from coocstat.corpus import CONTENT_POS, PUNCT, LemmaKey, Sentence, Token, map_pos
from coocstat.counting import (
    ContingencyTable,
    CooccurrenceEvent,
    CountResult,
    PairObservations,
    _coalesce,
)
from coocstat.lexicon import (
    _UNIT_FLAGS,
    _VERB_CLASS_FLAGS,
    _VERB_CLASS_NAMES,
    FLAGS,
    HOL,
    HYP,
    RELATED,
    UNR,
    VERB,
    DerivationLink,
    LemmaMeta,
    LemmaPair,
    LexiconEntry,
    _orient,
    pair_columns,
    pair_fields,
    unordered_key,
)
from coocstat.metrics import (
    DEFAULT_ALPHA,
    OrderStats,
    PairStats,
    StatsTable,
    UndefinedMetricError,
    _order_test,
)
from coocstat.stats import TestResult, sequential_sum, t_sf_two_sided
from coocstat.tsv import Table, decimal


class ReferenceParseError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _parse_token(line: str, line_no: int) -> Token:
    fields = line.split("\t")
    if len(fields) != 3:
        raise ReferenceParseError(
            f"expected 3 tab-separated fields, got {len(fields)}", line_no
        )
    surface, lemma, raw_pos = fields
    lemma = lemma.casefold()
    if not lemma:
        raise ReferenceParseError("empty lemma field", line_no)
    if any(ch.isspace() for ch in lemma):
        raise ReferenceParseError(f"lemma contains whitespace: {lemma!r}", line_no)
    return Token(surface, lemma, map_pos(raw_pos))


class SentenceStream:
    """Streams filtered sentences; `n_yielded` and `n_skipped` run along."""

    def __init__(self, path: str, min_len: int):
        self._path = path
        self._min_len = min_len
        self.n_yielded = 0
        self.n_skipped = 0

    def __iter__(self) -> Iterator[Sentence]:
        tokens: list[Token] = []
        opener = gzip.open if str(self._path).endswith(".gz") else open
        with opener(self._path, "rt", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.rstrip("\n").rstrip("\r")
                if line.startswith("#"):
                    continue
                if not line.strip():
                    sentence = self._finish(tokens)
                    tokens = []
                    if sentence is not None:
                        yield sentence
                    continue
                tokens.append(_parse_token(line, line_no))
        sentence = self._finish(tokens)
        if sentence is not None:
            yield sentence

    def _finish(self, tokens: list[Token]) -> Sentence | None:
        if not tokens:
            return None
        content = sum(1 for t in tokens if t.pos != PUNCT)
        if content < self._min_len:
            self.n_skipped += 1
            return None
        sentence = Sentence(tokens, self.n_yielded)
        self.n_yielded += 1
        return sentence


def _distinct(pairs: Sequence[LemmaPair]) -> list[LemmaPair]:
    """The first of each pair named by its lemmas, PoS and relation, which
    must not name two different pairs, such as one with both heads."""
    kept: list[LemmaPair] = []
    for pair in pairs:
        name = (pair.w.lemma, pair.v.lemma, pair.w.pos, pair.relation)
        same = [p for p in kept if (p.w.lemma, p.v.lemma, p.w.pos, p.relation) == name]
        if not same:
            kept.append(pair)
        elif same[0] != pair:
            raise ValueError(
                f"pair {' '.join(name)} listed with head {same[0].head or ''!r}"
                f" and with head {pair.head or ''!r}"
            )
    return kept


def count(sentences: Iterable[Sentence], pairs: Sequence[LemmaPair]) -> CountResult:
    pairs = _distinct(pairs)
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
            for idx, side in key_map.get(k, ()):  # type: ignore[call-overload]
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

    cells = []
    for idx in range(len(pairs)):
        both = n_wv[idx]
        cells.append((both, n_w[idx] - both, n_v[idx] - both, n - n_w[idx] - n_v[idx] + both))
    return CountResult(
        *pair_columns(pairs),
        np.array(cells, dtype=np.int64).reshape(-1, 4),
        np.array([e for pair_events in events for e in pair_events], dtype=np.int64).reshape(-1, 3),
        n,
        _coalesce(tuple((lo, hi) for lo, hi in runs)),
    )


def scan_corpus(
    sentences: Iterable[Sentence],
    collect_pairs: bool = False,
    vocab: set[LemmaKey] | None = None,
) -> tuple[dict[LemmaKey, int], set[tuple[LemmaKey, LemmaKey]] | None, int]:
    freqs: dict[LemmaKey, int] = {}
    pair_set: set[tuple[LemmaKey, LemmaKey]] | None = set() if collect_pairs else None
    n = 0
    for sent in sentences:
        n += 1
        present = {LemmaKey(t.lemma, t.pos) for t in sent.tokens if t.pos in CONTENT_POS}
        for key in present:
            freqs[key] = freqs.get(key, 0) + 1
        if pair_set is None:
            continue
        by_pos: dict[str, list[LemmaKey]] = {}
        for key in present:
            if vocab is None or key in vocab:
                by_pos.setdefault(key.pos, []).append(key)
        for keys in by_pos.values():
            keys.sort()
            pair_set.update(itertools.combinations(keys, 2))
    return freqs, pair_set, n


def _passes_meta_checks(
    a: LemmaKey,
    b: LemmaKey,
    lemma_meta: Mapping[LemmaKey, LemmaMeta],
    classes: Mapping[str, frozenset[str]],
) -> bool:
    meta_a = lemma_meta.get(a)
    meta_b = lemma_meta.get(b)
    if meta_a is None or meta_b is None:
        return False
    flags = meta_a.flags | meta_b.flags
    if a.pos == VERB:  # the word list flags verbs only
        flags |= classes.get(a.lemma, frozenset()) | classes.get(b.lemma, frozenset())
    if flags & _UNIT_FLAGS:
        return False
    if meta_a.wn_freq <= 1 or meta_b.wn_freq <= 1:
        return False
    if a.pos == VERB and flags & _VERB_CLASS_FLAGS:
        return False
    return True


def sample_unrelated(
    corpus_pairs: Iterable[tuple[LemmaKey, LemmaKey]],
    related: set[tuple[str, str, str]],
    n: int,
    seed: int,
    corpus_freq: Mapping[LemmaKey, int],
    lemma_meta: Mapping[LemmaKey, LemmaMeta] | None = None,
    classes: Mapping[str, frozenset[str]] | None = None,
) -> list[LemmaPair]:
    """Sample as `coocstat.lexicon.sample_unrelated` does, keeping, when
    `lemma_meta` is given, only pairs whose two lemmas pass rules 1, 2 and
    4 with their attributes and the verb word list `classes`."""
    universe_keys = set()
    by_key: dict[tuple[str, str, str], tuple[LemmaKey, LemmaKey]] = {}
    for a, b in corpus_pairs:
        if a.pos != b.pos or a.lemma == b.lemma:
            continue
        key = unordered_key(a, b)
        if key in related:
            continue
        if lemma_meta is not None and not _passes_meta_checks(a, b, lemma_meta, classes or {}):
            continue
        universe_keys.add(key)
        by_key[key] = (a, b)

    universe = sorted(universe_keys)
    k = min(n, len(universe))
    rng = np.random.Generator(np.random.PCG64(seed))
    for i in range(k):
        j = i + int(rng.integers(0, len(universe) - i))
        universe[i], universe[j] = universe[j], universe[i]

    sampled = []
    for key in universe[:k]:
        a, b = by_key[key]
        pair = _orient(a, b, UNR, None, corpus_freq)
        if pair is None:
            raise ValueError(
                f"co-occurring pair {key} has a zero corpus frequency; "
                "frequencies and pair scan disagree"
            )
        sampled.append(pair)
    return sampled


# ---------------------------------------------------------------------------
# Event metrics over a list of `CooccurrenceEvent` tuples


def order_stats(events: Sequence[CooccurrenceEvent], alpha: float = DEFAULT_ALPHA) -> OrderStats:
    return _order_test(sum(1 for e in events if e.pos_w < e.pos_v), len(events), alpha)


def asymmetric_order_stats(
    events: Sequence[CooccurrenceEvent], pair: LemmaPair, alpha: float = DEFAULT_ALPHA
) -> OrderStats:
    if pair.head == "w":
        k = sum(1 for e in events if e.pos_w < e.pos_v)
    else:
        k = sum(1 for e in events if e.pos_v < e.pos_w)
    return _order_test(k, len(events), alpha)


def mean_distance(events: Sequence[CooccurrenceEvent]) -> float:
    return sum(abs(e.pos_w - e.pos_v) - 1 for e in events) / len(events)


# ---------------------------------------------------------------------------
# One pair's metrics, scored one float at a time: the scalar G2, PMI and
# chi-square tail, and the `PairStats` they make


def _ln1p_minus_x(x: float) -> float:
    """ln(1+x) - x without cancellation for small |x|."""
    if abs(x) < 1e-4:
        return x * x * (-0.5 + x * (1.0 / 3.0 + x * (-0.25 + x * 0.2)))
    return math.log1p(x) - x


def g2_score(table: ContingencyTable) -> float:
    """The G2 of `metrics.g2_score`, one cell at a time."""
    n = table.n
    if n <= 0:
        raise UndefinedMetricError("empty corpus: n must be positive")
    m_w = table.o_wv + table.o_w_notv
    m_v = table.o_wv + table.o_notw_v
    if m_w < 1 or m_v < 1:
        raise UndefinedMetricError(
            f"zero marginal (|w|={m_w}, |v|={m_v}): score undefined"
        )
    rows = (m_w, n - m_w)
    cols = (m_v, n - m_v)
    observed = (
        (table.o_wv, 0, 0),
        (table.o_w_notv, 0, 1),
        (table.o_notw_v, 1, 0),
        (table.o_notw_notv, 1, 1),
    )
    total = 0.0
    for o, r, c in observed:
        rc = rows[r] * cols[c]
        if rc == 0:
            continue  # empty row/column: O is 0 there too
        e = rc / n
        if o == 0:
            total += e
            continue
        d_num = o * n - rc  # exact integer numerator of O - E
        x = d_num / rc
        total += e * _ln1p_minus_x(x) + (d_num / n) * math.log1p(x)
    return max(2.0 * total, 0.0)


def pmi_score(table: ContingencyTable) -> float | None:
    if table.o_wv == 0:
        return None
    m_w = table.o_wv + table.o_w_notv
    m_v = table.o_wv + table.o_notw_v
    return math.log2(table.o_wv * table.n / (m_w * m_v))


def chi2_sf(x: float) -> float:
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    return math.erfc(math.sqrt(x / 2.0))


class EventSums(NamedTuple):
    w_first: int  # events with pos_w < pos_v
    m: int  # events
    gap_sum: int  # the sum of |pos_w - pos_v|


def _head_first(sums: EventSums, pair: LemmaPair) -> int:
    return sums.w_first if pair.head == "w" else sums.m - sums.w_first


def _mean_distance(sums: EventSums) -> float:
    if not sums.m:
        raise UndefinedMetricError("distance is undefined without co-occurrences")
    return (sums.gap_sum - sums.m) / sums.m


def _pair_stats(
    pair: LemmaPair, table: ContingencyTable, sums: EventSums, alpha: float,
    with_baselines: bool,
) -> PairStats:
    try:
        g2 = g2_score(table)
    except UndefinedMetricError as exc:
        raise UndefinedMetricError(f"pair {' '.join(pair_fields(pair)[:4])}: {exc}") from None
    stats = PairStats(
        g2=g2,
        g2_significant=chi2_sf(g2) < alpha,
        order_score=0.0,
        has_preferred_order=False,
        order_p=None,
        mean_distance=None,
        n_cooc=table.o_wv,
    )
    if sums.m:
        order = _order_test(sums.w_first, sums.m, alpha)
        stats.order_score = order.order_score
        stats.has_preferred_order = order.has_preferred_order
        stats.order_p = order.order_p
        stats.mean_distance = _mean_distance(sums)
        if pair.relation in (HYP, HOL) and pair.head in ("w", "v"):
            asym = _order_test(_head_first(sums, pair), sums.m, alpha)
            stats.asym_order_score = asym.order_score
            stats.asym_has_preferred_order = asym.has_preferred_order
            stats.asym_order_p = asym.order_p
    if with_baselines:
        stats.pmi = pmi_score(table)
    return stats


def pair_stats(
    obs: PairObservations, alpha: float = DEFAULT_ALPHA, with_baselines: bool = False
) -> PairStats:
    """`metrics.compute_pair_stats`, with the event sums taken row by row."""
    rows = np.asarray(obs.events, dtype=np.int64).reshape(-1, 3).tolist()
    sums = EventSums(
        sum(1 for _, pos_w, pos_v in rows if pos_w < pos_v),
        len(rows),
        sum(abs(pos_w - pos_v) for _, pos_w, pos_v in rows),
    )
    return _pair_stats(obs.pair, obs.table, sums, alpha, with_baselines)


def stats_table(rows: Iterable[tuple[LemmaPair, PairStats]]) -> StatsTable:
    """The `StatsTable` of (pair, its stats) rows, in their order."""
    rows = list(rows)
    pairs = [pair for pair, _ in rows]
    stats = [stats for _, stats in rows]

    def values(field: str, dtype: type) -> np.ndarray:
        # A None becomes NaN.
        return np.array([getattr(s, field) for s in stats], dtype=dtype)

    return StatsTable(
        [p.w.lemma for p in pairs], [p.v.lemma for p in pairs],
        [p.w.pos for p in pairs], [p.relation for p in pairs],
        values("g2", np.float64), values("g2_significant", bool),
        values("order_score", np.float64), values("has_preferred_order", bool),
        values("order_p", np.float64), values("mean_distance", np.float64),
        values("n_cooc", np.int64),
        [p.head or "" for p in pairs],
        values("asym_order_score", np.float64),
        np.array([-1 if s.asym_has_preferred_order is None else s.asym_has_preferred_order
                  for s in stats], dtype=np.int8),
        values("asym_order_p", np.float64), values("pmi", np.float64),
    )


# ---------------------------------------------------------------------------
# The Brunner-Munzel test on the midranks of the concatenated samples, one
# squared deviation at a time


def midranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j + 2) / 2.0
        i = j + 1
    return ranks


def brunner_munzel(x: Sequence[float], y: Sequence[float]) -> TestResult:
    nx, ny = len(x), len(y)
    if nx < 2 or ny < 2:
        raise ValueError(f"each sample needs >= 2 values, got {nx} and {ny}")

    ranks = midranks([float(v) for v in [*x, *y]])
    ranks_x = ranks[:nx]
    ranks_y = ranks[nx:]
    inner_x = midranks([float(v) for v in x])
    inner_y = midranks([float(v) for v in y])

    sum_rx = sequential_sum(ranks_x)
    sum_ry = sequential_sum(ranks_y)
    mean_rx = sum_rx / nx
    mean_ry = sum_ry / ny
    effect = (sum_ry - ny * (ny + 1) / 2.0) / (nx * ny)

    sx2 = sequential_sum([
        (ranks_x[i] - inner_x[i] - mean_rx + (nx + 1) / 2.0) ** 2 for i in range(nx)
    ]) / (nx - 1)
    sy2 = sequential_sum([
        (ranks_y[i] - inner_y[i] - mean_ry + (ny + 1) / 2.0) ** 2 for i in range(ny)
    ]) / (ny - 1)

    var_sum = nx * sx2 + ny * sy2
    if var_sum == 0.0:
        if effect in (0.0, 1.0):
            statistic = math.inf if effect == 1.0 else -math.inf
            return TestResult(statistic, 0.0, df=None, degenerate=True, effect=effect)
        return TestResult(0.0, 1.0, df=None, degenerate=True, effect=effect)

    statistic = nx * ny * (mean_ry - mean_rx) / ((nx + ny) * math.sqrt(var_sum))
    df = var_sum**2 / ((nx * sx2) ** 2 / (nx - 1) + (ny * sy2) ** 2 / (ny - 1))
    p = t_sf_two_sided(statistic, df)
    return TestResult(statistic, p, df=df, degenerate=False, effect=effect)


# ---------------------------------------------------------------------------
# The integer and float columns and the `events.tsv` decoder, one field at
# a time


def _integer(text: str) -> int | None:
    """`int(text)` of ASCII digits after an optional ``-``, else None."""
    digits = text[1:] if text.startswith("-") else text
    if digits and all(c in "0123456789" for c in digits):
        return int(text)
    return None


def int64s(column: Sequence[str]) -> tuple[list[int], list[tuple[int, str]]]:
    """The integers of `column` before its first field that is not decimal
    or does not fit int64, and the faults found: the first field that is
    not decimal, then the first value before it outside int64."""
    values: list[int] = []
    faults = []
    for row, text in enumerate(column):
        value = _integer(text)
        if value is None:
            faults.append((row, f"not a decimal integer: {text!r}"))
            break
        values.append(value)
    for row, value in enumerate(values):
        if not -(2 ** 63) <= value < 2 ** 63:
            faults.append((row, f"integer out of int64 range: {column[row]}"))
            return values[:row], faults
    return values, faults


_FLOAT = re.compile(r"-?[0-9]+(\.[0-9]+)?(e[-+][0-9]+)?")


def float64s(
    column: Sequence[str], optional: bool = False
) -> tuple[list[float], list[tuple[int, str]]]:
    """The floats of `column` before its first field that is not in the
    float form of `repr`, or empty where `optional` (read as NaN), and the
    faults found: that field, then the first value before it that is not
    finite."""
    values: list[float] = []
    faults = []
    for row, text in enumerate(column):
        if not (_FLOAT.fullmatch(text) or optional and text == ""):
            faults.append((row, f"not a number: {text!r}"))
            break
        values.append(float(text) if text else math.nan)
    for row, value in enumerate(values):
        if math.isinf(value):
            faults.append((row, f"not a number: {column[row]!r}"))
            break
    return values, faults


def _read_text(path: str) -> str:
    """The text of `path` with every line end a ``\\n``, as text mode reads
    it, decoded a line at a time: the first line that is not UTF-8, with
    its line end, raises ValueError naming it."""
    with open(path, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    text = []
    for line_no, line in enumerate(lines, start=1):
        try:
            text.append(line.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path} line {line_no}: {exc}") from None
    return "".join(text).replace("\r\n", "\n").replace("\r", "\n")


def read_events(
    path: str, table: Table, n_key: int, key: Callable[[str], int]
) -> tuple[list[int], list[list[int]], tuple[int, str] | None]:
    """Each data line's `key` of its first `n_key` fields and its integers,
    up to the first bad line, with that line's 0-based data row and fault.

    A line is bad if it has the wrong number of fields, an integer field
    that is not ASCII digits after an optional ``-``, an integer outside
    int64, or key fields that `key` rejects, checked in that order.  A
    line that is not UTF-8 anywhere in the file, or else a wrong header,
    raises ValueError naming the first such line or line 1."""
    lines = _read_text(path).split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != "\t".join(table.columns):
        raise ValueError(f"{path} line 1: not a {table.kind} file")
    keys: list[int] = []
    rows: list[list[int]] = []
    for row, line in enumerate(lines[1:]):
        fields = line.split("\t")
        if len(fields) != len(table.columns):
            return keys, rows, (row, f"expected {len(table.columns)} fields, got {len(fields)}")
        values, faults = int64s(fields[n_key:])
        if faults:
            return keys, rows, (row, faults[0][1])
        try:
            keys.append(key("\t".join(fields[:n_key])))
        except ValueError as exc:
            return keys, rows, (row, str(exc))
        rows.append(values)
    return keys, rows, None


# -- the headerless input files, row by row -----------------------------------

T = TypeVar("T")


def read_rows(path: str, width: int, decode: Callable[[list[str]], T]) -> Iterator[T]:
    """Yield `decode(fields)` per row of a headerless file of `width`
    fields, skipping blank and ``#`` lines; a `ValueError` from `decode`
    comes back prefixed with the file and line number."""
    lines = _read_text(path).split("\n")
    line_no = 0
    try:
        for line_no, line in enumerate(lines, start=1):
            if not line.strip() or line[0] == "#":
                continue
            fields = line.split("\t")
            if len(fields) != width:
                raise ValueError(f"expected {width} fields, got {len(fields)}")
            yield decode(fields)
    except ValueError as exc:
        raise ValueError(f"{path} line {line_no}: {exc}") from None


def _parse_flags(text: str) -> frozenset[str]:
    if not text:
        return frozenset()
    flags = frozenset(text.split(","))
    bad = flags - FLAGS
    if bad:
        raise ValueError(f"unknown flags {sorted(bad)}")
    return flags


def _count(text: str) -> int:
    return decimal(text) if text else 0


def _lemma_key(lemma: str, pos: str) -> LemmaKey:
    if not lemma:
        raise ValueError("empty lemma")
    pos = pos.upper()
    if pos not in CONTENT_POS:
        raise ValueError(f"bad pos {pos!r}")
    return LemmaKey(lemma.casefold(), pos)


def _entry_from_fields(f: list[str]) -> LexiconEntry:
    lemma_a, pos, lemma_b, relation, head, plen, freq_a, freq_b, flags_a, flags_b = f
    a, b = _lemma_key(lemma_a, pos), _lemma_key(lemma_b, pos)
    relation = relation.upper()
    if relation not in RELATED:
        raise ValueError(f"bad relation {relation!r}")
    if a == b:
        raise ValueError("identical lemmas")
    if head not in ("", "a", "b"):
        raise ValueError(f"bad directed_head {head!r}")
    if head and relation not in (HYP, HOL):
        raise ValueError(f"directed_head given for {relation}")
    if relation == HYP and not plen:
        raise ValueError("HYP needs path_length")
    if plen and relation != HYP:
        raise ValueError(f"path_length given for {relation}")
    path_length = decimal(plen) if plen else None
    if path_length is not None and path_length < 0:
        raise ValueError(f"path_length must be >= 0, got {path_length}")
    return LexiconEntry(
        a=a,
        b=b,
        relation=relation,
        directed_head=head or None,
        path_length=path_length,
        wn_freq_a=_count(freq_a),
        wn_freq_b=_count(freq_b),
        flags_a=_parse_flags(flags_a),
        flags_b=_parse_flags(flags_b),
    )


def load_lexicon(path: str) -> list[LexiconEntry]:
    return list(read_rows(path, 10, _entry_from_fields))


def _link_from_fields(f: list[str]) -> DerivationLink:
    link = DerivationLink(_lemma_key(f[0], f[1]), _lemma_key(f[2], f[3]))
    if link.source == link.derived:
        raise ValueError("self-link")
    return link


def load_derivations(path: str) -> list[DerivationLink]:
    return list(read_rows(path, 4, _link_from_fields))


def _attrs_from_fields(f: list[str], seen: Container[LemmaKey]) -> tuple[LemmaKey, LemmaMeta]:
    key = _lemma_key(f[0], f[1])
    if key in seen:
        raise ValueError(f"duplicate lemma {key.lemma} {key.pos}")
    return key, LemmaMeta(_count(f[2]), _parse_flags(f[3]))


def load_lemma_attrs(path: str) -> dict[LemmaKey, LemmaMeta]:
    attrs: dict[LemmaKey, LemmaMeta] = {}
    for key, meta in read_rows(path, 4, lambda f: _attrs_from_fields(f, attrs)):
        attrs[key] = meta
    return attrs


def _verb_class_from_fields(f: list[str]) -> tuple[str, str]:
    if not f[0]:
        raise ValueError("empty lemma")
    if f[1] not in _VERB_CLASS_NAMES:
        raise ValueError(f"unknown verb class {f[1]!r} (choose from linking, aux, light)")
    return f[0].casefold(), _VERB_CLASS_NAMES[f[1]]


def load_verb_classes(path: str) -> dict[str, frozenset[str]]:
    classes: dict[str, frozenset[str]] = {}
    for lemma, flag in read_rows(path, 2, _verb_class_from_fields):
        classes[lemma] = classes.get(lemma, frozenset()) | {flag}
    return classes
