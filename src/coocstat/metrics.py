"""Per-pair co-occurrence metrics: G2 strength, order preference, distance."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from coocstat.corpus import CONTENT_POS
from coocstat.counting import ContingencyTable, CooccurrenceEvent, CountResult, PairObservations
from coocstat.lexicon import HOL, HYP, RELATIONS, LemmaPair, check_labels, pair_keys, pair_name
from coocstat.stats import binom_test_two_sided, chi2_sf
from coocstat.tsv import Faults, Table, float64s, int64s, read_columns, write_table


DEFAULT_ALPHA = 0.01


def check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


class UndefinedMetricError(ValueError):
    """A metric was requested on inputs where it has no value."""


def _ln1p_minus_x(x: float) -> float:
    """ln(1+x) - x without cancellation for small |x|."""
    if abs(x) < 1e-4:
        return x * x * (-0.5 + x * (1.0 / 3.0 + x * (-0.25 + x * 0.2)))
    return math.log1p(x) - x


def g2_score(table: ContingencyTable) -> float:
    """Log-likelihood-ratio association score of a 2x2 sentence table.

    Expected counts come from the independence model on the marginals;
    cells with an observed count of zero contribute nothing beyond their
    expected mass.  Natural logs; exactly 0 for an exactly independent
    table and clamped at 0 against rounding.

    With fitted margins the observed-minus-expected residual d sums to 0
    over the four cells, so the naive sum of O*ln(O/E) terms cancels
    catastrophically near independence.  Each cell is instead evaluated
    as E*(ln(1+x)-x) + d*ln(1+x) with x = d/E derived from exact integer
    products, which keeps the relative error near machine precision for
    any table.
    """
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
    """Pointwise mutual information (log2), as a debug baseline only."""
    if table.o_wv == 0:
        return None
    m_w = table.o_wv + table.o_w_notv
    m_v = table.o_wv + table.o_notw_v
    return math.log2(table.o_wv * table.n / (m_w * m_v))


class OrderStats(NamedTuple):
    order_score: float
    has_preferred_order: bool
    order_p: float


# Pairs share few (k, m): a 30,000-pair count with heavy-tailed event
# counts has 1,772 distinct among 23,835 co-occurring pairs, and each
# binomial p-value costs microseconds.
@functools.lru_cache(maxsize=4096)
def _order_test(k: int, m: int, alpha: float) -> OrderStats:
    """Order stats when k of m events score +1; see `order_stats`."""
    if m == 0:
        raise UndefinedMetricError("order is undefined without co-occurrences")
    p_value = binom_test_two_sided(k, m).p_value
    preferred = p_value < alpha
    return OrderStats((2 * k - m) / m if preferred else 0.0, preferred, p_value)


# A pair's events: its `PairObservations.events` array, or any sequence
# of `CooccurrenceEvent` rows.
Events = np.ndarray | Sequence[CooccurrenceEvent]


class EventSums(NamedTuple):
    """What the order and distance metrics need of a pair's events."""

    w_first: int  # events with pos_w < pos_v
    m: int  # events
    gap_sum: int  # the sum of |pos_w - pos_v|


def event_sums(events: np.ndarray, m: np.ndarray) -> list[EventSums]:
    """The `EventSums` of each pair, given `events` as an `(E, 3)` int64
    array holding each pair's `m` rows in turn, from one segmented
    reduction over the whole array."""
    gaps = events[:, 1] - events[:, 2]
    # reduceat cannot sum an empty segment, so pairs without events keep 0.
    seen = m > 0
    starts = (np.cumsum(m) - m)[seen]
    w_first = np.zeros(len(m), dtype=np.int64)
    gap_sum = np.zeros(len(m), dtype=np.int64)
    w_first[seen] = np.add.reduceat(gaps < 0, starts, dtype=np.int64)
    gap_sum[seen] = np.add.reduceat(np.abs(gaps), starts)
    return list(map(EventSums, w_first.tolist(), m.tolist(), gap_sum.tolist()))


def _sums(events: Events) -> EventSums:
    """The `EventSums` of one pair's events."""
    rows = np.asarray(events, dtype=np.int64).reshape(-1, 3)
    return event_sums(rows, np.array([len(rows)], dtype=np.int64))[0]


def order_stats(events: Events, alpha: float = DEFAULT_ALPHA) -> OrderStats:
    """Order preference of a pair over its co-occurrence events.

    Each event scores +1 when w (the more frequent lemma) precedes v and
    -1 otherwise.  An exact two-sided binomial test against 1/2 decides
    whether the pair has a preferred order; the order score is the mean
    event score when it does and 0 otherwise.
    """
    sums = _sums(events)
    return _order_test(sums.w_first, sums.m, alpha)


def _head_first(sums: EventSums, pair: LemmaPair) -> int:
    """Events where the head side comes first; positions never tie."""
    return sums.w_first if pair.head == "w" else sums.m - sums.w_first


def asymmetric_order_stats(
    events: Events,
    pair: LemmaPair,
    alpha: float = DEFAULT_ALPHA,
) -> OrderStats:
    """Order preference with +1 meaning the designated head side precedes.

    Only defined for directed relations (hyper-/holo-style) where the
    pair records which side is the head; frequency orientation is
    ignored for the sign.
    """
    if pair.relation not in (HYP, HOL):
        raise ValueError(f"asymmetric order needs a directed relation, got {pair.relation}")
    if pair.head not in ("w", "v"):
        raise ValueError("asymmetric order needs a known head side")
    sums = _sums(events)
    return _order_test(_head_first(sums, pair), sums.m, alpha)


def _mean_distance(sums: EventSums) -> float:
    if not sums.m:
        raise UndefinedMetricError("distance is undefined without co-occurrences")
    return (sums.gap_sum - sums.m) / sums.m


def mean_distance(events: Events) -> float:
    """Mean number of tokens strictly between the two first occurrences.

    The distances are summed as integers and divided once, so the mean is
    the correctly rounded quotient of two integers.
    """
    return _mean_distance(_sums(events))


@dataclass(slots=True)
class PairStats:
    """All per-pair metrics for one lemma pair.

    Order and distance fields are None when the pair never co-occurs;
    `asym_*` fields are filled only for directed relations with a head.
    """

    g2: float
    g2_significant: bool
    order_score: float
    has_preferred_order: bool
    order_p: float | None
    mean_distance: float | None
    n_cooc: int
    asym_order_score: float | None = None
    asym_has_preferred_order: bool | None = None
    asym_order_p: float | None = None
    pmi: float | None = None


def compute_pair_stats(
    obs: PairObservations,
    alpha: float = DEFAULT_ALPHA,
    with_baselines: bool = False,
) -> PairStats:
    """Score one pair's observations; see PairStats for field semantics."""
    return _pair_stats(obs.pair, obs.table, _sums(obs.events), alpha, with_baselines)


def _pair_stats(
    pair: LemmaPair, table: ContingencyTable, sums: EventSums, alpha: float,
    with_baselines: bool,
) -> PairStats:
    """`compute_pair_stats` of a pair given its table and the `EventSums` of
    its events."""
    try:
        g2 = g2_score(table)
    except UndefinedMetricError as exc:
        raise UndefinedMetricError(f"pair {pair_name(pair)}: {exc}") from None
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


@dataclass(frozen=True, eq=False)
class StatsTable:
    """The `PairStats` of many pairs, one column per `stats.tsv` column and
    one row per pair.

    The key columns are lists of str, with `head` "" for a pair without
    one.  Every other column is one NumPy array: the floats as float64 with
    NaN for None, `g2_sig` and `order_pref` as bool, `asym_order_pref` as
    int8 with -1 for None, and `n_cooc` as int64.
    """

    lemma_w: list[str]
    lemma_v: list[str]
    pos: list[str]
    relation: list[str]
    g2: np.ndarray
    g2_sig: np.ndarray
    order_score: np.ndarray
    order_pref: np.ndarray
    order_p: np.ndarray
    mean_dist: np.ndarray
    n_cooc: np.ndarray
    head: list[str]
    asym_order_score: np.ndarray
    asym_order_pref: np.ndarray
    asym_order_p: np.ndarray
    pmi: np.ndarray

    def __len__(self) -> int:
        return len(self.lemma_w)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[LemmaPair, PairStats]]) -> StatsTable:
        """The table of (pair, its stats) rows, in their order."""
        rows = list(rows)
        pairs = list(map(itemgetter(0), rows))
        stats = list(map(itemgetter(1), rows))

        def keys(name: str) -> list[str]:
            return list(map(attrgetter(name), pairs))

        def values(field: str, dtype: type) -> np.ndarray:
            # One pass over the rows per field, making no tuple per row.
            # A None becomes NaN.
            return np.fromiter(map(attrgetter(field), stats), dtype=dtype, count=len(stats))

        asym_pref = map(attrgetter("asym_has_preferred_order"), stats)
        return cls(
            keys("w.lemma"), keys("v.lemma"), keys("w.pos"), keys("relation"),
            values("g2", np.float64), values("g2_significant", bool),
            values("order_score", np.float64), values("has_preferred_order", bool),
            values("order_p", np.float64), values("mean_distance", np.float64),
            values("n_cooc", np.int64),
            [head or "" for head in keys("head")],
            values("asym_order_score", np.float64),
            np.fromiter((-1 if f is None else f for f in asym_pref), dtype=np.int8, count=len(stats)),
            values("asym_order_p", np.float64), values("pmi", np.float64),
        )

    @functools.cached_property
    def groups(self) -> dict[tuple[str, str], np.ndarray]:
        """The rows of each PoS x relation group with any, in `CONTENT_POS` x
        `RELATIONS` order, each group's in row order.  A row with other
        labels, which the readers reject, is in no group."""
        codes = np.fromiter(
            map(_CELL_CODE.get, zip(self.pos, self.relation), itertools.repeat(len(_CELLS))),
            dtype=np.intp, count=len(self),
        )
        order = np.argsort(codes, kind="stable")
        bounds = np.searchsorted(codes[order], np.arange(len(_CELLS) + 1)).tolist()
        return {
            cell: order[lo:hi]
            for cell, lo, hi in zip(_CELLS, bounds, bounds[1:])
            if hi > lo
        }


_CELLS = tuple(itertools.product(CONTENT_POS, RELATIONS))
_CELL_CODE = {cell: code for code, cell in enumerate(_CELLS)}


def compute_all_stats(
    result: CountResult,
    alpha: float = DEFAULT_ALPHA,
    with_baselines: bool = False,
) -> StatsTable:
    """`compute_pair_stats` of every pair of a count, as one table in pair
    order, with every pair's event sums from one pass over `result.events`."""
    cells = result.cells
    tables = map(ContingencyTable, *cells.T.tolist(), itertools.repeat(result.n))
    sums = event_sums(result.events, cells[:, 0])
    return StatsTable.from_rows([
        (pair, _pair_stats(pair, table, pair_sums, alpha, with_baselines))
        for pair, table, pair_sums in zip(result.pairs, tables, sums)
    ])


# ---------------------------------------------------------------------------
# File format for per-pair stats

STATS = Table("pair-stats", tuple(f.name for f in fields(StatsTable)))

_FLAG_TEXT = {False: "0", True: "1"}
_OPT_FLAG_TEXT = {-1: "", 0: "0", 1: "1"}


def _opt_text(values: np.ndarray) -> Iterator[str]:
    return ("" if x != x else repr(x) for x in values.tolist())


def write_pair_stats(table: StatsTable, path: str) -> None:
    """Write `table` column by column: floats as their `repr`, None as an
    empty field and flags as 0 or 1."""
    t = table
    columns = (
        t.lemma_w, t.lemma_v, t.pos, t.relation,
        map(repr, t.g2.tolist()),
        map(_FLAG_TEXT.__getitem__, t.g2_sig.tolist()),
        map(repr, t.order_score.tolist()),
        map(_FLAG_TEXT.__getitem__, t.order_pref.tolist()),
        _opt_text(t.order_p),
        _opt_text(t.mean_dist),
        map(str, t.n_cooc.tolist()),
        t.head,
        _opt_text(t.asym_order_score),
        map(_OPT_FLAG_TEXT.__getitem__, t.asym_order_pref.tolist()),
        _opt_text(t.asym_order_p),
        _opt_text(t.pmi),
    )
    write_table(path, STATS, zip(*columns))


_FLAG = {"0": False, "1": True}
_OPT_FLAG = {"": -1, "0": 0, "1": 1}


def _flags(column: Sequence[str], faults: Faults, optional: bool = False) -> np.ndarray:
    """A 0/1 column as bool, or as int8 with -1 for an empty field where
    it is `optional`."""
    codes = _OPT_FLAG if optional else _FLAG
    values = list(map(codes.get, column))
    if None in values:
        row = values.index(None)
        faults.add(row, f"expected 0 or 1, got {column[row]!r}")
        del values[row:]
    return np.array(values, dtype=np.int8 if optional else bool)


def _table_from_columns(columns: list[list[str]], faults: Faults) -> StatsTable:
    (lemma_w, lemma_v, pos, relation, g2, g2_sig, order_score, order_pref, order_p,
     mean_dist, n_cooc, head, asym_score, asym_pref, asym_p, pmi) = columns
    check_labels((pos, relation, head), faults)
    pair_keys(columns, faults)
    counts = int64s(n_cooc, faults)
    faults.where(counts < 0, lambda row: "negative n_cooc")
    # `compute_pair_stats` gives order_p and mean_dist exactly when n_cooc > 0.
    cooc = counts > 0
    given = [np.fromiter(map(bool, c), dtype=bool, count=len(counts)) for c in (order_p, mean_dist)]
    faults.where(
        cooc & ~(given[0] & given[1]),
        lambda row: "order_p and mean_dist are required when n_cooc > 0",
    )
    faults.where(
        ~cooc & (given[0] | given[1]),
        lambda row: "order_p and mean_dist must be empty when n_cooc is 0",
    )
    return StatsTable(
        lemma_w, lemma_v, pos, relation,
        float64s(g2, faults), _flags(g2_sig, faults),
        float64s(order_score, faults), _flags(order_pref, faults),
        float64s(order_p, faults, optional=True), float64s(mean_dist, faults, optional=True),
        counts, head,
        float64s(asym_score, faults, optional=True), _flags(asym_pref, faults, optional=True),
        float64s(asym_p, faults, optional=True), float64s(pmi, faults, optional=True),
    )


def read_pair_stats(path: str) -> StatsTable:
    """Read `stats.tsv` as one table, rejecting the first row, in file
    order, with an unknown label, a pair already listed, a bad value, or
    `order_p` and `mean_dist` not given exactly when `n_cooc` > 0."""
    return read_columns(path, STATS, _table_from_columns)
