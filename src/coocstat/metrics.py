"""Per-pair co-occurrence metrics: G2 strength, order preference, distance.

Every metric is computed as a column of all pairs; the per-pair functions
are one-row calls.  The columns keep the bits of scalar Python: see
`_ints` and `stats.math_map`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Sequence

import numpy as np

from coocstat.corpus import CONTENT_POS
from coocstat.counting import ContingencyTable, CooccurrenceEvent, CountResult, PairObservations
from coocstat.lexicon import HOL, HYP, RELATIONS, LemmaPair, pair_columns, pair_keys
from coocstat.stats import binom_test_two_sided, chi2_sfs, math_map
from coocstat.tsv import Faults, Table, flags, float64s, int64s, read_columns, write_table


DEFAULT_ALPHA = 0.01


def check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


class UndefinedMetricError(ValueError):
    """A metric was requested on inputs where it has no value."""


def _ints(bound: int, *columns: np.ndarray) -> list[np.ndarray]:
    """Integer `columns` in the form that keeps `int / int` exact.

    `bound` is the largest magnitude of any integer the caller forms from
    them.  Up to 2**53 float64 holds each exactly, so NumPy's division of
    int64 columns rounds as Python's does; above it the columns become
    object arrays of Python ints, on which the same expressions are
    Python's own.
    """
    if bound <= 2**53:
        return list(columns)
    return [column.astype(object) for column in columns]


def _floats(values: np.ndarray) -> np.ndarray:
    """A quotient of `_ints` columns as float64."""
    return np.asarray(values, dtype=np.float64)


def _spread(size: int, rows: np.ndarray, values: np.ndarray, fill, dtype=np.float64) -> np.ndarray:
    """A column of `size` rows holding `values` at `rows` and `fill` elsewhere."""
    column = np.full(size, fill, dtype=dtype)
    column[rows] = values
    return column


def _g2(cells: np.ndarray, n: int, where: Callable[[int], str]) -> np.ndarray:
    """The G2 of each row of `cells`, 2x2 tables of total `n`; see
    `g2_score`.  The first row without a score raises
    `UndefinedMetricError`, its message led by `where(row)`."""
    if len(cells) and n <= 0:
        raise UndefinedMetricError(where(0) + "empty corpus: n must be positive")
    # Every product and numerator below is at most n * n in magnitude.
    o = _ints(n * n, *cells.T)
    m_w, m_v = o[0] + o[1], o[0] + o[2]
    zero = np.flatnonzero((m_w < 1) | (m_v < 1))
    if len(zero):
        row = zero[0]
        raise UndefinedMetricError(
            where(row)
            + f"zero marginal (|w|={int(m_w[row])}, |v|={int(m_v[row])}): score undefined"
        )
    total = np.zeros(len(cells))
    rows = (m_w, m_w, n - m_w, n - m_w)
    cols = (m_v, n - m_v, m_v, n - m_v)
    for o_k, row_k, col_k in zip(o, rows, cols):
        rc = row_k * col_k
        e = _floats(rc / n)
        # An empty row or column (rc 0) has O 0 too and adds nothing; a
        # cell with O 0 adds E.
        term = np.where(rc != 0, e, 0.0)
        at = np.flatnonzero((rc != 0) & (o_k != 0))
        d_num = o_k[at] * n - rc[at]  # exact integer numerator of O - E
        x = _floats(d_num / rc[at])
        ln1p = math_map(math.log1p, x)
        # ln(1+x) - x, without cancellation for small |x|.
        ln1p_minus_x = ln1p - x
        small = np.abs(x) < 1e-4
        s = x[small]
        ln1p_minus_x[small] = s * s * (-0.5 + s * (1.0 / 3.0 + s * (-0.25 + s * 0.2)))
        term[at] = e[at] * ln1p_minus_x + _floats(d_num / n) * ln1p
        total += term
    g2 = 2.0 * total
    g2[0.0 > g2] = 0.0  # clamped against rounding, as max(g2, 0.0)
    return g2


def _one_row(table: ContingencyTable) -> np.ndarray:
    return np.array([table[:4]], dtype=np.int64)


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
    return _g2(_one_row(table), table.n, lambda row: "").item()


def _pmi(cells: np.ndarray, n: int) -> np.ndarray:
    """The PMI of each row of `cells`, NaN where `o_wv` is 0; see `pmi_score`."""
    at = np.flatnonzero(cells[:, 0])
    o_wv, o_w_notv, o_notw_v = _ints(n * n, *cells[at, :3].T)
    pmi = math_map(math.log2, _floats(o_wv * n / ((o_wv + o_w_notv) * (o_wv + o_notw_v))))
    return _spread(len(cells), at, pmi, np.nan)


def pmi_score(table: ContingencyTable) -> float | None:
    """Pointwise mutual information (log2), as a debug baseline only."""
    pmi = _pmi(_one_row(table), table.n).item()
    return None if pmi != pmi else pmi


class OrderStats(NamedTuple):
    order_score: float
    has_preferred_order: bool
    order_p: float


def _order_test(k: int, m: int, alpha: float) -> OrderStats:
    """Order stats when k of m events score +1; see `order_stats`."""
    if m == 0:
        raise UndefinedMetricError("order is undefined without co-occurrences")
    p_value = binom_test_two_sided(k, m).p_value
    preferred = p_value < alpha
    return OrderStats((2 * k - m) / m if preferred else 0.0, preferred, p_value)


def _order_columns(
    k: np.ndarray, m: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The `_order_test` of each (k, m) as columns, score, preferred and
    p-value, from one test per distinct (k, m): pairs share few."""
    codes = m * (int(m.max(initial=0)) + 1) + k
    _, first, row = np.unique(codes, return_index=True, return_inverse=True)
    tests = map(_order_test, k[first].tolist(), m[first].tolist(), itertools.repeat(alpha))
    columns = np.array(list(tests), dtype=np.float64).reshape(-1, 3)[row]
    return columns[:, 0], columns[:, 1].astype(bool), columns[:, 2]


# A pair's events: its `PairObservations.events` array, or any sequence
# of `CooccurrenceEvent` rows.
Events = np.ndarray | Sequence[CooccurrenceEvent]


def event_sums(events: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each pair's events with pos_w < pos_v, and the sum of its
    |pos_w - pos_v|, given `events` as an `(E, 3)` int64 array holding
    each pair's `m` rows in turn, from one segmented reduction over the
    whole array."""
    gaps = events[:, 1] - events[:, 2]
    # reduceat cannot sum an empty segment, so pairs without events keep 0.
    seen = m > 0
    starts = (np.cumsum(m) - m)[seen]
    w_first = np.zeros(len(m), dtype=np.int64)
    gap_sum = np.zeros(len(m), dtype=np.int64)
    w_first[seen] = np.add.reduceat(gaps < 0, starts, dtype=np.int64)
    gap_sum[seen] = np.add.reduceat(np.abs(gaps), starts)
    return w_first, gap_sum


def _sums(events: Events) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`event_sums` of one pair's events, with their number."""
    rows = np.asarray(events, dtype=np.int64).reshape(-1, 3)
    m = np.array([len(rows)], dtype=np.int64)
    return (*event_sums(rows, m), m)


def _head_first(w_first: np.ndarray, m: np.ndarray, head_w: np.ndarray) -> np.ndarray:
    """Events where the head side comes first; positions never tie."""
    return np.where(head_w, w_first, m - w_first)


def _mean_distances(gap_sum: np.ndarray, m: np.ndarray) -> np.ndarray:
    """`mean_distance` of pairs with events, from their `event_sums`."""
    gap_sum, m = _ints(int(max(gap_sum.max(initial=0), m.max(initial=0))), gap_sum, m)
    return _floats((gap_sum - m) / m)


def order_stats(events: Events, alpha: float = DEFAULT_ALPHA) -> OrderStats:
    """Order preference of a pair over its co-occurrence events.

    Each event scores +1 when w (the more frequent lemma) precedes v and
    -1 otherwise.  An exact two-sided binomial test against 1/2 decides
    whether the pair has a preferred order; the order score is the mean
    event score when it does and 0 otherwise.
    """
    w_first, _, m = _sums(events)
    return _order_test(w_first.item(), m.item(), alpha)


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
    w_first, _, m = _sums(events)
    return _order_test(_head_first(w_first, m, pair.head == "w").item(), m.item(), alpha)


def mean_distance(events: Events) -> float:
    """Mean number of tokens strictly between the two first occurrences.

    The distances are summed as integers and divided once, so the mean is
    the correctly rounded quotient of two integers.
    """
    _, gap_sum, m = _sums(events)
    if not m.item():
        raise UndefinedMetricError("distance is undefined without co-occurrences")
    return _mean_distances(gap_sum, m).item()


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


@dataclass(frozen=True, eq=False)
class StatsTable:
    """The metrics of many pairs, one column per `stats.tsv` column and
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
# The (relation, head) of the pairs with an asymmetric order.
_DIRECTED = frozenset(itertools.product((HYP, HOL), ("w", "v")))


def compute_all_stats(
    result: CountResult,
    alpha: float = DEFAULT_ALPHA,
    with_baselines: bool = False,
) -> StatsTable:
    """Every pair's metrics, as one table in pair order; see `PairStats`
    for their meaning.  Each metric is computed as one column, with the
    event sums from one pass over `result.events` and one order test per
    distinct (k, m) across the order and asymmetric order columns.

    A pair whose G2 is undefined raises `UndefinedMetricError` naming the
    first such pair.
    """
    cells, n = result.cells, result.n
    g2 = _g2(cells, n, lambda row: f"pair {result.pair_name(row)}: ")
    m = cells[:, 0]
    w_first, gap_sum = event_sums(result.events, m)
    relation, head = result.relation, result.head
    size = len(relation)
    sym = np.flatnonzero(m)
    directed = np.fromiter(map(_DIRECTED.__contains__, zip(relation, head)), dtype=bool, count=size)
    asym = sym[directed[sym]]
    head_w = np.fromiter(map("w".__eq__, head), dtype=bool, count=size)
    score, pref, p = _order_columns(
        np.concatenate((w_first[sym], _head_first(w_first[asym], m[asym], head_w[asym]))),
        np.concatenate((m[sym], m[asym])),
        alpha,
    )
    s = len(sym)
    return StatsTable(
        result.lemma_w, result.lemma_v, result.pos, relation,
        g2, chi2_sfs(g2) < alpha,
        _spread(size, sym, score[:s], 0.0), _spread(size, sym, pref[:s], False, bool),
        _spread(size, sym, p[:s], np.nan),
        _spread(size, sym, _mean_distances(gap_sum[sym], m[sym]), np.nan),
        m.astype(np.int64), head,
        _spread(size, asym, score[s:], np.nan), _spread(size, asym, pref[s:], -1, np.int8),
        _spread(size, asym, p[s:], np.nan),
        _pmi(cells, n) if with_baselines else np.full(size, np.nan),
    )


def compute_pair_stats(
    obs: PairObservations,
    alpha: float = DEFAULT_ALPHA,
    with_baselines: bool = False,
) -> PairStats:
    """Score one pair's observations, its table and its `o_wv` events; see
    PairStats for field semantics."""
    events = np.asarray(obs.events, dtype=np.int64).reshape(-1, 3)
    result = CountResult(*pair_columns([obs.pair]), _one_row(obs.table), events, obs.table.n, ())
    if len(events) != obs.table.o_wv:
        raise ValueError(
            f"pair {result.pair_name(0)}: {len(events)} events, not its o_wv {obs.table.o_wv}"
        )
    t = compute_all_stats(result, alpha, with_baselines)
    # The columns in `PairStats` order, NaN as None.
    row = [c.item() for c in (
        t.g2, t.g2_sig, t.order_score, t.order_pref, t.order_p, t.mean_dist, t.n_cooc,
        t.asym_order_score, t.asym_order_pref, t.asym_order_p, t.pmi,
    )]
    row[8] = {-1: None, 0: False, 1: True}[row[8]]
    return PairStats(*(None if x != x else x for x in row))


# ---------------------------------------------------------------------------
# File format for per-pair stats

STATS = Table("pair-stats", tuple(f.name for f in fields(StatsTable)))


def write_pair_stats(table: StatsTable, path: str) -> None:
    write_table(path, STATS, [getattr(table, name) for name in STATS.columns])


def _table_from_columns(columns: list[list[str]], faults: Faults) -> StatsTable:
    (lemma_w, lemma_v, pos, relation, g2, g2_sig, order_score, order_pref, order_p,
     mean_dist, n_cooc, head, asym_score, asym_pref, asym_p, pmi) = columns
    pair_keys((lemma_w, lemma_v, pos, relation, head), faults)
    counts = int64s(n_cooc, faults)
    faults.where(counts < 0, lambda row: "negative n_cooc")
    # `compute_all_stats` gives order_p and mean_dist exactly when n_cooc > 0,
    # and the asymmetric order exactly when also the pair is directed.
    cooc = counts > 0
    directed = cooc & np.fromiter(
        map(_DIRECTED.__contains__, zip(relation, head)), dtype=bool, count=len(counts)
    )

    def given(*columns: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """Rows with every one of `columns` given, and rows with any."""
        given = [np.fromiter(map(bool, c), dtype=bool, count=len(counts)) for c in columns]
        return np.logical_and.reduce(given), np.logical_or.reduce(given)

    every, any_ = given(order_p, mean_dist)
    faults.where(cooc & ~every, lambda row: "order_p and mean_dist are required when n_cooc > 0")
    faults.where(~cooc & any_, lambda row: "order_p and mean_dist must be empty when n_cooc is 0")
    every, any_ = given(asym_score, asym_pref, asym_p)
    asym = "asym_order_score, asym_order_pref and asym_order_p"
    faults.where(
        directed & ~every,
        lambda row: f"{asym} are required for a HYP or HOL pair with a head when n_cooc > 0",
    )
    faults.where(
        ~directed & any_,
        lambda row: f"{asym} must be empty unless the pair is HYP or HOL with a head"
        " and n_cooc > 0",
    )
    return StatsTable(
        lemma_w, lemma_v, pos, relation,
        float64s(g2, faults), flags(g2_sig, faults),
        float64s(order_score, faults), flags(order_pref, faults),
        float64s(order_p, faults, optional=True), float64s(mean_dist, faults, optional=True),
        counts, head,
        float64s(asym_score, faults, optional=True), flags(asym_pref, faults, optional=True),
        float64s(asym_p, faults, optional=True), float64s(pmi, faults, optional=True),
    )


def read_pair_stats(path: str) -> StatsTable:
    """Read `stats.tsv` as one table, rejecting the first row, in file
    order, with an unknown label, a pair already listed, a bad value,
    `order_p` and `mean_dist` not given exactly when `n_cooc` > 0, or the
    three `asym_*` fields not given exactly when also the relation is HYP
    or HOL and `head` is w or v."""
    return read_columns(path, STATS, _table_from_columns)
