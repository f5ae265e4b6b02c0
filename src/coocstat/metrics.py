"""Per-pair co-occurrence metrics: G2 strength, order preference, distance."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from coocstat.counting import ContingencyTable, CooccurrenceEvent, PairObservations
from coocstat.lexicon import HOL, HYP, PAIRS, LemmaPair, pair_fields, pair_from_fields
from coocstat.stats import binom_test_two_sided, chi2_sf
from coocstat.tsv import Table, read_table, write_table

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


def _gaps(events: Events) -> np.ndarray:
    """`pos_w - pos_v` for each event: negative where w comes first."""
    rows = np.asarray(events, dtype=np.int64).reshape(-1, 3)
    return rows[:, 1] - rows[:, 2]


def order_stats(events: Events, alpha: float = DEFAULT_ALPHA) -> OrderStats:
    """Order preference of a pair over its co-occurrence events.

    Each event scores +1 when w (the more frequent lemma) precedes v and
    -1 otherwise.  An exact two-sided binomial test against 1/2 decides
    whether the pair has a preferred order; the order score is the mean
    event score when it does and 0 otherwise.
    """
    gaps = _gaps(events)
    return _order_test(int(np.count_nonzero(gaps < 0)), len(gaps), alpha)


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
    gaps = _gaps(events)
    head_first = gaps < 0 if pair.head == "w" else gaps > 0
    return _order_test(int(np.count_nonzero(head_first)), len(gaps), alpha)


def mean_distance(events: Events) -> float:
    """Mean number of tokens strictly between the two first occurrences.

    The distances are summed as integers and divided once, so the mean is
    the correctly rounded quotient of two integers.
    """
    gaps = _gaps(events)
    m = len(gaps)
    if not m:
        raise UndefinedMetricError("distance is undefined without co-occurrences")
    return (int(np.add.reduce(np.abs(gaps))) - m) / m


@dataclass
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
    g2 = g2_score(obs.table)
    significant = chi2_sf(g2, 1.0) < alpha

    if len(obs.events):
        order = order_stats(obs.events, alpha)
        dist = mean_distance(obs.events)
        order_score: float = order.order_score
        has_pref: bool = order.has_preferred_order
        order_p: float | None = order.order_p
    else:
        order_score, has_pref, order_p, dist = 0.0, False, None, None

    stats = PairStats(
        g2=g2,
        g2_significant=significant,
        order_score=order_score,
        has_preferred_order=has_pref,
        order_p=order_p,
        mean_distance=dist,
        n_cooc=obs.table.o_wv,
    )
    pair = obs.pair
    if pair.relation in (HYP, HOL) and pair.head in ("w", "v") and len(obs.events):
        asym = asymmetric_order_stats(obs.events, pair, alpha)
        stats.asym_order_score = asym.order_score
        stats.asym_has_preferred_order = asym.has_preferred_order
        stats.asym_order_p = asym.order_p
    if with_baselines:
        stats.pmi = pmi_score(obs.table)
    return stats


class ScoredPair(NamedTuple):
    pair: LemmaPair
    stats: PairStats


def compute_all_stats(
    observations: Iterable[PairObservations],
    alpha: float = DEFAULT_ALPHA,
    with_baselines: bool = False,
) -> list[ScoredPair]:
    return [
        ScoredPair(obs.pair, compute_pair_stats(obs, alpha, with_baselines))
        for obs in observations
    ]


# ---------------------------------------------------------------------------
# File format for per-pair stats

STATS = Table("pair-stats", PAIRS.columns[:4] + (
    "g2", "g2_sig", "order_score", "order_pref", "order_p", "mean_dist", "n_cooc",
    "head", "asym_order_score", "asym_order_pref", "asym_order_p", "pmi",
))


def _fmt_opt(value: float | None) -> str:
    return "" if value is None else repr(value)


def _fmt_flag(value: bool | None) -> str:
    return "" if value is None else ("1" if value else "0")


def _stats_fields(scored: ScoredPair) -> tuple[str, ...]:
    pair, s = scored
    return pair_fields(pair)[:4] + (
        repr(s.g2),
        _fmt_flag(s.g2_significant),
        repr(s.order_score),
        _fmt_flag(s.has_preferred_order),
        _fmt_opt(s.order_p),
        _fmt_opt(s.mean_distance),
        str(s.n_cooc),
        pair.head or "",
        _fmt_opt(s.asym_order_score),
        _fmt_flag(s.asym_has_preferred_order),
        _fmt_opt(s.asym_order_p),
        _fmt_opt(s.pmi),
    )


def write_pair_stats(scored: Iterable[ScoredPair], path: str) -> None:
    write_table(path, STATS, map(_stats_fields, scored))


def _opt_float(field: str) -> float | None:
    return None if field == "" else float(field)


def _parse_flag(field: str) -> bool:
    if field not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {field!r}")
    return field == "1"


def _scored_from_fields(f: list[str]) -> ScoredPair:
    # `compute_pair_stats` writes order_p and mean_dist exactly when n_cooc > 0.
    n_cooc = int(f[10])
    if n_cooc > 0 and "" in (f[8], f[9]):
        raise ValueError("order_p and mean_dist are required when n_cooc > 0")
    if n_cooc == 0 and (f[8] or f[9]):
        raise ValueError("order_p and mean_dist must be empty when n_cooc is 0")
    stats = PairStats(
        g2=float(f[4]),
        g2_significant=_parse_flag(f[5]),
        order_score=float(f[6]),
        has_preferred_order=_parse_flag(f[7]),
        order_p=_opt_float(f[8]),
        mean_distance=_opt_float(f[9]),
        n_cooc=n_cooc,
        asym_order_score=_opt_float(f[12]),
        asym_has_preferred_order=None if f[13] == "" else _parse_flag(f[13]),
        asym_order_p=_opt_float(f[14]),
        pmi=_opt_float(f[15]),
    )
    return ScoredPair(pair_from_fields([*f[:4], f[11]]), stats)


def read_pair_stats(path: str) -> list[ScoredPair]:
    return list(read_table(path, STATS, _scored_from_fields))
