import dataclasses
import gc
import math
import random
import sys

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

import reference
from coocstat import metrics
from coocstat.cli import run_pipeline
from coocstat.counting import ContingencyTable, CooccurrenceEvent
from coocstat.metrics import (
    PairStats,
    StatsTable,
    UndefinedMetricError,
    asymmetric_order_stats,
    compute_all_stats,
    compute_pair_stats,
    g2_score,
    mean_distance,
    order_stats,
    pmi_score,
)
from coocstat.counting import CountResult, PairObservations, read_observations
from coocstat.lexicon import pair_columns
from conftest import TOY_PATHS, pair
from test_cli import toy_config


def table(o_wv, o_w, o_v, o_nn):
    n = o_wv + o_w + o_v + o_nn
    return ContingencyTable(o_wv, o_w, o_v, o_nn, n)


def events(*positions, start_id=0):
    return [
        CooccurrenceEvent(start_id + i, pw, pv) for i, (pw, pv) in enumerate(positions)
    ]


def mutual_information_oracle(t: ContingencyTable) -> float:
    """2n times the mutual information of the joint 2x2 distribution."""
    n = t.n
    rows = (t.o_wv + t.o_w_notv, t.o_notw_v + t.o_notw_notv)
    cols = (t.o_wv + t.o_notw_v, t.o_w_notv + t.o_notw_notv)
    cells = ((t.o_wv, 0, 0), (t.o_w_notv, 0, 1), (t.o_notw_v, 1, 0), (t.o_notw_notv, 1, 1))
    mi = 0.0
    for o, r, c in cells:
        if o > 0:
            joint = o / n
            mi += joint * math.log(joint / ((rows[r] / n) * (cols[c] / n)))
    return 2.0 * n * mi


class TestG2Score:
    def test_hand_case(self):
        assert g2_score(table(3, 1, 2, 4)) == pytest.approx(1.7261, abs=1e-4)

    def test_perfect_independence_is_zero(self):
        assert g2_score(table(2, 2, 2, 2)) == 0.0
        assert g2_score(table(4, 4, 4, 4)) == 0.0

    def test_transpose_symmetry(self):
        rng = random.Random(20)
        for _ in range(300):
            t = table(*(rng.randint(0, 500) for _ in range(4)))
            if t.marginal_w < 1 or t.marginal_v < 1:
                continue
            transposed = ContingencyTable(
                t.o_wv, t.o_notw_v, t.o_w_notv, t.o_notw_notv, t.n
            )
            assert g2_score(t) == pytest.approx(g2_score(transposed), rel=1e-12)

    def test_matches_mutual_information_formulation(self):
        rng = random.Random(21)
        for _ in range(300):
            t = table(*(rng.randint(0, 2000) for _ in range(4)))
            if t.marginal_w < 1 or t.marginal_v < 1:
                continue
            got = g2_score(t)
            expected = mutual_information_oracle(t)
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_non_negative(self):
        rng = random.Random(22)
        for _ in range(500):
            t = table(*(rng.randint(0, 50) for _ in range(4)))
            if t.marginal_w < 1 or t.marginal_v < 1 or t.n == 0:
                continue
            assert g2_score(t) >= 0.0

    def test_zero_marginal_rejected(self):
        with pytest.raises(UndefinedMetricError):
            g2_score(table(0, 0, 3, 5))
        with pytest.raises(UndefinedMetricError):
            g2_score(table(0, 3, 0, 5))
        with pytest.raises(UndefinedMetricError):
            g2_score(ContingencyTable(0, 0, 0, 0, 0))

    def test_pmi_baseline(self):
        t = table(10, 10, 10, 70)
        assert pmi_score(t) == pytest.approx(math.log2(10 * 100 / (20 * 20)))
        assert pmi_score(table(0, 5, 5, 90)) is None


class TestOrderStats:
    def test_twelve_of_thirteen(self):
        evts = events(*([(0, 5)] * 12 + [(5, 0)]))
        score, preferred, p = order_stats(evts)
        assert p == pytest.approx(0.003418, abs=1e-6)
        assert preferred
        assert score == pytest.approx(11 / 13)

    def test_four_of_four_not_preferred(self):
        evts = events(*([(0, 5)] * 4))
        score, preferred, p = order_stats(evts)
        assert p == pytest.approx(0.125)
        assert not preferred
        assert score == 0.0

    def test_perfect_balance(self):
        evts = events((0, 5), (5, 0), (1, 4), (4, 1))
        score, preferred, p = order_stats(evts)
        assert p == 1.0
        assert not preferred
        assert score == 0.0

    def test_empty_rejected(self):
        with pytest.raises(UndefinedMetricError):
            order_stats([])


class TestAsymmetricOrderStats:
    def test_head_first_positive(self):
        evts = events(*([(0, 5)] * 12 + [(5, 0)]))
        hol = pair("whole", "part", relation="HOL", head="w")
        score, preferred, p = asymmetric_order_stats(evts, hol)
        assert preferred and score == pytest.approx(11 / 13)

    def test_relabeling_negates(self):
        evts = events(*([(0, 5)] * 12 + [(5, 0)]))
        head_w = pair("a", "b", relation="HOL", head="w")
        head_v = pair("a", "b", relation="HOL", head="v")
        s1 = asymmetric_order_stats(evts, head_w)
        s2 = asymmetric_order_stats(evts, head_v)
        assert s1.order_score == -s2.order_score
        assert s1.order_p == s2.order_p

    def test_balance_gives_zero(self):
        evts = events((0, 5), (5, 0))
        hyp = pair("a", "b", relation="HYP", head="w")
        assert asymmetric_order_stats(evts, hyp).order_score == 0.0

    def test_requires_directed_relation_and_head(self):
        evts = events((0, 5))
        with pytest.raises(ValueError):
            asymmetric_order_stats(evts, pair("a", "b", relation="ANT"))
        with pytest.raises(ValueError):
            asymmetric_order_stats(evts, pair("a", "b", relation="HYP", head=None))


class TestMeanDistance:
    def test_adjacent_is_zero(self):
        assert mean_distance(events((4, 5))) == 0.0

    def test_mean(self):
        assert mean_distance(events((0, 10), (3, 5))) == 5.0

    def test_direction_irrelevant(self):
        assert mean_distance(events((10, 0))) == 9.0

    def test_empty_rejected(self):
        with pytest.raises(UndefinedMetricError):
            mean_distance([])


# Events with distinct positions; a small position range makes long runs of
# one order, so some lists have a preferred order.
event_lists = st.lists(
    st.builds(
        CooccurrenceEvent,
        st.integers(0, 10**9),
        st.one_of(st.integers(0, 3), st.integers(0, 2**40)),
        st.one_of(st.integers(0, 3), st.integers(0, 2**40)),
    ).filter(lambda e: e.pos_w != e.pos_v),
    min_size=1,
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(event_lists, st.sampled_from(("HYP", "HOL")), st.sampled_from(("w", "v")))
def test_event_metrics_match_tuple_reference(evts, relation, head):
    directed = pair("a", "b", relation=relation, head=head)
    for given_events in (np.array(evts, dtype=np.int64), evts):
        assert order_stats(given_events) == reference.order_stats(evts)
        assert asymmetric_order_stats(given_events, directed) == (
            reference.asymmetric_order_stats(evts, directed)
        )
        assert mean_distance(given_events) == reference.mean_distance(evts)


class TestComputePairStats:
    def test_full_stats(self):
        p = pair("hot", "cold", pos="ADJ")
        evts = events(*([(1, 3)] * 12 + [(3, 1)]))
        t = ContingencyTable(13, 7, 5, 975, 1000)
        stats = compute_pair_stats(PairObservations(p, t, evts))
        assert stats.n_cooc == 13
        assert stats.g2_significant
        assert stats.has_preferred_order
        assert stats.order_score == pytest.approx(11 / 13)
        assert stats.mean_distance == pytest.approx(1.0)
        assert stats.asym_order_score is None  # symmetric relation

    def test_no_cooccurrence(self):
        p = pair("a", "b")
        t = ContingencyTable(0, 40, 50, 910, 1000)
        stats = compute_pair_stats(PairObservations(p, t, []))
        assert stats.n_cooc == 0
        assert stats.order_p is None
        assert stats.mean_distance is None
        assert stats.order_score == 0.0 and not stats.has_preferred_order

    def test_asym_for_directed(self):
        p = pair("part", "whole", relation="HOL", head="v")
        evts = events(*([(5, 0)] * 12 + [(0, 5)]))
        t = ContingencyTable(13, 9, 9, 969, 1000)
        stats = compute_pair_stats(PairObservations(p, t, evts))
        assert stats.asym_order_score is not None
        assert stats.asym_order_score > 0  # head (v side) precedes in 12/13

    def test_event_count_must_be_o_wv(self):
        t = ContingencyTable(2, 3, 4, 991, 1000)
        with pytest.raises(ValueError, match="^pair a b NOUN ANT: 1 events, not its o_wv 2$"):
            compute_pair_stats(PairObservations(pair("a", "b"), t, events((1, 3))))


@st.composite
def pair_observations(draw) -> PairObservations:
    """One pair of any relation and head side, with no events, a few, or
    more than 1024 (where the binomial p-value comes from the incomplete
    beta), a random share of them with w first, gaps short or up to 2**52
    (so that a pair's summed gaps can pass 2**53), and given as an array or
    as a list of `CooccurrenceEvent`."""
    relation = draw(st.sampled_from(("ANT", "SYN", "HYP", "HOL", "UNR")))
    head = draw(st.sampled_from(("w", "v", None))) if relation in ("HYP", "HOL") else None
    m = draw(st.one_of(
        st.sampled_from((0, 1, 1024)), st.integers(0, 12), st.integers(1025, 1500)
    ))
    w_share = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    first = rng.integers(0, 40, m)
    gap = rng.integers(1, draw(st.sampled_from((30, 2**52))), m)
    w_first = rng.random(m) < w_share
    events = np.empty((m, 3), dtype=np.int64)
    events[:, 0] = np.arange(m)
    events[:, 1] = np.where(w_first, first, first + gap)
    events[:, 2] = np.where(w_first, first + gap, first)
    # Both marginals stay positive, so G2 is defined.
    o_w, o_v = (draw(st.integers(0 if m else 1, 60)) for _ in range(2))
    rest = draw(st.integers(0, 10**6))
    table = ContingencyTable(m, o_w, o_v, rest, m + o_w + o_v + rest)
    if draw(st.booleans()):
        events = [CooccurrenceEvent(*row) for row in events.tolist()]
    return PairObservations(pair("a", "b", relation=relation, head=head), table, events)


# The largest n whose n * n is at most 2**53, where G2 leaves int64 for
# Python ints, one above it, and one far above it.
LARGE_N = (94_906_265, 94_906_266, 10**13)


@st.composite
def count_results(draw) -> tuple[list[PairObservations], CountResult]:
    """The observations of up to 12 drawn pairs, each pair's `o_notw_notv`
    raised so that all the tables share one n, the largest drawn or one of
    `LARGE_N`, and the `CountResult` that holds them."""
    drawn = draw(st.lists(pair_observations(), max_size=12))
    n = max((obs.table.n for obs in drawn), default=0)
    if drawn and draw(st.booleans()):
        n = draw(st.sampled_from(LARGE_N))
    observations = [
        PairObservations(
            obs.pair,
            obs.table._replace(o_notw_notv=obs.table.o_notw_notv + n - obs.table.n, n=n),
            obs.events,
        )
        for obs in drawn
    ]
    result = CountResult(
        *pair_columns([obs.pair for obs in observations]),
        np.array([obs.table[:4] for obs in observations], dtype=np.int64).reshape(-1, 4),
        np.concatenate([np.empty((0, 3), dtype=np.int64)] + [
            np.asarray(obs.events, dtype=np.int64).reshape(-1, 3) for obs in observations
        ]),
        n,
        (),
    )
    return observations, result


@settings(max_examples=200, deadline=None)
@given(count_results(), st.booleans())
def test_compute_all_stats_matches_compute_pair_stats(drawn, baselines):
    """The columns give every pair the bits of the scalar reference scorer,
    and so does `compute_pair_stats`, a one-row call of them."""
    observations, result = drawn
    expected = reference.stats_table(
        (obs.pair, reference.pair_stats(obs, with_baselines=baselines)) for obs in observations
    )
    assert_same_table(compute_all_stats(result, with_baselines=baselines), expected)
    alone = reference.stats_table(
        (obs.pair, compute_pair_stats(obs, with_baselines=baselines)) for obs in observations
    )
    assert_same_table(alone, expected)


def _python_steps(score, *args):
    """`score(*args)`, and the number of trace events it raised: Python
    functions called and lines run, a line again on each loop pass."""
    steps = 0

    def trace(frame, event, arg):
        nonlocal steps
        steps += 1
        return trace

    gc.disable()  # a collection would run `gc.callbacks`, Hypothesis has one, in the trace
    sys.settrace(trace)
    try:
        table = score(*args)
    finally:
        sys.settrace(None)
        gc.enable()
    return table, steps


def _doubled(result: CountResult) -> CountResult:
    """`result` with every pair listed twice, which adds no (k, m)."""
    return CountResult(
        *(column * 2 for column in result.key_columns),
        np.concatenate((result.cells, result.cells)),
        np.concatenate((result.events, result.events)), result.n, (),
    )


def _distinct_order_tests(observations: list[PairObservations]) -> set[tuple[int, int]]:
    """The (k, m) of every order and asymmetric order test of the pairs."""
    tests = set()
    for obs in observations:
        rows = np.asarray(obs.events, dtype=np.int64).reshape(-1, 3).tolist()
        m = len(rows)
        if m:
            k = sum(1 for _, pos_w, pos_v in rows if pos_w < pos_v)
            tests.add((k, m))
            if obs.pair.relation in ("HYP", "HOL") and obs.pair.head in ("w", "v"):
                tests.add((k if obs.pair.head == "w" else m - k, m))
    return tests


def assert_scored_as_columns(monkeypatch, observations, result) -> None:
    """`compute_all_stats` builds no `PairStats`, runs one order test per
    distinct (k, m), and runs as many Python functions and lines for a
    count with every pair listed twice: no Python runs once per pair."""
    tests = []

    def order_test(k, m, alpha):
        tests.append((k, m))
        return reference._order_test(k, m, alpha)

    def no_pair_stats(*args, **kwargs):
        raise AssertionError("compute_all_stats built a PairStats")

    monkeypatch.setattr(metrics, "PairStats", no_pair_stats)
    monkeypatch.setattr(metrics, "_order_test", order_test)
    table, steps = _python_steps(compute_all_stats, result)
    assert sorted(tests) == sorted(_distinct_order_tests(observations))
    tests.clear()
    doubled, doubled_steps = _python_steps(compute_all_stats, _doubled(result))
    assert sorted(tests) == sorted(_distinct_order_tests(observations))
    assert doubled_steps == steps
    assert len(doubled) == 2 * len(table)


def test_toy_count_is_scored_as_columns(tmp_path, monkeypatch):
    run_pipeline(toy_config(TOY_PATHS, tmp_path))
    result = read_observations(str(tmp_path / "observations.tsv"), str(tmp_path / "events.tsv"))
    observations = list(result.observations.values())
    assert any(obs.pair.head for obs in observations if obs.table.o_wv)
    assert_scored_as_columns(monkeypatch, observations, result)


@settings(max_examples=40, deadline=None)
@given(count_results())
def test_drawn_count_is_scored_as_columns(drawn):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_scored_as_columns(monkeypatch, *drawn)


def assert_same_table(got: StatsTable, want: StatsTable) -> None:
    """Equal key columns, and numeric columns of one dtype and equal bits."""
    for field in dataclasses.fields(StatsTable):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, list):
            assert type(a) is list and a == b, field.name
        else:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field.name


def test_stats_file_round_trip_column_for_column(tmp_path):
    """`write_pair_stats` then `read_pair_stats` gives back every column,
    with every kind of None: no co-occurrence (no order_p or mean_dist),
    no head, no asymmetric order and no pmi."""
    rows = [
        (pair("a", "b"), PairStats(12.5, True, 0.25, True, 0.001, 3.5, 4)),
        (pair("c", "d", relation="HYP", head="w"),
         PairStats(0.0, False, 0.0, False, None, None, 0)),
        (pair("e", "f", pos="VERB", relation="HOL", head="v"),
         PairStats(7.0, True, -1 / 3, True, 1e-300, 0.1 + 0.2, 9, -0.5, True, 2e-5, -1.25)),
        (pair("g", "h", pos="ADV", relation="HYP", head="v"),
         PairStats(3.0, False, 0.0, False, 0.5, 2.0, 2, 0.0, False, 0.5)),
        (pair("i", "j", pos="ADJ", relation="UNR"),
         PairStats(1e-12, False, 0.0, False, 1.0, 0.0, 1, pmi=5.0)),
    ]
    table = reference.stats_table(rows)
    assert table.head == ["", "w", "v", "v", ""]
    assert table.asym_order_pref.tolist() == [-1, -1, 1, 0, -1]
    assert np.isnan(table.order_p).tolist() == [False, True, False, False, False]
    assert np.isnan(table.pmi).tolist() == [True, True, False, True, False]
    for written in (table, reference.stats_table([])):
        path = tmp_path / "stats.tsv"
        metrics.write_pair_stats(written, str(path))
        assert_same_table(metrics.read_pair_stats(str(path)), written)


def test_stats_table_groups_rows_by_pos_and_relation():
    stats = PairStats(1.0, False, 0.0, False, None, None, 0)
    table = reference.stats_table(
        (pair(w, "x", pos=pos, relation=rel), stats)
        for w, pos, rel in [("a", "VERB", "SYN"), ("b", "NOUN", "UNR"), ("c", "VERB", "SYN"),
                            ("d", "NOUN", "ANT"), ("e", "NOUN", "FOO")]
    )
    assert {key: rows.tolist() for key, rows in table.groups.items()} == {
        ("NOUN", "ANT"): [3], ("NOUN", "UNR"): [1], ("VERB", "SYN"): [0, 2],
    }
    assert list(table.groups) == [("NOUN", "ANT"), ("NOUN", "UNR"), ("VERB", "SYN")]


def test_toy_g2_flags_match_incomplete_gamma(tmp_path):
    """The 1-df closed form flags the same toy pairs as SciPy's Q(1/2, G2 / 2)."""
    run_pipeline(toy_config(TOY_PATHS, tmp_path))
    table = metrics.read_pair_stats(str(tmp_path / "stats.tsv"))
    assert table.g2_sig.any() and not table.g2_sig.all()
    for g2, significant in zip(table.g2.tolist(), table.g2_sig.tolist()):
        assert significant == (scipy.special.gammaincc(0.5, g2 / 2.0) < 0.01)
