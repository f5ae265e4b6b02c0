import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from coocstat import metrics
from coocstat.cli import run_pipeline
from coocstat.counting import ContingencyTable, CooccurrenceEvent
from coocstat.metrics import (
    UndefinedMetricError,
    asymmetric_order_stats,
    compute_all_stats,
    compute_pair_stats,
    g2_score,
    mean_distance,
    order_stats,
    pmi_score,
)
from coocstat.counting import PairObservations
from coocstat.stats import _reg_gamma_q
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


@st.composite
def pair_observations(draw) -> PairObservations:
    """One pair of any relation and head side, with no events, a few, or
    more than 1024 (where the binomial p-value comes from the incomplete
    beta), a random share of them with w first, and given as an array or
    as a list of `CooccurrenceEvent`."""
    relation = draw(st.sampled_from(("ANT", "SYN", "HYP", "HOL", "UNR")))
    head = draw(st.sampled_from(("w", "v", None))) if relation in ("HYP", "HOL") else None
    m = draw(st.one_of(
        st.sampled_from((0, 1, 1024)), st.integers(0, 12), st.integers(1025, 1500)
    ))
    w_share = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    first = rng.integers(0, 40, m)
    gap = rng.integers(1, 30, m)
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


@settings(max_examples=120, deadline=None)
@given(
    st.lists(pair_observations(), max_size=12),
    st.integers(1, 3000),
    st.booleans(),
)
def test_compute_all_stats_matches_compute_pair_stats(observations, batch_events, baselines):
    """The batched event sums give every pair the stats it gets alone, with
    the default batch size and with batches that split runs of pairs
    anywhere (a pair with more events than a batch gets one of its own)."""
    expected = [compute_pair_stats(obs, with_baselines=baselines) for obs in observations]
    for limit in (metrics._BATCH_EVENTS, batch_events):
        with mock.patch.object(metrics, "_BATCH_EVENTS", limit):
            scored = compute_all_stats(iter(observations), with_baselines=baselines)
        assert [s.pair for s in scored] == [obs.pair for obs in observations]
        for got, want in zip(scored, expected):
            assert vars(got.stats) == vars(want)


def test_toy_g2_flags_match_incomplete_gamma(tmp_path):
    """The 1-df closed form flags the same toy pairs as Q(1/2, G2 / 2)."""
    run_pipeline(toy_config(TOY_PATHS, tmp_path))
    scored = metrics.read_pair_stats(str(tmp_path / "stats.tsv"))
    assert any(s.stats.g2_significant for s in scored)
    assert any(not s.stats.g2_significant for s in scored)
    for s in scored:
        assert s.stats.g2_significant == (_reg_gamma_q(0.5, s.stats.g2 / 2.0) < 0.01)
