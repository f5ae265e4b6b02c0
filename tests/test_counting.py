import gc
import random
import tracemalloc

import numpy as np
import pytest

from coocstat.counting import (
    ContingencyTable,
    MergeError,
    count,
    count_sharded,
    merge,
    read_observations,
    scan_corpus,
    write_observations,
)
from coocstat.corpus import LemmaKey
from conftest import pair, random_corpus, sent


class TestCount:
    def test_hand_built_ten_sentences(self):
        # w in sentences 0-3, v in sentences 0-2 and 4-5: both in 3,
        # w-only in 1, v-only in 2, neither in 4.
        w, v = "alpha", "beta"
        sentences = [
            sent(0, w, "x", v),
            sent(1, v, w, "y"),
            sent(2, "z", w, v),
            sent(3, w, "x", "y"),
            sent(4, v, "x", "z"),
            sent(5, "y", v, "x"),
            sent(6, "x", "y", "z"),
            sent(7, "x", "y", "z"),
            sent(8, "x", "y", "z"),
            sent(9, "x", "y", "z"),
        ]
        p = pair(w, v)
        result = count(sentences, [p])
        obs = result.observations[p]
        assert obs.table == ContingencyTable(3, 1, 2, 4, 10)
        assert result.n == 10
        assert obs.events[:, 0].tolist() == [0, 1, 2]

    def test_multiplicity_counts_once_first_positions(self):
        sentences = [sent(0, "hot/ADJ", "hot/ADJ", "cold/ADJ")]
        p = pair("hot", "cold", pos="ADJ")
        obs = count(sentences, [p]).observations[p]
        assert obs.table.o_wv == 1
        assert obs.events.dtype == np.int64
        assert obs.events.tolist() == [[0, 0, 2]]

    def test_pos_must_match(self):
        sentences = [sent(0, "bank/VERB", "river/NOUN", "x/NOUN")]
        p = pair("bank", "river", pos="NOUN")
        obs = count(sentences, [p]).observations[p]
        assert obs.table.o_wv == 0
        assert obs.table.o_notw_v == 1  # river/NOUN still observed

    def test_cells_sum_to_n_and_events_match(self):
        rng = random.Random(30)
        sentences = random_corpus(rng, 400, vocab_size=60)
        pairs = [pair(f"w{i}", f"w{i + 7}", ("NOUN", "VERB", "ADJ", "ADV")[i % 4]) for i in range(0, 40, 4)]
        pairs = [
            pair(f"w{i}", f"w{j}", pos)
            for i, j, pos in [(0, 4, "NOUN"), (1, 9, "VERB"), (2, 6, "ADJ"), (3, 11, "ADV"), (8, 12, "NOUN")]
        ]
        result = count(sentences, pairs)
        for obs in result.observations.values():
            t = obs.table
            assert t.o_wv + t.o_w_notv + t.o_notw_v + t.o_notw_notv == result.n
            assert len(obs.events) == t.o_wv

    def test_sentence_order_invariance(self):
        rng = random.Random(31)
        sentences = random_corpus(rng, 300, vocab_size=40)
        pairs = [pair("w0", "w4"), pair("w8", "w12")]
        forward = count(sentences, pairs)
        shuffled = sentences[:]
        rng.shuffle(shuffled)
        scrambled = count(shuffled, pairs)
        for p in pairs:
            assert forward.observations[p].table == scrambled.observations[p].table
            assert sorted(scrambled.observations[p].events.tolist()) == sorted(
                forward.observations[p].events.tolist()
            )

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            count([], [])


class TestMerge:
    def _pairs(self):
        return [pair("w0", "w4"), pair("w1", "w5", "VERB"), pair("w2", "w6", "ADJ")]

    def test_merge_identity(self):
        rng = random.Random(32)
        sentences = random_corpus(rng, 100, vocab_size=30)
        pairs = self._pairs()
        full = count(sentences, pairs)
        empty = count([], pairs)
        merged = merge(full, empty)
        assert merged.n == full.n
        for p in pairs:
            assert merged.observations[p].table == full.observations[p].table
            assert np.array_equal(merged.observations[p].events, full.observations[p].events)

    def test_split_equals_single_pass_any_split(self):
        rng = random.Random(33)
        sentences = random_corpus(rng, 200, vocab_size=30)
        pairs = self._pairs()
        full = count(sentences, pairs)
        for cut in (1, 50, 117, 199):
            merged = merge(count(sentences[:cut], pairs), count(sentences[cut:], pairs))
            assert merged.n == full.n
            for p in pairs:
                assert merged.observations[p].table == full.observations[p].table
                assert np.array_equal(
                    merged.observations[p].events, full.observations[p].events
                )

    def test_three_way_merge_any_order(self):
        rng = random.Random(34)
        sentences = random_corpus(rng, 1000, vocab_size=40)
        pairs = self._pairs()
        full = count(sentences, pairs)
        a = count(sentences[:300], pairs)
        b = count(sentences[300:700], pairs)
        c = count(sentences[700:], pairs)
        for combo in (
            merge(merge(a, b), c),
            merge(merge(a, c), b),
            merge(c, merge(b, a)),
        ):
            assert combo.n == full.n
            assert combo.id_runs == ((0, 999),)
            for p in pairs:
                assert combo.observations[p].table == full.observations[p].table
                assert np.array_equal(
                    combo.observations[p].events, full.observations[p].events
                )

    def test_overlap_rejected(self):
        sentences = random_corpus(random.Random(35), 50, vocab_size=20)
        pairs = self._pairs()
        a = count(sentences[:30], pairs)
        b = count(sentences[20:], pairs)
        with pytest.raises(MergeError):
            merge(a, b)

    def test_pair_mismatch_rejected(self):
        sentences = random_corpus(random.Random(36), 20, vocab_size=20)
        a = count(sentences[:10], [pair("w0", "w4")])
        b = count(sentences[10:], [pair("w1", "w5", "VERB")])
        with pytest.raises(MergeError):
            merge(a, b)


class TestCountSharded:
    def test_matches_single_pass(self):
        rng = random.Random(37)
        sentences = random_corpus(rng, 500, vocab_size=40)
        pairs = [pair("w0", "w4"), pair("w1", "w5", "VERB")]
        full = count(sentences, pairs)
        blocked = count_sharded(iter(sentences), pairs, block_size=83)
        assert blocked.n == full.n
        for p in pairs:
            assert blocked.observations[p].table == full.observations[p].table
            assert np.array_equal(blocked.observations[p].events, full.observations[p].events)


class TestScan:
    def test_freqs_and_pairs(self):
        sentences = [
            sent(0, "a", "b", "c/VERB"),
            sent(1, "a", "a", "b"),
            sent(2, "c/VERB", "d/VERB"),
        ]
        scan = scan_corpus(sentences, collect_pairs=True)
        assert scan.freqs[LemmaKey("a", "NOUN")] == 2
        assert scan.freqs[LemmaKey("c", "VERB")] == 2
        assert (LemmaKey("a", "NOUN"), LemmaKey("b", "NOUN")) in scan.pairs
        # different PoS never pairs
        assert not any(a.pos != b.pos for a, b in scan.pairs)
        assert (LemmaKey("c", "VERB"), LemmaKey("d", "VERB")) in scan.pairs
        assert scan.n_sentences == 3

    def test_vocab_restriction(self):
        sentences = [sent(0, "a", "b", "c")]
        vocab = {LemmaKey("a", "NOUN"), LemmaKey("b", "NOUN")}
        scan = scan_corpus(sentences, collect_pairs=True, vocab=vocab)
        assert scan.pairs == {(LemmaKey("a", "NOUN"), LemmaKey("b", "NOUN"))}
        assert LemmaKey("c", "NOUN") in scan.freqs  # freqs stay unrestricted


class TestDistanceBound:
    def test_mean_distance_bounded_by_sentence_length(self):
        from coocstat.metrics import mean_distance

        rng = random.Random(40)
        sentences = random_corpus(rng, 300, vocab_size=25, min_len=5, max_len=14)
        max_len = max(len(s.tokens) for s in sentences)
        pairs = [pair("w0", "w4"), pair("w1", "w5", "VERB"), pair("w2", "w6", "ADJ")]
        result = count(sentences, pairs)
        for obs in result.observations.values():
            if len(obs.events):
                assert mean_distance(obs.events) <= max_len - 2


class TestObservationsRoundTrip:
    def test_round_trip(self, tmp_path):
        rng = random.Random(39)
        sentences = random_corpus(rng, 150, vocab_size=30)
        pairs = [pair("w0", "w4"), pair("w1", "w5", "VERB", relation="SYN")]
        result = count(sentences, pairs)
        obs_path = tmp_path / "obs.tsv"
        ev_path = tmp_path / "events.tsv"
        write_observations(result, str(obs_path), str(ev_path))
        loaded = read_observations(str(obs_path), str(ev_path))
        assert loaded.n == result.n
        for p in pairs:
            assert loaded.observations[p].table == result.observations[p].table
            assert np.array_equal(loaded.observations[p].events, result.observations[p].events)

    def test_shuffled_events_load_as_written(self, tmp_path):
        # Rows in any order, the pairs' rows interleaved, load to the arrays
        # `count` returned: grouped by pair and sorted by sentence_id.
        rng = random.Random(42)
        sentences = random_corpus(rng, 200, vocab_size=20)
        pos = ("NOUN", "VERB", "ADJ", "ADV")
        pairs = [pair(f"w{i}", f"w{i + 4}", pos[i % 4]) for i in range(8)]
        result = count(sentences, pairs)
        obs_path, ev_path = str(tmp_path / "obs.tsv"), tmp_path / "events.tsv"
        write_observations(result, obs_path, str(ev_path))
        header, *rows = ev_path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert len({row.split("\t")[0] for row in rows}) > 1
        rng.shuffle(rows)
        ev_path.write_text("".join([header, *rows]), encoding="utf-8")
        loaded = read_observations(obs_path, str(ev_path))
        assert list(loaded.observations) == list(result.observations)
        for p, obs in result.observations.items():
            assert np.array_equal(loaded.observations[p].events, obs.events)

    def test_loaded_events_are_compact(self, tmp_path):
        # An event takes 24 bytes as an int64 row, and about 110 as a
        # `CooccurrenceEvent` tuple in a list.
        rng = random.Random(41)
        sentences = random_corpus(rng, 3000, vocab_size=20)
        pos = ("NOUN", "VERB", "ADJ", "ADV")
        pairs = [pair(f"w{i}", f"w{i + 4}", pos[i % 4]) for i in range(16)]
        obs_path, ev_path = str(tmp_path / "obs.tsv"), str(tmp_path / "events.tsv")
        write_observations(count(sentences, pairs), obs_path, ev_path)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = read_observations(obs_path, ev_path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        n_events = sum(len(obs.events) for obs in loaded.observations.values())
        assert n_events > 10_000
        assert held / n_events <= 40
