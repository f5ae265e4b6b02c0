"""The array implementations give exactly the results of the plain-Python
references in `reference.py`: parser, frequency and pair scan, counter and
control-pair sampler."""

from __future__ import annotations

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from coocstat import counting, lexicon
from coocstat.corpus import Corpus, CorpusParseError, LemmaKey, Sentence, Token, read_corpus
from coocstat.counting import MergeError, count, count_sharded, scan_corpus
from coocstat.lexicon import FLAGS, LemmaMeta, LemmaPair, sample_unrelated, unordered_key

POS = ("NOUN", "VERB", "ADJ", "ADV", "OTHER", "PUNCT")
# "a" recurs under several PoS; "zz" is only ever a pair key, never a token.
LEMMAS = ("a", "b", "c", "d", "e")

keys = st.builds(LemmaKey, st.sampled_from(LEMMAS + ("zz",)), st.sampled_from(POS))
token = st.builds(
    lambda lemma, pos: Token(lemma, lemma, pos),
    st.sampled_from(LEMMAS),
    st.sampled_from(POS),
)


@st.composite
def corpora(draw) -> list[Sentence]:
    """Sentences (empty ones too) with distinct, shuffled, gappy ids."""
    bodies = draw(st.lists(st.lists(token, max_size=9), max_size=12))
    ids = draw(st.lists(
        st.integers(0, 40), min_size=len(bodies), max_size=len(bodies), unique=True
    ))
    return [Sentence(tokens, sid) for tokens, sid in zip(bodies, ids)]


pair_lists = st.lists(
    st.builds(
        lambda w, v, rel: LemmaPair(w, LemmaKey(v, w.pos), rel),
        keys, st.sampled_from(LEMMAS + ("zz",)), st.sampled_from(("ANT", "SYN")),
    ),
    min_size=1, max_size=8,
)


def _same_count(got, want) -> None:
    assert got.n == want.n
    assert got.id_runs == want.id_runs
    assert list(got.observations) == list(want.observations)
    for pair, obs in want.observations.items():
        assert got.observations[pair].table == obs.table
        events = got.observations[pair].events
        assert events.dtype == np.int64 and events.shape == (len(obs.events), 3)
        assert events.tolist() == [list(e) for e in obs.events]


@settings(max_examples=300, deadline=None)
@given(corpora(), pair_lists)
def test_count_matches_reference(sentences, pairs):
    want = reference.count(sentences, pairs)
    _same_count(count(sentences, pairs), want)
    _same_count(count(iter(sentences), pairs), want)
    _same_count(count(Corpus.from_sentences(sentences), pairs), want)


@settings(max_examples=100, deadline=None)
@given(corpora(), pair_lists, st.integers(1, 5))
def test_count_sharded_matches_reference_in_id_order(sentences, pairs, block_size):
    # `merge` orders each pair's events by sentence id.
    sentences = sorted(sentences, key=lambda s: s.id)
    want = reference.count(sentences, pairs)
    _same_count(count_sharded(sentences, pairs, block_size=block_size), want)


@settings(max_examples=300, deadline=None)
@given(corpora(), pair_lists, st.integers(1, 5), st.integers(1, 4))
def test_count_in_blocks_matches_reference_in_input_order(sentences, pairs, block_size, batch):
    # Shuffled ids over several blocks, and the pairs joined a few probes
    # at a time: events stay in input order.
    want = reference.count(sentences, pairs)
    with mock.patch.object(counting, "_JOIN_BATCH", batch):
        _same_count(count_sharded(sentences, pairs, block_size=block_size), want)
        with mock.patch.object(counting, "_SCAN_BLOCK", block_size):
            _same_count(count(sentences, pairs), want)


def test_count_repeated_sentence_ids_rejected():
    sentences = [Sentence([Token("a", "a", "NOUN")], 3)] * 2
    pairs = [LemmaPair(LemmaKey("a", "NOUN"), LemmaKey("b", "NOUN"), "ANT")]
    with pytest.raises(MergeError):
        reference.count(sentences, pairs)
    with pytest.raises(MergeError):
        count(sentences, pairs)


@settings(max_examples=300, deadline=None)
@given(
    corpora(),
    st.one_of(st.none(), st.sets(keys, max_size=12)),
    st.booleans(),
    # Small blocks make the scan merge per-block frequencies and pairs.
    st.sampled_from((1, 2, 3, counting._SCAN_BLOCK)),
)
def test_scan_matches_reference(sentences, vocab, collect_pairs, block):
    freqs, pairs, n = reference.scan_corpus(sentences, collect_pairs, vocab)
    with mock.patch.object(counting, "_SCAN_BLOCK", block):
        scan = scan_corpus(sentences, collect_pairs, vocab)
    assert scan.freqs == freqs
    assert scan.n_sentences == n
    if pairs is None:
        assert scan.pairs is None
    else:
        assert scan.pairs == pairs
        assert len(scan.pairs) == len(pairs)
        assert all(p in scan.pairs for p in pairs)
        assert sorted(scan.pairs, key=lambda p: unordered_key(*p)) == list(scan.pairs)


# Attributes for every key but some, so that each rule of the meta check
# decides some samples: no flag or one, and frequencies around the cut.
ALL_KEYS = [LemmaKey(lemma, pos) for lemma in LEMMAS + ("zz",) for pos in POS]
metas = st.lists(
    st.one_of(
        st.none(),
        st.builds(LemmaMeta, st.integers(1, 3), st.sampled_from(
            [frozenset()] + [frozenset({f}) for f in sorted(FLAGS)]
        )),
    ),
    min_size=len(ALL_KEYS), max_size=len(ALL_KEYS),
).map(lambda values: {k: m for k, m in zip(ALL_KEYS, values) if m is not None})


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=300, deadline=None)
@given(
    corpora(),
    st.sets(st.tuples(st.sampled_from(POS), st.sampled_from(LEMMAS), st.sampled_from(LEMMAS))),
    st.integers(1, 12),
    st.integers(0, 2**32),
    st.one_of(st.none(), metas),
    # Small chunks make the meta check span several chunks.
    st.sampled_from((1, 2, 3, lexicon._META_CHUNK)),
)
def test_sample_from_scan_matches_reference(sentences, related, n, seed, meta, chunk):
    related = {(pos, *sorted((x, y))) for pos, x, y in related if x != y}
    freqs, pairs, _ = reference.scan_corpus(sentences, True, None)
    scan = scan_corpus(sentences, True, None)
    want = _outcome(reference.sample_unrelated, pairs, related, n, seed, freqs, meta)
    with mock.patch.object(lexicon, "_META_CHUNK", chunk):
        got = _outcome(sample_unrelated, scan.pairs, related, n, seed, scan.freqs, meta)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(keys, keys), max_size=20),
    st.integers(1, 12),
    st.integers(0, 2**32),
    st.dictionaries(keys, st.integers(0, 3)),
    st.one_of(st.none(), metas),
)
def test_sample_from_pair_list_matches_reference(pairs, n, seed, freqs, meta):
    # Cross-PoS pairs, one-key pairs, repeats and zero frequencies included.
    related = {unordered_key(a, b) for a, b in pairs[::3] if a.pos == b.pos}
    want = _outcome(reference.sample_unrelated, pairs, related, n, seed, freqs, meta)
    assert _outcome(sample_unrelated, pairs, related, n, seed, freqs, meta) == want


# -- parser -------------------------------------------------------------------

TOKEN_LINES = (
    "The\tthe\tDET", "cat\tCat\tNOUN", "Cats\tcat\tNN2", "sat\tsit\tVVD",
    "sits\tSIT\tVERB", "big\tbig\tAJ0", "big\tbig\tADJ ", "now\tnow\tAV0",
    ".\t.\tPUNCT", ",\t,\tPUN", "!\t!\tY", "x\tx\tzz", "#tag\t#tag\tNOUN",
)
BOUNDARY_LINES = ("", " ", "\t", "  \t ")
BAD_LINES = ("two\tfields", "a\t\tNOUN", "a\tb c\tNOUN", "a\tb\tc\td")


@st.composite
def corpus_texts(draw) -> str:
    lines = draw(st.lists(
        st.one_of(
            st.sampled_from(TOKEN_LINES),
            st.sampled_from(BOUNDARY_LINES),
            st.just("# comment"),
        ),
        max_size=40,
    ))
    if draw(st.integers(0, 9)) == 0 and lines:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BAD_LINES)))
    newline = draw(st.sampled_from(("\n", "\r\n")))
    end = draw(st.sampled_from(("", newline)))
    return newline.join(lines) + end


def _parse_both(text: str, min_len: int) -> None:
    path = _write(text)
    try:
        _compare_parsers(path, min_len)
    finally:
        os.unlink(path)


def _compare_parsers(path: str, min_len: int) -> None:
    stream = reference.SentenceStream(path, min_len)
    try:
        want = [(s.id, [(t.lemma, t.pos) for t in s.tokens]) for s in stream]
    except reference.ReferenceParseError as exc:
        with pytest.raises(CorpusParseError) as err:
            read_corpus(path, min_len)
        assert err.value.line_no == exc.line_no
        assert str(err.value) == f"{path} {exc}"
        return
    corpus = read_corpus(path, min_len)
    got = [(s.id, [(t.lemma, t.pos) for t in s.tokens]) for s in corpus]
    assert got == want
    assert corpus.n_yielded == len(corpus) == stream.n_yielded
    assert corpus.skipped == stream.n_skipped
    assert len(corpus.token_ids) == sum(len(t) for _, t in want)
    assert sorted(corpus.keys, key=lambda k: (k.pos, k.lemma)) == corpus.keys
    assert set(corpus.keys) == {k for _, toks in want for k in toks}


@settings(max_examples=400, deadline=None)
@given(corpus_texts(), st.integers(1, 6))
def test_parser_matches_reference(text, min_len):
    _parse_both(text, min_len)


@pytest.mark.parametrize("min_len", [3, 4, 5])
def test_parser_min_len_boundary(tmp_path, min_len):
    # Four content tokens plus punctuation: kept only up to min_len 4.
    path = tmp_path / "c.tsv"
    path.write_text("a\ta\tNOUN\nb\tb\tVERB\nc\tc\tADJ\nd\td\tDET\n.\t.\tPUN\n,\t,\tPUNCT\n\n")
    _compare_parsers(str(path), min_len)
    assert len(read_corpus(str(path), min_len)) == (min_len <= 4)


def test_parser_punctuation_only_sentence_is_skipped(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text(".\t.\tPUNCT\n,\t,\tPUN\n\nThe\tthe\tDET\n\n")
    _compare_parsers(str(path), 1)
    corpus = read_corpus(str(path), 1)
    assert len(corpus) == 1 and corpus.skipped == 1


def _write(text: str) -> str:
    with tempfile.NamedTemporaryFile(
        "w", suffix=".tsv", newline="", encoding="utf-8", delete=False
    ) as out:
        out.write(text)
    return out.name
