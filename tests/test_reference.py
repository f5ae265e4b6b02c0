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
from coocstat import counting
from coocstat.corpus import Corpus, CorpusParseError, LemmaKey, Sentence, Token, read_corpus
from coocstat.counting import CountResult, MergeError, count, count_sharded, scan_corpus
from coocstat.lexicon import (
    FLAGS, LemmaMeta, LemmaPair, control_lemmas, sample_unrelated, unordered_key,
)

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


# HYP and HOL pairs with either head, so that two pairs of one name occur.
pair_lists = st.lists(
    st.builds(
        lambda w, v, rel_head: LemmaPair(w, LemmaKey(v, w.pos), *rel_head),
        keys, st.sampled_from(LEMMAS + ("zz",)), st.sampled_from((
            ("ANT", None), ("SYN", None), ("HYP", "w"), ("HYP", "v"), ("HOL", "w"), ("HOL", "v"),
        )),
    ),
    min_size=1, max_size=8,
)


def _count_or_error(count, sentences, pairs) -> CountResult | str:
    """`count(sentences, pairs)`, or the message of the ValueError it raises."""
    try:
        return count(sentences, pairs)
    except ValueError as exc:
        return str(exc)


def _same_count(got, want) -> None:
    """`got` counts as `want` does, or both are one refusal's message."""
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
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
    want = _count_or_error(reference.count, sentences, pairs)
    _same_count(_count_or_error(count, sentences, pairs), want)
    _same_count(_count_or_error(count, iter(sentences), pairs), want)
    _same_count(_count_or_error(count, Corpus.from_sentences(sentences), pairs), want)


@settings(max_examples=100, deadline=None)
@given(corpora(), pair_lists, st.integers(1, 5))
def test_count_sharded_matches_reference_in_id_order(sentences, pairs, block_size):
    # Increasing ids, as `read_corpus` numbers them; the next test shuffles
    # them.
    sentences = sorted(sentences, key=lambda s: s.id)
    want = _count_or_error(reference.count, sentences, pairs)
    with mock.patch.object(counting, "_SCAN_BLOCK", block_size):
        _same_count(_count_or_error(count_sharded, sentences, pairs), want)


@settings(max_examples=300, deadline=None)
@given(corpora(), pair_lists, st.integers(1, 5), st.integers(1, 4))
def test_count_in_blocks_matches_reference_in_input_order(sentences, pairs, block_size, batch):
    # Shuffled ids over several blocks, and the pairs joined a few probes
    # at a time: events stay in input order.
    want = _count_or_error(reference.count, sentences, pairs)
    with mock.patch.object(counting, "_JOIN_BATCH", batch):
        with mock.patch.object(counting, "_SCAN_BLOCK", block_size):
            _same_count(_count_or_error(count, sentences, pairs), want)


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
    assert len(sentences) == n
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
# Verb word lists over the same lemmas, each listed one with one or more
# linking/aux/light flags.
word_lists = st.lists(
    st.one_of(st.none(), st.frozensets(
        st.sampled_from(("LINKING_VERB", "AUX_VERB", "LIGHT_VERB")), min_size=1
    )),
    min_size=len(LEMMAS) + 1, max_size=len(LEMMAS) + 1,
).map(lambda values: {x: f for x, f in zip(LEMMAS + ("zz",), values) if f is not None})
# Attributes that pass rules 1, 2 and 4 for every key, so that only the word
# list keeps a lemma out of the controls.
PLAIN_META = {k: LemmaMeta(2, frozenset()) for k in ALL_KEYS}


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
    word_lists,
)
def test_sample_from_scan_matches_reference(sentences, related, n, seed, meta, classes):
    # The reference checks each pair's lemmas against the attributes and the
    # word list; the program scans only for pairs of `control_lemmas`.  Each
    # example runs with the drawn attributes and with `PLAIN_META`.
    related = {(pos, *sorted((x, y))) for pos, x, y in related if x != y}
    freqs, pairs, _ = reference.scan_corpus(sentences, True, None)
    for lemma_meta in (meta, PLAIN_META):
        vocab = None if lemma_meta is None else control_lemmas(lemma_meta, classes)
        scan = scan_corpus(sentences, True, vocab)
        want = _outcome(
            reference.sample_unrelated, pairs, related, n, seed, freqs, lemma_meta, classes
        )
        assert _outcome(sample_unrelated, scan.pairs, related, n, seed, scan.freqs) == want


# Pairs of one PoS, the only ones a universe keeps, drawn as often as any.
same_pos_pairs = st.builds(
    lambda pos, x, y: (LemmaKey(x, pos), LemmaKey(y, pos)),
    st.sampled_from(POS), st.sampled_from(LEMMAS + ("zz",)), st.sampled_from(LEMMAS + ("zz",)),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.tuples(keys, keys), same_pos_pairs), max_size=20),
    st.integers(1, 12),
    st.integers(0, 2**32),
    st.dictionaries(keys, st.integers(0, 3)),
    metas,
    word_lists,
)
def test_sample_from_pair_list_matches_reference(pairs, n, seed, freqs, meta, classes):
    # Cross-PoS pairs, one-key pairs, repeats and zero frequencies included,
    # sampled as given and as filtered to the `control_lemmas` of the drawn
    # attributes and of `PLAIN_META`, with the word list.
    related = {unordered_key(a, b) for a, b in pairs[::3] if a.pos == b.pos}
    for lemma_meta in (None, meta, PLAIN_META):
        if lemma_meta is None:
            sampled_from = pairs
        else:
            admissible = control_lemmas(lemma_meta, classes)
            sampled_from = [(a, b) for a, b in pairs if a in admissible and b in admissible]
        want = _outcome(
            reference.sample_unrelated, pairs, related, n, seed, freqs, lemma_meta, classes
        )
        assert _outcome(sample_unrelated, sampled_from, related, n, seed, freqs) == want


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
    assert len(corpus) == stream.n_yielded
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


@pytest.mark.parametrize("text,min_len,n_kept,n_skipped", [
    # Every sentence below the length filter.
    ("a\ta\tNOUN\nb\tb\tVERB\n\n.\t.\tPUN\n\nc\tc\tADJ\n", 3, 0, 3),
    ("# only\n# comments\n", 1, 0, 0),
    # One-token sentences, one of them punctuation.
    ("a\ta\tNOUN\n\nb\tb\tVERB\n\n.\t.\tPUN\n\nthe\tthe\tDET\n", 1, 3, 1),
])
def test_parser_edge_files(tmp_path, text, min_len, n_kept, n_skipped):
    path = tmp_path / "c.tsv"
    path.write_text(text)
    _compare_parsers(str(path), min_len)
    corpus = read_corpus(str(path), min_len)
    assert (len(corpus), corpus.skipped) == (n_kept, n_skipped)


def _write(text: str) -> str:
    with tempfile.NamedTemporaryFile(
        "w", suffix=".tsv", newline="", encoding="utf-8", delete=False
    ) as out:
        out.write(text)
    return out.name
