"""Shared helpers: in-memory sentence builders and corpus file writers."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from coocstat.corpus import LemmaKey, Sentence, Token
from coocstat.lexicon import LemmaPair

TOY_DIR = Path(__file__).resolve().parents[1] / "src" / "coocstat" / "data" / "toy"


def tok(lemma: str, pos: str = "NOUN", surface: str | None = None) -> Token:
    return Token(surface or lemma, lemma, pos)


def sent(sid: int, *specs: str | Token) -> Sentence:
    """Build a sentence from "lemma" / "lemma/POS" specs (default NOUN)."""
    tokens = []
    for spec in specs:
        if isinstance(spec, Token):
            tokens.append(spec)
        else:
            lemma, _, pos = spec.partition("/")
            tokens.append(tok(lemma, pos or "NOUN"))
    return Sentence(tokens, sid)


def pair(w: str, v: str, pos: str = "NOUN", relation: str = "ANT", head=None) -> LemmaPair:
    return LemmaPair(LemmaKey(w, pos), LemmaKey(v, pos), relation, head)


def random_corpus(
    rng: random.Random,
    n_sentences: int,
    vocab_size: int = 300,
    min_len: int = 8,
    max_len: int = 20,
    pos_classes: tuple[str, ...] = ("NOUN", "VERB", "ADJ", "ADV"),
    unique_lemmas_per_sentence: bool = False,
) -> list[Sentence]:
    """Random sentences over a synthetic vocabulary of (lemma, pos) keys."""
    vocab = [
        (f"w{i}", pos_classes[i % len(pos_classes)]) for i in range(vocab_size)
    ]
    sentences = []
    for sid in range(n_sentences):
        length = rng.randint(min_len, max_len)
        if unique_lemmas_per_sentence:
            picks = rng.sample(vocab, min(length, len(vocab)))
        else:
            picks = [rng.choice(vocab) for _ in range(length)]
        sentences.append(Sentence([tok(l, p) for l, p in picks], sid))
    return sentences


def write_corpus(path: Path, sentences: list[Sentence]) -> Path:
    with open(path, "w", encoding="utf-8") as out:
        for sentence in sentences:
            for t in sentence.tokens:
                out.write(f"{t.surface}\t{t.lemma}\t{t.pos}\n")
            out.write("\n")
    return path


TOY_PATHS = {
    name: str(TOY_DIR / f"{name}.tsv")
    for name in ("corpus", "lexicon", "derivations", "lemma_attrs")
}


@pytest.fixture
def toy_paths() -> dict[str, str]:
    return dict(TOY_PATHS)
