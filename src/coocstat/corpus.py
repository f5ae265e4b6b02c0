"""Reader for vertically formatted lemma/PoS-tagged corpora.

File format: UTF-8 text, one token per line as ``surface<TAB>lemma<TAB>pos``,
a blank line terminates a sentence, and lines starting with ``#`` are
comments.  Files ending in ``.gz`` are decompressed transparently.

The reader never holds the corpus in memory; it yields one sentence at a
time so that multi-million-sentence corpora stream through counting.
"""

from __future__ import annotations

import gzip
import zlib
from dataclasses import dataclass
from typing import IO, Iterator, NamedTuple

NOUN = "NOUN"
VERB = "VERB"
ADJ = "ADJ"
ADV = "ADV"
OTHER = "OTHER"
PUNCT = "PUNCT"

#: PoS classes that carry lexical content; pairs are always drawn from these.
CONTENT_POS = (NOUN, VERB, ADJ, ADV)


class Token(NamedTuple):
    surface: str
    lemma: str
    pos: str


class LemmaKey(NamedTuple):
    """A (lemma, coarse PoS) key: the unit every count is attached to."""

    lemma: str
    pos: str


@dataclass
class Sentence:
    tokens: list[Token]
    id: int


class CorpusParseError(ValueError):
    """A corpus line that cannot be interpreted; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# Universal-Dependencies-style tags map directly onto the coarse classes.
# Proper nouns and auxiliaries keep their word class; filtering of named
# entities and auxiliary verbs happens at the pair level, not per token.
_UPOS_TABLE = {
    "NOUN": NOUN,
    "PROPN": NOUN,
    "VERB": VERB,
    "AUX": VERB,
    "ADJ": ADJ,
    "ADV": ADV,
    "PUNCT": PUNCT,
    "OTHER": OTHER,
    "ADP": OTHER,
    "CCONJ": OTHER,
    "SCONJ": OTHER,
    "CONJ": OTHER,
    "DET": OTHER,
    "INTJ": OTHER,
    "NUM": OTHER,
    "PART": OTHER,
    "PRON": OTHER,
    "SYM": OTHER,
    "X": OTHER,
}

# CLAWS C5-style tags (the BNC family) are matched by prefix after the
# exact table misses.  Longer prefixes are tried first.
_CLAWS_PREFIXES = (
    ("PU", PUNCT),   # PUL PUN PUQ PUR
    ("NN", NOUN),    # NN0 NN1 NN2
    ("NP", NOUN),    # NP0 proper noun
    ("AJ", ADJ),     # AJ0 AJC AJS
    ("AV", ADV),     # AV0 AVP AVQ
    ("VV", VERB),    # lexical verbs
    ("VB", VERB),    # forms of "be"
    ("VD", VERB),    # forms of "do"
    ("VH", VERB),    # forms of "have"
    ("VM", VERB),    # modal verbs
)

_PUNCT_TAGS = {"PUNCT", "PUN", "PUL", "PUQ", "PUR", "Y", "."}


def map_pos(raw_tag: str) -> str:
    """Map a tagset-specific PoS tag to one of the six coarse classes.

    Exact UPOS-style names are tried first, then CLAWS C5-style prefixes.
    Unknown tags map to OTHER; the function is total and never raises.
    """
    tag = raw_tag.strip().upper()
    if not tag:
        return OTHER
    coarse = _UPOS_TABLE.get(tag)
    if coarse is not None:
        return coarse
    if tag in _PUNCT_TAGS:
        return PUNCT
    for prefix, coarse in _CLAWS_PREFIXES:
        if tag.startswith(prefix):
            return coarse
    return OTHER


def _open_text(path: str) -> IO[str]:
    if str(path).endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def _parse_token(line: str, line_no: int) -> Token:
    fields = line.split("\t")
    if len(fields) != 3:
        raise CorpusParseError(
            f"expected 3 tab-separated fields, got {len(fields)}", line_no
        )
    surface, lemma, raw_pos = fields
    lemma = lemma.casefold()
    if not lemma:
        raise CorpusParseError("empty lemma field", line_no)
    if any(ch.isspace() for ch in lemma):
        raise CorpusParseError(f"lemma contains whitespace: {lemma!r}", line_no)
    return Token(surface, lemma, map_pos(raw_pos))


class SentenceStream:
    """Iterator over filtered sentences; `n_yielded` is the running total N."""

    def __init__(self, path: str, min_len: int):
        if min_len < 1:
            raise ValueError(f"min_len must be >= 1, got {min_len}")
        self._path = path
        self._min_len = min_len
        self.n_yielded = 0
        self._iter = self._generate()

    def __iter__(self) -> Iterator[Sentence]:
        return self

    def __next__(self) -> Sentence:
        return next(self._iter)

    def _generate(self) -> Iterator[Sentence]:
        tokens: list[Token] = []
        try:
            with _open_text(self._path) as handle:
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
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise ValueError(f"{self._path}: unreadable gzip data: {exc}") from exc
        sentence = self._finish(tokens)
        if sentence is not None:
            yield sentence

    def _finish(self, tokens: list[Token]) -> Sentence | None:
        if not tokens:
            return None
        content = sum(1 for t in tokens if t.pos != PUNCT)
        if content < self._min_len:
            return None
        sentence = Sentence(tokens, self.n_yielded)
        self.n_yielded += 1
        return sentence


def read_corpus(path: str, min_len: int = 5) -> SentenceStream:
    """Stream sentences with at least `min_len` non-punctuation tokens.

    Sentence ids are dense and increasing over the yielded sentences, so
    after exhaustion ``stream.n_yielded`` is the corpus size N used by all
    downstream statistics.
    """
    return SentenceStream(path, min_len)
