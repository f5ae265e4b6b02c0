"""Reader for vertically formatted lemma/PoS-tagged corpora.

File format: UTF-8 text, one token per line as ``surface<TAB>lemma<TAB>pos``,
a blank line terminates a sentence, and lines starting with ``#`` are
comments.  Files ending in ``.gz`` are decompressed transparently.

`read_corpus` parses a file once into a `Corpus`: interned
``(lemma, coarse PoS)`` keys and integer arrays of token ids and sentence
offsets, about 4 bytes per token.  Surface forms are not kept, since no
stage reads them.  The file is read as bytes by `coocstat.tsv.LineBlocks`,
in blocks of whole lines.  Each distinct line is decoded and parsed once;
repeats cost one dictionary lookup, made for a whole block at a time.
"""

from __future__ import annotations

import gzip
import zlib
from array import array
from collections.abc import Set
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from coocstat.tsv import LineBlocks

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

    def __init__(self, message: str, line_no: int, path: str):
        super().__init__(f"{path} line {line_no}: {message}")
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


def _parse_key(text: str, line_no: int, path: str, coarse: dict[str, str]) -> tuple[str, str]:
    """The ``(lemma, coarse PoS)`` of a token line; `coarse` remembers
    `map_pos` of each raw tag."""
    fields = text.split("\t")
    if len(fields) != 3:
        raise CorpusParseError(
            f"expected 3 tab-separated fields, got {len(fields)}", line_no, path
        )
    _, lemma, raw_pos = fields
    lemma = lemma.casefold()
    if not lemma:
        raise CorpusParseError("empty lemma field", line_no, path)
    if lemma.split() != [lemma]:  # `str.split` cuts at exactly the `str.isspace` characters
        raise CorpusParseError(f"lemma contains whitespace: {lemma!r}", line_no, path)
    pos = coarse.get(raw_pos)
    if pos is None:
        pos = coarse[raw_pos] = map_pos(raw_pos)
    return lemma, pos


def _id_order(key: LemmaKey) -> tuple[str, str]:
    return (key.pos, key.lemma)


def sorted_unique(codes: np.ndarray) -> np.ndarray:
    """The distinct values of `codes` in sorted order, as `np.unique`
    returns them.  Since NumPy 2.3 a plain `np.unique` goes through a hash
    table, many times slower on integer codes than this sort-and-mask."""
    ordered = np.sort(codes)
    keep = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


@dataclass(eq=False)
class Corpus:
    """A parsed corpus as integer arrays over interned keys.

    `keys[i]` is the key with id ``i``; ids follow sorted ``(pos, lemma)``
    order.  `token_ids` holds every token of the kept sentences,
    punctuation and OTHER included, because event positions count them.
    Sentence ``s`` is ``token_ids[offsets[s]:offsets[s + 1]]`` and has id
    ``sentence_ids[s]``.  `skipped` counts the sentences the length filter
    dropped.
    """

    keys: list[LemmaKey]
    token_ids: np.ndarray  # int32
    offsets: np.ndarray  # int64, one more than there are sentences
    sentence_ids: np.ndarray  # int64
    skipped: int = 0

    def __len__(self) -> int:
        return len(self.sentence_ids)

    @cached_property
    def key_ids(self) -> dict[LemmaKey, int]:
        """The id of each key, built once per corpus."""
        return dict(zip(self.keys, range(len(self.keys))))

    def __iter__(self) -> Iterator[Sentence]:
        """The sentences as `Token` lists, with empty surface forms."""
        tokens = [Token("", k.lemma, k.pos) for k in self.keys]
        bounds = self.offsets.tolist()
        for s, sid in enumerate(self.sentence_ids.tolist()):
            ids = self.token_ids[bounds[s]:bounds[s + 1]].tolist()
            yield Sentence([tokens[i] for i in ids], sid)

    @classmethod
    def from_sentences(cls, sentences: Iterable[Sentence]) -> Corpus:
        """Compile sentences as given: no length filter, ids and order kept."""
        index: dict[tuple[str, str], int] = {}
        ids = array("i")
        offsets = [0]
        sentence_ids = []
        for sent in sentences:
            for tok in sent.tokens:
                ids.append(index.setdefault((tok.lemma, tok.pos), len(index)))
            offsets.append(len(ids))
            sentence_ids.append(sent.id)
        return _compile(
            list(index),
            np.frombuffer(ids, dtype=np.intc),
            np.array(offsets, dtype=np.int64),
            np.array(sentence_ids, dtype=np.int64),
            skipped=0,
        )

    def sentence_slice(self, lo: int, hi: int) -> Corpus:
        """Sentences ``lo`` to ``hi - 1``, over the same keys."""
        offsets = self.offsets[lo:hi + 1]
        return Corpus(
            self.keys,
            self.token_ids[offsets[0]:offsets[-1]],
            offsets - offsets[0],
            self.sentence_ids[lo:hi],
        )

    def sentence_index(self) -> np.ndarray:
        """The index (not the id) of each token's sentence."""
        return np.repeat(np.arange(len(self), dtype=np.int64), np.diff(self.offsets))


def as_corpus(sentences: Iterable[Sentence]) -> Corpus:
    """A `Corpus` as is; any other iterable of sentences compiled."""
    if isinstance(sentences, Corpus):
        return sentences
    return Corpus.from_sentences(sentences)


def _compile(
    keys: list[tuple[str, str]],
    ids: np.ndarray,
    offsets: np.ndarray,
    sentence_ids: np.ndarray,
    skipped: int,
) -> Corpus:
    """Drop the ``(lemma, pos)`` keys no token uses, renumber the rest in
    id order and make them `LemmaKey`s."""
    used = np.zeros(len(keys), dtype=bool)
    used[ids] = True  # a mask, where `np.bincount` would copy `ids` as int64
    used = np.flatnonzero(used).tolist()
    order = sorted(used, key=[(pos, lemma) for lemma, pos in keys].__getitem__)
    remap = np.zeros(len(keys), dtype=np.int32)
    remap[order] = np.arange(len(order), dtype=np.int32)
    return Corpus(
        [LemmaKey(*keys[i]) for i in order], remap[ids], offsets, sentence_ids, skipped
    )


# Bytes per read of the parse.  Each block's line list and id scratch are
# the parse's transient memory: on the corpus of
# `test_read_corpus_peak_is_compact`, `read_corpus` peaked at about 10
# bytes per token with 64 KiB blocks, 20 with 256 KiB and 65 with 1 MiB.
_BLOCK = 1 << 16
# What a line stands for beside a key id: a sentence end, a comment, or
# nothing known yet.
_END, _COMMENT, _MISS = -1, -2, -3


def _parse(blocks: LineBlocks) -> tuple[list[tuple[str, str]], array, array]:
    """Intern every token line: the ``(lemma, pos)`` keys in first-seen
    order, each token's key id (C ints), and the offsets of the non-empty
    sentences (0, then each end; int64).

    Each block's lines are looked up in one pass through a dict of the
    lines seen before, the blank line among them as a sentence end; Python
    runs only for a line not seen before, in line order."""
    index: dict[tuple[str, str], int] = {}
    by_line: dict[bytes, int] = {b"": _END}  # a raw line -> its key id, _END or _COMMENT
    coarse: dict[str, str] = {}
    ids = array("i")
    bounds = array("q", [0])
    line_no = 0  # of the lines before the block
    for block in blocks:
        lines = block.split(b"\n")
        lines.pop()  # the empty text after the last line's end
        values = np.fromiter(map(by_line.get, lines, repeat(_MISS)), np.int32, len(lines))
        for i in np.flatnonzero(values == _MISS).tolist():
            line = lines[i]
            value = by_line.get(line)  # a miss may repeat a line seen earlier in the block
            if value is None:
                try:
                    text = line.decode("utf-8")
                except UnicodeDecodeError:
                    blocks.decode(block, line_no)  # raises the error naming the line
                    raise
                if text.startswith("#"):
                    value = _COMMENT
                elif not text.strip():
                    value = _END
                else:
                    key = _parse_key(text, line_no + i + 1, blocks.path, coarse)
                    value = index.setdefault(key, len(index))
                by_line[line] = value
            values[i] = value
        line_no += len(lines)
        tokens = values >= 0
        ends = np.cumsum(tokens, dtype=np.int64)[values == _END] + len(ids)
        bounds.frombytes(ends[np.diff(ends, prepend=bounds[-1]) > 0].tobytes())
        ids.frombytes(values[tokens].tobytes())
    if len(ids) > bounds[-1]:
        bounds.append(len(ids))
    return list(index), ids, bounds


def read_corpus(path: str, min_len: int = 5) -> Corpus:
    """Parse the sentences with at least `min_len` non-punctuation tokens.

    Sentence ids are dense and increasing over the kept sentences, so
    ``len(corpus)`` is the corpus size N used by all downstream statistics.
    """
    if min_len < 1:
        raise ValueError(f"min_len must be >= 1, got {min_len}")
    try:
        with (gzip.open if str(path).endswith(".gz") else open)(path, "rb") as handle:
            keys, token_ids, bounds = _parse(LineBlocks(path, handle, _BLOCK))
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise ValueError(f"{path}: unreadable gzip data: {exc}") from exc
    ids = np.frombuffer(token_ids, dtype=np.intc)
    offsets = np.frombuffer(bounds, dtype=np.int64)
    lengths = np.diff(offsets)
    content = np.array([pos != PUNCT for _, pos in keys], dtype=np.uint8)
    # int32: no sentence has 2**31 tokens, and the sum casts the mask to it first.
    n_content = np.add.reduceat(content[ids], offsets[:-1], dtype=np.int32)
    keep = n_content >= min_len
    n_kept = int(np.count_nonzero(keep))
    kept = ids[np.repeat(keep, lengths)]
    del ids, token_ids  # the unfiltered ids, freed before `_compile` copies `kept`
    return _compile(
        keys,
        kept,
        np.concatenate(([0], np.cumsum(lengths[keep]))),
        np.arange(n_kept, dtype=np.int64),
        skipped=len(keep) - n_kept,
    )


class PairUniverse(Set):
    """Distinct same-PoS key pairs ``(a, b)``, ``a`` before ``b`` in id order,
    stored as the sorted int64 codes ``id(a) * len(keys) + id(b)``.

    With `keys` in ``(pos, lemma)`` order, code order is the order of
    ``(pos, lemma_a, lemma_b)``.  Iteration yields ``(LemmaKey, LemmaKey)``
    tuples, so a universe equals the set of those tuples.  `key_ids` maps
    each key to its id.
    """

    def __init__(
        self, keys: Sequence[LemmaKey], codes: np.ndarray, key_ids: dict[LemmaKey, int]
    ):
        self.keys = keys
        self.codes = codes
        self.key_ids = key_ids

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[LemmaKey, LemmaKey]]) -> PairUniverse:
        """The universe of `pairs`; pairs across PoS or of one key are dropped."""
        kept = [(a, b) for a, b in pairs if a.pos == b.pos and a.lemma != b.lemma]
        keys = sorted({k for pair in kept for k in pair}, key=_id_order)
        ids = {k: i for i, k in enumerate(keys)}
        codes = [
            min(ids[a], ids[b]) * len(keys) + max(ids[a], ids[b]) for a, b in kept
        ]
        return cls(keys, sorted_unique(np.array(codes, dtype=np.int64)), ids)

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[tuple[LemmaKey, LemmaKey]]:
        keys, size = self.keys, len(self.keys)
        for code in self.codes.tolist():
            a, b = divmod(code, size)
            yield keys[a], keys[b]

    def __contains__(self, item: object) -> bool:
        try:
            a, b = item  # type: ignore[misc]
            ia, ib = self.key_ids[a], self.key_ids[b]
        except (TypeError, ValueError, KeyError):
            return False
        code = ia * len(self.keys) + ib
        j = int(np.searchsorted(self.codes, code))
        return ia < ib and j < len(self.codes) and int(self.codes[j]) == code
