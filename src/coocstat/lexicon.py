"""Relation pair lexicon: loading, filtering, orientation, control sampling.

The lexicon arrives as a neutral TSV export (one related lemma pair per
row) rather than through any specific lexical database API, which keeps
the toolkit agnostic about where the pairs come from.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from coocstat.corpus import CONTENT_POS, VERB, LemmaKey, PairUniverse
from coocstat.tsv import Table, read_rows, read_table, write_table

ANT = "ANT"
SYN = "SYN"
HYP = "HYP"
HOL = "HOL"
UNR = "UNR"

#: Relation labels in canonical reporting order.
RELATIONS = (ANT, HOL, HYP, SYN, UNR)
RELATED = (ANT, SYN, HYP, HOL)

MWE = "MWE"
ABBREV = "ABBREV"
NAMED_ENTITY = "NAMED_ENTITY"
LINKING_VERB = "LINKING_VERB"
AUX_VERB = "AUX_VERB"
LIGHT_VERB = "LIGHT_VERB"

FLAGS = frozenset({MWE, ABBREV, NAMED_ENTITY, LINKING_VERB, AUX_VERB, LIGHT_VERB})
_UNIT_FLAGS = frozenset({MWE, ABBREV, NAMED_ENTITY})
_VERB_CLASS_FLAGS = frozenset({LINKING_VERB, AUX_VERB, LIGHT_VERB})

@dataclass(frozen=True)
class LexiconEntry:
    """One related lemma pair as exported from the lexicon.

    `directed_head` names the hypernym/holonym side ("a" or "b") for the
    directed relations; `path_length` is the hierarchy distance and is
    present exactly for HYP entries.
    """

    a: LemmaKey
    b: LemmaKey
    relation: str
    directed_head: str | None = None
    path_length: int | None = None
    wn_freq_a: int = 0
    wn_freq_b: int = 0
    flags_a: frozenset[str] = field(default_factory=frozenset)
    flags_b: frozenset[str] = field(default_factory=frozenset)


class LemmaPair(NamedTuple):
    """A pair oriented so `w` is the corpus-frequent side.

    `head` says whether the hypernym/holonym ended up as "w" or "v";
    None for symmetric or unrelated pairs.
    """

    w: LemmaKey
    v: LemmaKey
    relation: str
    head: str | None = None


class DerivationLink(NamedTuple):
    source: LemmaKey
    derived: LemmaKey


class DerivedPair(NamedTuple):
    original: LemmaPair
    derived: LemmaPair


class LemmaMeta(NamedTuple):
    """Lexicon-side attributes of a single lemma (for control-pair checks)."""

    wn_freq: int
    flags: frozenset[str]


def unordered_key(a: LemmaKey, b: LemmaKey) -> tuple[str, str, str]:
    """Canonical identity of an unordered same-PoS lemma pair."""
    lo, hi = sorted((a.lemma, b.lemma))
    return (a.pos, lo, hi)


def related_pair_set(entries: Iterable[LexiconEntry]) -> set[tuple[str, str, str]]:
    """All unordered pairs that hold any relation, before filtering."""
    return {unordered_key(e.a, e.b) for e in entries}


# ---------------------------------------------------------------------------
# Filtering

class FilterResult(NamedTuple):
    kept: list[LexiconEntry]
    excluded: dict[str, int]


# An exclusion rule maps the entries that survived the rules before it to
# a test of whether one of them is excluded.
_Rule = Callable[[Sequence[LexiconEntry]], Callable[[LexiconEntry], bool]]


def _each(excludes: Callable[[LexiconEntry], bool]) -> _Rule:
    """A rule that looks at one entry at a time."""
    return lambda survivors: excludes


def _multi_relation(survivors: Sequence[LexiconEntry]) -> Callable[[LexiconEntry], bool]:
    relations_of: dict[tuple[str, str, str], set[str]] = {}
    for e in survivors:
        relations_of.setdefault(unordered_key(e.a, e.b), set()).add(e.relation)
    return lambda e: len(relations_of[unordered_key(e.a, e.b)]) > 1


#: The exclusion rules in the order they apply, by the name their count
#: goes under.
_RULES: tuple[tuple[str, _Rule], ...] = (
    ("mwe_abbrev_ne", _each(lambda e: bool((e.flags_a | e.flags_b) & _UNIT_FLAGS))),
    ("low_wn_freq", _each(lambda e: e.wn_freq_a <= 1 or e.wn_freq_b <= 1)),
    ("multi_relation", _multi_relation),
    ("verb_class", _each(
        lambda e: e.a.pos == VERB and bool((e.flags_a | e.flags_b) & _VERB_CLASS_FLAGS)
    )),
    ("hyp_path", _each(
        lambda e: e.relation == HYP and e.path_length is not None and e.path_length > 2
    )),
)
EXCLUSION_RULES = tuple(name for name, _ in _RULES)


def filter_pairs(entries: Sequence[LexiconEntry]) -> FilterResult:
    """Apply the five exclusion rules, in order, counting removals per rule.

    A pair listed more than once with one relation is one pair: only its
    first entry goes through the rules.

    1. either side flagged as a multi-word expression, abbreviation or
       named entity;
    2. either side with a lexicon frequency of zero or one;
    3. the unordered lemma pair holds more than one relation label
       (all such entries are dropped);
    4. verb pairs with a linking/auxiliary/light verb on either side;
    5. hypernymy pairs with a hierarchy path length above two.
    """
    first: dict[tuple[tuple[str, str, str], str], LexiconEntry] = {}
    for e in entries:
        first.setdefault((unordered_key(e.a, e.b), e.relation), e)
    kept = list(first.values())
    excluded: dict[str, int] = {}
    for name, rule in _RULES:
        excludes = rule(kept)
        survivors = [e for e in kept if not excludes(e)]
        excluded[name] = len(kept) - len(survivors)
        kept = survivors
    return FilterResult(kept, excluded)


# ---------------------------------------------------------------------------
# Frequency orientation

def _orient(
    a: LemmaKey,
    b: LemmaKey,
    relation: str,
    directed_head: str | None,
    corpus_freq: Mapping[LemmaKey, int],
) -> LemmaPair | None:
    fa = corpus_freq.get(a, 0)
    fb = corpus_freq.get(b, 0)
    if fa == 0 or fb == 0:
        return None
    if fa > fb or (fa == fb and a.lemma < b.lemma):
        w, v = a, b
        head = {"a": "w", "b": "v"}.get(directed_head or "")
    else:
        w, v = b, a
        head = {"a": "v", "b": "w"}.get(directed_head or "")
    return LemmaPair(w, v, relation, head)


class OrientResult(NamedTuple):
    pairs: list[LemmaPair]
    n_dropped: int


def orient_pairs(
    entries: Sequence[LexiconEntry], corpus_freq: Mapping[LemmaKey, int]
) -> OrientResult:
    """Orient every entry so w is the corpus-frequent side.

    Ties go to the lexicographically smaller lemma.  Entries where either
    lemma never occurs in the corpus are dropped and counted.
    """
    pairs = []
    dropped = 0
    for e in entries:
        pair = _orient(e.a, e.b, e.relation, e.directed_head, corpus_freq)
        if pair is None:
            dropped += 1
        else:
            pairs.append(pair)
    return OrientResult(pairs, dropped)


# ---------------------------------------------------------------------------
# Unrelated control pairs

def _meta_ok(key: LemmaKey, lemma_meta: Mapping[LemmaKey, LemmaMeta]) -> bool:
    """The per-lemma half of the related-pair filters: a control pair
    passes when both of its (same-PoS) lemmas do."""
    meta = lemma_meta.get(key)
    return (
        meta is not None
        and not meta.flags & _UNIT_FLAGS
        and meta.wn_freq > 1
        and not (key.pos == VERB and meta.flags & _VERB_CLASS_FLAGS)
    )


# Universe codes per chunk of the meta check, which bounds its scratch arrays.
_META_CHUNK = 1 << 18


def sample_unrelated(
    corpus_pairs: PairUniverse | Iterable[tuple[LemmaKey, LemmaKey]],
    related: set[tuple[str, str, str]],
    n: int,
    seed: int,
    corpus_freq: Mapping[LemmaKey, int],
    lemma_meta: Mapping[LemmaKey, LemmaMeta] | None = None,
) -> list[LemmaPair]:
    """Sample n unrelated same-PoS pairs, uniformly without replacement.

    The candidate universe is the given co-occurring pairs minus anything
    related in the lexicon; when `lemma_meta` is supplied the same
    flag/frequency checks used on related pairs are applied (pairs with
    unknown lemmas are excluded).  Sampling is a partial Fisher-Yates
    shuffle over the canonically sorted universe, driven by a PCG64
    generator, so a fixed seed always returns the same pairs.
    """
    if n <= 0:
        raise ValueError(f"sample size must be positive, got {n}")
    if not isinstance(corpus_pairs, PairUniverse):
        corpus_pairs = PairUniverse.from_pairs(corpus_pairs)
    keys, codes, size = corpus_pairs.keys, corpus_pairs.codes, len(corpus_pairs.keys)
    ids = corpus_pairs.key_ids

    keep = np.ones(len(codes), dtype=bool)
    if lemma_meta is not None:
        ok = np.array([_meta_ok(k, lemma_meta) for k in keys], dtype=bool)
        for i in range(0, len(codes), _META_CHUNK):
            first, second = np.divmod(codes[i:i + _META_CHUNK], size)
            keep[i:i + _META_CHUNK] = ok[first] & ok[second]
    related_codes = np.array([
        ids[a] * size + ids[b]
        for pos, lo, hi in related
        if (a := LemmaKey(lo, pos)) in ids and (b := LemmaKey(hi, pos)) in ids
    ], dtype=np.int64)
    # The universe codes are sorted, so each related code is found by bisection.
    at = np.searchsorted(codes, related_codes)
    inside = at < len(codes)
    at = at[inside]
    keep[at[codes[at] == related_codes[inside]]] = False
    universe = codes[keep]

    k = min(n, len(universe))
    rng = np.random.Generator(np.random.PCG64(seed))
    for i in range(k):
        j = i + int(rng.integers(0, len(universe) - i))
        universe[i], universe[j] = universe[j], universe[i]

    sampled = []
    for code in universe[:k].tolist():
        a, b = keys[code // size], keys[code % size]
        pair = _orient(a, b, UNR, None, corpus_freq)
        if pair is None:
            raise ValueError(
                f"co-occurring pair {unordered_key(a, b)} has a zero corpus frequency; "
                "frequencies and pair scan disagree"
            )
        sampled.append(pair)
    return sampled


# ---------------------------------------------------------------------------
# Derivation links

def derived_pairs(
    pairs: Sequence[LemmaPair],
    links: Sequence[DerivationLink],
    entries: Sequence[LexiconEntry],
    corpus_freq: Mapping[LemmaKey, int],
) -> list[DerivedPair]:
    """Map each pair to its derivationally related pairs in the lexicon.

    For a pair (w, v), every (w_d, v_d) with w_d derived from w and v_d
    derived from v counts when that pair holds a relation among the given
    entries and both derived lemmas occur in the corpus.  The two
    relations may differ.
    """
    links_from: dict[LemmaKey, list[LemmaKey]] = {}
    for link in links:
        links_from.setdefault(link.source, []).append(link.derived)

    entry_by_key: dict[tuple[str, str, str], LexiconEntry] = {
        unordered_key(e.a, e.b): e for e in entries
    }

    out = []
    seen = set()
    for pair in pairs:
        for wd in links_from.get(pair.w, ()):
            for vd in links_from.get(pair.v, ()):
                if wd.pos != vd.pos:
                    continue
                entry = entry_by_key.get(unordered_key(wd, vd))
                if entry is None:
                    continue
                derived = _orient(
                    entry.a, entry.b, entry.relation, entry.directed_head, corpus_freq
                )
                if derived is None:
                    continue
                item = DerivedPair(pair, derived)
                if item not in seen:
                    seen.add(item)
                    out.append(item)
    return out


# ---------------------------------------------------------------------------
# File formats

def _parse_flags(text: str) -> frozenset[str]:
    if not text:
        return frozenset()
    flags = frozenset(text.split(","))
    bad = flags - FLAGS
    if bad:
        raise ValueError(f"unknown flags {sorted(bad)}")
    return flags


def _count(text: str) -> int:
    return int(text) if text else 0


def _lemma_key(lemma: str, pos: str) -> LemmaKey:
    pos = pos.upper()
    if pos not in CONTENT_POS:
        raise ValueError(f"bad pos {pos!r}")
    # One string per PoS for all rows, not one per row and side.
    return LemmaKey(lemma.casefold(), sys.intern(pos))


def _entry_from_fields(f: list[str]) -> LexiconEntry:
    lemma_a, pos, lemma_b, relation, head, plen, freq_a, freq_b, flags_a, flags_b = f
    a, b = _lemma_key(lemma_a, pos), _lemma_key(lemma_b, pos)
    relation = relation.upper()
    if relation not in RELATED:
        raise ValueError(f"bad relation {relation!r}")
    if a == b:
        raise ValueError("identical lemmas")
    if head not in ("", "a", "b"):
        raise ValueError(f"bad directed_head {head!r}")
    if head and relation not in (HYP, HOL):
        raise ValueError(f"directed_head given for {relation}")
    if relation == HYP and not plen:
        raise ValueError("HYP needs path_length")
    if plen and relation != HYP:
        raise ValueError(f"path_length given for {relation}")
    path_length = int(plen) if plen else None
    if path_length is not None and path_length < 0:
        raise ValueError(f"path_length must be >= 0, got {path_length}")
    return LexiconEntry(
        a=a,
        b=b,
        relation=relation,
        directed_head=head or None,
        path_length=path_length,
        wn_freq_a=_count(freq_a),
        wn_freq_b=_count(freq_b),
        flags_a=_parse_flags(flags_a),
        flags_b=_parse_flags(flags_b),
    )


def load_lexicon(path: str) -> list[LexiconEntry]:
    """Read the pair-file export: one related lemma pair per TSV row.

    Columns: lemma_a pos lemma_b relation directed_head path_length
    wn_freq_a wn_freq_b flags_a flags_b.  Empty fields mean "absent";
    flags are comma-separated.
    """
    return list(read_rows(path, 10, _entry_from_fields))


def _link_from_fields(f: list[str]) -> DerivationLink:
    link = DerivationLink(_lemma_key(f[0], f[1]), _lemma_key(f[2], f[3]))
    if link.source == link.derived:
        raise ValueError("self-link")
    return link


def load_derivations(path: str) -> list[DerivationLink]:
    """Read derivation links: lemma pos derived_lemma derived_pos."""
    return list(read_rows(path, 4, _link_from_fields))


def _attrs_from_fields(f: list[str]) -> tuple[LemmaKey, LemmaMeta]:
    return _lemma_key(f[0], f[1]), LemmaMeta(_count(f[2]), _parse_flags(f[3]))


def load_lemma_attrs(path: str) -> dict[LemmaKey, LemmaMeta]:
    """Read per-lemma attributes: lemma pos wn_freq flags."""
    return dict(read_rows(path, 4, _attrs_from_fields))


def lemma_meta_from_entries(entries: Iterable[LexiconEntry]) -> dict[LemmaKey, LemmaMeta]:
    """Fallback per-lemma attributes aggregated from lexicon rows."""
    meta: dict[LemmaKey, LemmaMeta] = {}
    for e in entries:
        for key, freq, flags in ((e.a, e.wn_freq_a, e.flags_a), (e.b, e.wn_freq_b, e.flags_b)):
            old = meta.get(key, LemmaMeta(freq, flags))
            meta[key] = LemmaMeta(max(old.wn_freq, freq), old.flags | flags)
    return meta


_VERB_CLASS_NAMES = {
    "linking": LINKING_VERB,
    "aux": AUX_VERB,
    "light": LIGHT_VERB,
}


def _verb_class_from_fields(f: list[str]) -> tuple[str, str]:
    if f[1] not in _VERB_CLASS_NAMES:
        raise ValueError(f"unknown verb class {f[1]!r} (choose from linking, aux, light)")
    return f[0].casefold(), _VERB_CLASS_NAMES[f[1]]


def load_verb_classes(path: str) -> dict[str, frozenset[str]]:
    """Read the verb word list: lemma class, class in {linking, aux, light}."""
    classes: dict[str, frozenset[str]] = {}
    for lemma, flag in read_rows(path, 2, _verb_class_from_fields):
        classes[lemma] = classes.get(lemma, frozenset()) | {flag}
    return classes


def apply_verb_class_flags(
    entries: Sequence[LexiconEntry], classes: Mapping[str, frozenset[str]]
) -> list[LexiconEntry]:
    """Add linking/aux/light flags to verb entries from a word list."""
    out = []
    for e in entries:
        if e.a.pos == VERB:
            extra_a = classes.get(e.a.lemma, frozenset())
            extra_b = classes.get(e.b.lemma, frozenset())
            if extra_a or extra_b:
                e = replace(e, flags_a=e.flags_a | extra_a, flags_b=e.flags_b | extra_b)
        out.append(e)
    return out


PAIRS = Table("pairs", ("lemma_w", "lemma_v", "pos", "relation", "head"))
DERIVED = Table("derived-pairs", tuple(
    f"{side}_{c}" for side in ("orig", "derv") for c in ("w", "v", "pos", "rel", "head")
))


def pair_fields(p: LemmaPair) -> tuple[str, ...]:
    """A pair as the five `PAIRS` fields; `pair_from_fields` inverts it."""
    return (p.w.lemma, p.v.lemma, p.w.pos, p.relation, p.head or "")


_HEADS = ("", "w", "v")


def label_error(pos: str, relation: str, head: str) -> str | None:
    """What is wrong with the `pos`, `relation` and `head` fields of a row
    of a pair file, or None when they are labels a pair can have."""
    if pos not in CONTENT_POS:
        return f"unknown pos {pos!r}"
    if relation not in RELATIONS:
        return f"unknown relation {relation!r}"
    if head not in _HEADS:
        return f"unknown head {head!r} (expected w, v or empty)"
    return None


def pair_from_fields(f: Sequence[str]) -> LemmaPair:
    if (error := label_error(f[2], f[3], f[4])) is not None:
        raise ValueError(error)
    return LemmaPair(LemmaKey(f[0], f[2]), LemmaKey(f[1], f[2]), f[3], f[4] or None)


def write_pairs(pairs: Iterable[LemmaPair], path: str) -> None:
    write_table(path, PAIRS, map(pair_fields, pairs))


def read_pairs(path: str) -> list[LemmaPair]:
    return list(read_table(path, PAIRS, pair_from_fields))


def write_derived_map(derived: Iterable[DerivedPair], path: str) -> None:
    rows = (pair_fields(d.original) + pair_fields(d.derived) for d in derived)
    write_table(path, DERIVED, rows)


def _derived_from_fields(f: list[str]) -> DerivedPair:
    return DerivedPair(pair_from_fields(f[:5]), pair_from_fields(f[5:]))


def read_derived_map(path: str) -> list[DerivedPair]:
    return list(read_table(path, DERIVED, _derived_from_fields))
