"""Relation pair lexicon: loading, filtering, orientation, control sampling.

The lexicon arrives as a neutral TSV export (one related lemma pair per
row) rather than through any specific lexical database API, which keeps
the toolkit agnostic about where the pairs come from.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from coocstat.corpus import CONTENT_POS, VERB, LemmaKey, PairUniverse
from coocstat.tsv import Faults, Table, decimals, read_columns, write_table

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

#: The verb word list: the linking/aux/light flags of each listed lemma.
VerbClasses = Mapping[str, frozenset[str]]

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


def lemma_exclusions(pos: str, wn_freq: int, flags: frozenset[str]) -> tuple[bool, bool, bool]:
    """Whether one side of a pair, by its PoS, lexicon frequency and flags,
    excludes the pair under rules 1, 2 and 4 of `filter_pairs`."""
    verb_class = pos == VERB and not flags.isdisjoint(_VERB_CLASS_FLAGS)
    return not flags.isdisjoint(_UNIT_FLAGS), wn_freq <= 1, verb_class


def _lemma_rule(i: int) -> _Rule:
    """Item `i` of `lemma_exclusions`, excluding an entry when either side fails it."""
    return _each(lambda e: lemma_exclusions(e.a.pos, e.wn_freq_a, e.flags_a)[i]
                 or lemma_exclusions(e.b.pos, e.wn_freq_b, e.flags_b)[i])


#: The exclusion rules in the order they apply, by the name their count
#: goes under.
_RULES: tuple[tuple[str, _Rule], ...] = (
    ("mwe_abbrev_ne", _lemma_rule(0)),
    ("low_wn_freq", _lemma_rule(1)),
    ("multi_relation", _multi_relation),
    ("verb_class", _lemma_rule(2)),
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

def control_lemmas(meta: Mapping[LemmaKey, LemmaMeta], classes: VerbClasses) -> set[LemmaKey]:
    """The lemmas an unrelated control pair may hold: those whose attributes,
    with the word list's flags added, fail none of `lemma_exclusions`, so
    that a pair of two of them passes rules 1, 2 and 4 as a related pair would."""
    # Only listed verbs gain flags, so only they go through `with_verb_classes`.
    listed = [key for key in (LemmaKey(lemma, VERB) for lemma in classes) if key in meta]
    flags_of = {key: with_verb_classes(key, meta[key].flags, classes) for key in listed}
    return {
        key for key, (wn_freq, flags) in meta.items()
        if not any(lemma_exclusions(key.pos, wn_freq, flags_of.get(key, flags)))
    }


def check_sample(n: int, seed: int) -> None:
    if n <= 0:
        raise ValueError(f"sample size must be positive, got {n}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def sample_unrelated(
    corpus_pairs: PairUniverse | Iterable[tuple[LemmaKey, LemmaKey]],
    related: set[tuple[str, str, str]],
    n: int,
    seed: int,
    corpus_freq: Mapping[LemmaKey, int],
) -> list[LemmaPair]:
    """Sample n unrelated same-PoS pairs, uniformly without replacement.

    The candidate universe is the given co-occurring pairs, all taken as
    admissible (the CLI scans the corpus for pairs of `control_lemmas`
    only), minus anything related in the lexicon.  Sampling is a partial
    Fisher-Yates shuffle over the canonically sorted universe, driven by a
    PCG64 generator, so a fixed seed always returns the same pairs.
    """
    check_sample(n, seed)
    if not isinstance(corpus_pairs, PairUniverse):
        corpus_pairs = PairUniverse.from_pairs(corpus_pairs)
    keys, codes, size = corpus_pairs.keys, corpus_pairs.codes, len(corpus_pairs.keys)
    ids = corpus_pairs.key_ids

    related_codes = np.array([
        ids[a] * size + ids[b]
        for pos, lo, hi in related
        if (a := LemmaKey(lo, pos)) in ids and (b := LemmaKey(hi, pos)) in ids
    ], dtype=np.int64)
    # The universe codes are sorted, so each related code is found by bisection.
    at = np.searchsorted(codes, related_codes)
    inside = at < len(codes)
    at = at[inside]
    universe = np.delete(codes, at[codes[at] == related_codes[inside]])

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

LEXICON = Table("lexicon", (
    "lemma_a", "pos", "lemma_b", "relation", "directed_head", "path_length",
    "wn_freq_a", "wn_freq_b", "flags_a", "flags_b",
), header=False)
DERIVATIONS = Table("derivations", ("lemma", "pos", "derived_lemma", "derived_pos"), header=False)
LEMMA_ATTRS = Table("lemma-attributes", ("lemma", "pos", "wn_freq", "flags"), header=False)
VERB_CLASSES = Table("verb-classes", ("lemma", "class"), header=False)


def _lemma_keys(lemmas: list[str], pos: list[str], faults: Faults) -> list[LemmaKey]:
    """The case-folded key of each row, adding the first row with an empty
    lemma and the first whose PoS, upper-cased, is not a content PoS."""
    faults.first(lemmas, operator.not_, lambda row: "empty lemma")
    # One string per PoS for all rows, not one per row and side.
    upper = {tag: sys.intern(tag.upper()) for tag in set(pos)}
    faults.first(pos, lambda tag: upper[tag] not in CONTENT_POS,
                 lambda row: f"bad pos {upper[pos[row]]!r}")
    return list(map(LemmaKey, map(str.casefold, lemmas), map(upper.__getitem__, pos)))


def _flag_sets(column: list[str], faults: Faults) -> list[frozenset[str]]:
    """The comma-separated flags of each row, adding the first row with an
    unknown flag.  Rows with the same text share one set."""
    sets = {text: frozenset(text.split(",") if text else ()) for text in set(column)}
    faults.first(column, lambda text: not sets[text] <= FLAGS,
                 lambda row: f"unknown flags {sorted(sets[column[row]] - FLAGS)}")
    return list(map(sets.__getitem__, column))


def _entries_from_columns(columns: list[list[str]], faults: Faults) -> list[LexiconEntry]:
    lemma_a, pos, lemma_b, relation, head, plen, freq_a, freq_b, flags_a, flags_b = columns
    a = _lemma_keys(lemma_a, pos, faults)
    b = _lemma_keys(lemma_b, pos, faults)
    upper = {name: name.upper() for name in set(relation)}
    relation = list(map(upper.__getitem__, relation))
    faults.first(relation, lambda name: name not in RELATED,
                 lambda row: f"bad relation {relation[row]!r}")
    faults.first(list(map(operator.eq, a, b)), bool, lambda row: "identical lemmas")
    faults.first(head, lambda side: side not in ("", "a", "b"),
                 lambda row: f"bad directed_head {head[row]!r}")
    faults.first(list(zip(head, relation)), lambda pair: pair[0] and pair[1] not in (HYP, HOL),
                 lambda row: f"directed_head given for {relation[row]}")
    given = list(zip(relation, map(bool, plen)))
    faults.first(given, lambda pair: pair == (HYP, False), lambda row: "HYP needs path_length")
    faults.first(given, lambda pair: pair[1] and pair[0] != HYP,
                 lambda row: f"path_length given for {relation[row]}")
    path_length = decimals(plen, faults, None)
    faults.first(path_length, lambda n: n is not None and n < 0,
                 lambda row: f"path_length must be >= 0, got {path_length[row]}")
    return list(map(
        LexiconEntry, a, b, relation, [side or None for side in head], path_length,
        decimals(freq_a, faults, 0), decimals(freq_b, faults, 0),
        _flag_sets(flags_a, faults), _flag_sets(flags_b, faults),
    ))


def load_lexicon(path: str) -> list[LexiconEntry]:
    """Read the pair-file export: one related lemma pair per TSV row.

    Columns: lemma_a pos lemma_b relation directed_head path_length
    wn_freq_a wn_freq_b flags_a flags_b.  Empty fields mean "absent";
    flags are comma-separated.
    """
    return read_columns(path, LEXICON, _entries_from_columns)


def _links_from_columns(columns: list[list[str]], faults: Faults) -> list[DerivationLink]:
    lemma, pos, derived_lemma, derived_pos = columns
    source = _lemma_keys(lemma, pos, faults)
    derived = _lemma_keys(derived_lemma, derived_pos, faults)
    faults.first(list(map(operator.eq, source, derived)), bool, lambda row: "self-link")
    return list(map(DerivationLink, source, derived))


def load_derivations(path: str) -> list[DerivationLink]:
    """Read derivation links: lemma pos derived_lemma derived_pos."""
    return read_columns(path, DERIVATIONS, _links_from_columns)


def _attrs_from_columns(columns: list[list[str]], faults: Faults) -> dict[LemmaKey, LemmaMeta]:
    lemma, pos, wn_freq, flags = columns
    keys = _lemma_keys(lemma, pos, faults)
    faults.repeats(keys, lambda key: f"duplicate lemma {key.lemma} {key.pos}")
    meta = map(LemmaMeta, decimals(wn_freq, faults, 0), _flag_sets(flags, faults))
    return dict(zip(keys, meta))


def load_lemma_attrs(path: str) -> dict[LemmaKey, LemmaMeta]:
    """Read per-lemma attributes: lemma pos wn_freq flags, one row per
    case-folded ``lemma pos``."""
    return read_columns(path, LEMMA_ATTRS, _attrs_from_columns)


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


def _classes_from_columns(columns: list[list[str]], faults: Faults) -> dict[str, frozenset[str]]:
    lemma, name = columns
    faults.first(lemma, operator.not_, lambda row: "empty lemma")
    faults.first(name, lambda text: text not in _VERB_CLASS_NAMES, lambda row: (
        f"unknown verb class {name[row]!r} (choose from linking, aux, light)"
    ))
    classes: dict[str, frozenset[str]] = {}
    for key, flag in zip(map(str.casefold, lemma), map(_VERB_CLASS_NAMES.get, name)):
        classes[key] = classes.get(key, frozenset()) | {flag}
    return classes


def load_verb_classes(path: str) -> dict[str, frozenset[str]]:
    """Read the verb word list: lemma class, class in {linking, aux, light}."""
    return read_columns(path, VERB_CLASSES, _classes_from_columns)


def with_verb_classes(key: LemmaKey, flags: frozenset[str], classes: VerbClasses) -> frozenset[str]:
    """`flags`, plus the word list's flags for `key` when it is a verb."""
    extra = classes.get(key.lemma) if key.pos == VERB else None
    return flags | extra if extra else flags


def apply_verb_class_flags(
    entries: Sequence[LexiconEntry], classes: VerbClasses
) -> list[LexiconEntry]:
    """Add linking/aux/light flags to verb entries from a word list."""
    out = []
    for e in entries:
        flags_a = with_verb_classes(e.a, e.flags_a, classes)
        flags_b = with_verb_classes(e.b, e.flags_b, classes)
        if (flags_a, flags_b) != (e.flags_a, e.flags_b):
            e = replace(e, flags_a=flags_a, flags_b=flags_b)
        out.append(e)
    return out


PAIRS = Table("pairs", ("lemma_w", "lemma_v", "pos", "relation", "head"))
DERIVED = Table("derived-pairs", tuple(
    f"{side}_{c}" for side in ("orig", "derv") for c in ("w", "v", "pos", "rel", "head")
))


def pair_fields(p: LemmaPair) -> tuple[str, ...]:
    """A pair as the five `PAIRS` fields; `pairs_from_columns` inverts it."""
    return (p.w.lemma, p.v.lemma, p.w.pos, p.relation, p.head or "")


def pair_name(fields: Sequence[str]) -> str:
    """The name of the pair of the `PAIRS` fields `fields`, head optional,
    that tells it apart in every count file: its four key fields, tab-joined."""
    return "\t".join(fields[:4])


_HEADS = ("", "w", "v")


def check_pair_rows(columns: Sequence[list[str]], faults: Faults) -> None:
    """Add, for each check that the five `PAIRS` columns of a pair file
    must pass (two distinct non-empty lemmas, and labels a pair can have),
    the first row that fails it; of two faults on one row, the check made
    first is named.  Each check runs once per distinct value."""
    lemma_w, lemma_v, pos, relation, head = columns
    faults.first(lemma_w, operator.not_, lambda row: "empty lemma")
    faults.first(lemma_v, operator.not_, lambda row: "empty lemma")
    faults.first(list(map(operator.eq, lemma_w, lemma_v)), bool, lambda row: "identical lemmas")
    faults.first(pos, lambda tag: tag not in CONTENT_POS, lambda row: f"unknown pos {pos[row]!r}")
    faults.first(relation, lambda name: name not in RELATIONS,
                 lambda row: f"unknown relation {relation[row]!r}")
    faults.first(head, lambda side: side not in _HEADS,
                 lambda row: f"unknown head {head[row]!r} (expected w, v or empty)")


def pair_columns(pairs: Sequence[LemmaPair]) -> list[list[str]]:
    """The five `PAIRS` columns of `pairs`; `pairs_from_columns` inverts it."""
    columns = [list(column) for column in zip(*map(pair_fields, pairs))]
    return columns or [[] for _ in PAIRS.columns]


def pairs_from_columns(columns: Sequence[list[str]]) -> list[LemmaPair]:
    """The pairs of the five `PAIRS` columns."""
    return [
        LemmaPair(LemmaKey(w, pos), LemmaKey(v, pos), relation, head or None)
        for w, v, pos, relation, head in zip(*columns)
    ]


def _checked_pairs(columns: Sequence[list[str]], faults: Faults) -> list[LemmaPair]:
    check_pair_rows(columns, faults)
    return pairs_from_columns(columns)


def pair_keys(columns: Sequence[list[str]], faults: Faults) -> list[str]:
    """The `pair_name` of each row of the five `PAIRS` columns of a pair
    file, adding the first row that holds no pair and the first whose pair
    an earlier row already has."""
    check_pair_rows(columns, faults)
    keys = list(map("\t".join, zip(*columns[:4])))
    faults.repeats(keys, lambda key: "duplicate pair " + key.replace("\t", " "))
    return keys


def write_pairs(pairs: Iterable[LemmaPair], path: str) -> None:
    write_table(path, PAIRS, map(pair_fields, pairs))


def read_pairs(path: str) -> list[LemmaPair]:
    return read_columns(path, PAIRS, _checked_pairs)


def write_derived_map(derived: Iterable[DerivedPair], path: str) -> None:
    rows = (pair_fields(d.original) + pair_fields(d.derived) for d in derived)
    write_table(path, DERIVED, rows)


def _derived_from_columns(columns: list[list[str]], faults: Faults) -> list[DerivedPair]:
    original = _checked_pairs(columns[:5], faults)
    derived = _checked_pairs(columns[5:], faults)
    return list(map(DerivedPair, original, derived))


def read_derived_map(path: str) -> list[DerivedPair]:
    return read_columns(path, DERIVED, _derived_from_columns)
