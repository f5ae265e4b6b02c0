"""Seeded input generators for the coocstat benchmark.

Everything here is a pure function of a seed and a size.  The generators
keep their own view of the data (token arrays, per-pair counts) so that
`check.py` can recount outputs by brute force without trusting anything
the program wrote.  The program itself only ever sees the files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CONTENT_POS = ("NOUN", "VERB", "ADJ", "ADV")
POS_SHARE = (0.50, 0.25, 0.15, 0.10)
RELATIONS = ("ANT", "SYN", "HYP", "HOL")
REL_SHARE = (0.25, 0.30, 0.30, 0.15)

# UPOS and CLAWS C5 tags per coarse class; CLAWS tags reach `map_pos`'s
# prefix path, the OTHER ones its fallback.
CONTENT_TAGS = {
    "NOUN": ("NOUN", "NN1", "NN2", "NN0"),
    "VERB": ("VERB", "VVB", "VVD", "VVG", "VVZ"),
    "ADJ": ("ADJ", "AJ0", "AJC", "AJS"),
    "ADV": ("ADV", "AV0"),
}
FUNCTION_WORDS = (
    ("the", ("DET", "AT0")),
    ("a", ("DET", "AT0")),
    ("of", ("ADP", "PRF")),
    ("in", ("ADP", "PRP")),
    ("and", ("CCONJ", "CJC")),
    ("to", ("PART", "TO0")),
    ("it", ("PRON", "PNP")),
    ("that", ("SCONJ", "CJT")),
    ("for", ("ADP", "PRP")),
    ("with", ("ADP", "PRP")),
    ("not", ("PART", "XX0")),
    ("this", ("DET", "DT0")),
    ("or", ("CCONJ", "CJC")),
    ("two", ("NUM", "CRD")),
)
PUNCT_MARKS = ((".", ("PUNCT", "PUN", ".")), (",", ("PUNCT", "PUN")), ('"', ("PUQ",)))
# Lemmas from the bundled verb-class list, so the verb-class rule and
# `apply_verb_class_flags` have real work.
VERB_CLASS_LEMMAS = ("be", "have", "do", "make", "take", "get", "seem", "give")

MIN_LEN = 5  # the program's default --min-sentence-len

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]


def pseudo_word(i: int) -> str:
    """A unique lowercase word for id `i`; the trailing `x` keeps it apart
    from the real words above."""
    out = []
    i += len(_SYLLABLES)  # at least two syllables
    while i:
        i, r = divmod(i, len(_SYLLABLES))
        out.append(_SYLLABLES[r])
    return "".join(reversed(out)) + "x"


# ---------------------------------------------------------------------------
# Corpus


@dataclass
class Corpus:
    """The generator's own view of a corpus file.

    `keys[t]` is `lemma_id * 4 + pos_index` for a content token and -1
    otherwise.  `offsets` holds sentence starts (length n_sentences + 1).
    """

    lemmas: list[str]
    keys: np.ndarray
    offsets: np.ndarray
    kind: np.ndarray  # 0 punctuation, 1 function word, 2 content
    kept: np.ndarray  # sentences with at least `MIN_LEN` non-punctuation tokens
    seed: int

    @property
    def token_lines(self) -> int:
        return len(self.keys)


def make_vocab(rng: np.random.Generator, n_lemmas: int):
    """Lemma strings, a primary coarse PoS per lemma and Zipf weights by id."""
    lemmas = [pseudo_word(i) for i in range(n_lemmas)]
    primary = rng.choice(len(CONTENT_POS), size=n_lemmas, p=POS_SHARE)
    verbs = np.flatnonzero(primary == CONTENT_POS.index("VERB"))[: len(VERB_CLASS_LEMMAS)]
    for lemma_id, word in zip(verbs, VERB_CLASS_LEMMAS):
        lemmas[lemma_id] = word
    # Zipf-Mandelbrot: the offset flattens the head, as content words do
    # once function words are set apart.
    weights = 1.0 / (np.arange(n_lemmas) + 10.0) ** 1.07
    return lemmas, primary, weights


def make_corpus(
    seed: int,
    n_sentences: int,
    n_lemmas: int,
    plant_rows: list[tuple[int, int, float]],
    plant_frac: float,
    mean_len: int = 24,
) -> Corpus:
    """Zipf corpus with planted co-occurrences of lexicon pairs.

    `plant_rows` are (lemma_a, lemma_b, p_a_first) triples; a share
    `plant_frac` of sentences gets one of them inserted, a first with
    probability p_a_first.
    """
    rng = np.random.default_rng([seed, 1])
    lemmas, primary, weights = make_vocab(np.random.default_rng([seed, 0]), n_lemmas)

    short = rng.random(n_sentences) < 0.06
    lengths = np.where(
        short,
        rng.integers(2, 7, n_sentences),
        6 + rng.poisson(mean_len - 6, n_sentences),
    )
    offsets = np.zeros(n_sentences + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    n_tokens = int(offsets[-1])

    kind = rng.choice(3, size=n_tokens, p=(0.08, 0.35, 0.57))  # punct, function, content
    kind[offsets[1:] - 1] = 0  # every sentence ends in punctuation

    # Content lemmas: stdlib `choices` with precomputed cumulative weights.
    content = np.flatnonzero(kind == 2)
    draw = random.Random(seed).choices(
        range(n_lemmas), cum_weights=np.cumsum(weights).tolist(), k=len(content)
    )
    lemma_of = np.full(n_tokens, -1, dtype=np.int64)
    lemma_of[content] = np.asarray(draw, dtype=np.int64)

    # Planted pairs: two positions before the final punctuation mark.
    plant_sents = np.flatnonzero((rng.random(n_sentences) < plant_frac) & (lengths >= 3))
    rows = rng.integers(0, len(plant_rows), len(plant_sents))
    for s, r in zip(plant_sents.tolist(), rows.tolist()):
        a, b, p_first = plant_rows[r]
        start, span = int(offsets[s]), int(lengths[s]) - 1
        i, j = sorted(rng.choice(span, size=2, replace=False).tolist())
        if rng.random() >= p_first:
            a, b = b, a
        kind[start + i] = kind[start + j] = 2
        lemma_of[start + i], lemma_of[start + j] = a, b

    is_content = kind == 2
    pos = np.where(is_content, primary[np.maximum(lemma_of, 0)], 0)
    # Every tenth lemma is ambiguous: a third of its tokens take another PoS.
    flip = is_content & (lemma_of % 10 == 3) & (rng.random(n_tokens) < 0.33)
    pos = np.where(flip, (pos + 1 + lemma_of % 3) % 4, pos)
    keys = np.where(is_content, lemma_of * 4 + pos, -1)
    kept = np.add.reduceat(kind != 0, offsets[:-1]) >= MIN_LEN
    return Corpus(lemmas, keys, offsets, kind, kept, seed)


def write_corpus(corpus: Corpus, path: Path) -> None:
    """Vertical TSV with a tag mix, a comment line every 500 sentences and
    capitalised sentence-initial words (the program case-folds lemmas)."""
    rng = np.random.default_rng([corpus.seed, 2])
    kind, keys = corpus.kind.tolist(), corpus.keys.tolist()
    n_tokens = len(kind)
    pick = rng.integers(0, 1 << 30, n_tokens).tolist()
    fw = [[f"{w}\t{w}\t{t}\n" for t in tags] for w, tags in FUNCTION_WORDS]
    pm = [[f"{w}\t{w}\t{t}\n" for t in tags] for w, tags in PUNCT_MARKS]
    fw_draw = rng.integers(0, len(FUNCTION_WORDS), n_tokens).tolist()
    pm_draw = rng.choice(len(PUNCT_MARKS), size=n_tokens, p=(0.5, 0.4, 0.1)).tolist()
    tag_lists = [CONTENT_TAGS[p] for p in CONTENT_POS]
    lemmas = corpus.lemmas
    starts = corpus.offsets[:-1].tolist()
    lines = []
    for s, (lo, hi) in enumerate(zip(starts, corpus.offsets[1:].tolist())):
        if s % 500 == 0:
            lines.append(f"# doc {s // 500}\n")
        for t in range(lo, hi):
            k, p = kind[t], pick[t]
            if k == 2:
                key = keys[t]
                word = lemmas[key >> 2]
                if t == lo:
                    word = word.capitalize()
                tags = tag_lists[key & 3]
                lines.append(f"{word}\t{word}\t{tags[p % len(tags)]}\n")
            elif k == 1:
                options = fw[fw_draw[t]]
                lines.append(options[p % len(options)])
            else:
                options = pm[0] if t + 1 == hi else pm[pm_draw[t]]
                lines.append(options[p % len(options)])
        lines.append("\n")
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(lines)


# ---------------------------------------------------------------------------
# Lexicon, lemma attributes, derivations


@dataclass
class Lexicon:
    rows: list[tuple]
    derivations: list[tuple[str, str, str, str]]
    plant: list[tuple[int, int, float]]


_P_FIRST = {"ANT": 0.5, "SYN": 0.65, "HYP": 0.85, "HOL": 0.75}


def make_lexicon(
    seed: int,
    n_lemmas: int,
    n_rows: int,
    top: int,
    n_derived: int,
    skew: float,
) -> Lexicon:
    """Lexicon rows over the `top` most frequent lemmas of `make_vocab`,
    drawn with probability proportional to Zipf weight ** `skew`.

    Rows trip each of the five exclusion rules; `n_derived` ADJ pairs get
    derivation links to NOUN lemmas that hold a relation themselves.
    """
    rng = np.random.default_rng([seed, 3])
    lemmas, primary, weights = make_vocab(np.random.default_rng([seed, 0]), n_lemmas)
    cand = np.arange(min(top, n_lemmas))
    groups = {}
    for pi, pos in enumerate(CONTENT_POS):
        ids = cand[primary[cand] == pi]
        w = weights[ids] ** skew
        groups[pos] = (ids, np.cumsum(w) / w.sum())
    verb_class = [i for i, w in enumerate(lemmas) if w in VERB_CLASS_LEMMAS]

    def draw(pos: str) -> int:
        ids, cum = groups[pos]
        return int(ids[min(np.searchsorted(cum, rng.random()), len(ids) - 1)])

    rows: list[tuple] = []
    seen: set[tuple[str, int, int]] = set()
    plant: list[tuple[int, int, float]] = []

    def add(pos, a, b, rel, plen=None, head=None, fa=None, fb=None, flags=("", "")):
        key = (pos, min(a, b), max(a, b))
        if a == b or key in seen:
            return False
        seen.add(key)
        if rel in ("HYP", "HOL") and head is None:
            head = "ab"[int(rng.integers(2))]
        if rel == "HYP" and plen is None:
            plen = int(rng.choice(4, p=(0.4, 0.35, 0.15, 0.1))) + 1
        fa = int(rng.integers(2, 300)) if fa is None else fa
        fb = int(rng.integers(2, 300)) if fb is None else fb
        rows.append((lemmas[a], pos, lemmas[b], rel, head or "", "" if plen is None else plen,
                     fa, fb, flags[0], flags[1]))
        if rng.random() < 0.6:
            p_first = _P_FIRST[rel]
            if head == "b":
                p_first = 1.0 - p_first
            plant.append((a, b, p_first))
        return True

    pos_draw = rng.choice(len(CONTENT_POS), size=n_rows * 2, p=POS_SHARE)
    rel_draw = rng.choice(len(RELATIONS), size=n_rows * 2, p=REL_SHARE)
    t = 0
    while len(rows) < n_rows and t < len(pos_draw):
        pos, rel = CONTENT_POS[pos_draw[t]], RELATIONS[rel_draw[t]]
        t += 1
        a, b = draw(pos), draw(pos)
        u = rng.random()
        if u < 0.02:  # rule 1: unit flags
            flag = ("MWE", "ABBREV", "NAMED_ENTITY")[int(rng.integers(3))]
            add(pos, a, b, rel, flags=(flag, ""))
        elif u < 0.05:  # rule 2: low lexicon frequency
            add(pos, a, b, rel, fb=int(rng.integers(0, 2)))
        elif u < 0.07 and add(pos, a, b, rel):  # rule 3: second relation
            other = RELATIONS[(RELATIONS.index(rel) + 1) % 4]
            seen.discard((pos, min(a, b), max(a, b)))
            add(pos, a, b, other)
        elif u < 0.10 and pos == "VERB":  # rule 4: verb classes
            if rng.random() < 0.5:
                add(pos, verb_class[int(rng.integers(len(verb_class)))], b, rel)
            else:
                add(pos, a, b, rel, flags=("", "LIGHT_VERB"))
        else:  # rule 5 comes from HYP path lengths above two
            add(pos, a, b, rel)

    derivations = []
    adj_rows = [r for r in rows if r[1] == "ADJ" and not r[8] and not r[9]]
    for r in adj_rows[:n_derived]:
        na, nb = draw("NOUN"), draw("NOUN")
        if not add("NOUN", na, nb, RELATIONS[int(rng.integers(4))]):
            continue
        derivations.append((r[0], "ADJ", lemmas[na], "NOUN"))
        derivations.append((r[2], "ADJ", lemmas[nb], "NOUN"))
    return Lexicon(rows, derivations, plant)


def write_lexicon(lex: Lexicon, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write("# lemma_a\tpos\tlemma_b\trelation\thead\tpath\tfreq_a\tfreq_b\tflags_a\tflags_b\n")
        for r in lex.rows:
            out.write("\t".join(str(x) for x in r) + "\n")


def write_derivations(lex: Lexicon, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for link in lex.derivations:
            out.write("\t".join(link) + "\n")


def write_lemma_attrs(
    seed: int, keys: list[tuple[str, str]], path: Path
) -> None:
    """One attribute row per (lemma, pos); a few fail the control checks."""
    rng = np.random.default_rng([seed, 4])
    u = rng.random(len(keys))
    freq = rng.integers(2, 500, len(keys))
    with open(path, "w", encoding="utf-8") as out:
        out.write("# lemma\tpos\twn_freq\tflags\n")
        for (lemma, pos), ui, fi in zip(keys, u.tolist(), freq.tolist()):
            flags = ""
            if ui < 0.02:
                flags = "NAMED_ENTITY"
            elif ui < 0.03:
                flags = "MWE,ABBREV"
            elif ui < 0.05:
                fi = int(ui * 1000) % 2
            out.write(f"{lemma}\t{pos}\t{fi}\t{flags}\n")


def vocab_keys(corpus: Corpus) -> list[tuple[str, str]]:
    """Every (lemma, pos) that occurs as a content token."""
    present = np.unique(corpus.keys[corpus.keys >= 0])
    return [(corpus.lemmas[k >> 2], CONTENT_POS[k & 3]) for k in present.tolist()]


def lexicon_keys(lex: Lexicon) -> list[tuple[str, str]]:
    keys = {(r[0], r[1]) for r in lex.rows} | {(r[2], r[1]) for r in lex.rows}
    return sorted(keys)


# ---------------------------------------------------------------------------
# Count directory for rescoring

OBS_HEADER = (
    "lemma_w\tlemma_v\tpos\trelation\thead\t"
    "o_wv\to_w_notv\to_notw_v\to_notw_notv\tn"
)
EVENTS_HEADER = "lemma_w\tlemma_v\tpos\trelation\tsentence_id\tpos_w\tpos_v"


@dataclass
class CountDir:
    """Per-pair tables and events as synthesized (arrays indexed by pair)."""

    w: list[str]
    v: list[str]
    pos: list[str]
    rel: list[str]
    head: list[str]
    table: np.ndarray  # (n_pairs, 4): o_wv, o_w_notv, o_notw_v, o_notw_notv
    n: int
    ev_start: np.ndarray  # events of pair i are rows ev_start[i]:ev_start[i+1]
    ev_sid: np.ndarray
    ev_pw: np.ndarray
    ev_pv: np.ndarray


def make_count_dir(seed: int, n_pairs: int, mean_events: float, n: int) -> CountDir:
    """Consistent observations: o_wv equals the event count, marginals fit n."""
    rng = np.random.default_rng([seed, 5])
    pos_i = rng.choice(4, size=n_pairs, p=POS_SHARE)
    rel_i = rng.choice(5, size=n_pairs, p=(0.12, 0.08, 0.15, 0.15, 0.5))
    rel_names = ("ANT", "HOL", "HYP", "SYN", "UNR")
    heads = rng.integers(0, 2, n_pairs)

    # Heavy-tailed co-occurrence counts, a fifth of pairs never co-occur.
    # They are fixed quantiles of one distribution dealt out at random, so
    # every seed has the same total work.
    q = (np.arange(n_pairs) + 0.5) / n_pairs
    m = np.floor(((1.0 - q) ** (-1 / 1.4) - 1.0) * mean_events * 0.4).astype(np.int64)
    m[: n_pairs // 5] = 0
    m = rng.permutation(np.minimum(m, 40_000))
    extra_v = np.floor(rng.pareto(1.1, n_pairs) * 40).astype(np.int64) + 1
    extra_w = extra_v + np.floor(rng.pareto(1.1, n_pairs) * 60).astype(np.int64)
    extra_w = np.minimum(extra_w, n // 4)
    extra_v = np.minimum(extra_v, n // 4)
    table = np.stack([m, extra_w, extra_v, n - m - extra_w - extra_v], axis=1)

    ev_start = np.zeros(n_pairs + 1, dtype=np.int64)
    np.cumsum(m, out=ev_start[1:])
    total = int(ev_start[-1])
    owner = np.repeat(np.arange(n_pairs), m)
    # Strictly increasing sentence ids per pair: sorted draws plus a ramp.
    ramp = np.arange(total) - np.repeat(ev_start[:-1], m)
    base = rng.integers(0, n - np.repeat(m, m) + 1) if total else np.zeros(0, np.int64)
    order = np.lexsort((base, owner))
    ev_sid = base[order] + ramp
    bias = np.array([0.5, 0.62, 0.8])[rng.integers(0, 3, n_pairs)]
    w_first = rng.random(total) < np.repeat(bias, m)
    first = rng.integers(0, 30, total)
    gap = rng.geometric(0.18, total)
    ev_pw = np.where(w_first, first, first + gap)
    ev_pv = np.where(w_first, first + gap, first)

    words = [pseudo_word(i) for i in range(n_pairs // 2 + 50)]
    a = rng.integers(0, len(words), n_pairs)
    b = (a + 1 + rng.integers(0, len(words) - 1, n_pairs)) % len(words)
    seen = set()
    w_names, v_names = [], []
    for i, (ai, bi) in enumerate(zip(a.tolist(), b.tolist())):
        key = (ai, bi, int(pos_i[i]), int(rel_i[i]))
        while key in seen:  # keep pair identities unique
            bi = (bi + 1) % len(words)
            if bi == ai:
                bi = (bi + 1) % len(words)
            key = (ai, bi, int(pos_i[i]), int(rel_i[i]))
        seen.add(key)
        w_names.append(words[ai])
        v_names.append(words[bi])
    rel = [rel_names[r] for r in rel_i.tolist()]
    head = [
        ("w", "v")[h] if r in ("HYP", "HOL") else ""
        for r, h in zip(rel, heads.tolist())
    ]
    return CountDir(
        w_names, v_names, [CONTENT_POS[p] for p in pos_i.tolist()], rel, head,
        table, n, ev_start, ev_sid, ev_pw, ev_pv,
    )


def write_count_dir(cd: CountDir, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    prefixes = [
        f"{w}\t{v}\t{p}\t{r}" for w, v, p, r in zip(cd.w, cd.v, cd.pos, cd.rel)
    ]
    with open(out_dir / "observations.tsv", "w", encoding="utf-8") as out:
        out.write(OBS_HEADER + "\n")
        for prefix, h, t in zip(prefixes, cd.head, cd.table.tolist()):
            out.write(f"{prefix}\t{h}\t{t[0]}\t{t[1]}\t{t[2]}\t{t[3]}\t{cd.n}\n")
    owner = np.repeat(np.arange(len(prefixes)), np.diff(cd.ev_start)).tolist()
    with open(out_dir / "events.tsv", "w", encoding="utf-8") as out:
        out.write(EVENTS_HEADER + "\n")
        out.writelines(
            f"{prefixes[o]}\t{s}\t{pw}\t{pv}\n"
            for o, s, pw, pv in zip(
                owner, cd.ev_sid.tolist(), cd.ev_pw.tolist(), cd.ev_pv.tolist()
            )
        )
