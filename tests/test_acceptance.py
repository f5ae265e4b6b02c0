"""Acceptance suite: one test per release gate, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s`).

Every expected value is produced by an independent oracle inside this
module (exact rational enumeration, brute-force pair counting, or
high-precision arithmetic), never by the code path under test.
"""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from coocstat.cli import main
from coocstat.corpus import LemmaKey, Sentence, Token
from coocstat.counting import ContingencyTable, count, merge
from coocstat.lexicon import (
    ANT,
    HYP,
    SYN,
    UNR,
    LemmaPair,
    LexiconEntry,
    filter_pairs,
    sample_unrelated,
    unordered_key,
)
from coocstat.metrics import compute_all_stats, compute_pair_stats, g2_score
from coocstat.report import compare_all
from coocstat.stats import binom_test_two_sided, brunner_munzel, chi2_sf
from conftest import TOY_DIR, pair, random_corpus


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\n[ACCEPTANCE] {name}: {status}{suffix}")
    assert ok, f"{name}: {detail}"


# -----------------------------------------------------------------------
# 1. G2 oracle equivalence

def g2_direct_oracle(t: ContingencyTable) -> float:
    """Direct evaluation of the 2 * sum O*ln(O/E) definition at 30 digits."""
    with mp.workdps(30):
        n = mp.mpf(t.n)
        rows = (t.o_wv + t.o_w_notv, t.o_notw_v + t.o_notw_notv)
        cols = (t.o_wv + t.o_notw_v, t.o_w_notv + t.o_notw_notv)
        cells = (
            (t.o_wv, 0, 0),
            (t.o_w_notv, 0, 1),
            (t.o_notw_v, 1, 0),
            (t.o_notw_notv, 1, 1),
        )
        total = mp.mpf(0)
        for o, r, c in cells:
            if o > 0:
                e = mp.mpf(rows[r]) * mp.mpf(cols[c]) / n
                total += o * mp.log(mp.mpf(o) / e)
        return float(2 * total)


def test_criterion_1_g2_oracle_equivalence():
    rng = random.Random(101)
    tables = []
    while len(tables) < 1000:
        cells = [rng.randint(0, 10000) for _ in range(4)]
        t = ContingencyTable(*cells, sum(cells))
        if t.n > 0 and t.marginal_w >= 1 and t.marginal_v >= 1:
            tables.append(t)

    started = time.perf_counter()
    scores = [g2_score(t) for t in tables]
    elapsed = time.perf_counter() - started

    worst = 0.0
    for t, got in zip(tables, scores):
        expected = g2_direct_oracle(t)
        if expected == 0.0:
            assert got == 0.0
        else:
            worst = max(worst, abs(got - expected) / abs(expected))

    hand = g2_score(ContingencyTable(3, 1, 2, 4, 10))
    ok = worst <= 1e-9 and abs(hand - 1.7261) <= 1e-4 and elapsed < 1.0
    report(
        "criterion 1: G2 oracle equivalence",
        ok,
        f"worst rel err {worst:.2e}, hand case {hand:.6f}, {elapsed:.3f}s",
    )


# -----------------------------------------------------------------------
# 2. Null calibration through the counting pipeline

def test_criterion_2_null_calibration():
    n_pairs = 20000
    n_sentences = 1500
    rng = np.random.Generator(np.random.PCG64(2024))
    probs = rng.uniform(0.06, 0.12, size=2 * n_pairs)  # expected o_wv >= 5.4
    lemmas = [f"L{i}" for i in range(2 * n_pairs)]
    pairs = [
        LemmaPair(
            LemmaKey(lemmas[2 * i], "NOUN"), LemmaKey(lemmas[2 * i + 1], "NOUN"), UNR
        )
        for i in range(n_pairs)
    ]

    def sentences():
        for sid in range(n_sentences):
            present = np.nonzero(rng.random(2 * n_pairs) < probs)[0]
            yield Sentence([Token(lemmas[j], lemmas[j], "NOUN") for j in present], sid)

    started = time.perf_counter()
    result = count(sentences(), pairs)
    rejections = sum(
        1
        for obs in result.observations.values()
        if chi2_sf(g2_score(obs.table)) < 0.01
    )
    elapsed = time.perf_counter() - started
    rate = rejections / n_pairs
    ok = 0.005 <= rate <= 0.015 and elapsed < 60.0
    report(
        "criterion 2: G2 null calibration",
        ok,
        f"rate {rate:.4f} over {n_pairs} pairs, {elapsed:.1f}s",
    )


# -----------------------------------------------------------------------
# 3. Brunner-Munzel small-sample oracle

def test_criterion_3_brunner_munzel_small_sample_oracle():
    rng = random.Random(103)
    draws = 0
    worst_gap = 0.0
    exact = True
    for nx in range(2, 9):
        for ny in range(2, 9):
            for _ in range(11):
                x = [rng.randint(0, 4) for _ in range(nx)]
                y = [rng.randint(0, 4) for _ in range(ny)]
                wins = sum(1 for a in x for b in y if a < b)
                ties = sum(1 for a in x for b in y if a == b)
                brute = (wins + 0.5 * ties) / (nx * ny)
                fwd = brunner_munzel(x, y)
                rev = brunner_munzel(y, x)
                exact = exact and fwd.effect == brute
                worst_gap = max(worst_gap, abs(fwd.effect + rev.effect - 1.0))
                draws += 1
    ok = exact and worst_gap <= 1e-12 and draws >= 500
    report(
        "criterion 3: Brunner-Munzel small-sample oracle",
        ok,
        f"{draws} draws, effects exact={exact}, antisymmetry gap {worst_gap:.1e}",
    )


# -----------------------------------------------------------------------
# 4. Exact binomial oracle

def test_criterion_4_exact_binomial_oracle():
    worst = 0.0
    for n in range(1, 21):
        pmf = [Fraction(math.comb(n, i), 2**n) for i in range(n + 1)]
        for k in range(n + 1):
            expected = float(sum(p for p in pmf if p <= pmf[k]))
            got = binom_test_two_sided(k, n).p_value
            worst = max(worst, abs(got - expected))
    hand_a = binom_test_two_sided(12, 13).p_value
    hand_b = binom_test_two_sided(4, 4).p_value
    ok = worst <= 1e-12 and abs(hand_a - 0.003418) <= 1e-6 and hand_b == 0.125
    report(
        "criterion 4: exact binomial oracle",
        ok,
        f"worst abs err {worst:.1e}, (12,13)->{hand_a:.6f}, (4,4)->{hand_b}",
    )


# -----------------------------------------------------------------------
# 5. Sharded-count exactness

def test_criterion_5_sharded_count_exactness():
    rng = random.Random(105)
    sentences = random_corpus(rng, 10000, vocab_size=400, min_len=6, max_len=18)
    pos_classes = ("NOUN", "VERB", "ADJ", "ADV")
    pairs = []
    seen = set()
    while len(pairs) < 500:
        i = rng.randrange(400)
        j = rng.randrange(400)
        if i == j or (i % 4) != (j % 4):
            continue
        key = (min(i, j), max(i, j))
        if key in seen:
            continue
        seen.add(key)
        pairs.append(pair(f"w{i}", f"w{j}", pos_classes[i % 4]))

    single = count(sentences, pairs)
    ok = True
    for k in (2, 3, 7):
        bounds = [round(len(sentences) * i / k) for i in range(k + 1)]
        shards = [
            count(sentences[bounds[i] : bounds[i + 1]], pairs) for i in range(k)
        ]
        rng.shuffle(shards)  # merge order must not matter
        merged = shards[0]
        for shard in shards[1:]:
            merged = merge(merged, shard)
        ok = ok and merged.n == single.n
        for p in pairs:
            ok = ok and merged.observations[p].table == single.observations[p].table
            ok = ok and np.array_equal(
                merged.observations[p].events, single.observations[p].events
            )
    report("criterion 5: sharded-count exactness", ok, "K in {2, 3, 7}, 500 pairs")


# -----------------------------------------------------------------------
# 6. End-to-end discrimination of a planted pair class

def _planted_corpus(rng: random.Random):
    """Synthetic corpus where ANT-labeled pairs co-occur more strongly,
    in a preferred order, and at shorter distances than the other
    relation labels."""
    n_sentences = 20000
    fillers = [f"f{i}" for i in range(2000)]
    token_lists = [
        [rng.choice(fillers) for _ in range(rng.randint(18, 26))]
        for _ in range(n_sentences)
    ]
    pairs = []

    def plant(relation, index, n_cooc, w_first, gap_lo, gap_hi):
        w, v = f"{relation.lower()}_w{index}", f"{relation.lower()}_v{index}"
        pairs.append(pair(w, v, relation=relation))
        ids = rng.sample(range(n_sentences), n_cooc + 100)
        for sid in ids[:n_cooc]:
            toks = token_lists[sid]
            gap = rng.randint(gap_lo, gap_hi)
            first, second = (w, v) if rng.random() < w_first else (v, w)
            i = rng.randrange(max(len(toks) - gap - 1, 1))
            toks.insert(i, first)
            toks.insert(i + gap + 1, second)
        for offset, sid in enumerate(ids[n_cooc:]):
            lemma = w if offset < 60 else v
            token_lists[sid].insert(rng.randrange(len(token_lists[sid])), lemma)

    for i in range(60):
        plant(ANT, i, rng.randint(100, 140), 0.88, 1, 3)
        plant(SYN, i, rng.randint(28, 40), 0.5, 8, 16)
        plant(HYP, i, rng.randint(28, 40), 0.5, 8, 16)
        plant(UNR, i, rng.randint(28, 40), 0.5, 8, 16)

    sentences = [
        Sentence([Token(l, l, "NOUN") for l in toks], sid)
        for sid, toks in enumerate(token_lists)
    ]
    return sentences, pairs


def test_criterion_6_end_to_end_discrimination():
    started = time.perf_counter()
    rng = random.Random(106)
    sentences, pairs = _planted_corpus(rng)
    result = count(sentences, pairs)
    scored = compute_all_stats(result)
    matrices = compare_all(scored, alpha=0.01)
    flags = {
        metric: matrices[("NOUN", metric)].distinct[ANT]
        for metric in ("g2", "order", "distance")
    }
    elapsed = time.perf_counter() - started
    ok = all(flags.values()) and elapsed < 120.0
    report(
        "criterion 6: end-to-end discrimination",
        ok,
        f"distinct flags {flags}, {elapsed:.1f}s",
    )


# -----------------------------------------------------------------------
# 7. Filtering-rule conformance

def test_criterion_7_filtering_rule_conformance():
    def entry(a, b, pos="NOUN", relation=ANT, head=None, plen=None,
              freq_a=5, freq_b=5, flags_a=(), flags_b=()):
        return LexiconEntry(
            LemmaKey(a, pos), LemmaKey(b, pos), relation, head, plen,
            freq_a, freq_b, frozenset(flags_a), frozenset(flags_b),
        )

    fixture = [
        entry("hot", "cold", pos="ADJ"),                                       # keep
        entry("per_se", "as_such", pos="ADV", relation=SYN, flags_a={"MWE"}),  # r1
        entry("tv", "television", relation=SYN, flags_b={"ABBREV"}),           # r1
        entry("london", "paris", flags_a={"NAMED_ENTITY"}),                    # r1
        entry("rare", "thing", relation=HYP, head="b", plen=1, freq_a=1),      # r2
        entry("ghost", "spirit", relation=SYN, freq_b=0),                      # r2
        entry("happy", "glad", pos="ADJ", relation=SYN),                       # r3
        entry("glad", "happy", pos="ADJ", relation=ANT),                       # r3
        entry("seem", "appear", pos="VERB", relation=SYN,
              flags_a={"LINKING_VERB"}),                                       # r4
        entry("take", "grab", pos="VERB", relation=SYN,
              flags_a={"LIGHT_VERB"}),                                         # r4
        entry("oak", "entity", relation=HYP, head="b", plen=3),                # r5
        entry("poodle", "animal", relation=HYP, head="b", plen=2),             # keep
        entry("rise", "fall", pos="VERB"),                                     # keep
    ]
    kept, excluded = filter_pairs(fixture)
    survivors = [(e.a.lemma, e.b.lemma) for e in kept]
    expected_survivors = [("hot", "cold"), ("poodle", "animal"), ("rise", "fall")]
    expected_counts = {
        "mwe_abbrev_ne": 3,
        "low_wn_freq": 2,
        "multi_relation": 2,
        "verb_class": 2,
        "hyp_path": 1,
    }
    ok = survivors == expected_survivors and excluded == expected_counts
    report(
        "criterion 7: filtering-rule conformance",
        ok,
        f"survivors {survivors}, counts {excluded}",
    )


# -----------------------------------------------------------------------
# 8. Table/figure shape reproduction on the bundled toy corpus

TABLE_HEADERS = {
    "table1.csv": "pos,relation,n_pairs",
    "table2.csv": "pos,relation,n_pairs,avg_g2,pct_g2_sig,avg_g2_all,avg_g2_sig_only,distinct",
    "table3.csv": "pos,relation,avg_order,pct_order_pref,n_sig_cooc,distinct",
    "table4.csv": (
        "pos,relation,avg_distance,avg_distance_pair_mean,"
        "avg_distance_event_pooled,n_sig_cooc,distinct"
    ),
    "table5.csv": "orig_pos,derv_pos,orig_rel,derv_rel,count,count_sustaining",
    "table6.csv": "pos,relation,avg_associated",
}
FIG_HEADER = "pos,relation,n,min,q1,median,q3,max"


def _run_toy(out_dir: Path) -> None:
    rc = main([
        "all",
        "--corpus", str(TOY_DIR / "corpus.tsv"),
        "--lexicon", str(TOY_DIR / "lexicon.tsv"),
        "--derivations", str(TOY_DIR / "derivations.tsv"),
        "--lemma-attrs", str(TOY_DIR / "lemma_attrs.tsv"),
        "--out", str(out_dir),
        "--seed", "11",
        "--unr-n", "20",
        "--svg",
    ])
    assert rc == 0


def test_criterion_8_table_figure_shape_reproduction(tmp_path):
    out = tmp_path / "run"
    started = time.perf_counter()
    _run_toy(out)
    elapsed = time.perf_counter() - started

    problems = []
    for name, header in TABLE_HEADERS.items():
        lines = (out / name).read_text().splitlines()
        if lines[0] != header:
            problems.append(f"{name} header {lines[0]!r}")
    for metric in ("g2", "order", "distance", "order_asym"):
        lines = (out / f"fig_{metric}.csv").read_text().splitlines()
        if lines[0] != FIG_HEADER:
            problems.append(f"fig_{metric}.csv header")

    # grid tables: three lines per PoS (two value rows + separator row)
    for name in ("table2.md", "table3.md"):
        lines = (out / name).read_text().splitlines()
        for pos in ("NOUN", "VERB", "ADJ", "ADV"):
            starts = [i for i, l in enumerate(lines) if l.startswith(f"| {pos} |")]
            if len(starts) != 1:
                problems.append(f"{name}: {pos} rows {len(starts)}")
                continue
            i = starts[0]
            if not lines[i + 1].startswith("|  |"):
                problems.append(f"{name}: {pos} missing second value row")
            if lines[i + 2].replace("|", "").strip() != "":
                problems.append(f"{name}: {pos} missing separator row")
    table2 = (out / "table2.md").read_text()
    if "--" not in table2:
        problems.append("table2.md has no undefined cells")
    for fragment in ("| ADJ | ", "| ADV | "):
        line = next(l for l in table2.splitlines() if l.startswith(fragment))
        if line.split("|")[3].strip() != "--":   # HOL undefined for ADJ/ADV
            problems.append(f"{fragment} HOL cell not '--'")

    if "| TOTAL |" not in (out / "table5.md").read_text():
        problems.append("table5.md missing TOTAL row")
    if "| Micro AVG |" not in (out / "table6.md").read_text():
        problems.append("table6.md missing micro average row")

    # UNR pairs present and sampled to the requested size
    table1 = (out / "table1.csv").read_text().splitlines()
    unr_total = sum(
        int(line.split(",")[2]) for line in table1[1:] if line.split(",")[1] == UNR
    )
    if unr_total != 20:
        problems.append(f"UNR count {unr_total} != 20")

    first = {
        p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()
    }
    _run_toy(out)
    second = {
        p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()
    }
    if first != second:
        changed = [k for k in first if first.get(k) != second.get(k)]
        problems.append(f"rerun not byte-identical: {changed}")
    if elapsed >= 5.0:
        problems.append(f"toy pipeline took {elapsed:.1f}s")

    report(
        "criterion 8: table/figure shape reproduction",
        not problems,
        "; ".join(problems) or f"{len(first)} files, rerun identical, {elapsed:.1f}s",
    )


# -----------------------------------------------------------------------
# 9. Invariance suite

def _reverse_sentences(sentences):
    return [Sentence(list(reversed(s.tokens)), s.id) for s in sentences]


def test_criterion_9_invariance_suite():
    problems = []

    # 9a. G2 transpose symmetry, 300 random tables
    rng = random.Random(109)
    checked = 0
    while checked < 300:
        cells = [rng.randint(0, 3000) for _ in range(4)]
        t = ContingencyTable(*cells, sum(cells))
        if t.n == 0 or t.marginal_w < 1 or t.marginal_v < 1:
            continue
        transposed = ContingencyTable(t.o_wv, t.o_notw_v, t.o_w_notv, t.o_notw_notv, t.n)
        a, b = g2_score(t), g2_score(transposed)
        if abs(a - b) > 1e-12 * max(a, b, 1.0):
            problems.append(f"transpose asymmetry at {t}")
        checked += 1

    # 9b. corpus reversal: order scores negate, p-values and distances hold.
    # Sentences use distinct lemmas so first-occurrence anchors are the
    # mirror image of themselves under reversal.
    case_count = 0
    for corpus_seed in range(10):
        rng = random.Random(1000 + corpus_seed)
        sentences = random_corpus(
            rng, 250, vocab_size=60, unique_lemmas_per_sentence=True
        )
        pos_classes = ("NOUN", "VERB", "ADJ", "ADV")
        pairs = []
        seen = set()
        while len(pairs) < 25:
            i, j = rng.randrange(60), rng.randrange(60)
            if i == j or i % 4 != j % 4 or (min(i, j), max(i, j)) in seen:
                continue
            seen.add((min(i, j), max(i, j)))
            pairs.append(pair(f"w{i}", f"w{j}", pos_classes[i % 4]))
        fwd = count(sentences, pairs)
        rev = count(_reverse_sentences(sentences), pairs)
        for p in pairs:
            obs_f, obs_r = fwd.observations[p], rev.observations[p]
            if obs_f.table != obs_r.table:
                problems.append(f"reversal changed table for {p}")
                continue
            if obs_f.table.o_wv == 0:
                case_count += 1
                continue
            sf = compute_pair_stats(obs_f)
            sr = compute_pair_stats(obs_r)
            if sf.order_score != -sr.order_score:
                problems.append(f"order not negated for {p}")
            if sf.order_p != sr.order_p:
                problems.append(f"order p changed for {p}")
            if sf.mean_distance != sr.mean_distance:
                problems.append(f"distance changed for {p}")
            if sf.g2 != sr.g2:
                problems.append(f"g2 changed for {p}")
            case_count += 1
    if case_count < 200:
        problems.append(f"only {case_count} reversal cases")

    # 9c. sample_unrelated: determinism and disjointness, 200 random setups
    for i in range(200):
        rng = random.Random(2000 + i)
        n_lemmas = rng.randint(6, 18)
        keys = [LemmaKey(f"u{j}", "NOUN") for j in range(n_lemmas)]
        universe = [
            (keys[a], keys[b])
            for a in range(n_lemmas)
            for b in range(a + 1, n_lemmas)
            if rng.random() < 0.6
        ]
        related = {
            unordered_key(a, b) for a, b in universe if rng.random() < 0.3
        }
        freqs = {k: rng.randint(1, 50) for k in keys}
        n_req = rng.randint(1, 30)
        seed = rng.randint(0, 10**6)
        sample_a = sample_unrelated(universe, related, n_req, seed, freqs)
        sample_b = sample_unrelated(universe, related, n_req, seed, freqs)
        if sample_a != sample_b:
            problems.append(f"sampling not deterministic (setup {i})")
        drawn = {unordered_key(p.w, p.v) for p in sample_a}
        if not drawn.isdisjoint(related):
            problems.append(f"sample overlaps related pairs (setup {i})")
        eligible = {unordered_key(a, b) for a, b in universe} - related
        if len(sample_a) != min(n_req, len(eligible)):
            problems.append(f"sample size wrong (setup {i})")

    report(
        "criterion 9: invariance suite",
        not problems,
        "; ".join(problems[:5]) or f"transpose 300, reversal {case_count}, sampling 200",
    )
