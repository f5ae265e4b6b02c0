import itertools
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from coocstat.corpus import LemmaKey
from coocstat.lexicon import (
    ANT,
    FLAGS,
    HOL,
    HYP,
    SYN,
    UNR,
    DerivationLink,
    LemmaMeta,
    LexiconEntry,
    apply_verb_class_flags,
    control_lemmas,
    derived_pairs,
    filter_pairs,
    lemma_meta_from_entries,
    load_derivations,
    load_lexicon,
    orient_pairs,
    read_pairs,
    related_pair_set,
    sample_unrelated,
    unordered_key,
    write_pairs,
)
from coocstat.cli import DEFAULT_VERB_CLASSES, main
from conftest import TOY_PATHS, pair
from test_tsv import NON_DECIMAL


def entry(a, b, pos="NOUN", relation=ANT, head=None, plen=None,
          freq_a=5, freq_b=5, flags_a=(), flags_b=()):
    return LexiconEntry(
        a=LemmaKey(a, pos),
        b=LemmaKey(b, pos),
        relation=relation,
        directed_head=head,
        path_length=plen,
        wn_freq_a=freq_a,
        wn_freq_b=freq_b,
        flags_a=frozenset(flags_a),
        flags_b=frozenset(flags_b),
    )


class TestFilterPairs:
    def test_each_rule(self):
        entries = [
            entry("hot", "cold", pos="ADJ"),                                   # kept
            entry("kick_the_bucket", "die", pos="VERB", relation=SYN,
                  flags_a={"MWE"}),                                            # rule 1
            entry("tv", "television", relation=SYN, flags_a={"ABBREV"}),       # rule 1
            entry("london", "city", relation=HYP, head="b", plen=1,
                  flags_a={"NAMED_ENTITY"}),                                   # rule 1
            entry("florble", "thing", relation=HYP, head="b", plen=1,
                  freq_a=1),                                                   # rule 2
            entry("blork", "item", relation=HYP, head="b", plen=1, freq_b=0),  # rule 2
            entry("happy", "glad", pos="ADJ", relation=SYN),                   # rule 3
            entry("glad", "happy", pos="ADJ", relation=ANT),                   # rule 3
            entry("seem", "appear", pos="VERB", relation=SYN,
                  flags_a={"LINKING_VERB"}),                                   # rule 4
            entry("oak", "entity", relation=HYP, head="b", plen=3),            # rule 5
            entry("dog", "animal", relation=HYP, head="b", plen=1),            # kept
        ]
        kept, excluded = filter_pairs(entries)
        assert [e.a.lemma for e in kept] == ["hot", "dog"]
        assert excluded == {
            "mwe_abbrev_ne": 3,
            "low_wn_freq": 2,
            "multi_relation": 2,
            "verb_class": 1,
            "hyp_path": 1,
        }

    def test_hyp_path_two_kept(self):
        kept, _ = filter_pairs([entry("poodle", "animal", relation=HYP, head="b", plen=2)])
        assert len(kept) == 1

    def test_multi_relation_unordered(self):
        # same unordered pair under two labels, opposite storage order
        entries = [
            entry("a", "b", relation=SYN),
            entry("b", "a", relation=HOL, head="a"),
        ]
        kept, excluded = filter_pairs(entries)
        assert kept == []
        assert excluded["multi_relation"] == 2

    def test_duplicate_same_relation_not_multi(self):
        entries = [entry("a", "b"), entry("a", "b")]
        kept, excluded = filter_pairs(entries)
        assert kept == [entry("a", "b")]
        assert excluded["multi_relation"] == 0

    def test_duplicates_keep_the_first_entry(self):
        first = entry("dog", "animal", relation=HYP, head="b", plen=1)
        entries = [
            first,
            entry("hot", "cold", pos="ADJ"),
            entry("animal", "dog", relation=HYP, head="a", plen=1),  # same unordered pair
            entry("dog", "animal", relation=HYP, head="b", plen=1, freq_a=9),
        ]
        kept, excluded = filter_pairs(entries)
        assert kept == [first, entry("hot", "cold", pos="ADJ")]
        assert sum(excluded.values()) == 0

    def test_verb_rule_only_for_verbs(self):
        # LIGHT_VERB-style flag on a noun entry is ignored by rule 4
        noun = entry("x", "y", flags_a={"LIGHT_VERB"})
        kept, excluded = filter_pairs([noun])
        assert kept == [noun]
        assert excluded["verb_class"] == 0

    def test_idempotent(self):
        entries = [
            entry("hot", "cold", pos="ADJ"),
            entry("happy", "glad", pos="ADJ", relation=SYN),
            entry("glad", "happy", pos="ADJ", relation=ANT),
            entry("dog", "animal", relation=HYP, head="b", plen=1),
            entry("oak", "entity", relation=HYP, head="b", plen=3),
        ]
        once = filter_pairs(entries)
        twice = filter_pairs(once.kept)
        assert twice.kept == once.kept
        assert all(v == 0 for v in twice.excluded.values())

    def test_empty_output_legal(self):
        kept, _ = filter_pairs([entry("a", "b", freq_a=0)])
        assert kept == []


class TestOrientPairs:
    def test_frequency_orientation(self):
        freqs = {LemmaKey("man", "NOUN"): 500, LemmaKey("woman", "NOUN"): 400}
        pairs, dropped = orient_pairs([entry("woman", "man")], freqs)
        assert dropped == 0
        assert pairs[0].w.lemma == "man" and pairs[0].v.lemma == "woman"

    def test_tie_breaks_lexicographically(self):
        freqs = {LemmaKey("late", "ADV"): 7, LemmaKey("early", "ADV"): 7}
        pairs, _ = orient_pairs([entry("late", "early", pos="ADV")], freqs)
        assert pairs[0].w.lemma == "early"

    def test_zero_frequency_dropped(self):
        freqs = {LemmaKey("a", "NOUN"): 3, LemmaKey("b", "NOUN"): 0}
        pairs, dropped = orient_pairs([entry("a", "b")], freqs)
        assert pairs == [] and dropped == 1

    def test_head_side_tracked(self):
        freqs = {LemmaKey("wheel", "NOUN"): 3, LemmaKey("car", "NOUN"): 9}
        # entry says b (car) is the holonym; car wins orientation
        pairs, _ = orient_pairs(
            [entry("wheel", "car", relation=HOL, head="b")], freqs
        )
        assert pairs[0].w.lemma == "car" and pairs[0].head == "w"
        freqs2 = {LemmaKey("wheel", "NOUN"): 9, LemmaKey("car", "NOUN"): 3}
        pairs2, _ = orient_pairs(
            [entry("wheel", "car", relation=HOL, head="b")], freqs2
        )
        assert pairs2[0].w.lemma == "wheel" and pairs2[0].head == "v"

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),
                st.integers(min_value=0, max_value=20),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_invariant_w_at_least_as_frequent(self, freq_pairs):
        entries = []
        freqs = {}
        for i, (fa, fb) in enumerate(freq_pairs):
            a, b = f"a{i}", f"b{i}"
            entries.append(entry(a, b))
            freqs[LemmaKey(a, "NOUN")] = fa
            freqs[LemmaKey(b, "NOUN")] = fb
        pairs, _ = orient_pairs(entries, freqs)
        for p in pairs:
            fw, fv = freqs[p.w], freqs[p.v]
            assert fw >= fv >= 1
            if fw == fv:
                assert p.w.lemma < p.v.lemma


class TestSampleUnrelated:
    def _universe(self, n_lemmas=30):
        keys = [LemmaKey(f"u{i}", "NOUN") for i in range(n_lemmas)]
        corpus_pairs = [
            (keys[i], keys[j])
            for i in range(n_lemmas)
            for j in range(i + 1, n_lemmas)
        ]
        freqs = {k: 5 + i for i, k in enumerate(keys)}
        return corpus_pairs, freqs

    def test_deterministic_for_seed(self):
        corpus_pairs, freqs = self._universe()
        first = sample_unrelated(corpus_pairs, set(), 10, 99, freqs)
        second = sample_unrelated(corpus_pairs, set(), 10, 99, freqs)
        assert first == second
        third = sample_unrelated(corpus_pairs, set(), 10, 100, freqs)
        assert third != first

    def test_disjoint_from_related(self):
        corpus_pairs, freqs = self._universe(12)
        related = {unordered_key(a, b) for a, b in corpus_pairs[:30]}
        sampled = sample_unrelated(corpus_pairs, related, 1000, 7, freqs)
        sample_keys = {unordered_key(p.w, p.v) for p in sampled}
        assert sample_keys.isdisjoint(related)
        assert len(sampled) == len(corpus_pairs) - 30  # saturated

    def test_saturation_returns_universe(self):
        corpus_pairs, freqs = self._universe(4)  # 6 pairs
        sampled = sample_unrelated(corpus_pairs, set(), 100, 1, freqs)
        assert len(sampled) == 6

    def test_all_labeled_unr_and_oriented(self):
        corpus_pairs, freqs = self._universe(8)
        sampled = sample_unrelated(corpus_pairs, set(), 10, 3, freqs)
        for p in sampled:
            assert p.relation == UNR
            assert freqs[p.w] >= freqs[p.v]

    def test_meta_checks_applied(self):
        keys = [LemmaKey(f"u{i}", "VERB") for i in range(4)]
        corpus_pairs = [(keys[0], keys[1]), (keys[2], keys[3]), (keys[1], keys[2])]
        freqs = {k: 5 for k in keys}
        meta = {
            keys[0]: LemmaMeta(4, frozenset()),
            keys[1]: LemmaMeta(4, frozenset()),
            keys[2]: LemmaMeta(1, frozenset()),          # low lexicon freq
            keys[3]: LemmaMeta(4, frozenset({"AUX_VERB"})),
        }
        admissible = control_lemmas(meta, {})
        assert admissible == {keys[0], keys[1]}
        corpus_pairs = [(a, b) for a, b in corpus_pairs if a in admissible and b in admissible]
        sampled = sample_unrelated(corpus_pairs, set(), 10, 5, freqs)
        assert [(p.w.lemma, p.v.lemma) for p in sampled] == [("u0", "u1")]

    def test_control_lemmas_match_the_related_pair_rules(self):
        # A lemma is a control lemma exactly when an ANT entry with its
        # attributes and word-list classes on both sides survives rules 1, 2
        # and 4 (rules 3 and 5 never touch one ANT entry).
        flag_sets = [frozenset()] + [
            frozenset(c) for r in (1, 2) for c in itertools.combinations(sorted(FLAGS), r)
        ]
        word_lists = [{}] + [
            {"x": frozenset({flag}), "y": frozenset({flag})}
            for flag in ("LINKING_VERB", "AUX_VERB", "LIGHT_VERB")
        ]
        for pos, wn_freq, flags, classes in itertools.product(
            ("NOUN", "VERB"), (0, 1, 2), flag_sets, word_lists
        ):
            key = LemmaKey("x", pos)
            e = entry("x", "y", pos=pos, freq_a=wn_freq, freq_b=wn_freq,
                      flags_a=flags, flags_b=flags)
            kept = bool(filter_pairs(apply_verb_class_flags([e], classes)).kept)
            control = key in control_lemmas({key: LemmaMeta(wn_freq, flags)}, classes)
            assert control == kept
            if pos == "VERB" and classes:
                assert not control and not kept  # a listed verb is never kept

    def test_mismatched_pos_and_identical_lemma_skipped(self):
        a = LemmaKey("x", "NOUN")
        b = LemmaKey("x", "VERB")
        sampled = sample_unrelated([(a, b), (a, a)], set(), 5, 0, {a: 3, b: 3})
        assert sampled == []

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            sample_unrelated([], set(), 0, 1, {})


class TestDerivedPairs:
    def test_adj_to_adv_example(self):
        freqs = {
            LemmaKey("strong", "ADJ"): 9,
            LemmaKey("weak", "ADJ"): 5,
            LemmaKey("strongly", "ADV"): 4,
            LemmaKey("weakly", "ADV"): 2,
        }
        base = [pair("strong", "weak", pos="ADJ")]
        links = [
            DerivationLink(LemmaKey("strong", "ADJ"), LemmaKey("strongly", "ADV")),
            DerivationLink(LemmaKey("weak", "ADJ"), LemmaKey("weakly", "ADV")),
        ]
        lex = [entry("strongly", "weakly", pos="ADV", relation=ANT)]
        out = derived_pairs(base, links, lex, freqs)
        assert len(out) == 1
        orig, derv = out[0]
        assert derv.w == LemmaKey("strongly", "ADV")
        assert derv.relation == ANT

    def test_no_links_empty(self):
        assert derived_pairs([pair("a", "b")], [], [entry("a", "b")], {}) == []

    def test_unrelated_derived_excluded(self):
        freqs = {LemmaKey("ad", "ADV"): 2, LemmaKey("bd", "ADV"): 2}
        links = [
            DerivationLink(LemmaKey("a", "NOUN"), LemmaKey("ad", "ADV")),
            DerivationLink(LemmaKey("b", "NOUN"), LemmaKey("bd", "ADV")),
        ]
        assert derived_pairs([pair("a", "b")], links, [], freqs) == []

    def test_unobserved_derived_excluded(self):
        freqs = {LemmaKey("ad", "ADV"): 2, LemmaKey("bd", "ADV"): 0}
        links = [
            DerivationLink(LemmaKey("a", "NOUN"), LemmaKey("ad", "ADV")),
            DerivationLink(LemmaKey("b", "NOUN"), LemmaKey("bd", "ADV")),
        ]
        lex = [entry("ad", "bd", pos="ADV")]
        assert derived_pairs([pair("a", "b")], links, lex, freqs) == []

    def test_relation_may_change(self):
        freqs = {LemmaKey("an", "NOUN"): 3, LemmaKey("bn", "NOUN"): 2}
        links = [
            DerivationLink(LemmaKey("a", "ADJ"), LemmaKey("an", "NOUN")),
            DerivationLink(LemmaKey("b", "ADJ"), LemmaKey("bn", "NOUN")),
        ]
        lex = [entry("an", "bn", relation=HYP, head="a", plen=1)]
        out = derived_pairs([pair("a", "b", pos="ADJ", relation=SYN)], links, lex, freqs)
        assert out[0].derived.relation == HYP


class TestLoaders:
    def test_toy_lexicon_loads(self, toy_paths):
        entries = load_lexicon(toy_paths["lexicon"])
        assert len(entries) == 31
        by_pair = {(e.a.lemma, e.b.lemma): e for e in entries}
        assert by_pair[("dog", "animal")].path_length == 1
        assert by_pair[("wheel", "car")].directed_head == "b"
        assert "MWE" in by_pair[("kick_the_bucket", "die")].flags_a
        assert related_pair_set(entries)

    def test_toy_derivations_load(self, toy_paths):
        links = load_derivations(toy_paths["derivations"])
        assert DerivationLink(
            LemmaKey("strong", "ADJ"), LemmaKey("strongly", "ADV")
        ) in links

    def test_verb_class_application(self, toy_paths):
        from coocstat.cli import DEFAULT_VERB_CLASSES
        from coocstat.lexicon import load_verb_classes

        classes = load_verb_classes(str(DEFAULT_VERB_CLASSES))
        assert "LINKING_VERB" in classes["seem"]
        entries = [entry("seem", "appear", pos="VERB", relation=SYN)]
        flagged = apply_verb_class_flags(entries, classes)
        assert "LINKING_VERB" in flagged[0].flags_a
        kept, excluded = filter_pairs(flagged)
        assert kept == [] and excluded["verb_class"] == 1

    def test_lexicon_errors(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("a\tNOUN\tb\tANT\t\t\t5\t5\t\n", encoding="utf-8")  # 9 cols
        with pytest.raises(ValueError, match="line 1"):
            load_lexicon(str(bad))
        bad.write_text("a\tNOUN\tb\tHYP\tb\t\t5\t5\t\t\n", encoding="utf-8")
        with pytest.raises(ValueError, match="path_length"):
            load_lexicon(str(bad))
        bad.write_text("a\tNOUN\tb\tANT\t\t2\t5\t5\t\t\n", encoding="utf-8")
        with pytest.raises(ValueError, match="path_length"):
            load_lexicon(str(bad))

    def test_meta_from_entries(self):
        entries = [
            entry("a", "b", freq_a=3, freq_b=7),
            entry("a", "c", relation=SYN, freq_a=5, flags_a={"ABBREV"}),
        ]
        meta = lemma_meta_from_entries(entries)
        key = LemmaKey("a", "NOUN")
        assert meta[key].wn_freq == 5
        assert "ABBREV" in meta[key].flags

    def test_pairs_round_trip(self, tmp_path):
        pairs = [
            pair("man", "woman"),
            pair("car", "wheel", relation=HOL, head="w"),
        ]
        path = tmp_path / "pairs.tsv"
        write_pairs(pairs, str(path))
        assert read_pairs(str(path)) == pairs


# -- malformed input files -----------------------------------------------------

INPUT_FILES = {**TOY_PATHS, "verb_classes": str(DEFAULT_VERB_CLASSES)}

# A subcommand that reads each input file, given that file's path; the
# caller adds the corpus and the output.
INPUT_COMMANDS = {
    "lexicon": lambda path: ["extract-pairs", "--lexicon", path],
    "verb_classes": lambda path: [
        "extract-pairs", "--lexicon", TOY_PATHS["lexicon"], "--verb-classes", path,
    ],
    "derivations": lambda path: [
        "extract-pairs", "--lexicon", TOY_PATHS["lexicon"], "--derivations", path,
    ],
    "lemma_attrs": lambda path: [
        "sample-unrelated", "--lexicon", TOY_PATHS["lexicon"], "--lemma-attrs", path,
        "--n", "5",
    ],
}

# (case, file, malformed row appended to the file)
MALFORMED_ROWS = [
    ("field-count", "lexicon", "a\tNOUN\tb\tANT\t\t\t5\t5\t"),
    ("bad-pos", "lexicon", "a\tNOUNS\tb\tANT\t\t\t5\t5\t\t"),
    ("bad-relation", "lexicon", "a\tNOUN\tb\tMER\t\t\t5\t5\t\t"),
    ("identical-lemmas", "lexicon", "a\tNOUN\tA\tANT\t\t\t5\t5\t\t"),
    ("bad-head", "lexicon", "a\tNOUN\tb\tHYP\tc\t1\t5\t5\t\t"),
    ("misplaced-head", "lexicon", "a\tNOUN\tb\tANT\ta\t\t5\t5\t\t"),
    ("hyp-without-path", "lexicon", "a\tNOUN\tb\tHYP\tb\t\t5\t5\t\t"),
    ("path-on-non-hyp", "lexicon", "a\tNOUN\tb\tANT\t\t2\t5\t5\t\t"),
    ("unknown-flag", "lexicon", "a\tNOUN\tb\tANT\t\t\t5\t5\tMWE,FOO\t"),
    ("field-count", "lemma_attrs", "a\tNOUN\t5"),
    ("unknown-flag", "lemma_attrs", "a\tNOUN\t5\tFOO"),
    ("field-count", "derivations", "a\tADJ\tb"),
    ("bad-pos", "derivations", "a\tADJ\tb\tX"),
    ("self-link", "derivations", "a\tADJ\tA\tadj"),
    ("field-count", "verb_classes", "be\tlinking\textra"),
    ("unknown-class", "verb_classes", "be\tmodal"),
    # Rows that the per-file loops let through to a message without the file.
    ("non-integer-wn-freq", "lexicon", "a\tNOUN\tb\tANT\t\t\tfive\t5\t\t"),
    ("non-integer-path", "lexicon", "a\tNOUN\tb\tHYP\tb\tx\t5\t5\t\t"),
    ("non-integer-wn-freq", "lemma_attrs", "a\tNOUN\tmany\t"),
    ("bad-pos", "lemma_attrs", "a\tNOUNS\t5\t"),
    ("invalid-utf8", "lexicon", b"caf\xe9\tNOUN\tb\tANT\t\t\t5\t5\t\t"),
    ("invalid-utf8", "lemma_attrs", b"caf\xe9\tNOUN\t5\t"),
    ("invalid-utf8", "derivations", b"caf\xe9\tADJ\tb\tADV"),
    ("invalid-utf8", "verb_classes", b"caf\xe9\tlight"),
    # Integers in the one form of every file the pipeline reads.
    *[(f"{form}-{column}", name, row.format(spell(digits)))
      for column, name, row, digits in (
          ("wn-freq", "lexicon", "a\tNOUN\tb\tANT\t\t\t{}\t5\t\t", "5"),
          ("path", "lexicon", "a\tNOUN\tb\tHYP\tb\t{}\t5\t5\t\t", "1"),
          ("wn-freq", "lemma_attrs", "a\tNOUN\t{}\t", "5"),
      )
      for form, spell in NON_DECIMAL.items()],
    ("empty-lemma", "lexicon", "\tNOUN\twoman\tANT\t\t\t9\t8\t\t"),
    ("empty-lemma", "lemma_attrs", "\tNOUN\t5\t"),
    ("empty-lemma", "derivations", "\tADJ\tb\tADV"),
    ("empty-lemma", "verb_classes", "\tlinking"),
    # The toy file already has `appear VERB`; keys compare case-folded.
    ("duplicate-lemma", "lemma_attrs", "appear\tVERB\t1\tNAMED_ENTITY"),
    ("duplicate-folded-lemma", "lemma_attrs", "Appear\tverb\t6\t"),
]


@pytest.mark.parametrize(
    "name,row",
    [pytest.param(name, row, id=f"{case}-{name}") for case, name, row in MALFORMED_ROWS],
)
def test_malformed_input_file_exits_1(tmp_path, capsys, name, row):
    lines = Path(INPUT_FILES[name]).read_bytes().splitlines()
    bad = tmp_path / f"{name}.tsv"
    row = row.encode("utf-8") if isinstance(row, str) else row
    bad.write_bytes(b"".join(line + b"\n" for line in lines + [row]))
    argv = INPUT_COMMANDS[name](str(bad)) + [
        "--corpus", TOY_PATHS["corpus"], "--out", str(tmp_path / "out.tsv"),
    ]

    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad} line {len(lines) + 1}: ")
    assert len(err.splitlines()) == 1


def test_negative_path_length_names_the_row(tmp_path, capsys):
    lines = Path(TOY_PATHS["lexicon"]).read_text(encoding="utf-8").splitlines()
    bad = tmp_path / "lexicon.tsv"
    bad.write_text("\n".join(lines + ["dog\tNOUN\tanimal\tHYP\tb\t-4\t5\t5\t\t"]) + "\n",
                   encoding="utf-8")
    argv = ["extract-pairs", "--lexicon", str(bad), "--corpus", TOY_PATHS["corpus"],
            "--out", str(tmp_path / "pairs.tsv")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {bad} line {len(lines) + 1}: path_length must be >= 0, got -4\n"
    )


def test_duplicate_lexicon_row_is_written_once(tmp_path, capsys):
    """A repeated `dog NOUN animal HYP` row leaves the pairs file as it is
    without the repeat, and every pair written is counted."""
    text = Path(TOY_PATHS["lexicon"]).read_text(encoding="utf-8")
    assert "dog\tNOUN\tanimal\tHYP\tb\t1\t8\t9\t\t\n" in text
    dup = tmp_path / "lexicon.tsv"
    dup.write_text(text + "dog\tNOUN\tanimal\tHYP\tb\t1\t8\t9\t\t\n", encoding="utf-8")

    outputs = {}
    for name, lex in (("toy", TOY_PATHS["lexicon"]), ("dup", str(dup))):
        out = tmp_path / f"{name}-pairs.tsv"
        assert main(["extract-pairs", "--lexicon", lex, "--corpus", TOY_PATHS["corpus"],
                     "--out", str(out), "--counts-json", str(tmp_path / f"{name}.json")]) == 0
        outputs[name] = (out.read_bytes(), (tmp_path / f"{name}.json").read_bytes())
        written = capsys.readouterr().out
        assert main(["count", "--corpus", TOY_PATHS["corpus"], "--pairs", str(out),
                     "--out", str(tmp_path / f"{name}-counts")]) == 0
        counted = capsys.readouterr().out
        n_written = int(written.split("pairs written: ")[1].split()[0])
        assert f"pairs counted: {n_written} ->" in counted
    assert outputs["dup"] == outputs["toy"]
