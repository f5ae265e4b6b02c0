import csv
import io
import math
import random
from dataclasses import fields

import numpy as np
import pytest

from coocstat.lexicon import ANT, HOL, HYP, RELATIONS, SYN, UNR, DerivedPair
from coocstat.metrics import StatsTable
from coocstat.report import (
    ReportOptions,
    associated_counts,
    compare_all,
    compare_relations,
    derivation_persistence,
    distribution_groups,
    five_number,
    summarize,
    write_report,
)
from conftest import pair


def scored(w, v, pos="NOUN", relation=ANT, g2=10.0, sig=True, order=0.0,
           pref=False, dist=5.0, n_cooc=10, head=None, asym=None):
    """A pair and its `StatsTable` row, the row's values in column order."""
    return pair(w, v, pos, relation, head), (
        w, v, pos, relation, g2, sig, order, pref,
        0.5 if n_cooc else math.nan, dist if n_cooc else math.nan, n_cooc, head or "",
        math.nan if asym is None else asym, -1 if asym is None else int(asym != 0),
        math.nan if asym is None else 0.001, math.nan,
    )


def table(rows):
    """The `StatsTable` of `scored` rows."""
    columns = list(zip(*(row for _, row in rows))) or [()] * len(fields(StatsTable))
    dtypes = {"g2_sig": bool, "order_pref": bool, "n_cooc": np.int64, "asym_order_pref": np.int8}
    return StatsTable(*(
        list(values) if field.type == "list[str]" else np.array(values, dtype=dtypes.get(field.name, np.float64))
        for field, values in zip(fields(StatsTable), columns)
    ))


def pairs_table(pairs):
    """A table of `pairs`, each with the default stats of `scored`."""
    return table(scored(p.w.lemma, p.v.lemma, p.w.pos, p.relation, head=p.head) for p in pairs)


class TestSummarize:
    def test_averages_and_percentages(self):
        items = [
            scored("a", "b", g2=10.0, sig=True, order=0.5, pref=True, dist=2.0),
            scored("c", "d", g2=2.0, sig=False),
            scored("e", "f", g2=3.0, sig=False),
        ]
        (summary,) = summarize(table(items))
        assert summary.n_pairs == 3
        assert summary.avg_g2 == pytest.approx(5.0)
        assert summary.pct_g2_sig == pytest.approx(100 / 3)
        # order/distance restricted to the one significant co-occurring pair
        assert summary.avg_order == pytest.approx(0.5)
        assert summary.pct_order_pref == pytest.approx(100.0)
        assert summary.avg_distance == pytest.approx(2.0)
        assert summary.avg_g2_sig == pytest.approx(10.0)

    def test_empty_populations_are_none(self):
        items = [scored("a", "b", sig=False)]
        (summary,) = summarize(table(items))
        assert summary.avg_order is None
        assert summary.avg_distance is None
        assert summary.pct_order_pref is None
        assert summary.avg_g2_sig is None

    def test_permutation_invariant(self):
        rng = random.Random(50)
        items = [
            scored(f"w{i}", f"v{i}", g2=rng.uniform(0, 50), sig=rng.random() < 0.5,
                   order=rng.uniform(-1, 1), dist=rng.uniform(0, 30))
            for i in range(40)
        ]
        base = summarize(table(items))
        shuffled = items[:]
        rng.shuffle(shuffled)
        assert summarize(table(shuffled)) == base

    def test_pooled_distance_weighting(self):
        items = [
            scored("a", "b", dist=1.0, n_cooc=9),
            scored("c", "d", dist=11.0, n_cooc=1),
        ]
        (summary,) = summarize(table(items))
        assert summary.avg_distance == pytest.approx(6.0)
        assert summary.avg_distance_pooled == pytest.approx(2.0)


class TestCompareRelations:
    def test_symmetry_and_distinct(self):
        groups = {
            ANT: [10.0, 12.0, 11.0, 13.0, 12.5, 11.5],
            SYN: [1.0, 2.0, 1.5, 2.5, 1.2, 2.2],
            HYP: [1.1, 2.1, 1.6, 2.4, 1.3, 2.0],
        }
        matrix = compare_relations(groups, alpha=0.01)
        assert matrix.result(ANT, SYN) is matrix.result(SYN, ANT)
        assert matrix.distinct[ANT]       # separated from both others
        assert not matrix.distinct[SYN]   # SYN ~ HYP
        res = matrix.result(SYN, HYP)
        assert res.p_value > 0.01

    def test_identical_distributions_not_distinct(self):
        groups = {ANT: [1.0, 2.0, 3.0], SYN: [2.0, 3.0, 1.0]}
        matrix = compare_relations(groups)
        assert matrix.result(ANT, SYN).p_value == 1.0
        assert not matrix.distinct[ANT]

    def test_undersized_group_untestable(self):
        groups = {ANT: [1.0], SYN: [2.0, 3.0]}
        matrix = compare_relations(groups)
        assert matrix.result(ANT, SYN) is None
        assert not matrix.distinct[ANT]
        assert not matrix.distinct[SYN]

    def test_compare_all_groups_by_pos(self):
        items = (
            [scored(f"a{i}", f"b{i}", g2=50 + i, order=0.8, dist=2.0) for i in range(5)]
            + [scored(f"c{i}", f"d{i}", relation=SYN, g2=5 + i, order=0.0, dist=20.0) for i in range(5)]
            + [scored(f"e{i}", f"f{i}", pos="ADJ", g2=9.0) for i in range(3)]
        )
        matrices = compare_all(table(items))
        assert ("NOUN", "g2") in matrices
        noun_g2 = matrices[("NOUN", "g2")]
        assert noun_g2.distinct[ANT]
        # a lone relation has nothing to compare against
        adj_g2 = matrices[("ADJ", "g2")]
        assert adj_g2.results == {} and not adj_g2.distinct[ANT]


class TestDerivationPersistence:
    def test_counts_and_sustaining(self):
        orig_sig = scored("strong", "weak", pos="ADJ")
        derv_sig = scored("strongly", "weakly", pos="ADV")
        derv_insig = scored("bigness", "smallness", pos="NOUN", sig=False)
        orig_insig = scored("x", "y", pos="ADJ", sig=False)
        derv_of_insig = scored("xn", "yn", pos="NOUN")
        scored_rows = table([orig_sig, derv_sig, derv_insig, orig_insig, derv_of_insig])
        derived = [
            DerivedPair(orig_sig[0], derv_sig[0]),
            DerivedPair(orig_sig[0], derv_insig[0]),
            DerivedPair(orig_insig[0], derv_of_insig[0]),  # orig not significant
        ]
        rows = derivation_persistence(derived, scored_rows)
        assert [(r.orig_pos, r.derv_pos, r.count, r.count_sustaining) for r in rows] == [
            ("ADJ", "NOUN", 1, 0),
            ("ADJ", "ADV", 1, 1),
        ]

    def test_no_derived_pairs(self):
        assert derivation_persistence([], table([])) == []


class TestAssociatedCounts:
    def test_shared_w(self):
        pairs = [pair("w", "v1"), pair("w", "v2"), pair("u", "x")]
        rows, micro = associated_counts(pairs_table(pairs))
        assert rows[0].avg == pytest.approx(1.5)
        assert micro[ANT] == pytest.approx(1.5)

    def test_all_unique(self):
        pairs = [pair(f"w{i}", f"v{i}") for i in range(5)]
        rows, micro = associated_counts(pairs_table(pairs))
        assert rows[0].avg == 1.0 and micro[ANT] == 1.0

    def test_single_w_many_partners(self):
        pairs = [pair("w", f"v{i}", relation=HYP) for i in range(6)]
        rows, micro = associated_counts(pairs_table(pairs))
        assert rows[0].avg == 6.0

    def test_micro_at_least_one(self):
        rng = random.Random(51)
        pairs = [
            pair(f"w{rng.randint(0, 10)}", f"v{i}", relation=SYN) for i in range(40)
        ]
        _, micro = associated_counts(pairs_table(pairs))
        assert micro[SYN] >= 1.0

    def test_micro_pools_across_pos(self):
        pairs = [
            pair("w", "v1", pos="NOUN", relation=HOL),
            pair("w", "v2", pos="NOUN", relation=HOL),
            pair("w", "v1", pos="VERB", relation=HOL),
        ]
        rows, micro = associated_counts(pairs_table(pairs))
        by_pos = {r.pos: r.avg for r in rows}
        assert by_pos["NOUN"] == 2.0 and by_pos["VERB"] == 1.0
        assert micro[HOL] == pytest.approx(3 / 2)


class TestDistributions:
    def test_linear_interpolation_quantiles(self):
        f = five_number([1, 2, 3, 4, 5])
        assert (f.q1, f.median, f.q3) == (2.0, 3.0, 4.0)
        assert (f.min, f.max, f.n) == (1.0, 5.0, 5)

    def test_single_value_group(self):
        f = five_number([7.0])
        assert f.min == f.q1 == f.median == f.q3 == f.max == 7.0

    def test_empty_group_omitted(self):
        items = [scored("a", "b", sig=False)]  # no sig pairs -> no order values
        groups = distribution_groups(table(items), "order")
        assert groups == {}


class TestWriteReport:
    def _items(self, *extra):
        items = list(extra)
        for i in range(6):
            items.append(scored(f"a{i}", f"b{i}", g2=40 + i, sig=True,
                                order=0.6, pref=True, dist=2.0 + i * 0.1))
            items.append(scored(f"c{i}", f"d{i}", relation=SYN, g2=8 + i,
                                sig=True, order=0.0, dist=14.0 + i))
            items.append(scored(f"h{i}", f"g{i}", relation=HYP, g2=7 + i,
                                sig=True, order=0.0, dist=15.0 + i,
                                head="w", asym=0.1))
            items.append(scored(f"u{i}", f"x{i}", relation=UNR, g2=0.5,
                                sig=False, n_cooc=1, dist=20.0))
        return table(items)

    def test_emits_requested_files(self, tmp_path):
        # ADJ SYN has one value of each metric; UNR has no order or
        # distance values and only HYP has asymmetric order values.
        stats = self._items(scored("j", "k", pos="ADJ", relation=SYN, g2=3.0, dist=4.0))
        written = write_report(stats, tmp_path, ReportOptions(svg=True))
        names = {p.name for p in written}
        for n in range(1, 7):
            assert f"table{n}.csv" in names and f"table{n}.md" in names
        for metric in ("g2", "order", "distance", "order_asym"):
            assert f"fig_{metric}.csv" in names
            assert f"fig_{metric}_values.csv" in names
            assert f"fig_{metric}.svg" in names
            # The bytes of one `csv.writer` row per value.
            want = io.StringIO()
            writer = csv.writer(want, lineterminator="\n")
            writer.writerow(["pos", "relation", "value"])
            for (pos, rel), values in distribution_groups(stats, metric).items():
                writer.writerows([pos, rel, repr(v)] for v in values.tolist())
            got = (tmp_path / f"fig_{metric}_values.csv").read_bytes()
            assert got == want.getvalue().encode("utf-8")
        assert "comparisons.csv" in names and "distinct.csv" in names

    def test_csv_files_read_back_as_the_computed_cells(self, tmp_path):
        # Floats as their `repr`, counts in decimal, flags as 0 or 1 and a
        # missing value empty; no cell needs quoting, so each line is its
        # cells joined by commas.
        stats = self._items(scored("j", "k", pos="ADJ", relation=SYN, g2=3.0, dist=4.0))
        derived = [
            DerivedPair(pair("a0", "b0"), pair("c0", "d0", relation=SYN)),
            DerivedPair(pair("a1", "b1"), pair("u1", "x1", relation=UNR)),
        ]
        written = write_report(stats, tmp_path, ReportOptions(), derived)

        def cell(value):
            if value is None:
                return ""
            if isinstance(value, bool):
                return "1" if value else "0"
            return value if isinstance(value, str) else repr(value)

        comparisons = compare_all(stats)

        def distinct(s, metric):
            matrix = comparisons.get((s.pos, metric))
            return bool(matrix and matrix.distinct.get(s.relation, False))

        want = {}
        grid = {
            1: lambda s: [s.n_pairs],
            2: lambda s: [s.n_pairs, s.avg_g2, s.pct_g2_sig, s.avg_g2, s.avg_g2_sig],
            3: lambda s: [s.avg_order, s.pct_order_pref, s.n_sig_cooc],
            4: lambda s: [s.avg_distance, s.avg_distance, s.avg_distance_pooled, s.n_sig_cooc],
        }
        for number, values in grid.items():
            metric = {2: "g2", 3: "order", 4: "distance"}.get(number)
            want[f"table{number}.csv"] = [
                [s.pos, s.relation, *values(s)] + ([distinct(s, metric)] if metric else [])
                for s in summarize(stats)
            ]
        want["table5.csv"] = [list(r) for r in derivation_persistence(derived, stats)]
        rows, micro = associated_counts(stats)
        want["table6.csv"] = [list(r) for r in rows] + [
            ["MICRO", rel, micro[rel]] for rel in RELATIONS if rel in micro
        ]
        want["comparisons.csv"] = [
            [pos, metric, a, b, *(
                [None] * 5 if (r := matrix.result(a, b)) is None
                else [r.statistic, r.p_value, r.df, r.effect, r.p_value < matrix.alpha]
            ), r is None]
            for (pos, metric), matrix in comparisons.items()
            for i, a in enumerate(matrix.relations) for b in matrix.relations[i + 1:]
        ]
        want["distinct.csv"] = [
            [pos, metric, rel, flag]
            for (pos, metric), matrix in comparisons.items()
            for rel, flag in matrix.distinct.items()
        ]
        for metric in ("g2", "order", "distance", "order_asym"):
            groups = distribution_groups(stats, metric)
            want[f"fig_{metric}.csv"] = [[*key, *five_number(v)] for key, v in groups.items()]
            want[f"fig_{metric}_values.csv"] = [
                [*key, value] for key, values in groups.items() for value in values.tolist()
            ]
        assert {p.name for p in written if p.suffix == ".csv"} == set(want)
        for name, rows in want.items():
            data = (tmp_path / name).read_text(encoding="utf-8")
            got = list(csv.reader(io.StringIO(data)))[1:]
            assert got == [[cell(value) for value in row] for row in rows], name
            assert data == "".join(",".join(row) + "\n" for row in csv.reader(io.StringIO(data)))

    def test_undefined_cells_rendered_as_dashes(self, tmp_path):
        write_report(self._items(), tmp_path)
        table2 = (tmp_path / "table2.md").read_text()
        # no ADJ/ADV or HOL data in the fixture: those cells must be "--"
        for line in table2.splitlines():
            if line.startswith("| ADJ") or line.startswith("| ADV"):
                assert "--" in line

    def test_deterministic_bytes(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        write_report(self._items(), a_dir, ReportOptions(svg=True))
        write_report(self._items(), b_dir, ReportOptions(svg=True))
        for path_a in sorted(a_dir.iterdir()):
            assert path_a.read_bytes() == (b_dir / path_a.name).read_bytes()

    def test_avg_population_flag(self, tmp_path):
        items = self._items()
        write_report(items, tmp_path / "all", ReportOptions(avg_population="all"))
        write_report(items, tmp_path / "sig", ReportOptions(avg_population="sig"))
        t_all = (tmp_path / "all" / "table2.csv").read_text()
        t_sig = (tmp_path / "sig" / "table2.csv").read_text()
        assert t_all != t_sig
