"""Aggregation of per-pair stats into summary tables, cross-group rank
tests, derivation persistence, associated-lemma counts, and distribution
exports.

All emitted files are deterministic for identical inputs: groups are
iterated in a fixed PoS/relation order and floats are serialized with
``repr`` (CSV) or fixed human formats (Markdown).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from coocstat.corpus import CONTENT_POS
from coocstat.lexicon import RELATIONS, DerivedPair, pair_fields, pair_name
from coocstat.metrics import DEFAULT_ALPHA, StatsTable, check_alpha
from coocstat.stats import TestResult, brunner_munzel_ranked, rank, sequential_sum

POS_ORDER = CONTENT_POS
REL_ORDER = RELATIONS
METRICS = ("g2", "order", "distance")


def _mean(values: Sequence[float]) -> float | None:
    # Summed in sorted order so the result is exactly permutation-invariant.
    return sequential_sum(sorted(values)) / len(values) if values else None


@dataclass
class RelationSummary:
    """Aggregates for one PoS x relation cell.

    `avg_g2` covers every observed pair while `avg_g2_sig` restricts to
    significant ones; order and distance aggregates always restrict to
    significantly co-occurring pairs (`n_sig_cooc` of them).  Aggregates
    over an empty population are None, never 0.
    """

    pos: str
    relation: str
    n_pairs: int
    avg_g2: float | None
    avg_g2_sig: float | None
    pct_g2_sig: float | None
    avg_order: float | None
    pct_order_pref: float | None
    avg_distance: float | None
    avg_distance_pooled: float | None
    n_sig_cooc: int


def summarize(table: StatsTable) -> list[RelationSummary]:
    """One RelationSummary per PoS x relation cell that has any pairs."""
    summaries = []
    for (pos, rel), rows in table.groups.items():
        g2_sig = metric_values(table, rows, "g2", "sig")
        sig_cooc = _sig_cooc(table, rows)
        n_events = int(table.n_cooc[sig_cooc].sum())
        summaries.append(
            RelationSummary(
                pos=pos,
                relation=rel,
                n_pairs=len(rows),
                avg_g2=_mean(metric_values(table, rows, "g2")),
                avg_g2_sig=_mean(g2_sig),
                pct_g2_sig=100.0 * len(g2_sig) / len(rows),
                avg_order=_mean(metric_values(table, rows, "order")),
                pct_order_pref=(
                    100.0 * int(table.order_pref[sig_cooc].sum()) / len(sig_cooc)
                    if len(sig_cooc)
                    else None
                ),
                avg_distance=_mean(metric_values(table, rows, "distance")),
                avg_distance_pooled=(
                    sequential_sum(np.sort(table.mean_dist[sig_cooc] * table.n_cooc[sig_cooc]))
                    / n_events
                    if n_events
                    else None
                ),
                n_sig_cooc=len(sig_cooc),
            )
        )
    return summaries


# ---------------------------------------------------------------------------
# Cross-relation comparisons

@dataclass
class ComparisonMatrix:
    """Pairwise rank-test results over relation groups for one metric.

    `results` is keyed by the unordered relation pair (None marks an
    untestable comparison, i.e. a group below two values); `distinct`
    flags relations that differ significantly from every other relation
    present.
    """

    relations: list[str]
    results: dict[frozenset[str], TestResult | None]
    distinct: dict[str, bool]
    alpha: float

    def result(self, rel_a: str, rel_b: str) -> TestResult | None:
        return self.results[frozenset((rel_a, rel_b))]


def compare_relations(
    groups: Mapping[str, Sequence[float]], alpha: float = DEFAULT_ALPHA
) -> ComparisonMatrix:
    """Brunner-Munzel tests on every unordered pair of relation groups."""
    relations = [r for r in REL_ORDER if r in groups] + [
        r for r in groups if r not in REL_ORDER
    ]
    # Each testable group is ranked once, for all of its comparisons.
    ranked = {rel: rank(values) for rel, values in groups.items() if len(values) >= 2}
    results: dict[frozenset[str], TestResult | None] = {}
    for i, rel_a in enumerate(relations):
        for rel_b in relations[i + 1 :]:
            a, b = ranked.get(rel_a), ranked.get(rel_b)
            results[frozenset((rel_a, rel_b))] = (
                None if a is None or b is None else brunner_munzel_ranked(a, b)
            )
    distinct = {}
    for rel in relations:
        others = [r for r in relations if r != rel]
        distinct[rel] = bool(others) and all(
            results[frozenset((rel, other))] is not None
            and results[frozenset((rel, other))].p_value < alpha
            for other in others
        )
    return ComparisonMatrix(relations, results, distinct, alpha)


def _sig_cooc(table: StatsTable, rows: np.ndarray) -> np.ndarray:
    """The population of every metric but G2: the `rows` of significant
    pairs that co-occur."""
    return rows[table.g2_sig[rows] & (table.n_cooc[rows] > 0)]


def metric_values(
    table: StatsTable, rows: np.ndarray, metric: str, g2_population: str = "all"
) -> list[float]:
    """Per-pair values of one metric over the `rows` of `table` in that
    metric's population."""
    if metric == "g2":
        if g2_population == "all":
            return table.g2[rows].tolist()
        return table.g2[rows[table.g2_sig[rows]]].tolist()
    sig_cooc = _sig_cooc(table, rows)
    if metric == "order":
        return table.order_score[sig_cooc].tolist()
    if metric == "distance":
        values = table.mean_dist[sig_cooc]
    elif metric == "order_asym":
        values = table.asym_order_score[sig_cooc]
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return values[~np.isnan(values)].tolist()  # NaN stands for None


def compare_all(
    table: StatsTable,
    alpha: float = DEFAULT_ALPHA,
    g2_population: str = "all",
) -> dict[tuple[str, str], ComparisonMatrix]:
    """ComparisonMatrix per (pos, metric) over all relations present."""
    out = {}
    for pos in POS_ORDER:
        rel_groups = {rel: rows for (p, rel), rows in table.groups.items() if p == pos}
        if not rel_groups:
            continue
        for metric in METRICS:
            values = {
                rel: metric_values(table, rows, metric, g2_population)
                for rel, rows in rel_groups.items()
            }
            values = {rel: vals for rel, vals in values.items() if vals}
            if values:
                out[(pos, metric)] = compare_relations(values, alpha)
    return out


# ---------------------------------------------------------------------------
# Derivation persistence

class DerivationRow(NamedTuple):
    orig_pos: str
    derv_pos: str
    orig_rel: str
    derv_rel: str
    count: int
    count_sustaining: int


def derivation_persistence(
    derived: Sequence[DerivedPair], table: StatsTable
) -> list[DerivationRow]:
    """Tally derived pairs whose original pair co-occurs significantly.

    A derived pair enters `count` when its original is significant and
    the derived pair itself was scored; it also enters
    `count_sustaining` when it stays significant.
    """
    if not derived:
        return []
    names = map(pair_name, zip(table.lemma_w, table.lemma_v, table.pos, table.relation))
    row_of = {name: row for row, name in enumerate(names)}
    significant = table.g2_sig.tolist()
    counts: dict[tuple[str, str, str, str], list[int]] = {}
    for d in derived:
        orig_row = row_of.get(pair_name(pair_fields(d.original)))
        derv_row = row_of.get(pair_name(pair_fields(d.derived)))
        if orig_row is None or derv_row is None:
            continue
        if not significant[orig_row]:
            continue
        key = (
            d.original.w.pos,
            d.derived.w.pos,
            d.original.relation,
            d.derived.relation,
        )
        cell = counts.setdefault(key, [0, 0])
        cell[0] += 1
        if significant[derv_row]:
            cell[1] += 1

    def sort_key(key: tuple[str, str, str, str]):
        return (
            POS_ORDER.index(key[0]),
            POS_ORDER.index(key[1]),
            REL_ORDER.index(key[2]),
            REL_ORDER.index(key[3]),
        )

    return [
        DerivationRow(*key, counts[key][0], counts[key][1])
        for key in sorted(counts, key=sort_key)
    ]


# ---------------------------------------------------------------------------
# Associated lemma counts

class AssociatedRow(NamedTuple):
    pos: str
    relation: str
    avg: float


def associated_counts(table: StatsTable) -> tuple[list[AssociatedRow], dict[str, float]]:
    """Average number of distinct partners per frequent-side lemma.

    Returns per PoS x relation rows plus a per-relation micro average
    (total pairs over total distinct frequent lemmas).
    """
    rows = []
    totals: dict[str, list[int]] = {}
    for (pos, rel), group in table.groups.items():
        lemma_w = [table.lemma_w[i] for i in group.tolist()]
        lemma_v = [table.lemma_v[i] for i in group.tolist()]
        n_pairs = len(set(zip(lemma_w, lemma_v)))
        n_lemmas = len(set(lemma_w))
        rows.append(AssociatedRow(pos, rel, n_pairs / n_lemmas))
        tot = totals.setdefault(rel, [0, 0])
        tot[0] += n_pairs
        tot[1] += n_lemmas
    micro = {rel: tot[0] / tot[1] for rel, tot in totals.items()}
    return rows, micro


# ---------------------------------------------------------------------------
# Distributions

class FiveNumber(NamedTuple):
    n: int
    min: float
    q1: float
    median: float
    q3: float
    max: float


def five_number(values: Sequence[float]) -> FiveNumber:
    """Five-number summary with linear-interpolation quantiles."""
    arr = np.asarray(values, dtype=float)
    q = np.quantile(arr, [0.0, 0.25, 0.5, 0.75, 1.0])
    return FiveNumber(len(values), *(float(x) for x in q))


def distribution_groups(
    table: StatsTable, metric: str, g2_population: str = "all"
) -> dict[tuple[str, str], list[float]]:
    out = {}
    for key, rows in table.groups.items():
        values = metric_values(table, rows, metric, g2_population)
        if values:
            out[key] = values
    return out


# ---------------------------------------------------------------------------
# Rendering

def _fmt_cell(value: float | None, template: str) -> str:
    return "--" if value is None else template.format(value)


def _csv_cell(value: float | None) -> str:
    return "" if value is None else repr(value)


def _flag(value: bool) -> str:
    return "1" if value else "0"


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _csv_line(fields: Sequence[str]) -> str:
    """`fields` as `csv.writer` writes them, without the line end."""
    line = io.StringIO()
    csv.writer(line, lineterminator="").writerow(fields)
    return line.getvalue()


def _write_values(path: Path, groups: Mapping[tuple[str, str], list[float]]) -> None:
    """One `pos,relation,value` row per value, the bytes `_write_csv` gives.

    A float's `repr` needs no quoting, so each group is written as one
    string: its values joined behind its `pos,relation,` prefix.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(_csv_line(["pos", "relation", "value"]) + "\n")
        for (pos, rel), values in groups.items():
            prefix = _csv_line([pos, rel, ""])
            handle.write(prefix + ("\n" + prefix).join(map(repr, values)) + "\n")


def _md_grid(
    title: str,
    cells: Mapping[tuple[str, str], list[str]],
    n_value_rows: int,
) -> str:
    """Markdown grid with REL_ORDER columns and `n_value_rows` lines per
    PoS followed by an empty separator row."""
    lines = [f"## {title}", ""]
    lines.append("| PoS | " + " | ".join(REL_ORDER) + " |")
    lines.append("|" + "---|" * (len(REL_ORDER) + 1))
    empty_row = "| " + " | ".join([""] * (len(REL_ORDER) + 1)) + " |"
    for pos in POS_ORDER:
        for row_idx in range(n_value_rows):
            row = [pos if row_idx == 0 else ""]
            for rel in REL_ORDER:
                values = cells.get((pos, rel))
                row.append(values[row_idx] if values else "--")
            lines.append("| " + " | ".join(row) + " |")
        lines.append(empty_row)
    return "\n".join(lines) + "\n"


def _bold(text: str, flag: bool) -> str:
    return f"**{text}**" if flag else text


TABLES = (1, 2, 3, 4, 5, 6)
FIGURES = METRICS + ("order_asym",)
AVG_POPULATIONS = ("all", "sig")
DISTANCE_POOLINGS = ("pair", "event")


class ReportOptions(NamedTuple):
    alpha: float = DEFAULT_ALPHA
    avg_population: str = "all"  # population of the headline G2 average
    distance_pooling: str = "pair"  # "pair" = mean of per-pair means
    tables: tuple[int, ...] = TABLES
    figures: tuple[str, ...] = FIGURES
    svg: bool = False

    def validate(self) -> None:
        """Reject values `write_report` cannot honour, before it writes."""
        check_alpha(self.alpha)
        for name, asked, known in (
            ("avg_population", (self.avg_population,), AVG_POPULATIONS),
            ("distance_pooling", (self.distance_pooling,), DISTANCE_POOLINGS),
            ("tables", self.tables, TABLES),
            ("figures", self.figures, FIGURES),
        ):
            unknown = [str(x) or "''" for x in asked if x not in known]
            if unknown:
                raise ValueError(
                    f"unknown {name} {', '.join(unknown)} "
                    f"(choose from {', '.join(map(str, known))})"
                )


class GridTable(NamedTuple):
    """A PoS x relation table of RelationSummary values.

    `values` gives one value per CSV column; each Markdown cell line is
    one of those columns through a format template.  With a `metric`, the
    first Markdown line is bold where that metric's relation is distinct,
    and the CSV gets a last `distinct` column.
    """

    title: str
    columns: tuple[str, ...]  # CSV columns after `pos` and `relation`
    values: Callable[[RelationSummary, ReportOptions], tuple]
    markdown: tuple[tuple[str, str], ...]  # (column, template) per cell line
    metric: str | None = None


GRID_TABLES = {
    1: GridTable(
        "Observed pair counts",
        ("n_pairs",),
        lambda s, o: (s.n_pairs,),
        (("n_pairs", "{}"),),
    ),
    2: GridTable(
        "Co-occurrence strength: average G2 and % significant",
        ("n_pairs", "avg_g2", "pct_g2_sig", "avg_g2_all", "avg_g2_sig_only"),
        lambda s, o: (
            s.n_pairs,
            s.avg_g2 if o.avg_population == "all" else s.avg_g2_sig,
            s.pct_g2_sig,
            s.avg_g2,
            s.avg_g2_sig,
        ),
        (("avg_g2", "{:.1f}"), ("pct_g2_sig", "{:.0f}%")),
        "g2",
    ),
    3: GridTable(
        "Order preference: average order score and % preferred",
        ("avg_order", "pct_order_pref", "n_sig_cooc"),
        lambda s, o: (s.avg_order, s.pct_order_pref, s.n_sig_cooc),
        (("avg_order", "{:.2f}"), ("pct_order_pref", "{:.0f}%")),
        "order",
    ),
    4: GridTable(
        "Average token distance of significant co-occurrence",
        ("avg_distance", "avg_distance_pair_mean", "avg_distance_event_pooled", "n_sig_cooc"),
        lambda s, o: (
            s.avg_distance if o.distance_pooling == "pair" else s.avg_distance_pooled,
            s.avg_distance,
            s.avg_distance_pooled,
            s.n_sig_cooc,
        ),
        (("avg_distance", "{:.1f}"),),
        "distance",
    ),
}


Rendered = tuple[list[str], list[list[str]], str]  # CSV header, CSV rows, Markdown


def _grid_table(
    table: GridTable,
    summaries: Sequence[RelationSummary],
    comparisons: Mapping[tuple[str, str], ComparisonMatrix],
    options: ReportOptions,
) -> Rendered:
    header = ["pos", "relation", *table.columns]
    if table.metric:
        header.append("distinct")
    rows, cells = [], {}
    for s in summaries:
        values = table.values(s, options)
        matrix = comparisons.get((s.pos, table.metric))
        distinct = bool(matrix and matrix.distinct.get(s.relation, False))
        row = [s.pos, s.relation, *map(_csv_cell, values)]
        if table.metric:
            row.append(_flag(distinct))
        rows.append(row)
        by_column = dict(zip(table.columns, values))
        lines = [_fmt_cell(by_column[col], template) for col, template in table.markdown]
        lines[0] = _bold(lines[0], distinct)
        cells[(s.pos, s.relation)] = lines
    return header, rows, _md_grid(table.title, cells, len(table.markdown))


def _derivation_table(rows: Sequence[DerivationRow]) -> Rendered:
    lines = [
        "## Significance persistence under derivation",
        "",
        "| Orig. PoS | Derv. PoS | Orig. Rel. | Derv. Rel. | Count |",
        "|---|---|---|---|---|",
    ]
    lines += [
        f"| {r.orig_pos} | {r.derv_pos} | {r.orig_rel} | {r.derv_rel} | "
        f"{r.count} ({r.count_sustaining}) |"
        for r in rows
    ]
    counts = np.array([(r.count, r.count_sustaining) for r in rows], dtype=np.int64)
    total = counts.reshape(-1, 2).sum(axis=0).tolist()
    lines.append(f"| TOTAL | | | | {total[0]} ({total[1]}) |")
    csv_rows = [[str(x) for x in r] for r in rows]
    return list(DerivationRow._fields), csv_rows, "\n".join(lines) + "\n"


def _associated_table(rows: Sequence[AssociatedRow], micro: Mapping[str, float]) -> Rendered:
    cells = {(r.pos, r.relation): [format(r.avg, ".1f")] for r in rows}
    md = _md_grid("Associated partner lemmas per frequent lemma", cells, 1)
    md += "| Micro AVG | " + " | ".join(
        _fmt_cell(micro.get(rel), "{:.1f}") for rel in REL_ORDER
    ) + " |\n"
    csv_rows = [[r.pos, r.relation, repr(r.avg)] for r in rows]
    csv_rows += [["MICRO", rel, repr(micro[rel])] for rel in REL_ORDER if rel in micro]
    return ["pos", "relation", "avg_associated"], csv_rows, md


def _comparison_rows(
    comparisons: Mapping[tuple[str, str], ComparisonMatrix], alpha: float
) -> list[list[str]]:
    """One row per tested relation pair; an untestable pair has empty test cells."""
    rows = []
    for (pos, metric), matrix in comparisons.items():
        for i, rel_a in enumerate(matrix.relations):
            for rel_b in matrix.relations[i + 1 :]:
                res = matrix.result(rel_a, rel_b)
                test = (
                    [""] * 5
                    if res is None
                    else [
                        *map(_csv_cell, (res.statistic, res.p_value, res.df, res.effect)),
                        _flag(res.p_value < alpha),
                    ]
                )
                rows.append([pos, metric, rel_a, rel_b, *test, _flag(res is None)])
    return rows


def write_report(
    table: StatsTable,
    out_dir: str | Path,
    options: ReportOptions = ReportOptions(),
    derived: Sequence[DerivedPair] = (),
) -> list[Path]:
    """Emit every requested table and figure file; returns written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summaries = summarize(table)
    comparisons = compare_all(table, options.alpha, options.avg_population)
    written: list[Path] = []

    def emit_csv(name, header, rows):
        path = out / name
        _write_csv(path, header, rows)
        written.append(path)

    def emit_text(name, text):
        path = out / name
        path.write_text(text, encoding="utf-8")
        written.append(path)

    for number in TABLES:
        if number not in options.tables:
            continue
        if number in GRID_TABLES:
            header, rows, md = _grid_table(GRID_TABLES[number], summaries, comparisons, options)
        elif number == 5:
            header, rows, md = _derivation_table(derivation_persistence(derived, table))
        else:
            header, rows, md = _associated_table(*associated_counts(table))
        emit_csv(f"table{number}.csv", header, rows)
        emit_text(f"table{number}.md", md)

    # Pairwise comparison dump (the boldface evidence for tables 2-4).
    emit_csv(
        "comparisons.csv",
        ["pos", "metric", "rel_a", "rel_b", "statistic", "p_value", "df", "effect",
         "significant", "untestable"],
        _comparison_rows(comparisons, options.alpha),
    )
    distinct_rows = [
        [pos, metric, rel, _flag(flag)]
        for (pos, metric), matrix in comparisons.items()
        for rel, flag in matrix.distinct.items()
    ]
    emit_csv("distinct.csv", ["pos", "metric", "relation", "distinct"], distinct_rows)

    for metric in options.figures:
        groups = distribution_groups(table, metric, options.avg_population)
        if metric == "order_asym" and not groups:
            continue
        fives = {key: five_number(values) for key, values in groups.items()}
        emit_csv(
            f"fig_{metric}.csv",
            ["pos", "relation", *FiveNumber._fields],
            [[pos, rel, str(f.n), *map(repr, f[1:])] for (pos, rel), f in fives.items()],
        )
        values_path = out / f"fig_{metric}_values.csv"
        _write_values(values_path, groups)
        written.append(values_path)
        if options.svg and fives:  # a box plot needs at least one box
            emit_text(f"fig_{metric}.svg", render_boxplot_svg(fives, metric))

    return written


# ---------------------------------------------------------------------------
# Minimal SVG box plots (hand-rendered so output is byte-stable)

def _svg_scale(fives: Mapping[tuple[str, str], FiveNumber]) -> tuple[float, float, bool]:
    lo = min(f.min for f in fives.values())
    hi = max(f.max for f in fives.values())
    log = lo > 0 and hi / max(lo, 1e-12) > 100
    if log:
        lo, hi = np.log10(lo), np.log10(hi)
    if hi == lo:
        hi = lo + 1.0
    return lo, hi, log


def render_boxplot_svg(
    fives: Mapping[tuple[str, str], FiveNumber], title: str
) -> str:
    """Grouped box plots, one panel per PoS, one box per relation."""
    width_per_box = 42
    panel_pad = 30
    height = 320
    plot_top, plot_bottom = 40, 280
    lo, hi, log = _svg_scale(fives)

    def y_of(value: float) -> float:
        v = np.log10(value) if log else value
        frac = (v - lo) / (hi - lo)
        return plot_bottom - frac * (plot_bottom - plot_top)

    parts = []
    x = panel_pad
    for pos in POS_ORDER:
        rels = [rel for rel in REL_ORDER if (pos, rel) in fives]
        if not rels:
            continue
        panel_x = x
        for rel in rels:
            f = fives[(pos, rel)]
            cx = x + width_per_box / 2
            box_w = width_per_box * 0.6
            y_min, y_q1 = y_of(f.min), y_of(f.q1)
            y_med, y_q3, y_max = y_of(f.median), y_of(f.q3), y_of(f.max)
            parts.append(
                f'<line x1="{cx:.1f}" y1="{y_min:.1f}" x2="{cx:.1f}" y2="{y_max:.1f}" '
                'stroke="black" stroke-width="1"/>'
            )
            parts.append(
                f'<rect x="{cx - box_w / 2:.1f}" y="{y_q3:.1f}" width="{box_w:.1f}" '
                f'height="{max(y_q1 - y_q3, 0.5):.1f}" fill="lightsteelblue" stroke="black"/>'
            )
            parts.append(
                f'<line x1="{cx - box_w / 2:.1f}" y1="{y_med:.1f}" '
                f'x2="{cx + box_w / 2:.1f}" y2="{y_med:.1f}" stroke="black" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{cx:.1f}" y="{plot_bottom + 14:.1f}" font-size="9" '
                f'text-anchor="middle">{rel}</text>'
            )
            x += width_per_box
        parts.append(
            f'<text x="{(panel_x + x) / 2:.1f}" y="{plot_bottom + 30:.1f}" '
            f'font-size="11" text-anchor="middle" font-weight="bold">{pos}</text>'
        )
        x += panel_pad
    width = x
    scale_note = " (log scale)" if log else ""
    header = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
        f'<text x="{panel_pad}" y="20" font-size="13" font-weight="bold">'
        f"{title}{scale_note}</text>"
    )
    return header + "".join(parts) + "</svg>\n"
