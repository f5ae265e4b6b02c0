"""Command-line pipeline: extract-pairs, sample-unrelated, count, metrics,
report, and an `all` orchestrator that runs the stages end to end and
writes a manifest for bit-reproducible reruns.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import coocstat
from coocstat import corpus, counting, lexicon, metrics, report

DATA_DIR = Path(__file__).resolve().parent / "data"
DEFAULT_VERB_CLASSES = DATA_DIR / "verb_classes.tsv"

STALE_MARKER = "_STALE"


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class RunConfig:
    """Everything the end-to-end run depends on."""

    corpus: str
    lexicon: str
    out_dir: str
    derivations: str | None = None
    lemma_attrs: str | None = None
    verb_classes: str | None = None
    min_sentence_len: int = 5
    alpha: float = 0.01
    seed: int = 0
    unr_n: int = 10000
    shards: int = 1
    block_size: int = 20000
    avg_population: str = "all"
    distance_pooling: str = "pair"
    svg: bool = False

    def validate(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.min_sentence_len < 1:
            raise ValueError("min sentence length must be >= 1")
        if self.unr_n < 1:
            raise ValueError("UNR sample size must be >= 1")
        if self.shards < 1:
            raise ValueError("shard count must be >= 1")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _workers(shards: int) -> int:
    env = os.environ.get("COOCSTAT_THREADS")
    if env:
        return max(1, int(env))
    return shards


def _load_verb_classes(path: str | None) -> dict[str, frozenset[str]]:
    return lexicon.load_verb_classes(path or str(DEFAULT_VERB_CLASSES))


def _prepare_entries(args_lexicon: str, verb_classes: str | None):
    raw = lexicon.load_lexicon(args_lexicon)
    flagged = lexicon.apply_verb_class_flags(raw, _load_verb_classes(verb_classes))
    return raw, lexicon.filter_pairs(flagged)


# ---------------------------------------------------------------------------
# Stage implementations (shared by subcommands and the orchestrator)

def run_extract_pairs(args: argparse.Namespace) -> int:
    raw, filtered = _prepare_entries(args.lexicon, args.verb_classes)
    if args.corpus_freqs:
        freqs = counting.read_lemma_freqs(args.corpus_freqs)
    else:
        scan = counting.scan_corpus(
            corpus.read_corpus(args.corpus, args.min_sentence_len)
        )
        freqs = scan.freqs
        if args.dump_freqs:
            counting.write_lemma_freqs(freqs, args.dump_freqs)
    oriented = lexicon.orient_pairs(filtered.kept, freqs)
    lexicon.write_pairs(oriented.pairs, args.out)

    if args.derivations:
        links = lexicon.load_derivations(args.derivations)
        derived = lexicon.derived_pairs(oriented.pairs, links, filtered.kept, freqs)
        out_derived = args.out_derived or str(Path(args.out).with_suffix(".derived.tsv"))
        lexicon.write_derived_map(derived, out_derived)
        print(f"derived pairs: {len(derived)} -> {out_derived}")

    for rule in lexicon.EXCLUSION_RULES:
        print(f"excluded[{rule}]: {filtered.excluded[rule]}")
    print(f"unobserved (corpus frequency 0): {oriented.n_dropped}")
    print(f"pairs written: {len(oriented.pairs)} -> {args.out}")
    if args.counts_json:
        payload = dict(filtered.excluded)
        payload["unobserved"] = oriented.n_dropped
        payload["kept"] = len(oriented.pairs)
        Path(args.counts_json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return 0


def run_sample_unrelated(args: argparse.Namespace) -> int:
    raw = lexicon.load_lexicon(args.lexicon)
    if args.lemma_attrs:
        meta = lexicon.load_lemma_attrs(args.lemma_attrs)
    else:
        meta = lexicon.lemma_meta_from_entries(raw)
    vocab = set(meta)
    scan = counting.scan_corpus(
        corpus.read_corpus(args.corpus, args.min_sentence_len),
        collect_pairs=True,
        vocab=vocab,
    )
    sampled = lexicon.sample_unrelated(
        scan.pairs,
        lexicon.related_pair_set(raw),
        args.n,
        args.seed,
        scan.freqs,
        meta,
    )
    lexicon.write_pairs(sampled, args.out)
    print(f"unrelated pairs sampled: {len(sampled)} -> {args.out}")
    return 0


def run_count(args: argparse.Namespace) -> int:
    pairs = []
    for path in args.pairs:
        pairs.extend(lexicon.read_pairs(path))
    result = counting.count_sharded(
        corpus.read_corpus(args.corpus, args.min_sentence_len),
        pairs, workers=_workers(args.shards), block_size=args.block_size
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    counting.write_observations(
        result, str(out / "observations.tsv"), str(out / "events.tsv")
    )
    print(f"sentences: {result.n}; pairs counted: {len(result.observations)} -> {out}")
    return 0


def run_metrics(args: argparse.Namespace) -> int:
    obs_dir = Path(args.obs)
    result = counting.read_observations(
        str(obs_dir / "observations.tsv"), str(obs_dir / "events.tsv")
    )
    scored = metrics.compute_all_stats(
        result.observations.values(), args.alpha, args.with_baselines
    )
    metrics.write_pair_stats(scored, args.out)
    print(f"pair stats written: {len(scored)} -> {args.out}")
    return 0


def _report_options(args: argparse.Namespace) -> report.ReportOptions:
    tables = tuple(int(t) for t in args.tables.split(",")) if args.tables else ()
    figures = tuple(f for f in args.figures.split(",") if f) if args.figures else ()
    return report.ReportOptions(
        alpha=args.alpha,
        avg_population=args.avg_population,
        distance_pooling=args.distance_pooling,
        tables=tables,
        figures=figures,
        svg=args.svg,
    )


def run_report(args: argparse.Namespace) -> int:
    scored = metrics.read_pair_stats(args.stats)
    derived = lexicon.read_derived_map(args.derived) if args.derived else ()
    written = report.write_report(scored, args.out, _report_options(args), derived)
    print(f"report files written: {len(written)} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# End-to-end orchestrator

def run_pipeline(config: RunConfig) -> list[Path]:
    """Run every stage, writing artifacts and a manifest into out_dir.

    Any stage failure raises StageError; the `_STALE` marker file stays
    behind whenever outputs are partial.
    """
    config.validate()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stale = out / STALE_MARKER
    stale.write_text("pipeline in progress or failed; outputs may be partial\n")

    def stage(name: str, fn):
        try:
            return fn()
        except StageError:
            raise
        except Exception as exc:
            raise StageError(name, exc) from exc

    # -- extract-pairs ------------------------------------------------
    def do_extract():
        raw, filtered = _prepare_entries(config.lexicon, config.verb_classes)
        if config.lemma_attrs:
            meta = lexicon.load_lemma_attrs(config.lemma_attrs)
        else:
            meta = lexicon.lemma_meta_from_entries(raw)
        corp = corpus.read_corpus(config.corpus, config.min_sentence_len)
        scan = counting.scan_corpus(corp, collect_pairs=True, vocab=set(meta))
        counting.write_lemma_freqs(scan.freqs, str(out / "corpus_freqs.tsv"))
        oriented = lexicon.orient_pairs(filtered.kept, scan.freqs)
        counts = dict(filtered.excluded)
        counts["unobserved"] = oriented.n_dropped
        counts["kept"] = len(oriented.pairs)
        (out / "filter_counts.json").write_text(
            json.dumps(counts, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return raw, filtered, meta, corp, scan, oriented

    raw, filtered, meta, corp, scan, oriented = stage("extract-pairs", do_extract)

    # -- sample-unrelated ----------------------------------------------
    def do_sample():
        return lexicon.sample_unrelated(
            scan.pairs,
            lexicon.related_pair_set(raw),
            config.unr_n,
            config.seed,
            scan.freqs,
            meta,
        )

    unr = stage("sample-unrelated", do_sample)

    def do_derived():
        if not config.derivations:
            return []
        links = lexicon.load_derivations(config.derivations)
        return lexicon.derived_pairs(oriented.pairs, links, filtered.kept, scan.freqs)

    derived = stage("extract-pairs", do_derived)

    all_pairs = oriented.pairs + unr
    lexicon.write_pairs(all_pairs, str(out / "pairs.tsv"))
    lexicon.write_derived_map(derived, str(out / "derived_pairs.tsv"))

    # -- count ----------------------------------------------------------
    def do_count():
        result = counting.count_sharded(
            corp,
            all_pairs,
            workers=_workers(config.shards),
            block_size=config.block_size,
        )
        counting.write_observations(
            result, str(out / "observations.tsv"), str(out / "events.tsv")
        )
        return result

    result = stage("count", do_count)

    # -- metrics ----------------------------------------------------------
    def do_metrics():
        scored = metrics.compute_all_stats(result.observations.values(), config.alpha)
        metrics.write_pair_stats(scored, str(out / "stats.tsv"))
        return scored

    scored = stage("metrics", do_metrics)

    # -- report ----------------------------------------------------------
    def do_report():
        options = report.ReportOptions(
            alpha=config.alpha,
            avg_population=config.avg_population,
            distance_pooling=config.distance_pooling,
            svg=config.svg,
        )
        return report.write_report(scored, out, options, derived)

    written = stage("report", do_report)

    events = {rel: 0 for rel in lexicon.RELATIONS}
    for obs in result.observations.values():
        events[obs.pair.relation] += len(obs.events)
    manifest = {
        "config": asdict(config),
        "counters": {
            "sentences": len(corp),
            "sentences_skipped": corp.skipped,
            "tokens": len(corp.token_ids),
            "vocabulary": len(corp.keys),
            "universe_pairs": len(scan.pairs),
            "events": events,
        },
        "inputs": {
            name: {"path": path, "sha256": _sha256(path)}
            for name, path in (
                ("corpus", config.corpus),
                ("lexicon", config.lexicon),
                ("derivations", config.derivations),
                ("lemma_attrs", config.lemma_attrs),
                ("verb_classes", config.verb_classes or str(DEFAULT_VERB_CLASSES)),
            )
            if path
        },
        "versions": {
            "coocstat": coocstat.__version__,
            "python": sys.version.split()[0],
        },
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    stale.unlink()
    return written


def run_all(args: argparse.Namespace) -> int:
    if args.from_manifest:
        manifest = json.loads(Path(args.from_manifest).read_text(encoding="utf-8"))
        for name, recorded in manifest["inputs"].items():
            digest = _sha256(recorded["path"])
            if digest != recorded["sha256"]:
                raise ValueError(
                    f"{name} input {recorded['path']} changed since the manifest "
                    f"(sha256 {digest}, recorded {recorded['sha256']})"
                )
        config = RunConfig(**manifest["config"])
        if args.out:
            config.out_dir = args.out
    else:
        if not args.corpus or not args.lexicon or not args.out:
            print(
                "error: the arguments --corpus, --lexicon and --out are required "
                "(or use --from-manifest)",
                file=sys.stderr,
            )
            return 2
        config = RunConfig(
            corpus=args.corpus,
            lexicon=args.lexicon,
            out_dir=args.out,
            derivations=args.derivations,
            lemma_attrs=args.lemma_attrs,
            verb_classes=args.verb_classes,
            min_sentence_len=args.min_sentence_len,
            alpha=args.alpha,
            seed=args.seed,
            unr_n=args.unr_n,
            shards=args.shards,
            block_size=args.block_size,
            avg_population=args.avg_population,
            distance_pooling=args.distance_pooling,
            svg=args.svg,
        )
    written = run_pipeline(config)
    print(f"pipeline complete: {len(written)} report files in {config.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing

def _add_corpus_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--corpus", required=True, help="vertical-format corpus file")
    sub.add_argument(
        "--min-sentence-len",
        type=int,
        default=5,
        help="minimum non-punctuation tokens per sentence (default 5)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coocstat",
        description="Sentence-level co-occurrence statistics for lemma pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract-pairs", help="filter and orient lexicon pairs")
    p.add_argument("--lexicon", required=True, help="relation pair TSV export")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--corpus-freqs", help="precomputed lemma frequency TSV")
    group.add_argument("--corpus", help="corpus to scan for lemma frequencies")
    p.add_argument("--min-sentence-len", type=int, default=5)
    p.add_argument("--derivations", help="derivation link TSV")
    p.add_argument("--verb-classes", help="linking/aux/light verb list (default bundled)")
    p.add_argument("--out", required=True, help="oriented pairs TSV to write")
    p.add_argument("--out-derived", help="derived-pair map TSV to write")
    p.add_argument("--dump-freqs", help="write scanned lemma frequencies here")
    p.add_argument("--counts-json", help="write exclusion counts as JSON")
    p.set_defaults(func=run_extract_pairs)

    p = sub.add_parser("sample-unrelated", help="sample co-occurring unrelated pairs")
    _add_corpus_args(p)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--lemma-attrs", help="per-lemma attribute TSV (freq + flags)")
    p.add_argument("--n", type=int, default=10000, help="sample size (default 10000)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=run_sample_unrelated)

    p = sub.add_parser("count", help="count pair (co-)occurrences over the corpus")
    _add_corpus_args(p)
    p.add_argument("--pairs", required=True, nargs="+", help="pairs TSV file(s)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--shards", type=int, default=1, help="worker bound (default 1)")
    p.add_argument("--block-size", type=int, default=20000)
    p.set_defaults(func=run_count)

    p = sub.add_parser("metrics", help="score counted pairs")
    p.add_argument("--obs", required=True, help="directory written by `count`")
    p.add_argument("--out", required=True, help="pair stats TSV to write")
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument(
        "--with-baselines", action="store_true", help="also emit PMI (debug only)"
    )
    p.set_defaults(func=run_metrics)

    p = sub.add_parser("report", help="aggregate stats into tables and figures")
    p.add_argument("--stats", required=True, help="pair stats TSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--tables", default="1,2,3,4,5,6")
    p.add_argument("--figures", default="g2,order,distance,order_asym")
    p.add_argument("--avg-population", choices=("all", "sig"), default="all")
    p.add_argument("--distance-pooling", choices=("pair", "event"), default="pair")
    p.add_argument("--derived", help="derived-pair map TSV")
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--svg", action="store_true", help="also render SVG box plots")
    p.set_defaults(func=run_report)

    p = sub.add_parser("all", help="run the whole pipeline")
    p.add_argument("--corpus")
    p.add_argument("--lexicon")
    p.add_argument("--out")
    p.add_argument("--derivations")
    p.add_argument("--lemma-attrs")
    p.add_argument("--verb-classes")
    p.add_argument("--min-sentence-len", type=int, default=5)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unr-n", type=int, default=10000)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--block-size", type=int, default=20000)
    p.add_argument("--avg-population", choices=("all", "sig"), default="all")
    p.add_argument("--distance-pooling", choices=("pair", "event"), default="pair")
    p.add_argument("--svg", action="store_true")
    p.add_argument("--from-manifest", help="rerun from a previous manifest.json")
    p.set_defaults(func=run_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
