"""Command-line pipeline: extract-pairs, sample-unrelated, count, metrics,
report, and an `all` orchestrator that runs the stages end to end and
writes a manifest for bit-reproducible reruns.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Iterator, NamedTuple, get_args, get_type_hints

import coocstat
from coocstat import corpus, counting, lexicon, metrics, report

DATA_DIR = Path(__file__).resolve().parent / "data"
DEFAULT_VERB_CLASSES = DATA_DIR / "verb_classes.tsv"

STALE_MARKER = "_STALE"

# Config keys that older manifests record and that never changed an output.
RETIRED_CONFIG_KEYS = ("shards", "block_size")


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


_REPORT_DEFAULTS = report.ReportOptions()


@dataclass
class RunConfig:
    """Everything the end-to-end run depends on, with the command line's defaults."""

    corpus: str
    lexicon: str
    out_dir: str
    derivations: str | None = None
    lemma_attrs: str | None = None
    verb_classes: str | None = None
    min_sentence_len: int = 5
    alpha: float = _REPORT_DEFAULTS.alpha
    seed: int = 0
    unr_n: int = 10000
    avg_population: str = _REPORT_DEFAULTS.avg_population
    distance_pooling: str = _REPORT_DEFAULTS.distance_pooling
    svg: bool = _REPORT_DEFAULTS.svg

    def report_options(self) -> report.ReportOptions:
        return report.ReportOptions(
            alpha=self.alpha,
            avg_population=self.avg_population,
            distance_pooling=self.distance_pooling,
            svg=self.svg,
        )

    def validate(self) -> None:
        if self.min_sentence_len < 1:
            raise ValueError("min sentence length must be >= 1")
        lexicon.check_sample(self.unr_n, self.seed)
        self.report_options().validate()


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Stages, one function each, shared by the subcommands and `run_pipeline`.
# Library functions are called through their modules, so that wrappers set
# on a module attribute see every call.

def load_classes(verb_classes: str | None) -> lexicon.VerbClasses:
    """The linking/aux/light verb word list, the bundled one by default."""
    return lexicon.load_verb_classes(verb_classes or str(DEFAULT_VERB_CLASSES))


def load_entries(lexicon_path: str, verb_classes: str | None) -> tuple[
    list[lexicon.LexiconEntry], lexicon.VerbClasses, lexicon.FilterResult
]:
    """The lexicon's rows, the verb word list, and the rows the rules keep."""
    raw = lexicon.load_lexicon(lexicon_path)
    classes = load_classes(verb_classes)
    return raw, classes, lexicon.filter_pairs(lexicon.apply_verb_class_flags(raw, classes))


def scan_controls(
    corpus_path: str, min_sentence_len: int, lemma_attrs: str | None,
    raw: list[lexicon.LexiconEntry], classes: lexicon.VerbClasses,
) -> tuple[corpus.Corpus, counting.UniverseScan]:
    """Read the corpus and scan it for lemma frequencies and for the
    co-occurring pairs of control lemmas.  The lemmas' attributes come from
    their own file, or else from the lexicon, and are read before the corpus."""
    if lemma_attrs:
        meta = lexicon.load_lemma_attrs(lemma_attrs)
    else:
        meta = lexicon.lemma_meta_from_entries(raw)
    corp = corpus.read_corpus(corpus_path, min_sentence_len)
    vocab = lexicon.control_lemmas(meta, classes)
    return corp, counting.scan_corpus(corp, collect_pairs=True, vocab=vocab)


class Extracted(NamedTuple):
    pairs: list[lexicon.LemmaPair]
    derived: list[lexicon.DerivedPair]
    counts: dict[str, int]  # pairs excluded per rule, unobserved and kept


def extract_pairs(
    filtered: lexicon.FilterResult,
    freqs: dict[corpus.LemmaKey, int],
    derivations: str | None,
) -> Extracted:
    """Orient the kept pairs by corpus frequency and map their derivations."""
    oriented = lexicon.orient_pairs(filtered.kept, freqs)
    derived = []
    if derivations:
        links = lexicon.load_derivations(derivations)
        derived = lexicon.derived_pairs(oriented.pairs, links, filtered.kept, freqs)
    counts = dict(filtered.excluded, unobserved=oriented.n_dropped, kept=len(oriented.pairs))
    return Extracted(oriented.pairs, derived, counts)


def sample_unr_pairs(
    scan: counting.UniverseScan,
    raw: list[lexicon.LexiconEntry],
    n: int,
    seed: int,
) -> list[lexicon.LemmaPair]:
    """Sample `n` co-occurring pairs that the lexicon does not relate."""
    return lexicon.sample_unrelated(
        scan.pairs, lexicon.related_pair_set(raw), n, seed, scan.freqs
    )


def count_pairs(
    corp: corpus.Corpus, pairs: list[lexicon.LemmaPair], out: Path
) -> counting.CountResult:
    """Count every pair and write `observations.tsv` and `events.tsv` in `out`."""
    result = counting.count_sharded(corp, pairs)
    out.mkdir(parents=True, exist_ok=True)
    counting.write_observations(
        result, str(out / "observations.tsv"), str(out / "events.tsv")
    )
    return result


def score_pairs(
    result: counting.CountResult, alpha: float, out: str, with_baselines: bool = False
) -> metrics.StatsTable:
    """Score every counted pair and write the stats table to `out`."""
    table = metrics.compute_all_stats(result, alpha, with_baselines)
    metrics.write_pair_stats(table, out)
    return table


# ---------------------------------------------------------------------------
# Subcommands

def run_extract_pairs(args: argparse.Namespace) -> int:
    if args.corpus_freqs and args.dump_freqs:
        raise ValueError("--dump-freqs needs --corpus: it writes the scanned frequencies")
    _, _, filtered = load_entries(args.lexicon, args.verb_classes)
    if args.corpus_freqs:
        freqs = counting.read_lemma_freqs(args.corpus_freqs)
    else:
        corp = corpus.read_corpus(args.corpus, args.min_sentence_len)
        freqs = counting.scan_corpus(corp).freqs
        if args.dump_freqs:
            counting.write_lemma_freqs(freqs, args.dump_freqs)
    extracted = extract_pairs(filtered, freqs, args.derivations)
    lexicon.write_pairs(extracted.pairs, args.out)

    if args.derivations:
        out_derived = args.out_derived or str(Path(args.out).with_suffix(".derived.tsv"))
        lexicon.write_derived_map(extracted.derived, out_derived)
        print(f"derived pairs: {len(extracted.derived)} -> {out_derived}")

    for rule in lexicon.EXCLUSION_RULES:
        print(f"excluded[{rule}]: {extracted.counts[rule]}")
    print(f"unobserved (corpus frequency 0): {extracted.counts['unobserved']}")
    print(f"pairs written: {len(extracted.pairs)} -> {args.out}")
    if args.counts_json:
        _write_json(Path(args.counts_json), extracted.counts)
    return 0


def run_sample_unrelated(args: argparse.Namespace) -> int:
    lexicon.check_sample(args.n, args.seed)  # before the corpus is read
    raw = lexicon.load_lexicon(args.lexicon)
    classes = load_classes(args.verb_classes)
    _, scan = scan_controls(args.corpus, args.min_sentence_len, args.lemma_attrs, raw, classes)
    sampled = sample_unr_pairs(scan, raw, args.n, args.seed)
    lexicon.write_pairs(sampled, args.out)
    print(f"unrelated pairs sampled: {len(sampled)} -> {args.out}")
    return 0


def run_count(args: argparse.Namespace) -> int:
    pairs = [p for path in args.pairs for p in lexicon.read_pairs(path)]
    counting.check_pairs(pairs)  # before the corpus is read
    out = Path(args.out)
    result = count_pairs(corpus.read_corpus(args.corpus, args.min_sentence_len), pairs, out)
    print(f"sentences: {result.n}; pairs counted: {len(result.cells)} -> {out}")
    return 0


def run_metrics(args: argparse.Namespace) -> int:
    metrics.check_alpha(args.alpha)
    obs_dir = Path(args.obs)
    result = counting.read_observations(
        str(obs_dir / "observations.tsv"), str(obs_dir / "events.tsv")
    )
    table = score_pairs(result, args.alpha, args.out, args.with_baselines)
    print(f"pair stats written: {len(table)} -> {args.out}")
    return 0


def _table_number(text: str) -> int | str:
    try:
        return int(text)
    except ValueError:
        return text  # `ReportOptions.validate` names it as an unknown table


def run_report(args: argparse.Namespace) -> int:
    options = report.ReportOptions(**{f: getattr(args, f) for f in report.ReportOptions._fields})
    options.validate()
    table = metrics.read_pair_stats(args.stats)
    derived = lexicon.read_derived_map(args.derived) if args.derived else ()
    written = report.write_report(table, args.out, options, derived)
    print(f"report files written: {len(written)} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# End-to-end orchestrator

@contextlib.contextmanager
def _stage(name: str) -> Iterator[None]:
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc) from exc


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

    # One parse and one scan feed every stage.
    with _stage("extract-pairs"):
        raw, classes, filtered = load_entries(config.lexicon, config.verb_classes)
        corp, scan = scan_controls(
            config.corpus, config.min_sentence_len, config.lemma_attrs, raw, classes
        )
        counting.write_lemma_freqs(scan.freqs, str(out / "corpus_freqs.tsv"))
        extracted = extract_pairs(filtered, scan.freqs, config.derivations)
        _write_json(out / "filter_counts.json", extracted.counts)
    with _stage("sample-unrelated"):
        unr = sample_unr_pairs(scan, raw, config.unr_n, config.seed)

    all_pairs = extracted.pairs + unr
    lexicon.write_pairs(all_pairs, str(out / "pairs.tsv"))
    lexicon.write_derived_map(extracted.derived, str(out / "derived_pairs.tsv"))

    with _stage("count"):
        result = count_pairs(corp, all_pairs, out)
    with _stage("metrics"):
        table = score_pairs(result, config.alpha, str(out / "stats.tsv"))
    with _stage("report"):
        written = report.write_report(
            table, out, config.report_options(), extracted.derived
        )

    events = {rel: 0 for rel in lexicon.RELATIONS}
    for relation, m in zip(result.relation, result.cells[:, 0].tolist()):
        events[relation] += m
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
    _write_json(out / "manifest.json", manifest)
    stale.unlink()
    return written


def _check_config_type(name: str, value: object) -> None:
    """Reject a manifest value that its RunConfig field cannot hold.  JSON
    has one number type, so a float field takes an int; a bool is no int."""
    expected = get_type_hints(RunConfig)[name]
    allowed = get_args(expected) or (expected,)
    if float in allowed:
        allowed += (int,)
    if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
        names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
        raise ValueError(f"config {name} must be {names}, got {json.dumps(value)}")


def _config_from_manifest(path: str) -> RunConfig:
    """The config a manifest records, once every input it records still
    has its recorded SHA-256."""
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
        values = {
            k: v for k, v in manifest["config"].items() if k not in RETIRED_CONFIG_KEYS
        }
        unknown = sorted(set(values) - {f.name for f in fields(RunConfig)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for name, value in values.items():
            _check_config_type(name, value)
        config = RunConfig(**values)
        inputs = [(name, rec["path"], rec["sha256"]) for name, rec in manifest["inputs"].items()]
    except KeyError as exc:
        raise ValueError(f"{path}: no {exc} entry") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    for name, input_path, recorded in inputs:
        digest = _sha256(input_path)
        if digest != recorded:
            raise ValueError(
                f"{name} input {input_path} changed since the manifest "
                f"(sha256 {digest}, recorded {recorded})"
            )
    return config


def run_all(args: argparse.Namespace) -> int:
    if args.from_manifest:
        config = _config_from_manifest(args.from_manifest)
        if args.out_dir:
            config.out_dir = args.out_dir
    elif not (args.corpus and args.lexicon and args.out_dir):
        print(
            "error: the arguments --corpus, --lexicon and --out are required "
            "(or use --from-manifest)",
            file=sys.stderr,
        )
        return 2
    else:
        config = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
    written = run_pipeline(config)
    print(f"pipeline complete: {len(written)} report files in {config.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing

# Each option's default is that of its field in `RunConfig`, or in
# `report.ReportOptions` for `report`.
_RUN_DEFAULTS = {f.name: f.default for f in fields(RunConfig) if f.default is not MISSING}
_VERB_CLASSES_HELP = "linking/aux/light verb list (default bundled)"


def _add_corpus_args(sub: argparse.ArgumentParser, corpus: bool = True) -> None:
    """`--min-sentence-len`, after a required `--corpus` if `corpus`."""
    if corpus:
        sub.add_argument("--corpus", required=True, help="vertical-format corpus file")
    sub.add_argument(
        "--min-sentence-len",
        type=int,
        default=_RUN_DEFAULTS["min_sentence_len"],
        help="minimum non-punctuation tokens per sentence (default %(default)s)",
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
    _add_corpus_args(p, corpus=False)
    p.add_argument("--derivations", help="derivation link TSV")
    p.add_argument("--verb-classes", help=_VERB_CLASSES_HELP)
    p.add_argument("--out", required=True, help="oriented pairs TSV to write")
    p.add_argument("--out-derived", help="derived-pair map TSV to write")
    p.add_argument("--dump-freqs", help="write scanned lemma frequencies here")
    p.add_argument("--counts-json", help="write exclusion counts as JSON")
    p.set_defaults(func=run_extract_pairs)

    p = sub.add_parser("sample-unrelated", help="sample co-occurring unrelated pairs")
    _add_corpus_args(p)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--lemma-attrs", help="per-lemma attribute TSV (freq + flags)")
    p.add_argument("--verb-classes", help=_VERB_CLASSES_HELP)
    p.add_argument(
        "--n", type=int, default=_RUN_DEFAULTS["unr_n"], help="sample size (default %(default)s)"
    )
    p.add_argument("--seed", type=int, default=_RUN_DEFAULTS["seed"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=run_sample_unrelated)

    p = sub.add_parser("count", help="count pair (co-)occurrences over the corpus")
    _add_corpus_args(p)
    p.add_argument("--pairs", required=True, nargs="+", help="pairs TSV file(s)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=run_count)

    p = sub.add_parser("metrics", help="score counted pairs")
    p.add_argument("--obs", required=True, help="directory written by `count`")
    p.add_argument("--out", required=True, help="pair stats TSV to write")
    p.add_argument("--alpha", type=float, default=_RUN_DEFAULTS["alpha"])
    p.add_argument(
        "--with-baselines", action="store_true", help="also emit PMI (debug only)"
    )
    p.set_defaults(func=run_metrics)

    p = sub.add_parser("report", help="aggregate stats into tables and figures")
    p.add_argument("--stats", required=True, help="pair stats TSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--tables", type=lambda t: tuple(map(_table_number, t.split(","))) if t else ())
    p.add_argument("--figures", type=lambda text: tuple(f for f in text.split(",") if f))
    p.add_argument("--avg-population", choices=report.AVG_POPULATIONS)
    p.add_argument("--distance-pooling", choices=report.DISTANCE_POOLINGS)
    p.add_argument("--derived", help="derived-pair map TSV")
    p.add_argument("--alpha", type=float)
    p.add_argument("--svg", action="store_true", help="also render SVG box plots")
    p.set_defaults(func=run_report, **_REPORT_DEFAULTS._asdict())

    p = sub.add_parser("all", help="run the whole pipeline")
    p.add_argument("--corpus")
    p.add_argument("--lexicon")
    p.add_argument("--out", dest="out_dir")
    p.add_argument("--derivations")
    p.add_argument("--lemma-attrs")
    p.add_argument("--verb-classes", help=_VERB_CLASSES_HELP)
    _add_corpus_args(p, corpus=False)
    p.add_argument("--alpha", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--unr-n", type=int)
    p.add_argument("--avg-population", choices=report.AVG_POPULATIONS)
    p.add_argument("--distance-pooling", choices=report.DISTANCE_POOLINGS)
    p.add_argument("--svg", action="store_true")
    p.add_argument("--from-manifest", help="rerun from a previous manifest.json")
    p.set_defaults(func=run_all, **_RUN_DEFAULTS)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> int:
    """The process entry: `main` of the command line, for the ``coocstat``
    console script and ``python -m coocstat.cli``."""
    # The objects made at import live for the whole run; frozen, they are
    # left out of every collection, where each full one walked them all.
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
