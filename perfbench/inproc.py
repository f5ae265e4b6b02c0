"""In-process children of the benchmark driver.

    python perfbench/inproc.py setup <coocstat CLI argv...>
    python perfbench/inproc.py trace SPANS.json <coocstat CLI argv...>
    python perfbench/inproc.py count SPANS.json --corpus C --pairs P...

`setup` and `trace` run the program's own `coocstat.cli.main(argv)`; they
only replace module attributes the CLI looks up at call time, so the
order of calls and the lifetime of every object are the CLI's.

`setup` stops the CLI at its first read of the corpus, a pair file or a
count file; the driver times the whole process, which is the step's
set-up.  `trace` puts one span around every call of the library functions
in `TRACED` and writes the spans once, at exit.  The sentence stream a
consumer receives is wrapped, so its parse time becomes a `corpus.read`
child of that consumer's span.  `count` is a plain `counting.count` pass,
a diagnostic to set beside the `count_sharded` call the CLI makes.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans carry name, start, end, parent id and exact counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def wrap(self, module, attr: str, name, counts=None, streams: bool = False) -> None:
        """Record a span around every call of `module.attr`, including
        calls made from inside the library.  `name` is a span name or a
        function of the call's arguments; `counts(result, args, kwargs)`
        returns the span's counts; with `streams`, the first argument is
        a sentence stream whose parse time is recorded separately."""
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name(*args, **kwargs) if callable(name) else name) as rec:
                if streams:
                    stream = TimedStream(args[0])
                    rec["streams"].append(stream)
                    args = (stream, *args[1:])
                result = inner(*args, **kwargs)
                if counts:
                    rec["counts"].update(counts(result, args, kwargs))
                return result

        setattr(module, attr, traced)

    def dump(self, path: str) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans}), encoding="utf-8")


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> dict:
        t = self.tracer
        self.record = {
            "id": len(t.spans),
            "name": self.name,
            "parent": t._stack[-1] if t._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
            "streams": [],
        }
        t.spans.append(self.record)
        t._stack.append(self.record["id"])
        return self.record

    def __exit__(self, *exc) -> None:
        t = self.tracer
        rec = self.record
        rec["end"] = time.perf_counter()
        t._stack.pop()
        for stream in rec.pop("streams"):
            # A streamed layer runs interleaved with its consumer, so its
            # span is the summed time spent inside the stream, placed at
            # the consumer's start.
            t.spans.append({
                "id": len(t.spans),
                "name": "corpus.read",
                "parent": rec["id"],
                "start": rec["start"],
                "end": rec["start"] + stream.busy,
                "counts": {"tokens": stream.tokens, "sentences": stream.sentences},
            })


class TimedStream:
    """A sentence iterator that sums the time spent producing sentences."""

    def __init__(self, sentences) -> None:
        self._inner = sentences
        self._it = iter(sentences)
        self.busy = 0.0
        self.tokens = 0
        self.sentences = 0

    def __iter__(self):
        return self

    def __next__(self):
        t0 = time.perf_counter()
        try:
            sent = next(self._it)
        finally:
            self.busy += time.perf_counter() - t0
        self.tokens += len(sent.tokens)
        self.sentences += 1
        return sent

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def _scan_name(sentences, collect_pairs=False, vocab=None) -> str:
    return "counting.scan_universe" if collect_pairs else "counting.scan_freqs"


def _scan_counts(result, args, kwargs) -> dict:
    if result.pairs is None:
        return {}
    return {"universe_pairs": len(result.pairs), "peak_rss_mb": _peak_rss_mb()}


def _count_counts(result, args, kwargs) -> dict:
    return {
        "pairs": len(result.observations),
        "events": sum(len(o.events) for o in result.observations.values()),
    }


# The library functions the CLI calls, as (module, function, span name or
# naming function, counts, consumes a sentence stream).  Span names are
# `module.function`, except that `scan_corpus` is named by its role.
TRACED = (
    ("corpus", "read_corpus", "corpus.read_corpus", None, False),
    ("counting", "scan_corpus", _scan_name, _scan_counts, True),
    ("counting", "count_sharded", "counting.count_sharded", _count_counts, True),
    ("counting", "write_observations", "counting.write_observations", None, False),
    ("counting", "read_observations", "counting.read_observations", None, False),
    ("counting", "write_lemma_freqs", "counting.write_lemma_freqs", None, False),
    ("counting", "read_lemma_freqs", "counting.read_lemma_freqs", None, False),
    ("lexicon", "load_lexicon", "lexicon.load_lexicon", None, False),
    ("lexicon", "load_verb_classes", "lexicon.load_verb_classes", None, False),
    ("lexicon", "apply_verb_class_flags", "lexicon.apply_verb_class_flags", None, False),
    ("lexicon", "filter_pairs", "lexicon.filter_pairs",
     lambda r, a, k: {"pairs_kept": len(r.kept)}, False),
    ("lexicon", "load_lemma_attrs", "lexicon.load_lemma_attrs", None, False),
    ("lexicon", "lemma_meta_from_entries", "lexicon.lemma_meta_from_entries", None, False),
    ("lexicon", "load_derivations", "lexicon.load_derivations", None, False),
    ("lexicon", "orient_pairs", "lexicon.orient_pairs", None, False),
    ("lexicon", "related_pair_set", "lexicon.related_pair_set", None, False),
    ("lexicon", "derived_pairs", "lexicon.derived_pairs", None, False),
    ("lexicon", "sample_unrelated", "lexicon.sample_unrelated",
     lambda r, a, k: {"peak_rss_mb": _peak_rss_mb()}, False),
    ("lexicon", "write_pairs", "lexicon.write_pairs", None, False),
    ("lexicon", "read_pairs", "lexicon.read_pairs", None, False),
    ("lexicon", "write_derived_map", "lexicon.write_derived_map", None, False),
    ("lexicon", "read_derived_map", "lexicon.read_derived_map", None, False),
    ("metrics", "compute_all_stats", "metrics.compute_all_stats", None, False),
    ("metrics", "write_pair_stats", "metrics.write_pair_stats", None, False),
    ("metrics", "read_pair_stats", "metrics.read_pair_stats", None, False),
    ("report", "compare_all", "report.compare_all", None, False),
    ("report", "write_report", "report.write_report", None, False),
)

# The first read of data in any subcommand ends its set-up.
FIRST_READS = (
    ("corpus", "read_corpus"),
    ("counting", "read_observations"),
    ("counting", "read_lemma_freqs"),
    ("lexicon", "read_pairs"),
    ("metrics", "read_pair_stats"),
)


class _SetupDone(BaseException):
    """Raised at the first data read; not an Exception, so the CLI's own
    error handling lets it through."""


def setup_main(argv: list[str]) -> int:
    from coocstat import cli

    def stop(*args, **kwargs):
        raise _SetupDone

    for module, attr in FIRST_READS:
        setattr(getattr(cli, module), attr, stop)
    try:
        status = cli.main(argv)
    except _SetupDone:
        return 0
    print(f"setup probe: the CLI returned {status} before reading any data", file=sys.stderr)
    return 1


def trace_main(spans_path: str, argv: list[str]) -> int:
    tr = Tracer()
    with tr.span("cli.import"):
        from coocstat import cli
    for module, attr, name, counts, streams in TRACED:
        tr.wrap(getattr(cli, module), attr, name, counts, streams)
    with tr.span("cli.main"):
        status = cli.main(argv)
    tr.dump(spans_path)
    return status


def count_main(spans_path: str, argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="inproc.py count")
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--pairs", required=True, nargs="+")
    parser.add_argument("--min-sentence-len", type=int, default=5)
    args = parser.parse_args(argv)
    from coocstat import corpus, counting, lexicon

    tr = Tracer()
    tr.wrap(counting, "count", "counting.count", _count_counts, streams=True)
    pairs = [p for path in args.pairs for p in lexicon.read_pairs(path)]
    counting.count(corpus.read_corpus(args.corpus, args.min_sentence_len), pairs)
    tr.dump(spans_path)
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup_main(rest))
    elif mode == "trace":
        sys.exit(trace_main(rest[0], rest[1:]))
    elif mode == "count":
        sys.exit(count_main(rest[0], rest[1:]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
