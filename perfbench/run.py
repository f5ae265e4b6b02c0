"""Benchmark driver for coocstat.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The driver generates the workload's inputs
from the seed, then runs the unmodified program (`python -m coocstat.cli`
with `PYTHONPATH=src`) as child processes, one at a time, repeating the
whole workload until S seconds have been measured.

--trace 0 prints the end-to-end metrics (medians over repetitions):
set-up time and wall time, both at a fixed reference speed (see
`Reference`), and peak RSS; the raw times, tokens per second on the
corpus workloads and the failed share of runs are printed beside them.
--trace 1 runs the workload once untraced, then repeats it through
`inproc.py trace`, which runs the same CLI with a span around each
library call, and prints per-layer self times and counts.

Every repetition's outputs are checked: the first against a brute-force
recount from the generator's data, later ones by SHA-256 against the
first.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the exit code is non-zero
when any run or check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import check
from workloads import WORKLOADS, Inputs, Workload

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0  # the whole run, including generation
# End-to-end times are reported in seconds at the speed where one
# `Reference` run takes this long (about its time on a quiet 2-core Xeon
# VM); see `Reference`.
REFERENCE_S = 0.3

# Per-layer metrics of the traced run, in output order: (metric, span
# names, what).  `self` sums the self times of the named spans,
# `count:<key>` sums a count they carry, `max:<key>` takes its largest
# value; None marks a metric computed in `layer_values` or `run`.  Every
# span `inproc.py trace` records is named here, so time outside all of
# them is only interpreter start-up and exit (`trace.unaccounted_s`).
LAYER_METRICS = (
    ("cli.import_s", ("cli.import",), "self"),
    ("cli.glue_s", ("cli.main",), "self"),
    ("corpus.read_s", ("corpus.read", "corpus.read_corpus"), "self"),
    ("corpus.tokens", ("corpus.read",), "count:tokens"),
    ("corpus.sentences", ("corpus.read",), "count:sentences"),
    ("corpus.sentences_skipped", None, None),
    ("counting.scan_freqs_s", ("counting.scan_freqs",), "self"),
    ("counting.scan_universe_s", ("counting.scan_universe",), "self"),
    ("counting.universe_pairs", ("counting.scan_universe",), "count:universe_pairs"),
    ("counting.scan_universe_peak_rss_mb", ("counting.scan_universe",), "max:peak_rss_mb"),
    ("counting.count_sharded_s", ("counting.count_sharded",), "self"),
    ("counting.count_s", None, None),
    ("counting.pairs", ("counting.count_sharded",), "count:pairs"),
    ("counting.events", ("counting.count_sharded",), "count:events"),
    ("counting.write_observations_s", ("counting.write_observations",), "self"),
    ("counting.read_observations_s", ("counting.read_observations",), "self"),
    ("counting.lemma_freqs_io_s",
     ("counting.write_lemma_freqs", "counting.read_lemma_freqs"), "self"),
    ("lexicon.load_s",
     ("lexicon.load_lexicon", "lexicon.load_verb_classes", "lexicon.apply_verb_class_flags",
      "lexicon.filter_pairs", "lexicon.load_lemma_attrs", "lexicon.lemma_meta_from_entries",
      "lexicon.load_derivations"), "self"),
    ("lexicon.pairs_kept", ("lexicon.filter_pairs",), "count:pairs_kept"),
    ("lexicon.build_pairs_s",
     ("lexicon.orient_pairs", "lexicon.related_pair_set", "lexicon.derived_pairs"), "self"),
    ("lexicon.sample_unrelated_s", ("lexicon.sample_unrelated",), "self"),
    ("lexicon.sample_peak_rss_mb", ("lexicon.sample_unrelated",), "max:peak_rss_mb"),
    ("lexicon.pairs_io_s",
     ("lexicon.write_pairs", "lexicon.read_pairs", "lexicon.write_derived_map",
      "lexicon.read_derived_map"), "self"),
    ("metrics.compute_all_stats_s", ("metrics.compute_all_stats",), "self"),
    ("metrics.write_pair_stats_s", ("metrics.write_pair_stats",), "self"),
    ("metrics.read_pair_stats_s", ("metrics.read_pair_stats",), "self"),
    ("report.compare_all_s", ("report.compare_all",), "self"),
    ("report.write_report_s", ("report.write_report",), "self"),
    ("trace.unaccounted_s", None, None),
    ("trace.overhead_s", None, None),
)


@dataclass
class Proc:
    ok: bool
    wall: float
    rss_mb: float
    cpu_s: float
    note: str = ""


@dataclass
class Rep:
    ok: bool
    wall: float = 0.0
    rss_mb: float = 0.0
    cpu_s: float = 0.0
    procs: list[Proc] = field(default_factory=list)
    digest: str = ""
    spans: list[list[dict]] = field(default_factory=list)  # per process, traced only
    out: Path | None = None


class Runner:
    """Starts children one at a time with a fresh environment per repetition."""

    def __init__(self, root: Path, work: Path, deadline: float) -> None:
        self.root = root
        self.work = work
        self.deadline = deadline
        self.ref: Reference | None = None  # timed after every child while set
        self.n_rep = 0
        self.check_s = 0.0

    def fresh(self) -> tuple[Path, dict]:
        """A new repetition directory with its own TMPDIR, HOME and cache."""
        self.n_rep += 1
        rep = self.work / f"rep{self.n_rep}"
        env = dict(os.environ)
        env.pop("COOCSTAT_THREADS", None)
        env["PYTHONPATH"] = str(self.root / "src")
        for var, sub in (("TMPDIR", "tmp"), ("HOME", "home"), ("XDG_CACHE_HOME", "cache")):
            (rep / sub).mkdir(parents=True)
            env[var] = str(rep / sub)
        return rep, env

    def spawn(self, argv: list[str], rep: Path, env: dict) -> Proc:
        log = rep / "log"
        log.mkdir(exist_ok=True)
        n = len(list(log.iterdir()))
        timeout = self.deadline - time.monotonic()
        if timeout <= 1:
            return Proc(False, 0.0, 0.0, 0.0, "out of time")
        err_path = log / f"{n}.err"
        with open(log / f"{n}.out", "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=rep, env=env, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        ok = proc.returncode == 0 and "Traceback (most recent call last)" not in stderr
        note = "" if ok else f"exit {proc.returncode}: {' '.join(argv[1:4])}\n{stderr[-2000:]}"
        if self.ref:
            self.ref()
        return Proc(ok, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, note)

    def rep(self, argvs: list[list[str]], rep: Path, env: dict) -> Rep:
        """One repetition; its wall time is the sum of its children's."""
        procs = []
        for argv in argvs:
            procs.append(self.spawn(argv, rep, env))
            if not procs[-1].ok:
                return Rep(False, procs=procs)
        return Rep(True, sum(p.wall for p in procs), max(p.rss_mb for p in procs),
                   sum(p.cpu_s for p in procs), procs)


class Reference:
    """A fixed task the driver times after every child it starts.

    The shared host this runs on slows every process on it, for stretches
    of seconds to minutes, by up to twofold; a whole run can fall into
    one.  `setup_s` and `wall_s` are therefore given at a fixed reference
    speed: the median probe or repetition wall time, times REFERENCE_S
    over the median time of the reference taken in the same stretch.
    That cancels the drift, so they move only when the program's own work
    changes.  The reference (`reference.py`) runs in a fresh process like
    the program's children (interpreter start, numpy import, parsing tab-
    separated lines, dict counting, sorting, writing a file), so it slows
    with them, and each sample gets its own hash seed and memory layout.
    It is part of the benchmark, so no change to the program moves it."""

    def __init__(self, work: Path) -> None:
        rng = random.Random(7)
        words = [f"w{i}" for i in range(15_000)]
        self.text = work / "reference.tsv"
        self.out = work / "reference.out"
        work.mkdir(parents=True, exist_ok=True)
        self.text.write_text("".join(f"{i}\t{w}\t{w}\tNOUN\n"
                                     for i, w in enumerate(rng.choices(words, k=40_000))),
                             encoding="utf-8")
        self.argv = [sys.executable, str(HERE / "reference.py"), str(self.text), str(self.out)]
        self.times: list[float] = []
        self()  # warm-up, not kept
        self.times.clear()

    def __call__(self) -> None:
        t0 = time.perf_counter()
        subprocess.run(self.argv, check=True, timeout=60,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.times.append(time.perf_counter() - t0)


def cli_argv(step: list[str]) -> list[str]:
    return [sys.executable, "-m", "coocstat.cli", *step]


def inproc_argv(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "inproc.py"), *args]


class SetupProbe:
    """Times the set-up of every step of the workload: each step's argv in
    a fresh `inproc.py setup` process, which runs the CLI up to its first
    read of the corpus or an intermediate file.  One probe is the summed
    wall time of those processes."""

    def __init__(self, runner: Runner, wl: Workload, inp: Inputs, seed: int) -> None:
        self.runner, self.wl, self.inp, self.seed = runner, wl, inp, seed
        self.walls: list[float] = []
        self.attempted = self.failed = 0
        self.notes: list[str] = []

    def __call__(self, timed: bool = True) -> None:
        rep_dir, env = self.runner.fresh()
        out = rep_dir / "out"
        out.mkdir()
        self.attempted += 1
        total = 0.0
        for step in self.wl.steps(self.inp, out, self.seed):
            p = self.runner.spawn(inproc_argv("setup", *step), rep_dir, env)
            if not p.ok:
                self.failed += 1
                self.notes.append(p.note)
                return
            total += p.wall
        shutil.rmtree(rep_dir)
        if timed:
            self.walls.append(total)


def measure_reps(runner, wl, inp, seed, seconds, first_digest, traced=False, probe=None):
    """Repeat the workload for `seconds` (at least once), calling `probe`
    before each repetition so set-up is timed in the same stretch of the
    run; returns the repetitions, failure notes, and the digest later
    outputs must match."""
    reps, notes = [], []
    start = time.monotonic()
    while not reps or time.monotonic() - start < seconds:
        last = max((r.wall for r in reps if r.ok), default=0.0)
        if reps and time.monotonic() + 1.5 * last > runner.deadline:
            break
        for _ in range(wl.setup_probes_per_rep if probe else 0):
            probe()
        rep_dir, env = runner.fresh()
        out = rep_dir / "out"
        out.mkdir()
        steps = wl.steps(inp, out, seed)
        if traced:
            argvs = [inproc_argv("trace", str(rep_dir / f"spans{i}.json"), *s)
                     for i, s in enumerate(steps)]
        else:
            argvs = [cli_argv(s) for s in steps]
        r = runner.rep(argvs, rep_dir, env)
        if r.ok:
            r.digest = check.digest(out)
            if first_digest is None:
                t0 = time.perf_counter()
                try:
                    errors = wl.check(inp, out, seed)
                except (ValueError, KeyError, IndexError, OSError) as exc:
                    errors = [f"malformed output: {exc!r}"]
                runner.check_s += time.perf_counter() - t0
                if errors:
                    r.ok = False
                    notes.append("output check failed:\n  " + "\n  ".join(errors[:10]))
                first_digest = r.digest
            elif r.digest != first_digest:
                r.ok = False
                notes.append(f"outputs differ from the first repetition: {r.digest}")
        else:
            notes.extend(p.note for p in r.procs if not p.ok)
        if traced and r.ok:
            r.spans = [json.loads((rep_dir / f"spans{i}.json").read_text())["spans"]
                       for i in range(len(steps))]
            r.out = out
        reps.append(r)
        if not r.ok:
            break
        if not traced:
            shutil.rmtree(rep_dir)
    return reps, notes, first_digest


def self_times(spans: list[dict]) -> dict:
    """Per-span self time: its duration minus its children's durations."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child[s["id"]] for s in spans}


def layer_values(procs: list[tuple[float, list[dict]]], file_sentences: int) -> dict:
    """Per-layer metrics of one traced repetition: (child wall, spans) pairs."""
    by_name: dict[str, list[tuple[float, dict]]] = defaultdict(list)
    total = 0.0
    for wall, spans in procs:
        own = self_times(spans)
        total += wall
        for s in spans:
            by_name[s["name"]].append((own[s["id"]], s["counts"]))
    values, accounted = {}, 0.0
    for metric, names, what in LAYER_METRICS:
        if what is None:
            continue
        items = [item for name in names for item in by_name.get(name, [])]
        if what == "self":
            values[metric] = sum(t for t, _ in items)
            accounted += values[metric]
        elif what.startswith("count:"):
            values[metric] = sum(c.get(what[6:], 0) for _, c in items)
        else:
            values[metric] = max((c.get(what[4:], 0.0) for _, c in items), default=0.0)
    passes = len(by_name.get("corpus.read", []))
    values["corpus.sentences_skipped"] = passes * file_sentences - values["corpus.sentences"]
    values["trace.total_s"] = total
    values["trace.unaccounted_s"] = total - accounted
    unnamed = set(by_name) - {n for _, names, _ in LAYER_METRICS for n in names or ()}
    if unnamed:
        raise ValueError(f"spans without a per-layer metric: {sorted(unnamed)}")
    return values


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    head = Path(".git/HEAD")
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = Path(".git") / ref[5:]
            sha = ref_path.read_text().strip() if ref_path.is_file() else ref
        else:
            sha = ref
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git": sha,
    }


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run(wl: Workload, seed: int, seconds: int, trace: bool, root: Path, work: Path) -> tuple[dict, dict]:
    runner = Runner(root, work, time.monotonic() + DEADLINE_S)
    report = {"workload": wl.name, "seed": seed, "env": environment()}
    t0 = time.perf_counter()
    inp: Inputs = wl.generate(seed, work / "inputs")
    report["generate_s"] = time.perf_counter() - t0
    attempted, failed, notes = 0, 0, []

    # The first probe also writes bytecode caches, so it is not timed.
    probe = SetupProbe(runner, wl, inp, seed)
    probe(timed=False)
    runner.ref = Reference(work / "reference")
    reps, rep_notes, digest = measure_reps(
        runner, wl, inp, seed, 0 if trace else seconds, None, probe=None if trace else probe
    )
    ref_times, runner.ref = runner.ref.times, None
    notes += probe.notes + rep_notes
    good = [r for r in reps if r.ok]
    attempted += probe.attempted + len(reps)
    failed += probe.failed + len(reps) - len(good)
    wall = median([r.wall for r in good])
    report.update(
        reps=len(reps), input_rows=inp.rows, outputs_sha256=digest,
        wall_raw_s=wall, setup_raw_s=median(probe.walls),
        rep_walls_s=[round(r.wall, 4) for r in good],
        ref_s=median(ref_times), ref_samples=len(ref_times),
        setup_walls_s=[round(w, 4) for w in probe.walls],
        cpu_s=median([r.cpu_s for r in good]),
        per_step_wall_s=[round(p.wall, 4) for p in good[0].procs] if good else [],
    )
    if inp.file_sentences and wall:
        report["tokens_per_s"] = inp.rows / wall
    scale = REFERENCE_S / median(ref_times) if ref_times else 0.0
    metrics = {
        "setup_s": (median(probe.walls) * scale, "s"),
        "wall_s": (wall * scale, "s"),
        "peak_rss_mb": (median([r.rss_mb for r in good]), "MB"),
    }

    if trace and good:
        traced, t_notes, _ = measure_reps(runner, wl, inp, seed, seconds, digest, traced=True)
        notes += t_notes
        attempted += len(traced)
        failed += sum(1 for r in traced if not r.ok)
        per_rep = [
            layer_values([(p.wall, s) for p, s in zip(r.procs, r.spans)], inp.file_sentences)
            for r in traced if r.ok
        ]
        last = next((r for r in reversed(traced) if r.ok), None)
        count_args = wl.count_args(inp, last.out) if last else None
        count_s = []
        if count_args:
            rep_dir, env = runner.fresh()
            p = runner.spawn(inproc_argv("count", str(rep_dir / "spans.json"), *count_args),
                             rep_dir, env)
            attempted += 1
            if p.ok:
                spans = json.loads((rep_dir / "spans.json").read_text())["spans"]
                own = self_times(spans)
                count_s.append(sum(own[s["id"]] for s in spans if s["name"] == "counting.count"))
            else:
                failed += 1
                notes.append(p.note)
        layer = {}
        for key in per_rep[0] if per_rep else ():
            layer[key] = median([v[key] for v in per_rep])
        layer["counting.count_s"] = median(count_s)
        total = layer.get("trace.total_s", 0.0)
        layer["trace.overhead_s"] = total - wall
        report.update(traced_reps=len(traced), traced_total_s=total,
                      accounted_share=1 - layer.get("trace.unaccounted_s", 0.0) / total if total else 0.0)
        metrics = {k: (layer.get(k, 0.0), _unit(k)) for k, _, _ in LAYER_METRICS}

    report.update(attempted=attempted, failed=failed, fail_frac=failed / attempted,
                  check_s=runner.check_s)
    report["notes"] = notes
    return report, metrics


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated driver still stops its child and removes its work tree.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "coocstat" / "cli.py").is_file():
        print("error: run from the repository root; src/coocstat/cli.py not found",
              file=sys.stderr)
        return 2
    work = root / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        report, metrics = run(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for note in report.pop("notes"):
        print(note, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    if not args.trace:
        for key in ("setup_raw_s", "wall_raw_s"):
            print(f"{key:36s} {report[key]:>16.6g} s")
    if "tokens_per_s" in report and not args.trace:
        print(f"{'tokens_per_s':36s} {report['tokens_per_s']:>16.6g} 1/s")
    print(f"{'fail_frac':36s} {report['fail_frac']:>16.6g} fraction"
          f" ({report['failed']} of {report['attempted']} runs)")
    print("report " + json.dumps(report))
    ok = report["failed"] == 0
    print(json.dumps({
        "correct": ok,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
