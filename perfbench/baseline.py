"""Run every workload on several seeds and summarise its metrics.

    python3 perfbench/baseline.py --seeds 1-10 --trace-seeds 1-5 [--seconds S] \
        [--out perfbench/baseline.json]

For each workload it runs `run.py --trace 0` once per seed of --seeds and
`run.py --trace 1` once per seed of --trace-seeds.  For every metric it
prints the median, the quartiles (as `statistics.quantiles(values, n=4)`
gives them) and the spread, the interquartile distance as a share of the
median; end-to-end metrics are printed next to their bound from
BENCHMARK.json.  Traced runs add the share of the traced wall time that
the layer spans account for.  With --out it also writes all of it as
JSON, with each seed's output digest, which a change that must not alter
outputs can compare against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(name: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict] | None:
    """(metrics, report line) of one run.py run, None if it failed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode or not result.get("correct"):
        print(f"{name} seed {seed} trace {trace}: failed\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    report = next(l for l in lines if l.startswith("report "))
    return result["metrics"], json.loads(report[len("report "):])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace-seeds", type=seeds, default=seeds("1-5"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    layer_names = [m["name"] for m in bench["per_layer"]]
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]

    summary, ok = {}, True
    for name in names:
        entry: dict = {"outputs_sha256": {}, "end_to_end": {}, "per_layer": {}}
        for trace, seed_list, metric_names in (
            (0, args.seeds, list(bounds)), (1, args.trace_seeds, layer_names),
        ):
            runs = []
            for seed in seed_list:
                got = run_one(name, seed, seconds, trace)
                if got is None:
                    ok = False
                    continue
                runs.append(got)
                if not trace:
                    entry["outputs_sha256"][seed] = got[1]["outputs_sha256"]
            if len(runs) < 2:
                continue
            key = "per_layer" if trace else "end_to_end"
            for metric in metric_names:
                s = summarise([m[metric]["value"] for m, _ in runs])
                entry[key][metric] = {"unit": runs[0][0][metric]["unit"], **s}
                bound = f"  bound {bounds[metric]}" if metric in bounds else ""
                print(f"{name:12s} {metric:36s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}"
                      f"  q3 {s['q3']:12.6g}  spread {s['spread']:.3f}{bound}")
            if trace:
                share = summarise([r["accounted_share"] for _, r in runs])
                entry["accounted_share"] = share
                print(f"{name:12s} {'accounted_share':36s} median {share['median']:12.6g}")
        summary[name] = entry
    if args.out:
        Path(args.out).write_text(
            json.dumps({"seeds": args.seeds, "trace_seeds": args.trace_seeds,
                        "seconds": seconds, "workloads": summary}, indent=2) + "\n",
            encoding="utf-8",
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
