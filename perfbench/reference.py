"""The fixed reference task that `run.py` times after every child process.

    python perfbench/reference.py TEXT OUT

It does what the program's children do, on a fixed input: start an
interpreter, import numpy, parse tab-separated lines, count tuple keys in
a dict, sort, and write a file.  It is part of the benchmark, so no change
to the program moves its time; see `Reference` in run.py for how the
driver uses it.
"""

import sys

import numpy as np


def main(text: str, out: str) -> None:
    counts: dict = {}
    prev = None
    with open(text, encoding="utf-8") as handle:
        for line in handle:
            f = line.rstrip("\n").split("\t")
            key = (f[2], f[3])
            counts[key] = counts.get(key, 0) + 1
            if prev is not None:
                counts[prev, key] = counts.get((prev, key), 0) + 1
            prev = key
    rows = sorted(counts.items(), key=lambda kv: -kv[1])
    total = int(np.array([c for _, c in rows]).sum())
    with open(out, "w", encoding="utf-8") as handle:
        for key, c in rows[:20_000]:
            handle.write(f"{key}\t{c}\n")
        handle.write(f"{total}\n")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
