"""Output checks against the generators' own data, and output digests.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from gen import CONTENT_POS, CountDir, Corpus

ALPHA = 0.01  # the program's default --alpha
SAMPLE = 200  # pairs recounted per check


def digest(out_dir: Path) -> str:
    """SHA-256 over every output file but the path-bearing manifest."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        if path.name == "manifest.json":
            continue
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def _read_tsv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as handle:
        handle.readline()
        return [line.rstrip("\n").split("\t") for line in handle]


def _events_of(path: Path, keys: set[tuple[str, ...]]) -> dict[tuple[str, ...], list]:
    events: dict[tuple[str, ...], list] = {k: [] for k in keys}
    for f in _read_tsv(path):
        key = tuple(f[:4])
        if key in events:
            events[key].append((int(f[4]), int(f[5]), int(f[6])))
    return events


def check_counts(corpus: Corpus, obs_dir: Path, seed: int) -> list[str]:
    """Recount a seeded sample of pairs by brute force over the generated
    sentences and compare with observations.tsv and events.tsv."""
    rows = _read_tsv(obs_dir / "observations.tsv")
    n_kept = int(corpus.kept.sum())
    errors = [f"observations.tsv: n={r[9]}, expected {n_kept}" for r in rows[:1] if int(r[9]) != n_kept]
    # Every sampled control pair co-occurs at least once by construction.
    errors += [f"UNR pair {r[:2]} never co-occurs" for r in rows if r[3] == "UNR" and r[5] == "0"][:5]
    if not rows:
        return errors + ["observations.tsv has no pairs"]

    # The pairs with most co-occurrences, where repeated lemmas make first
    # occurrences matter, plus a seeded uniform sample of the rest.
    by_cooc = sorted(range(len(rows)), key=lambda i: -int(rows[i][5]))
    rng = np.random.default_rng([seed, 9])
    rest = by_cooc[SAMPLE // 4:]
    picks = by_cooc[: SAMPLE // 4] + [rest[i] for i in rng.choice(
        len(rest), min(SAMPLE - SAMPLE // 4, len(rest)), replace=False)]
    sample = [rows[i] for i in picks]
    events = _events_of(obs_dir / "events.tsv", {tuple(r[:4]) for r in sample})
    lemma_id = {w: i for i, w in enumerate(corpus.lemmas)}
    kept_rank = np.cumsum(corpus.kept) - 1

    def first_occurrences(lemma: str, pos: str) -> tuple[np.ndarray, np.ndarray]:
        key = lemma_id[lemma] * 4 + CONTENT_POS.index(pos)
        idx = np.flatnonzero(corpus.keys == key)
        sent = np.searchsorted(corpus.offsets, idx, side="right") - 1
        uniq, first = np.unique(sent, return_index=True)
        keep = corpus.kept[uniq]
        return kept_rank[uniq[keep]], (idx[first] - corpus.offsets[uniq])[keep]

    for r in sample:
        (sw, pw), (sv, pv) = first_occurrences(r[0], r[2]), first_occurrences(r[1], r[2])
        both, iw, iv = np.intersect1d(sw, sv, assume_unique=True, return_indices=True)
        n_w, n_v, n_wv = len(sw), len(sv), len(both)
        table = [n_wv, n_w - n_wv, n_v - n_wv, n_kept - n_w - n_v + n_wv, n_kept]
        if [int(x) for x in r[5:10]] != table:
            errors.append(f"pair {r[:4]}: table {r[5:10]}, recounted {table}")
        expect = list(zip(both.tolist(), pw[iw].tolist(), pv[iv].tolist()))
        if events[tuple(r[:4])] != expect:
            errors.append(f"pair {r[:4]}: events differ from the recount")
    return errors


def _binom_p_half(k: int, m: int) -> float:
    """Exact two-sided binomial p-value at p0 = 1/2."""
    if 2 * k == m:
        return 1.0
    total, coeff = 0, 1
    for i in range(min(k, m - k) + 1):
        total += coeff
        coeff = coeff * (m - i) // (i + 1)
    return min(1.0, 2 * total / (1 << m))


def check_stats(cd: CountDir, stats_path: Path, seed: int) -> list[str]:
    """Recompute n_cooc, order preference, order score and mean distance of
    sampled pairs from the synthesized events; compare with stats.tsv."""
    by_key = {tuple(f[:4]): f for f in _read_tsv(stats_path)}
    if len(by_key) != len(cd.w):
        return [f"stats.tsv has {len(by_key)} pairs, expected {len(cd.w)}"]
    errors = []
    # A uniform sample, plus pairs past the program's exact-binomial limit
    # of 1024 events, where its p-values come from the incomplete beta.
    rng = np.random.default_rng([seed, 9])
    m_all = np.diff(cd.ev_start)
    large = np.flatnonzero((m_all > 1024) & (m_all <= 8192))
    picks = rng.choice(len(cd.w), min(SAMPLE, len(cd.w)), replace=False).tolist()
    picks += rng.choice(large, min(SAMPLE // 8, len(large)), replace=False).tolist()
    for i in picks:
        f = by_key.get((cd.w[i], cd.v[i], cd.pos[i], cd.rel[i]))
        if f is None:
            errors.append(f"pair {cd.w[i]} {cd.v[i]} missing from stats.tsv")
            continue
        lo, hi = int(cd.ev_start[i]), int(cd.ev_start[i + 1])
        pw, pv = cd.ev_pw[lo:hi].tolist(), cd.ev_pv[lo:hi].tolist()
        m = hi - lo
        if int(f[10]) != m:
            errors.append(f"pair {f[:4]}: n_cooc {f[10]}, expected {m}")
            continue
        if m == 0:
            if (f[6], f[7], f[8], f[9]) != ("0.0", "0", "", ""):
                errors.append(f"pair {f[:4]}: order/distance set without co-occurrences")
            continue
        k = sum(1 for a, b in zip(pw, pv) if a < b)
        p = _binom_p_half(k, m)
        dist = sum(abs(a - b) - 1 for a, b in zip(pw, pv)) / m
        if abs(float(f[8]) - p) > 1e-6 * max(p, 1e-300):
            errors.append(f"pair {f[:4]}: order_p {f[8]}, expected {p!r}")
        if float(f[9]) != dist:
            errors.append(f"pair {f[:4]}: mean_dist {f[9]}, expected {dist!r}")
        if abs(p - ALPHA) < 1e-6 * ALPHA:
            continue  # preference too close to the threshold to call
        preferred = p < ALPHA
        score = (2 * k - m) / m if preferred else 0.0
        if f[7] != ("1" if preferred else "0") or float(f[6]) != score:
            errors.append(f"pair {f[:4]}: order {f[6]}/{f[7]}, expected {score!r}/{preferred}")
    return errors


def check_report(report_dir: Path) -> list[str]:
    return [
        f"{name} missing"
        for name in [f"table{i}.csv" for i in range(1, 7)] + ["comparisons.csv"]
        if not (report_dir / name).is_file()
    ]
