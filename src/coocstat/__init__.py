"""Sentence-level co-occurrence statistics for lemma pairs.

The toolkit reads a lemma/PoS-tagged corpus, counts how lemma pairs
co-occur within sentences, and scores each pair on three axes:

* strength -- the G2 log-likelihood-ratio association score,
* linear order -- does the more frequent lemma tend to come first,
* distance -- how many tokens separate the two lemmas.

Pair groups (e.g. different semantic relations) can then be compared
with Brunner-Munzel rank tests and summarised into tables and
distribution files.
"""

import os

# coocstat calls no BLAS routine (no `dot`, `matmul`, `linalg` or `einsum`),
# and the thread pool that NumPy's OpenBLAS starts on import costs tens of
# milliseconds per process.  Set before the first NumPy import; a value
# the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from coocstat.corpus import Corpus, LemmaKey, Sentence, Token, map_pos, read_corpus
from coocstat.counting import (
    ContingencyTable,
    CooccurrenceEvent,
    CountResult,
    PairObservations,
    count,
    merge,
)
from coocstat.lexicon import (
    DerivationLink,
    LemmaPair,
    LexiconEntry,
    derived_pairs,
    filter_pairs,
    orient_pairs,
    sample_unrelated,
)
from coocstat.metrics import (
    PairStats,
    compute_pair_stats,
    g2_score,
    mean_distance,
    order_stats,
    asymmetric_order_stats,
)
from coocstat.stats import (
    TestResult,
    binom_test_two_sided,
    brunner_munzel,
    chi2_sf,
    midranks,
)

__version__ = "0.1.0"

__all__ = [
    "Token",
    "Sentence",
    "LemmaKey",
    "Corpus",
    "read_corpus",
    "map_pos",
    "LexiconEntry",
    "LemmaPair",
    "DerivationLink",
    "filter_pairs",
    "orient_pairs",
    "sample_unrelated",
    "derived_pairs",
    "ContingencyTable",
    "CooccurrenceEvent",
    "PairObservations",
    "CountResult",
    "count",
    "merge",
    "TestResult",
    "chi2_sf",
    "binom_test_two_sided",
    "midranks",
    "brunner_munzel",
    "PairStats",
    "g2_score",
    "order_stats",
    "asymmetric_order_stats",
    "mean_distance",
    "compute_pair_stats",
]
