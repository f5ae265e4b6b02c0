import ast
import gc
import gzip
import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

import reference
from coocstat import corpus as corpus_module
from coocstat.corpus import (
    ADJ,
    ADV,
    NOUN,
    OTHER,
    PUNCT,
    VERB,
    CorpusParseError,
    map_pos,
    read_corpus,
    sorted_unique,
)
from conftest import TOY_PATHS

SRC = Path(__file__).resolve().parents[1] / "src" / "coocstat"

SIMPLE = """\
# a comment line
The\tthe\tDET
cat\tcat\tNOUN
sat\tsit\tVERB
down\tdown\tADV
.\t.\tPUNCT

Dogs\tdog\tNN1
bark\tbark\tVVB
loudly\tloudly\tAV0
at\tat\tPRP
night\tnight\tNN1
,\t,\tPUN
sometimes\tsometimes\tAV0
.\t.\tPUN
"""


def write(tmp_path, text, name="corpus.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestMapPos:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("NN1", NOUN),
            ("NN2", NOUN),
            ("NP0", NOUN),
            ("VERB", VERB),
            ("VVD", VERB),
            ("VM0", VERB),
            ("AJ0", ADJ),
            ("ADJ", ADJ),
            ("AV0", ADV),
            ("ADV", ADV),
            ("PUN", PUNCT),
            ("PUNCT", PUNCT),
            ("AT0", OTHER),
            ("DET", OTHER),
            ("ZZ", OTHER),
            ("", OTHER),
            ("nn1", NOUN),  # case-insensitive
        ],
    )
    def test_mapping(self, raw, expected):
        assert map_pos(raw) == expected

    def test_total_and_deterministic(self):
        for tag in ("XYZ", "??", "123", "QQQ"):
            assert map_pos(tag) == map_pos(tag)


class TestReadCorpus:
    def test_basic_parse(self, tmp_path):
        stream = read_corpus(write(tmp_path, SIMPLE), min_len=1)
        sentences = list(stream)
        assert len(sentences) == 2
        assert stream.n_yielded == 2
        assert [s.id for s in sentences] == [0, 1]
        first = sentences[0]
        assert [t.lemma for t in first.tokens] == ["the", "cat", "sit", "down", "."]
        assert [t.pos for t in first.tokens] == [OTHER, NOUN, VERB, ADV, PUNCT]

    def test_lemma_case_folded(self, tmp_path):
        text = "Man\tMan\tNOUN\n\n" * 3
        sentences = list(read_corpus(write(tmp_path, text), min_len=1))
        assert all(s.tokens[0].lemma == "man" for s in sentences)

    def test_length_filter_counts_content_tokens(self, tmp_path):
        # 6 tokens, but 2 are punctuation: only 4 content tokens -> excluded.
        text = (
            "a\ta\tNOUN\nb\tb\tNOUN\nc\tc\tNOUN\nd\td\tNOUN\n"
            ",\t,\tPUNCT\n.\t.\tPUNCT\n\n"
        )
        assert list(read_corpus(write(tmp_path, text), min_len=5)) == []
        kept = list(read_corpus(write(tmp_path, text), min_len=4))
        assert len(kept) == 1

    def test_min_len_boundary(self, tmp_path):
        lines = []
        for n in (4, 5, 9):
            lines.extend(f"w{i}\tw{i}\tNOUN\n" for i in range(n))
            lines.append("\n")
        stream = read_corpus(write(tmp_path, "".join(lines)), min_len=5)
        kept = list(stream)
        assert len(kept) == 2
        assert stream.n_yielded == 2
        assert [s.id for s in kept] == [0, 1]

    def test_min_len_one_keeps_everything(self, tmp_path):
        path = write(tmp_path, SIMPLE)
        assert len(list(read_corpus(path, min_len=1))) == 2

    def test_ids_dense_after_filtering(self, tmp_path):
        text = (
            "a\ta\tNOUN\n\n"  # too short
            + "w1\tw1\tNOUN\n" * 6
            + "\n"
            + "b\tb\tNOUN\n\n"  # too short
            + "w2\tw2\tNOUN\n" * 6
            + "\n"
        )
        kept = list(read_corpus(write(tmp_path, text), min_len=5))
        assert [s.id for s in kept] == [0, 1]

    def test_malformed_line_reports_line_number(self, tmp_path):
        text = "good\tgood\tNOUN\nbad line without tabs\n\n"
        with pytest.raises(CorpusParseError, match="line 2"):
            list(read_corpus(write(tmp_path, text), min_len=1))

    def test_empty_lemma_rejected(self, tmp_path):
        text = "x\t\tNOUN\n\n"
        with pytest.raises(CorpusParseError, match="line 1"):
            list(read_corpus(write(tmp_path, text), min_len=1))

    def test_min_len_validation(self, tmp_path):
        with pytest.raises(ValueError):
            read_corpus(write(tmp_path, SIMPLE), min_len=0)

    def test_reread_is_identical(self, tmp_path):
        path = write(tmp_path, SIMPLE)
        first = list(read_corpus(path, min_len=1))
        second = list(read_corpus(path, min_len=1))
        assert first == second

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "corpus.tsv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(SIMPLE)
        assert len(list(read_corpus(str(path), min_len=1))) == 2

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
    def test_monotone_in_min_len(self, a, b):
        # sentences(b) is a subset of sentences(a) whenever a <= b
        a, b = min(a, b), max(a, b)
        path = _prop_corpus()
        lemmas = lambda sents: [tuple(t.lemma for t in s.tokens) for s in sents]
        loose = lemmas(read_corpus(path, a))
        strict = lemmas(read_corpus(path, b))
        assert set(strict) <= set(loose)


def test_read_corpus_peak_is_compact(tmp_path):
    # Key ids go to a C-int array and sentences are filtered through a
    # uint8 mask summed in int32: about 10.3 bytes per token at the peak on
    # this corpus, where a list slot per token and int64 running counts
    # took 27, and an int64 sum of the mask 14.5.
    rng = random.Random(7)
    pos = (NOUN, VERB, ADJ, ADV, "DET", PUNCT)
    lines = [f"w{i}\tl{i}\t{rng.choice(pos)}\n" for i in range(60)]
    text, n_tokens = [], 0
    while n_tokens < 200_000:
        n = rng.randint(1, 40)
        text += rng.choices(lines, k=n) + ["\n"]
        n_tokens += n
    path = write(tmp_path, "".join(text))
    del text
    gc.collect()
    tracemalloc.start()
    try:
        corpus = read_corpus(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert corpus.skipped and len(corpus)  # the filter drops some sentences
    assert peak / n_tokens <= 11


def _same_corpus(got, want) -> None:
    assert got.keys == want.keys
    for name in ("token_ids", "offsets", "sentence_ids"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.skipped == want.skipped


def _outcome(path: str, min_len: int):
    """The corpus of `path`, or the message of the error reading it."""
    try:
        return read_corpus(path, min_len)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
def test_block_edges_leave_the_corpus_as_one_read_gives_it(tmp_path, monkeypatch, block):
    # At these sizes every line, and every `\r\n` of the `\r\n` copy,
    # is cut by some block edge, and the bad line is in a later block.
    data = Path(TOY_PATHS["corpus"]).read_bytes()
    lines = data.splitlines(keepends=True)
    copies = {
        "toy": data,
        "crlf": data.replace(b"\n", b"\r\n"),
        "cr": data.replace(b"\n", b"\r"),
        "bad-line": b"".join(lines[:700] + [b"x\ty z\tNOUN\n"] + lines[700:]),
        "bad-byte": b"".join(lines[:700] + [b"x\t\xc3\tNOUN\n"] + lines[700:]),
    }
    copies["bad-byte-cr"] = copies["bad-byte"].replace(b"\n", b"\r")
    paths = {}
    for name, copy in copies.items():
        paths[name] = tmp_path / name
        paths[name].write_bytes(copy)
    want = {(name, n): _outcome(str(path), n) for name, path in paths.items() for n in (1, 5)}
    assert want["bad-line", 1] == f"{paths['bad-line']} line 701: lemma contains whitespace: 'y z'"
    for name in ("bad-byte", "bad-byte-cr"):
        assert want[name, 1] == (
            f"{paths[name]} line 701: 'utf-8' codec can't decode byte 0xc3 in position 2: "
            "invalid continuation byte"
        )
    monkeypatch.setattr(corpus_module, "_BLOCK", block)
    for (name, min_len), expected in want.items():
        got = _outcome(str(paths[name]), min_len)
        if isinstance(expected, str):
            assert got == expected
        else:
            _same_corpus(got, expected)
            _same_corpus(got, want["toy", min_len])


SPACES = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]  # 29 of them


@pytest.mark.parametrize("space", SPACES, ids=lambda ch: f"U+{ord(ch):04X}")
def test_lemma_with_whitespace_fails_as_the_reference_does(tmp_path, space):
    # A tab, `\n` or `\r` in a lemma field cuts the field or the line, so
    # the line fails for its field count instead.
    path = write(tmp_path, f"a\ta\tNOUN\nx\tp{space}q\tNOUN\n\n")
    with pytest.raises(reference.ReferenceParseError) as want:
        list(reference.SentenceStream(path, 1))
    with pytest.raises(CorpusParseError) as got:
        read_corpus(path, 1)
    assert str(got.value) == f"{path} {want.value}"
    if space not in "\t\n\r":
        assert str(got.value) == f"{path} line 2: lemma contains whitespace: {'p' + space + 'q'!r}"


_PROP_PATH = None


def _prop_corpus() -> str:
    global _PROP_PATH
    if _PROP_PATH is None:
        import tempfile

        text = ""
        for n in (1, 3, 5, 6, 8):
            text += "".join(f"t{n}_{i}\tt{n}_{i}\tNOUN\n" for i in range(n)) + "\n"
        fd, _PROP_PATH = tempfile.mkstemp(suffix=".tsv")
        with open(fd, "w", encoding="utf-8") as out:
            out.write(text)
    return _PROP_PATH


# -- sorted_unique -------------------------------------------------------------

_INT64 = st.integers(min_value=np.iinfo(np.int64).min, max_value=np.iinfo(np.int64).max)


@given(st.one_of(
    hnp.arrays(np.int64, st.integers(0, 200), elements=_INT64),
    # heavy repeats
    hnp.arrays(np.int64, st.integers(0, 200), elements=st.integers(-3, 3)),
))
@example(np.array([], dtype=np.int64))
@example(np.array([5], dtype=np.int64))
@example(np.array([2, 2, 2, 2], dtype=np.int64))
def test_sorted_unique_equals_np_unique(codes):
    before = codes.copy()
    out = sorted_unique(codes)
    expected = np.unique(codes)
    assert out.dtype == expected.dtype
    assert np.array_equal(out, expected)
    assert np.array_equal(codes, before)  # the input is left as it was


def _hash_table_calls(tree: ast.AST) -> list[str]:
    """`np.union1d` calls, and `np.unique` calls without a ``return_*``
    keyword: both take NumPy's hash-table path (NumPy >= 2.3)."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        name = node.func.attr
        flags = [k.arg for k in node.keywords if k.arg and k.arg.startswith("return_")]
        if name == "union1d" or (name == "unique" and not flags):
            found.append(f"line {node.lineno}: {ast.unparse(node.func)}")
    return found


def test_guard_spots_hash_table_calls():
    code = "np.unique(x)\nnp.union1d(a, b)\nnp.unique(x, return_index=True)\n"
    assert _hash_table_calls(ast.parse(code)) == ["line 1: np.unique", "line 2: np.union1d"]


def test_no_hash_table_unique_in_the_package():
    # Dedupe integer codes with `sorted_unique` instead.
    offenders = [
        f"{path.name} {call}"
        for path in sorted(SRC.rglob("*.py"))
        for call in _hash_table_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []
