"""Differential tests: read_pairs against a frozen copy of its row-by-row loop.

``reference_read_pairs`` is the parser as it was when ``read_pairs`` still
returned a list of tuples. For every generated file the array parser must
give the same values (compared as bytes) or the same ParseError message.
The one intended difference: a JSON integer too large for a float made
the row loop raise OverflowError, and ``read_pairs`` raises NonFiniteInput.
A CSV file of plain ASCII numbers takes numpy's C reader and any other
file ``float()``; the 5,000-row cases check both at size, and the JSON
reader's C-speed scans and its walk to a bad row at row 4,000.

``reference_format_topk`` is likewise the ``topk`` formatter as it was when
it returned the whole output as one string; ``main`` now writes rows as it
formats them and must write the same bytes.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsums import cli
from pairsums.cli import ParseError, main, read_pairs
from pairsums.core import Direction, NonFiniteInput, top_k


def reference_read_pairs(path: str) -> list[tuple[float, float]]:
    """Frozen row loop; do not edit."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: bad JSON: {exc}")
        rows = obj.get("pairs")
        if not isinstance(rows, list):
            raise ParseError(f'{path}: JSON must carry a "pairs" list')
        for idx, row in enumerate(rows, start=1):
            ok = type(row) is list and len(row) == 2
            if not (ok and type(row[0]) in (int, float) and type(row[1]) in (int, float)):
                raise ParseError(f"{path}: row {idx}: expected [a, b] numbers, got {row!r}")
    else:
        rows = [line.split(",") for line in text.splitlines() if line.strip()]
        if rows:
            try:
                float(rows[0][0])
            except ValueError:
                rows = rows[1:]  # header line
    pairs = []
    for idx, row in enumerate(rows, start=1):
        if len(row) != 2:
            raise ParseError(f"{path}: row {idx}: expected two values, got {len(row)}")
        try:
            pairs.append((float(row[0]), float(row[1])))
        except (TypeError, ValueError):
            raise ParseError(f"{path}: row {idx}: non-numeric value in {row!r}")
    if not pairs:
        raise ParseError(f"{path}: no data rows")
    return pairs


def reference_format_topk(results, fmt: str) -> str:
    """Frozen one-string formatter; do not edit."""
    if fmt == "csv":
        lines = ["rank,sum,selection"]
        lines += [f"{r.rank},{r.sum:.17g},{r.selection_str()}" for r in results]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return (
            json.dumps(
                [
                    {"rank": r.rank, "sum": r.sum, "selection": r.selection_str()}
                    for r in results
                ],
                indent=2,
            )
            + "\n"
        )
    width = max(len(str(r.sum)) for r in results)
    lines = [f"{'rank':>6}  {'sum':>{width}}  selection"]
    lines += [f"{r.rank:>6}  {str(r.sum):>{width}}  {r.selection_str()}" for r in results]
    return "\n".join(lines) + "\n"


def outcome(fn, path):
    try:
        return fn(path)
    except (ParseError, NonFiniteInput, OverflowError) as exc:
        return exc


def assert_same_outcome(path):
    want = outcome(reference_read_pairs, path)
    got = outcome(read_pairs, path)
    if isinstance(want, OverflowError):
        assert isinstance(got, NonFiniteInput), got
    elif isinstance(want, ParseError):
        assert type(got) is ParseError, got
        assert str(got) == str(want)
    else:
        assert isinstance(got, np.ndarray), got
        assert got.dtype == np.float64
        assert got.shape == (len(want), 2)
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("read_pairs") / "input"


# -- CSV ------------------------------------------------------------------

NUMBER_TOKENS = st.one_of(
    st.floats().map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from([
        "0", "-0", "1e5", "-2.5E-3", "1_000", "1e400", "-1e400", "nan", "NaN",
        "inf", "-Infinity", "+7", ".5", "5.", "١٢",
    ]),
)
BAD_TOKENS = st.sampled_from(
    ["", "abc", "a", "0x10", "1__0", "--1", "1e", "one", "1 2", "\x00", "\u200b"]
)
PADDING = st.sampled_from(["", " ", "  ", "\t", " \t", "\xa0", "\u2003", "\u3000"])


@st.composite
def csv_tokens(draw):
    token = draw(st.one_of(NUMBER_TOKENS, NUMBER_TOKENS, NUMBER_TOKENS, BAD_TOKENS))
    return draw(PADDING) + token + draw(PADDING)


@st.composite
def csv_texts(draw):
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["a,b", "x", "a,b,c", "conf0, conf1", "1,2"])))
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "wide", "narrow"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "  \t "])))
        elif kind == "row":
            lines.append(",".join(draw(st.lists(csv_tokens(), min_size=2, max_size=2))))
        elif kind == "wide":
            lines.append(",".join(draw(st.lists(csv_tokens(), min_size=3, max_size=4))))
        else:
            lines.append(draw(csv_tokens()))
    breaks = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r", "\x0c"]),
                           min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, breaks))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n\x0c")
    return text


@settings(max_examples=400)
@given(csv_texts())
def test_csv_matches_row_loop(input_file, text):
    input_file.write_bytes(text.encode("utf-8"))
    assert_same_outcome(str(input_file))


@pytest.mark.parametrize(
    "text",
    ["", "\n\n", "a,b\n", "a,b\n1,2\n", "1,2", " 1 , 2 \r\n3,4\r\n", "1_000,2\n",
     "nan,inf\n", "1,2\n3\n", "1,2,3\n", "1,x\n4,5,6\n", "x,1\n1,x\n",
     "1,2,3\n4,5,6\n", "1,2,3\n4\n", "1\n2,3,4\n", "\xa01\u3000,\u20032\n",
     # numpy's reader strips U+001F as whitespace; float() rejects it
     "1,2\n3\x1f,4\n", "1,\x1f2\n", "a,b\x1f\n1,2\n"],
)
def test_csv_examples_match_row_loop(input_file, text):
    input_file.write_bytes(text.encode("utf-8"))
    assert_same_outcome(str(input_file))


BIG_ROWS = 5000


def big_csv_rows(replace_row=None, token=None):
    """5,000 "a,b" lines of float reprs; row ``replace_row`` (1-based) gets ``token`` first."""
    values = (np.random.default_rng(7).standard_normal((BIG_ROWS, 2)) * 1e3).tolist()
    rows = [f"{a!r},{b!r}" for a, b in values]
    if replace_row is not None:
        rows[replace_row - 1] = f"{token},{values[replace_row - 1][1]!r}"
    return rows


@pytest.mark.parametrize("rows, parses", [
    (big_csv_rows(), True),
    (big_csv_rows(4000, "1_000"), True),
    (big_csv_rows(4000, "\u0661\u0662"), True),
    (big_csv_rows(4000, "1x"), False),
    ([row + ",0" for row in big_csv_rows()], False),
    (["5"] + big_csv_rows()[1:], False),
], ids=["plain", "underscore", "arabic-indic", "bad-token", "three-fields", "one-column-first"])
def test_large_csv_matches_row_loop(input_file, rows, parses):
    input_file.write_text("\n".join(rows) + "\n")
    assert_same_outcome(str(input_file))
    assert isinstance(outcome(read_pairs, str(input_file)), np.ndarray) is parses


def test_large_csv_names_the_bad_row(input_file):
    input_file.write_text("\n".join(big_csv_rows(4000, "1x")) + "\n")
    with pytest.raises(ParseError, match=r": row 4000: non-numeric value in \['1x', "):
        read_pairs(str(input_file))


def test_plain_csv_makes_no_float_call_per_token(input_file, monkeypatch):
    # Plain ASCII numbers parse in numpy's C reader: float() runs once, for
    # the header check. A token only float() accepts sends the whole file
    # through float(), one call per token, with the same values.
    calls = []

    class CountingFloat(float):  # a type, like float, wherever code passes float on
        def __new__(cls, text):
            calls.append(text)
            return super().__new__(cls, text)

    monkeypatch.setattr(cli, "float", CountingFloat, raising=False)
    input_file.write_text("a,b\n" + "\n".join(big_csv_rows()) + "\n")
    read_pairs(str(input_file))
    assert calls == ["a"]

    calls.clear()
    input_file.write_text("a,b\n" + "\n".join(big_csv_rows(4000, "1_000")) + "\n")
    got = read_pairs(str(input_file))
    assert len(calls) == 1 + 2 * BIG_ROWS
    assert got.tobytes() == np.array(reference_read_pairs(str(input_file))).tobytes()


# -- JSON -----------------------------------------------------------------

JSON_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10**6, 10**6),
    st.integers(2**53 - 4, 2**53 + 4),
    st.integers(-10**30, 10**30),
    st.sampled_from([10**400, -(10**400), 2**1024, 2**1024 - 2**970]),
)
# Fixed strings: st.text() would build hypothesis' Unicode table on first use.
JSON_STRINGS = st.sampled_from(["", "1", "a", "1.5", "true", "١"])
JSON_JUNK = st.one_of(
    st.booleans(), st.none(), JSON_STRINGS,
    st.dictionaries(JSON_STRINGS, st.integers(0, 3), max_size=2),
    st.lists(JSON_NUMBERS, max_size=2),
)


@st.composite
def json_rows(draw):
    kind = draw(st.sampled_from(["pair"] * 8 + ["junk_value", "short", "long", "bare"]))
    if kind == "pair":
        return draw(st.lists(JSON_NUMBERS, min_size=2, max_size=2))
    if kind == "junk_value":
        row = draw(st.lists(JSON_NUMBERS, min_size=2, max_size=2))
        row[draw(st.integers(0, 1))] = draw(JSON_JUNK)
        return row
    if kind == "short":
        return draw(st.lists(JSON_NUMBERS, max_size=1))
    if kind == "long":
        return draw(st.lists(JSON_NUMBERS, min_size=3, max_size=4))
    return draw(JSON_JUNK)


@settings(max_examples=400)
@given(st.lists(json_rows(), max_size=8), st.sampled_from(["", " ", "\n  "]))
def test_json_matches_row_loop(input_file, rows, lead):
    input_file.write_text(lead + json.dumps({"pairs": rows}))
    assert_same_outcome(str(input_file))


@pytest.mark.parametrize(
    "text",
    ['{"pairs": []}', '{"rows": []}', '{"pairs": 3}', '{"pairs": [[1, 2]', "{",
     '{"pairs": [[true, 1]]}', '{"pairs": [[1, 2], [NaN, Infinity]]}',
     '{"pairs": [[1e400, 2]]}', '{"pairs": [[9007199254740993, -0.0]]}',
     '{"pairs": [[1, 2], ["3", 4]]}', '{"pairs": [[1, [2]]]}'],
)
def test_json_examples_match_row_loop(input_file, text):
    input_file.write_text(text)
    assert_same_outcome(str(input_file))


@pytest.mark.parametrize("bad_row, raises", [
    (None, None), (True, ParseError), ("1", ParseError), ([1], ParseError),
    ([1, 2, 3], ParseError), ({"a": 1}, ParseError), ([True, 1], ParseError),
    ([1, "1"], ParseError), ([10**400, 1], NonFiniteInput),
], ids=["valid", "bare-true", "bare-string", "short", "long", "object", "true-value",
        "string-value", "10**400"])
def test_large_json_matches_row_loop(input_file, bad_row, raises):
    rows = (np.random.default_rng(8).standard_normal((BIG_ROWS, 2)) * 1e3).tolist()
    if bad_row is not None:
        rows[3999] = bad_row
    input_file.write_text(json.dumps({"pairs": rows}))
    assert_same_outcome(str(input_file))
    got = outcome(read_pairs, str(input_file))
    assert type(got) is (raises or np.ndarray)
    if raises is ParseError:
        assert str(got).endswith(f": row 4000: expected [a, b] numbers, got {bad_row!r}")


def test_missing_file_matches_row_loop(tmp_path):
    assert_same_outcome(str(tmp_path / "no_such_file.csv"))


# -- end to end -----------------------------------------------------------


PAIR_SETS = {
    "uniform": [tuple(row) for row in np.random.default_rng(11).random((2000, 2)).tolist()],
    # MAX reports -0.0 sums; the table width and the JSON text must keep the sign
    "zeros": [(-0.0, 1.0), (0.0, -1.0), (-0.0, -0.0)],
    # sums whose repr has an exponent: |sum| >= 1e16 and |sum| <= 1e-5
    "huge": [(1e17, -3e-6), (2.5e-6, -4e20), (7e-7, 1.25e16)],
    "tiny": [(1e-6, 3e-6), (2e-7, -5e-6), (-4e-7, 1e-8)],
}


@pytest.mark.parametrize("in_fmt", ["csv", "json"])
@pytest.mark.parametrize("direction", ["min", "max"])
def test_main_output_matches_list_input(tmp_path, capsys, in_fmt, direction):
    for name, pairs in PAIR_SETS.items():
        src = tmp_path / f"{name}.{in_fmt}"
        if in_fmt == "json":
            src.write_text(json.dumps({"pairs": pairs}))
        else:
            src.write_text("a,b\n" + "".join(f"{a!r},{b!r}\n" for a, b in pairs))
        results = top_k(pairs, 50, Direction(direction))
        for out_fmt in ("table", "csv", "json"):
            want = reference_format_topk(results, out_fmt)
            dest = tmp_path / f"out.{out_fmt}"
            argv = ["topk", "--input", str(src), "--k", "50", "--direction", direction,
                    "--format", out_fmt, "--output"]
            assert main(argv + [str(dest)]) == 0
            assert dest.read_bytes() == want.encode()
            assert main(argv + ["-"]) == 0
            captured = capsys.readouterr()
            assert captured.out == want
            assert captured.err == ""
