"""Seeded fuzz smoke test: malformed pair files never crash the CLI.

Generates malformed CSV and JSON inputs (bad tokens, wrong widths, NaN,
values beyond float range, 400-digit JSON integers, JSON booleans, a
byte-order mark, empty and header-only files, JSON whose "pairs" is not a
list) and feeds each to ``topk`` and ``decode``. Every call must return a
documented exit code (0-3) with no traceback on stderr.
"""

import random

from pairsums.cli import main

SEED = 2017
FILES = 150  # each is run through topk and decode: 300 runs

HUGE_INT = "1" + "0" * 400
CSV_BAD_LINES = [
    "a,b", "1,x", "1,", ",2", ",", "1;2", "1", "1,2,3", "1 2", "0x10,1", "true,false",
    "nan,1", "1,NaN", "inf,0", "-inf,1", "1e400,1", "1,-1e400", "-1.7e308,1.7e308",
    f"{HUGE_INT},1",
]
JSON_BAD_ROWS = [
    f"[{HUGE_INT}, 1]", f"[1, -{HUGE_INT}]", "[true, 1]", "[false, false]", "[1]",
    "[1, 2, 3]", "[]", '"1,2"', "null", "3", '{"a": 1}', "[null, 1]", '["1", 2]',
    "[NaN, 1]", "[1, Infinity]", "[1e400, 0]", "[-1.7e308, 1.7e308]", "[[1], 2]",
]
JSON_BAD_DOCUMENTS = [
    '{"pairs": 3}', '{"pairs": "1,2"}', '{"pairs": {"a": [1, 2]}}', '{"pairs": null}',
    '{"pairs": true}', "{}", '{"pairs": []}', "{", '{"pairs": [[1, 2]]', "[[1, 2]]",
    '{"pairs": [[1, 2]]} trailing',
]


def _number(rng):
    return repr(rng.choice([rng.uniform(-5, 5), float(rng.randint(-3, 3)), rng.random()]))


def _csv_text(rng):
    rows = [f"{_number(rng)},{_number(rng)}" for _ in range(rng.randint(0, 12))]
    for _ in range(rng.randint(0, 2)):
        rows.insert(rng.randint(0, len(rows)), rng.choice(CSV_BAD_LINES))
    if rng.random() < 0.2:
        rows.insert(0, "a,b")  # a header, possibly the only line
    return "\n".join(rows) + rng.choice(["", "\n", "\n\n  \n"])


def _json_text(rng):
    if rng.random() < 0.25:
        return rng.choice(JSON_BAD_DOCUMENTS)
    rows = [f"[{_number(rng)}, {_number(rng)}]" for _ in range(rng.randint(0, 12))]
    for _ in range(rng.randint(0, 2)):
        rows.insert(rng.randint(0, len(rows)), rng.choice(JSON_BAD_ROWS))
    return '{"pairs": [' + ", ".join(rows) + "]}"


def _file_bytes(rng):
    roll = rng.random()
    if roll < 0.05:
        return rng.choice([b"", b"  \n\n", b"a,b\n", b"\xff\xfe1,2\n"])
    text = _csv_text(rng) if roll < 0.55 else _json_text(rng)
    if rng.random() < 0.15:
        text = "\ufeff" + text
    return text.encode()


def _commands(rng, path):
    fmt = rng.choice(["table", "csv", "json"])
    yield ["topk", "--input", path, "--k", str(rng.choice([1, 3, 300])),
           "--direction", rng.choice(["min", "max"]), "--format", fmt]
    yield ["decode", "--input", path, "--checksum", rng.choice(["none", "parity", "crc8"]),
           "--max-candidates", str(rng.choice([1, 3, 600])), "--format", fmt]


def test_malformed_inputs_end_in_a_documented_exit_code(tmp_path, capsys):
    rng = random.Random(SEED)
    codes = []
    for i in range(FILES):
        path = tmp_path / f"in{i}"
        path.write_bytes(_file_bytes(rng))
        for argv in _commands(rng, str(path)):
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), (argv, path.read_bytes(), code)
            assert "Traceback" not in err, (argv, err)
            codes.append(code)
    assert len(codes) == 2 * FILES
    # the generator reaches success, parse errors and non-finite input alike
    assert {0, 2, 3} <= set(codes), sorted(set(codes))
