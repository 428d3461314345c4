"""Command-line front end: topk, decode, and bench subcommands.

Exit codes: 0 success, 1 decode did not find a valid candidate, 2 usage or
parse error, 3 non-finite numeric input (NaN, an infinity, or an integer
too large for a float).

Input files hold one number pair per line as "a,b" (an optional header
line is detected by a non-numeric first token), or JSON of the form
{"pairs": [[a, b], ...]}. The decode input uses the same shape with one
confidence pair per bit. ``read_pairs`` hands the text to one reader per
format; each gives one (N, 2) float64 array, which the engine takes as it
is, or names the file's first bad row. A CSV number is any text ``float()``
accepts: plain ASCII numbers go through numpy's C reader, with no Python
call per token, and any other file through ``float()``, one row at a time;
both give the same values. A leading UTF-8 byte-order mark is ignored.

Each subcommand writes into its destination, opened once. ``topk`` writes
each row as it is formatted, so memory does not grow with k; a reader
that stops early (``| head``) ends the run with exit 0. The argument
parser is built once per process and reused by every ``main`` call;
parsing keeps no state in it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
from itertools import chain
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .bench import (
    BenchConfig,
    DegenerateFit,
    LinearFit,
    QuadraticFit,
    fit_pending_linear,
    fit_quadratic,
    run_bench,
    write_csv,
)
from .core import Direction, NonFiniteInput, top_k
from .decode import DEFAULT_MAX_CANDIDATES, Checksum, decode_best

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_USAGE = 2
EXIT_NONFINITE = 3

OUTPUT_BUFFER_BYTES = 1 << 20  # streamed rows reach the file in few large writes


class ParseError(ValueError):
    """Input file did not parse as pairs."""


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def read_pairs(path: str) -> np.ndarray:
    """Load (a, b) rows from a CSV or JSON file as an (N, 2) float64 array.

    A CSV token is any text ``float()`` accepts; JSON values must be JSON
    numbers (``true``/``false`` are rejected). A malformed file raises
    ParseError naming its first bad row; a JSON integer too large for a
    float raises NonFiniteInput.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # drops a leading BOM
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    if text.lstrip().startswith("{"):
        return _json_pairs(path, text)
    return _csv_pairs(path, text)


def _json_pairs(path: str, text: str) -> np.ndarray:
    """Parse {"pairs": [[a, b], ...]}: C-speed scans, then a row walk only on failure."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: bad JSON: {exc}")
    rows = obj.get("pairs")
    if not isinstance(rows, list):
        raise ParseError(f'{path}: JSON must carry a "pairs" list')
    if not rows:
        raise ParseError(f"{path}: no data rows")
    if set(map(type, rows)) <= {list} and set(map(len, rows)) <= {2}:
        flat = list(chain.from_iterable(rows))
        # type(), not isinstance: JSON true/false must not pass as 1/0.
        if set(map(type, flat)) <= {int, float}:
            try:
                return np.fromiter(flat, np.float64, count=len(flat)).reshape(-1, 2)
            except OverflowError:
                raise NonFiniteInput() from None
    for idx, row in enumerate(rows, start=1):
        if not (type(row) is list and len(row) == 2 and set(map(type, row)) <= {int, float}):
            raise ParseError(f"{path}: row {idx}: expected [a, b] numbers, got {row!r}")


def _csv_pairs(path: str, text: str) -> np.ndarray:
    """Parse "a,b" lines, skipping blank lines and a header (a non-numeric first token)."""
    rows = list(filter(str.strip, text.splitlines()))
    if rows:
        try:
            float(rows[0].partition(",")[0])
        except ValueError:
            del rows[0]  # header line
    if not rows:
        raise ParseError(f"{path}: no data rows")
    # numpy's C reader gives float()'s values for plain ASCII numbers. What
    # it rejects (1_000, non-ASCII digits, a bad token, a wrong field count)
    # goes through float() below, which also names the first bad row. It
    # strips U+001F as whitespace and float() does not, so that skips it.
    if "\x1f" not in text:
        try:
            values = np.loadtxt(rows, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if values.shape == (len(rows), 2):
                return values
    flat = []
    for idx, row in enumerate(rows, start=1):
        tokens = row.split(",")
        if len(tokens) != 2:
            raise ParseError(f"{path}: row {idx}: expected two values, got {len(tokens)}")
        try:
            flat += float(tokens[0]), float(tokens[1])
        except ValueError:
            raise ParseError(f"{path}: row {idx}: non-numeric value in {tokens!r}")
    return np.array(flat, dtype=np.float64).reshape(-1, 2)


def _output(path: str):
    """The destination as a context manager: stdout for "-", else the file truncated."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", buffering=OUTPUT_BUFFER_BYTES)


def _format_topk(results, fmt: str) -> Iterator[str]:
    if fmt == "csv":
        yield "rank,sum,selection\n"
        for r in results:
            yield f"{r.rank},{r.sum:.17g},{r.selection_str()}\n"
    elif fmt == "json":
        # json.dumps(rows, indent=2) bytes: ints, finite float reprs and 0/1 need no escaping
        sep = "[\n"
        for r in results:
            yield (f'{sep}  {{\n    "rank": {r.rank},\n    "sum": {r.sum!r},\n'
                   f'    "selection": "{r.selection_str()}"\n  }}')
            sep = ",\n"
        yield "\n]\n"
    else:
        width = max(len(str(r.sum)) for r in results)
        yield f"{'rank':>6}  {'sum':>{width}}  selection\n"
        for r in results:
            yield f"{r.rank:>6}  {str(r.sum):>{width}}  {r.selection_str()}\n"


def cmd_topk(args) -> int:
    results = top_k(read_pairs(args.input), args.k, args.direction)
    with _output(args.output) as out:
        out.writelines(_format_topk(results, args.format))
    return EXIT_OK


def _csv_cell(value) -> str:
    """One decode CSV cell: booleans in lower case, floats round-trip, None empty."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _format_decode(result, fmt: str) -> str:
    row = dataclasses.asdict(result)
    if fmt == "json":
        return json.dumps(row, indent=2) + "\n"
    if fmt == "csv":
        return ",".join(row) + "\n" + ",".join(map(_csv_cell, row.values())) + "\n"
    lines = [f"{key}: {value}" for key, value in row.items()]
    return "\n".join(lines) + "\n"


def cmd_decode(args) -> int:
    confidences = read_pairs(args.input)
    result = decode_best(confidences, args.checksum, max_candidates=args.max_candidates)
    with _output(args.output) as out:
        out.write(_format_decode(result, args.format))
    return EXIT_OK if result.found else EXIT_NOT_FOUND


def cmd_bench(args) -> int:
    config = BenchConfig(
        n_values=args.n,
        k_max=args.k_max,
        k_samples=args.samples,
        seed=args.seed,
        trials=args.trials,
    )
    with _output(args.output) as out:  # opened first: a bad path fails before the campaign
        records = run_bench(config)
        write_csv(records, out)
    if args.fit:
        by_n = [(n, [r for r in records if r.n == n]) for n in config.n_values]
        blocks = (
            ("time", QuadraticFit, fit_quadratic),
            ("pending", LinearFit, fit_pending_linear),
        )
        for label, fit_type, fit_rows in blocks:
            print("n," + ",".join(fit_type._fields))
            for n, rows in by_n:
                try:
                    fit = fit_rows(rows)
                except DegenerateFit as exc:
                    print(f"n={n}: {label} fit skipped: {exc}", file=sys.stderr)
                    continue
                coeffs = ",".join(f"{c:.6e}" for c in fit[:-1])
                print(f"{n},{coeffs},{fit.r_squared:.6f}")
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairsums",
        description="Rank the 2^N choice-sums of N number pairs without "
        "enumerating them all.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_topk = sub.add_parser("topk", help="emit the k best choice combinations")
    p_topk.add_argument("--input", required=True, help="CSV or JSON pair file")
    p_topk.add_argument("--k", type=_positive_int, required=True)
    p_topk.add_argument("--direction", choices=[d.value for d in Direction], default="min")
    p_topk.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p_topk.add_argument("--output", default="-", help="output path, - for stdout")
    p_topk.set_defaults(func=cmd_topk)

    p_dec = sub.add_parser(
        "decode", help="recover the best checksum-valid bit string"
    )
    p_dec.add_argument("--input", required=True, help="CSV/JSON of conf0,conf1 rows")
    p_dec.add_argument(
        "--checksum", choices=[c.value for c in Checksum], default="none"
    )
    p_dec.add_argument(
        "--max-candidates", type=_positive_int, default=DEFAULT_MAX_CANDIDATES
    )
    p_dec.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p_dec.add_argument("--output", default="-", help="output path, - for stdout")
    p_dec.set_defaults(func=cmd_decode)

    p_bench = sub.add_parser("bench", help="run scaling measurements, emit CSV")
    p_bench.add_argument("--n", type=_int_list, default=BenchConfig.n_values)
    p_bench.add_argument("--k-max", type=_positive_int, default=BenchConfig.k_max)
    p_bench.add_argument("--samples", type=_positive_int, default=BenchConfig.k_samples)
    p_bench.add_argument("--trials", type=_positive_int, default=BenchConfig.trials)
    p_bench.add_argument("--seed", type=int, default=BenchConfig.seed)
    p_bench.add_argument("--fit", action="store_true", help="print time and frontier-size fits")
    p_bench.add_argument("--output", default="-", help="CSV path, - for stdout")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except BrokenPipeError:  # the reader stopped early, as `| head` does
        return EXIT_OK
    except NonFiniteInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONFINITE
    except (ValueError, OSError) as exc:  # ParseError, InvalidK, DegenerateFit too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
