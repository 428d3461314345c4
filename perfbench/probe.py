"""Set-up probe: a fresh process imports pairsums and serves one warm-up request.

Usage: python3 perfbench/probe.py SPEC.json

SPEC.json is written by run.py and holds the warm-up request. The probe
loads it first (input generation is not set-up), then times importing
`pairsums` and `pairsums.cli` plus the request, and prints the seconds.
run.py also imports ``serve`` to warm its own process up before timing.
"""

import json
import sys
import time
from pathlib import Path


def serve(spec: dict) -> bool:
    """Run the warm-up request described by spec; True if it succeeded."""
    import pairsums
    import pairsums.cli
    from pairsums import decode

    kind = spec["kind"]
    if kind == "engine":
        it = pairsums.iter_top(spec["pairs"], pairsums.Direction(spec["direction"]))
        return len([next(it) for _ in range(spec["k"])]) == spec["k"]
    if kind == "cli":
        return pairsums.cli.main(spec["argv"]) == 0
    if kind == "decode":
        decode.decode_best(spec["conf"], decode.Checksum.CRC8, spec["budget"])
        return True
    return False


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    if not serve(spec):
        return 1
    print(time.perf_counter() - t0)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
