"""Compare the output digests of two checkouts, e.g. a parent and a change.

    python3 bench/digest_diff.py PARENT/.bench_work/digests.json CHANGE/.bench_work/digests.json

Each checkout keeps the digests of its benchmark runs in
``.bench_work/digests.json``. For every workload and seed run in both, this
prints whether the inputs and the outputs (timing fields removed) are
bit-identical. Exits 1 when any output differs, so numeric changes get
reported.
"""

import json
import sys
from pathlib import Path


def latest(store: dict) -> dict:
    """Digests of the most recently recorded source tree per workload and seed."""
    return {key: list(by_source.values())[-1] for key, by_source in store.items() if by_source}


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = (latest(json.loads(Path(path).read_text())) for path in argv)
    differs = False
    for key in sorted(a.keys() & b.keys()):
        verdict = {k: "same" if a[key].get(k) == b[key].get(k) else "differs" for k in ("input", "output")}
        differs |= verdict["output"] == "differs"
        print(f"{key}: input {verdict['input']}, output {verdict['output']}")
    for key in sorted(a.keys() ^ b.keys()):
        print(f"{key}: run in one checkout only")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
