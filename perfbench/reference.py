"""Committed reference digests of every workload's simulated outputs.

``reference.json`` maps workload -> seed -> the SHA-256 digest one pass
of that workload produces (see :func:`workloads.digest`).  A pass whose
digest differs from the reference for its seed is wrong.  A seed with no
reference falls back to the invariant checks plus pass-to-pass identity.

A change that alters simulated results on purpose re-records the file in
its own change, from the repository root:

    python3 perfbench/reference.py --seeds 0-99,9001
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
PATH = HERE / "reference.json"


def load(path: Path = PATH) -> dict[str, dict[str, str]]:
    with open(path) as fh:
        return json.load(fh)["workloads"]


def lookup(workload: str, seed: int, path: Path = PATH) -> Optional[str]:
    return load(path).get(workload, {}).get(str(seed))


def _seed_range(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv: Optional[list[str]] = None) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-99 or 1,2,9001")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                        help="default: every workload")
    args = parser.parse_args(argv)
    table = load() if PATH.exists() else {}
    for workload in args.workload or workloads.WORKLOADS:
        entries = table.setdefault(workload, {})
        for seed in _seed_range(args.seeds):
            inputs = workloads.make_inputs(workload, seed)
            records, _seconds = workloads.run_pass(inputs)
            problems = workloads.invariants(inputs, records)
            if problems:
                print(f"{workload} seed {seed}: {problems}", file=sys.stderr)
                return 1
            entries[str(seed)] = workloads.digest(records)
            print(f"{workload} seed {seed}: {entries[str(seed)]}", flush=True)
        table[workload] = dict(sorted(entries.items(), key=lambda kv: int(kv[0])))
        with open(PATH, "w") as fh:
            json.dump({"workloads": table}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
