"""Recompute the reference edge hashes in refs.json.

    python3 perfbench/make_refs.py [workload ...]

Runs every pool input of the named workloads (all three by default)
through the untraced item and stores its digest. Regenerate only when a
change is meant to alter the inferred edges, and say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

POOL_SIZES = {"ar_sweep": 256, "nmm_delta": 16, "wide_infer": 8}
# criterion 1's cell and base seed; pool entry i is its realization i
AR_CELL = {"T": 10_000, "delta": 0.15, "NL": 0.0}
AR_BASE_SEED = 42


def pool_seeds(name: str) -> list[int]:
    from opcausal.evaluate import derive_seed

    if name == "ar_sweep":
        return [derive_seed(AR_BASE_SEED, AR_CELL, i) for i in range(POOL_SIZES[name])]
    return list(range(POOL_SIZES[name]))


def main(names: list[str]) -> None:
    if not run.prepare():
        sys.exit(2)
    import workloads

    workdir = run.BENCH / "_work" / f"refs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    computed = {}
    try:
        for name in names or POOL_SIZES:
            workload = workloads.WORKLOADS[name]()
            pool = workloads.reference_digests(workload, pool_seeds(name), workdir)
            computed[name] = {"T": workload.T, "pool": [list(entry) for entry in pool]}
            print(f"{name}: {len(pool)} references", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    refs = {}
    if workloads.REFS_PATH.exists():
        with open(workloads.REFS_PATH) as fh:
            refs = json.load(fh)
    refs.update(computed)
    with open(workloads.REFS_PATH, "w") as fh:
        fh.write(format_refs(refs))


def format_refs(refs: dict) -> str:
    """JSON with one pool entry per line."""
    blocks = []
    for name, ref in refs.items():
        entries = ",\n".join(f"   {json.dumps(entry)}" for entry in ref["pool"])
        blocks.append(f' "{name}": {{\n  "T": {ref["T"]},\n  "pool": [\n{entries}\n  ]\n }}')
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    main(sys.argv[1:])
