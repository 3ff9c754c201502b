"""Regenerate the pinned reference digests in ``references.json``.

    python3 perfbench/pin.py --explore-seeds 0-15 --fuzz-seeds 0-11

(an empty range, ``--explore-seeds ""``, leaves that kind's pins alone).

Runs the full-size ``explore-nbac3`` and ``fuzz-clean`` jobs in this
process for each seed and records their output digests (``frontier-nbac3``
is gated against the ``explore`` pin: the same search must reach the same
decision vectors).  A seed is pinned only if its structural gate passes
-- complete search and no violations, or no safety violation and no job
failure -- so a pin never records a known-bad output.  Re-pin only when
a change is meant to alter what the program computes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def _seeds(spec: str) -> list:
    if not spec:
        return []
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--explore-seeds", default="0-15")
    parser.add_argument("--fuzz-seeds", default="0-11")
    args = parser.parse_args()
    path = HERE / "references.json"
    references = json.loads(path.read_text())
    workdir = HERE.parent / ".perfbench" / "tmp"
    workdir.mkdir(parents=True, exist_ok=True)
    for kind, name, spec in (
        ("explore", "explore-nbac3", args.explore_seeds),
        ("fuzz", "fuzz-clean", args.fuzz_seeds),
    ):
        for seed in _seeds(spec):
            workload = workloads.make(name, seed, "full", str(workdir))
            workload.setup()
            outcome = workload.job()
            structural = [c for c in workload.check(outcome, {}) if c[0] != "digest"]
            bad = [c for c in structural if not c[1]]
            workload.close()
            if bad:
                print(f"{name} seed {seed}: NOT pinned, gate failed: {bad}")
                continue
            references.setdefault(kind, {})[str(seed)] = workload.digest(outcome)
            print(f"{name} seed {seed}: {references[kind][str(seed)]}", flush=True)
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
