"""Check the chaos fuzz sweep against its pinned fingerprints.

``fuzz_fingerprints.json`` pins ``run_schedule(fuzz_schedule(seed))
.fingerprint`` -- the final time, iterations, timeline and result digests
of the run -- for seeds 0..1499.  The chaos smoke sweep checks the first 64
(``tests/chaos/test_campaign.py``); this script checks the whole range::

    PYTHONPATH=src python tests/chaos/check_fingerprints.py [--workers W]

It prints the seeds whose fingerprint moved and exits 1 if there are any.
``--record`` rewrites the file from the current code instead, for a change
that is meant to alter behaviour.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

PINNED = Path(__file__).with_name("fuzz_fingerprints.json")
ABOUT = ("run_schedule(fuzz_schedule(seed)).fingerprint for seed = "
         "0..len(fingerprints)-1; a change that moves any of them changes "
         "what a run shows (check_fingerprints.py)")


def load_fingerprints() -> list[str]:
    """The pinned fingerprints, indexed by seed."""
    return json.loads(PINNED.read_text())["fingerprints"]


def main(argv: list[str] | None = None) -> int:
    from repro.chaos import run_chaos_campaign

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the pinned file from this code")
    args = parser.parse_args(argv)
    pinned = load_fingerprints()
    result = run_chaos_campaign(len(pinned), workers=args.workers,
                                shrink=False)
    seen = [o.fingerprint for o in result.outcomes]
    if args.record:
        PINNED.write_text(json.dumps({"about": ABOUT, "fingerprints": seen},
                                     indent=0) + "\n")
        print(f"recorded {len(seen)} fingerprints in {PINNED}")
        return 0
    moved = [seed for seed, (new, old) in enumerate(zip(seen, pinned))
             if new != old]
    failing = [o.seed for o in result.failures]
    print(f"{len(seen)} seeds: {len(moved)} fingerprint(s) moved, "
          f"{len(failing)} invariant failure(s)")
    if moved:
        print("moved:", moved)
    if failing:
        print("failing:", failing)
    return 1 if moved or failing else 0


if __name__ == "__main__":
    sys.exit(main())
