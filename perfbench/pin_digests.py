"""Regenerate ``pinned_digests.json``: every cell's simulated digest for the
default seed, on the program as it stands.

    python3 perfbench/pin_digests.py

Run it only when a change to the program is meant to change simulated
output; the benchmark counts a cell whose digest differs as failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cells  # noqa: E402


def main() -> int:
    pinned = {}
    for workload in cells.WORKLOADS:
        pinned[workload] = {}
        for cell in cells.build_cells(workload, cells.DEFAULT_SEED):
            result = cells.run_cell(cell)
            if result.error is not None:
                print(f"{workload} {cell.name}: {result.error}", file=sys.stderr)
                return 1
            pinned[workload][cell.name] = result.digest
            print(f"{workload} {cell.name} {result.digest}")
    cells.PINNED_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
