"""Regenerate (or check) the committed reference outputs.

    python3 perfbench/make_references.py            # rewrite references.json
    python3 perfbench/make_references.py --check    # compare, exit 1 on drift

Run from the repository root.  ``fleet-replay`` references are the
canonical alert digest of one replay pass per input set; ``eval-batch``
references are each dataset's ``aggregate_fingerprint`` per protocol seed.
Both are independent of ``PYTHONHASHSEED``: ``--check`` under two hash
seeds must pass.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from common import BENCH_DIR, require_program

PATH = os.path.join(BENCH_DIR, "references.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    require_program()
    import eval_batch
    import fleet_replay

    fresh = {
        "fleet-replay": {
            str(slot): fleet_replay.digest_of(slot)
            for slot in range(fleet_replay.SEED_SLOTS)
        },
        "eval-batch": {
            str(slot): eval_batch.fingerprints_of(slot)
            for slot in range(eval_batch.SEED_SLOTS)
        },
    }
    if args.check:
        with open(PATH, "r", encoding="utf-8") as handle:
            committed = json.load(handle)
        if committed != fresh:
            print("references drifted", file=sys.stderr)
            return 1
        print("references match")
        return 0
    with open(PATH, "w", encoding="utf-8") as handle:
        json.dump(fresh, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
