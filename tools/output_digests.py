"""Print the SHA-256 digest of every file the default CLI runs write.

Runs the full default ``kantcheck run``, ``kantcheck hunt --seed 1``,
``kantcheck sweep`` and a campaign on the large-dim grid (dims 16, 32 and
64, 3 samples per cell, base seed 1) from a checkout's ``src`` into a
temporary directory, with BLAS on one thread, and prints one
``sha256  path`` line per file, paths relative to that directory.  Two
checkouts write the same reports exactly when their outputs are
identical, so a refactor proves it keeps every report byte by comparing
this output before and after:

    python3 tools/output_digests.py                  # this checkout
    python3 tools/output_digests.py ../other-checkout

The full campaign makes 127,200 checks and takes a few minutes; the
large-dim grid adds 1,908 checks at the dims where generation stacks
hold a handful of members or one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

LARGE_DIM_CONFIG = {"dims": [16, 32, 64], "samples_per_cell": 3, "base_seed": 1}
COMMANDS = (
    ("run", ["run"]),
    ("hunt", ["hunt", "--seed", "1"]),
    ("sweep", ["sweep"]),
    ("large_dim", ["run", "--config", "large_dim.json"]),
)


def digests(checkout: Path) -> list:
    """(sha256, relative path) of every file the commands write."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(checkout / "src"))
    with tempfile.TemporaryDirectory(prefix="kantcheck_digests_") as tmp:
        Path(tmp, "large_dim.json").write_text(json.dumps(LARGE_DIM_CONFIG), encoding="utf-8")
        root = Path(tmp) / "out"
        for out, args in COMMANDS:
            subprocess.run([sys.executable, "-m", "kantcheck.cli", *args, "--out", str(root / out)],
                           env=env, cwd=tmp, check=True, stdout=subprocess.DEVNULL)
        return [(hashlib.sha256(path.read_bytes()).hexdigest(), str(path.relative_to(root)))
                for path in sorted(p for p in root.rglob("*") if p.is_file())]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=Path(__file__).resolve().parent.parent,
                        type=Path, help="checkout whose src/ runs (default: this one)")
    args = parser.parse_args(argv)
    for digest, path in digests(args.checkout.resolve()):
        print(f"{digest}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
