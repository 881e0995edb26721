"""Locate the program under test: the ybgates sources of this checkout.

Kept free of third-party imports so the set-up probe can time
`import ybgates` (numpy and scipy included) from a fresh interpreter.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ybgates"

# One client on a small machine: BLAS threads would only add noise to
# products of 4x4 and 8x8 matrices, so every BLAS runs single-threaded.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin BLAS threads, drop the CLI's seed override and put src/ first.

    Exits with status 1 when the checkout holds no ybgates sources, so the
    benchmark never measures some other installed copy.
    """
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"error: no ybgates sources at {PACKAGE}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("GATE_TOOL_SEED", None)
    sys.path.insert(0, str(PACKAGE.parent))


def check_origin(module) -> None:
    """Exit with status 1 unless `module` was imported from this checkout."""
    if Path(module.__file__).resolve().parent != PACKAGE.resolve():
        sys.exit(f"error: ybgates was imported from {module.__file__}, not {PACKAGE}")
