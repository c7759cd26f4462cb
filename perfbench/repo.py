"""Where the benchmark finds the cfpp sources it measures."""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


def require_cfpp():
    """Import cfpp from this checkout's ``src``; exit 2 if it is not there."""
    if not (SRC / "cfpp" / "__init__.py").is_file():
        print(f"perfbench: no cfpp sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cfpp

    if Path(cfpp.__file__).resolve().parent != SRC / "cfpp":
        print(f"perfbench: imported cfpp from {cfpp.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return cfpp


def child_env() -> dict:
    """Environment for child processes: cfpp importable from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
