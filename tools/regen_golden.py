"""Regenerate the golden regression fixtures under tests/golden/.

Run:  python tools/regen_golden.py [--check] [--only base|cpistack]

Regenerates, deterministically, from the current model:

- ``tests/golden/base_config.json``  — pinned summary statistics plus
  a ``payload_sha256`` of each full result payload, for the standard
  workloads, one SMP run and one sampled run
  (tests/test_golden_results.py);
- ``tests/golden/cpi_stacks.json``   — pinned CPI-stack attribution
  (tests/test_golden_cpistacks.py).

``--check`` writes nothing: it exits non-zero if a regenerated file
would differ from what is on disk, printing a unified diff — the same
comparison the tests make, usable as a quick pre-commit gate.

This is equivalent to ``REPRO_UPDATE_GOLDEN=1 pytest
tests/test_golden_results.py tests/test_golden_cpistacks.py`` but
importable, diffable, and independent of pytest collection order.
"""

import argparse
import difflib
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))


def _render(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def regenerate(name: str) -> "tuple[Path, str]":
    """(path, rendered JSON) for one golden file, from the current model."""
    if name == "base":
        import test_golden_results as module
    else:
        import test_golden_cpistacks as module
    return module.GOLDEN_PATH, _render(module.compute_current())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="diff against the files on disk instead of rewriting them",
    )
    parser.add_argument(
        "--only", choices=("base", "cpistack"), default=None,
        help="regenerate just one fixture",
    )
    args = parser.parse_args(argv)

    names = [args.only] if args.only else ["base", "cpistack"]
    dirty = 0
    for name in names:
        path, fresh = regenerate(name)
        on_disk = path.read_text(encoding="utf-8") if path.exists() else ""
        if fresh == on_disk:
            print(f"{path.relative_to(REPO)}: up to date")
            continue
        if args.check:
            dirty += 1
            print(f"{path.relative_to(REPO)}: STALE")
            sys.stdout.writelines(
                difflib.unified_diff(
                    on_disk.splitlines(keepends=True),
                    fresh.splitlines(keepends=True),
                    fromfile=f"golden/{path.name}",
                    tofile="regenerated",
                )
            )
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(fresh, encoding="utf-8")
            print(f"{path.relative_to(REPO)}: rewritten")
    return 1 if dirty else 0


if __name__ == "__main__":
    raise SystemExit(main())
