#!/usr/bin/env python
"""Regenerate the golden-trace corpus (tests/golden/).

The corpus digests are the standing license for simulation-kernel
refactors: ``tests/sim/test_golden_equivalence.py`` replays every case and
asserts byte-identity against the recordings.  A refactoring PR must
**never** regenerate them — if the suite fails, the refactor changed
behaviour and the refactor is what needs fixing.

Regeneration is only legitimate when a PR *intends* to change simulated
behaviour (a new model feature, a deliberate semantic fix).  To make that
an explicit, reviewable act, this tool refuses to run without::

    python tools/regen_golden.py --i-know-this-changes-behavior

which reruns the whole corpus on the current kernel and rewrites
``tests/golden/manifest.json`` plus the per-case results JSON files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the golden-trace corpus digests.",
    )
    parser.add_argument(
        "--i-know-this-changes-behavior",
        action="store_true",
        dest="acknowledged",
        help=(
            "Acknowledge that rewriting the recordings re-licenses every "
            "behavioural difference between the current kernel and the "
            "recorded one.  Required."
        ),
    )
    args = parser.parse_args(argv)

    if not args.acknowledged:
        parser.error(
            "refusing to regenerate the golden corpus.\n"
            "These recordings are the byte-equivalence license for kernel "
            "refactors; rewriting them silently would let a behaviour "
            "change masquerade as a refactor.  If this PR deliberately "
            "changes simulated behaviour, rerun with "
            "--i-know-this-changes-behavior and call the regeneration out "
            "in the PR description (see docs/performance.md)."
        )

    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(REPO_ROOT))

    from tests.golden import corpus

    manifest = corpus.build_manifest()
    corpus.MANIFEST_PATH.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {corpus.MANIFEST_PATH}")
    for case in corpus.CASES:
        print(f"  {case.name}: {manifest['cases'][case.name]['results_sha256'][:16]}…")
    for extension in corpus.EXTENSION_CASES:
        digest = manifest["extensions"][extension.name]["results_sha256"]
        print(f"  {extension.name}: {digest[:16]}…")
    print(f"  trace: {manifest['trace']['trace_sha256'][:16]}…")
    print(f"  jobs batch: {manifest['jobs']['results_sha256'][:16]}…")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
