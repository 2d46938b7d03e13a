"""Record this numpy version's entry of ``golden_artifacts.json``.

Run from the repository root::

    PYTHONPATH=src python tests/record_golden_artifacts.py

It runs every chain of ``test_golden_artifacts.py`` in a temporary
directory, rewrites the entry of the installed numpy version (the other
versions' entries are kept) and prints each file that moved against the
old entry.  A change that moves bytes on purpose lists those files as a
change to a check.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from test_golden_artifacts import (CHAIN_IDS, MANIFEST,  # noqa: E402
                                   environment, moved, run_chain)


def main() -> int:
    manifest = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    old = manifest.get(np.__version__, {}).get("chains", {})
    chains = {}
    with tempfile.TemporaryDirectory() as tmp:
        for chain_id in CHAIN_IDS:
            chains[chain_id] = run_chain(chain_id, Path(tmp))
            if chain_id not in old:
                print(f"{chain_id}: new chain")
                continue
            for line in moved(old[chain_id], chains[chain_id]):
                print(f"{chain_id}: {line}")
    manifest[np.__version__] = {**environment(), "chains": chains}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote numpy {np.__version__}'s entry of {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
