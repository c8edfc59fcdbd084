"""Build/run provenance for benchmark artifacts.

Every benchmark JSON document records *which code* produced it and
*when*: without the commit hash, two benchmark records from different
branches are indistinguishable, and regressions cannot be
bisected from the artifacts alone.  Kept dependency-free (subprocess
only) and failure-proof: outside a git checkout — e.g. running from an
sdist or a copied directory — ``git_sha()`` degrades to ``None`` rather
than breaking the benchmark.
"""

from __future__ import annotations

import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Optional

__all__ = ["git_sha", "utc_timestamp", "provenance"]


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """The current commit hash (with a ``-dirty`` suffix when the working
    tree has uncommitted changes), or ``None`` outside a git checkout."""
    where = cwd or str(Path(__file__).resolve().parent)
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=where, capture_output=True, text=True, timeout=10,
        )
        if sha.returncode != 0:
            return None
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=where, capture_output=True, text=True, timeout=10,
        )
        dirty = status.returncode == 0 and bool(status.stdout.strip())
        return sha.stdout.strip() + ("-dirty" if dirty else "")
    except (OSError, subprocess.TimeoutExpired):
        return None


def utc_timestamp() -> str:
    """Current time as an ISO-8601 UTC string (second resolution)."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def provenance(cwd: Optional[str] = None) -> Dict[str, Optional[str]]:
    """The ``meta`` fields every benchmark document should carry."""
    return {"git_sha": git_sha(cwd), "timestamp": utc_timestamp()}
