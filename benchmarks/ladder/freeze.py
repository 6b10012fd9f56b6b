"""``--freeze``: the tree walker's digests, at run and check scale.

Slow by design (the walker materialises ``L x R`` before selecting
from it) and outside every timed budget.  The digests go through the
same set-up path as a measured run — generate, save, reload — so the
relations the oracle sees are the relations the engines will see.
"""

from __future__ import annotations

import os
import shutil
from typing import Any, Dict

from harness import OUT_DIR, digest, fresh_dir, run_query, setup

__all__ = ["frozen_digests"]


def frozen_digests(workload: str, seed: int) -> Dict[str, Any]:
    base = fresh_dir(OUT_DIR, f"freeze-{workload}-{os.getpid()}")
    document: Dict[str, Any] = {}
    try:
        for tier in ("run", "check"):
            env = setup(workload, seed, "full", tier,
                        os.path.join(base, tier))
            digests: Dict[str, Any] = {}
            for query in env.queries:
                if query.name not in digests:
                    digests[query.name] = digest(
                        run_query("tree", query, env, cache=None))
            document[tier] = digests
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return document
