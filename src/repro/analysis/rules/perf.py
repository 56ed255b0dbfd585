"""Performance rules: the data-plane hot paths stay batched.

The frame-train delivery path (PROTOCOL.md §13) exists because one
scheduled event per frame was the dominant dispatch cost at scale.  A
future edit that reintroduces a per-frame ``Scheduler.post`` loop in
the ND-Layer or gateway hot paths silently undoes the optimisation
while every golden stays green — the wire is unchanged, only the event
count regresses — so the shape itself is machine-checked.

PERF001 (error) per-frame delivery dispatch: a ``scheduler.post(...)``
                or ``scheduler.schedule(...)`` call inside a ``for``/
                ``while`` loop in one of the hot-path modules
                (:data:`_HOT_PATH_MODULES`).  Batch the frames and make
                one delivery post for the train.  There is one receive
                path and it takes trains (a frame is a train of one):
                ``NdLayer._on_raw`` in, and out through the sanctioned
                entry points ``NdLayer.send_frames`` and the gateway's
                ``_fast_forward``/``_forward_batch`` splice with its
                ``_flush_backlog`` rotation, each of which posts at
                most once per batch.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set, Tuple

from repro.analysis.engine import (
    SEVERITY_ERROR,
    Finding,
    ModuleInfo,
    Project,
    rule,
)

# The data-plane modules whose delivery loops must stay batched.
_HOT_PATH_MODULES: Tuple[str, ...] = (
    "repro.ntcs.ndlayer",
    "repro.ntcs.gateway",
)

_DISPATCH_METHODS = ("post", "schedule")


def _is_scheduler_receiver(node: ast.expr) -> bool:
    """True when the call receiver is a scheduler: a bare ``scheduler``
    name or any attribute chain ending in ``.scheduler`` (e.g.
    ``self.scheduler``, ``nucleus.scheduler``)."""
    if isinstance(node, ast.Name):
        return node.id == "scheduler"
    if isinstance(node, ast.Attribute):
        return node.attr == "scheduler"
    return False


@rule(
    name="perf",
    ids=("PERF001",),
    description="data-plane hot paths batch frame delivery (no "
                "per-frame Scheduler.post loops)",
)
def check_perf(project: Project) -> Iterable[Finding]:
    """Emit PERF001 findings for per-frame dispatch loops."""
    findings: List[Finding] = []
    for module in project.modules:
        if module.name not in _HOT_PATH_MODULES:
            continue
        seen: Set[Tuple[int, int]] = set()
        for loop in ast.walk(module.tree):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for node in ast.walk(loop):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not (isinstance(func, ast.Attribute)
                        and func.attr in _DISPATCH_METHODS
                        and _is_scheduler_receiver(func.value)):
                    continue
                key = (node.lineno, node.col_offset)
                if key in seen:
                    continue  # nested loops surface the call once
                seen.add(key)
                findings.append(Finding(
                    rule="PERF001", severity=SEVERITY_ERROR,
                    path=str(module.path), line=node.lineno,
                    message=(
                        f"per-frame scheduler.{func.attr}() inside a "
                        f"hot-path loop; coalesce the frames and make "
                        f"one delivery post through the train API — "
                        f"NdLayer.send_frames or the gateway's "
                        f"_fast_forward/_forward_batch splice "
                        f"(PROTOCOL.md §13)"),
                ))
    return findings
