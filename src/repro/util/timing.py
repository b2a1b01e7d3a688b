"""Wall-clock formatting used by the Figure 1 harness and the benchmarks.

Time budgets themselves live in :mod:`repro.runtime.budget`.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["format_millis"]


def format_millis(ms: Optional[float]) -> str:
    """Render milliseconds the way Figure 1 does (seconds with 3 decimals)."""
    if ms is None:
        return "timeout"
    return f"{ms / 1000.0:.3f}"
