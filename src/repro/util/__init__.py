"""Small shared utilities (timing, deterministic ordering)."""

from .timing import format_millis

__all__ = ["format_millis"]
