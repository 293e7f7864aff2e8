"""Small shared utilities: deterministic RNG and ASCII tables."""

from repro.utils.rng import make_rng
from repro.utils.tables import format_table

__all__ = ["make_rng", "format_table"]
