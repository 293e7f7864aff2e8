"""JSON (de)serialisation helpers for dataclasses and NumPy scalars.

Trained tuner models and exhaustive-search result sets are persisted as JSON
so that the "train in the factory, deploy on the user's machine" workflow in
the paper (Section 3.1.2) can be reproduced without retraining.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any

import numpy as np


class ReproJSONEncoder(json.JSONEncoder):
    """JSON encoder that understands NumPy scalars/arrays and dataclasses."""

    def default(self, o: Any) -> Any:  # noqa: D102 - stdlib signature
        """Encode NumPy scalars/arrays and dataclasses (stdlib hook)."""
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, (np.floating,)):
            return float(o)
        if isinstance(o, (np.bool_,)):
            return bool(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        if dataclasses.is_dataclass(o) and not isinstance(o, type):
            return dataclasses.asdict(o)
        return super().default(o)


def to_json(obj: Any, indent: int | None = 2) -> str:
    """Serialise ``obj`` to a JSON string."""
    return json.dumps(obj, cls=ReproJSONEncoder, indent=indent, sort_keys=True)


def save_json(obj: Any, path: str | Path) -> Path:
    """Write ``obj`` as JSON to ``path`` (parent directories are created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_json(obj), encoding="utf-8")
    return path


def load_json(path: str | Path) -> Any:
    """Load JSON from ``path``."""
    return json.loads(Path(path).read_text(encoding="utf-8"))
