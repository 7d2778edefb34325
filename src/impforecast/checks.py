"""Value checks shared by the hyperparameter blocks, the study config and
the readers of persisted documents.

Pure Python, so the report reader can use them without loading numpy.
"""

from __future__ import annotations

import math


def require(ok: bool, key: str, rule: str, value) -> None:
    """Raise ValueError ``"<key> must be <rule>, got <value>"`` unless ``ok``."""
    if not ok:
        raise ValueError(f"{key} must be {rule}, got {value!r}")


def is_number(value) -> bool:
    """A finite int or float; bools are refused."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def is_count(value) -> bool:
    """An int; bools are refused."""
    return isinstance(value, int) and not isinstance(value, bool)


def loaded_rmse(value) -> float:
    """A persisted ``rmse``: a finite number >= 0, else ValueError."""
    require(is_number(value) and value >= 0, "rmse", "a finite number >= 0", value)
    return float(value)
