"""Argparse ``type`` callables for the numeric flags of the CLIs.

A worker count, a per-trial timeout or a trial budget outside its range
is a usage error (exit 2), not a value to read some other way: ``--jobs
0`` used to run serially and ``--max-trials -1`` to skip the last trial.
"""

from __future__ import annotations

import argparse
from typing import Callable


def _checked(kind: type, ok: Callable[[float], bool], rule: str):
    def parse(text: str):
        value = kind(text)  # a ValueError reads "invalid <kind> value"
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = kind.__name__
    return parse


positive_int = _checked(int, lambda v: v > 0, "positive")
positive_float = _checked(float, lambda v: v > 0, "positive")
non_negative_int = _checked(int, lambda v: v >= 0, "at least 0")
