"""Baseline strategies subtracted from rewards in policy-gradient updates.

The subtraction leaves the expected gradient unchanged but alters its
variance.  Three strategies: a constant shared across all states, the exact
per-state value function (tractable here because pools are enumerable), and
a Monte-Carlo estimate of the value function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ConstantBaseline:
    value: float = 0.5

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"constant baseline must be finite, got {self.value}")


@dataclass(frozen=True)
class ValueFunctionBaseline:
    """Exact per-state expected reward under the current policy."""


@dataclass(frozen=True)
class MonteCarloValueBaseline:
    n: int = 1000

    def __post_init__(self):
        if self.n < 2:  # the standard error of the estimate needs two draws
            raise ValueError(f"Monte-Carlo baseline needs n >= 2, got {self.n}")


BaselineSpec = ConstantBaseline | ValueFunctionBaseline | MonteCarloValueBaseline


def parse_baseline(text: str) -> BaselineSpec:
    """Parse config syntax: 'constant:0.5', 'value-exact', 'value-mc:1000'."""
    name, _, arg = text.partition(":")
    name = name.strip()
    if name == "constant":
        return ConstantBaseline(float(arg) if arg else 0.5)
    if name == "value-exact":
        return ValueFunctionBaseline()
    if name == "value-mc":
        return MonteCarloValueBaseline(int(arg) if arg else 1000)
    raise ValueError(f"unknown baseline {text!r}")

