"""Fold per-trial campaign outputs into the paper-style summary tables.

The paper reports every figure as a mean over 3–5 trials with a 95%
confidence interval; these helpers group successful trial results by
parameter values and apply :func:`repro.analysis.mean_ci`, producing
tables in the same shape as EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis import ConfidenceInterval, mean_ci

ValueGetter = Union[str, Callable[[Any], float]]


def _getter(value: ValueGetter) -> Callable[[Any], float]:
    if callable(value):
        return value
    return lambda result: float(result[value])


def value_order(values: Iterable[Any]) -> Callable[[Any], Any]:
    """A sort key for ``values``: the value itself where they all
    compare (5.0 before 10.0), its text where they do not (``None``
    beside a mode name)."""
    try:
        sorted(values)
    except TypeError:
        return repr
    return lambda value: value


@dataclass(frozen=True)
class AggregateRow:
    """One grouped row: the grouping params and the value's mean ± CI."""

    params: Dict[str, Any]
    ci: ConfidenceInterval

    @property
    def n(self) -> int:
        return self.ci.n


def aggregate(
    outcomes: Iterable["TrialOutcome"],  # noqa: F821
    value: ValueGetter,
    by: Sequence[str],
) -> List[AggregateRow]:
    """Group successful outcomes by ``by`` params; mean/CI of ``value``."""
    getter = _getter(value)
    groups: Dict[Tuple, List[float]] = {}
    for outcome in outcomes:
        if not outcome.ok:
            continue
        group = tuple(outcome.spec.params.get(name) for name in by)
        groups.setdefault(group, []).append(getter(outcome.result))
    rows = [
        AggregateRow(params=dict(zip(by, group)), ci=mean_ci(values))
        for group, values in groups.items()
    ]
    orders = [value_order({row.params[name] for row in rows}) for name in by]
    rows.sort(
        key=lambda row: tuple(
            order(row.params[name]) for order, name in zip(orders, by)
        )
    )
    return rows


def format_table(
    rows: Sequence[AggregateRow],
    value_label: str,
    title: Optional[str] = None,
) -> str:
    """An EXPERIMENTS.md-style fixed-width table of aggregate rows."""
    lines: List[str] = []
    if title:
        lines.append(title)
    if not rows:
        lines.append("(no successful trials)")
        return "\n".join(lines)
    by = list(rows[0].params)
    header = " ".join(f"{name:>12}" for name in by)
    lines.append(f"{header} {value_label + ' (mean ± 95% CI)':>28}")
    for row in rows:
        cells = " ".join(f"{str(row.params[name]):>12}" for name in by)
        lines.append(f"{cells} {str(row.ci):>28}")
    return "\n".join(lines)


def pivot(
    outcomes: Iterable["TrialOutcome"],  # noqa: F821
    value: ValueGetter,
    row: str,
    col: str,
) -> Dict[Any, Dict[Any, ConfidenceInterval]]:
    """Two-way grouping: ``{row_value: {col_value: mean ± CI}}``."""
    rows = aggregate(outcomes, value, by=(row, col))
    table: Dict[Any, Dict[Any, ConfidenceInterval]] = {}
    for entry in rows:
        table.setdefault(entry.params[row], {})[entry.params[col]] = entry.ci
    return table


def format_pivot(
    table: Dict[Any, Dict[Any, ConfidenceInterval]],
    row_label: str,
    title: Optional[str] = None,
    columns: Optional[Mapping[Any, str]] = None,
) -> str:
    """Fixed-width rendering of a :func:`pivot` table.  ``columns``
    maps column values to the headings to print, in the order to print
    them (the paper's ``with suppression`` before ``without``)."""
    lines: List[str] = []
    if title:
        lines.append(title)
    if not table:
        lines.append("(no successful trials)")
        return "\n".join(lines)
    cols = {col for cells in table.values() for col in cells}
    if columns is not None:
        cols = [col for col in columns if col in cols]
    else:
        cols = sorted(cols, key=value_order(cols))
    names = columns or {}
    header = " ".join(f"{str(names.get(col, col)):>24}" for col in cols)
    lines.append(f"{row_label:>12} {header}")
    for row_value in sorted(table, key=value_order(table)):
        cells = []
        for col in cols:
            ci = table[row_value].get(col)
            cells.append(f"{str(ci) if ci else '-':>24}")
        lines.append(f"{str(row_value):>12} " + " ".join(cells))
    return "\n".join(lines)
