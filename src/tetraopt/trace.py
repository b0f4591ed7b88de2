"""Incumbent history of an optimization run, exportable as CSV."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TraceEvent:
    unique_calls_so_far: int
    wall_time_s: float
    best_value: float
    best_point: tuple[float, ...]


@dataclass
class OptimizationTrace:
    """Every incumbent improvement of a run, in order.

    ``best_value`` never increases along ``events``.  ``total_calls`` counts
    distinct objective evaluations over the whole run.
    """

    events: list[TraceEvent] = field(default_factory=list)
    total_calls: int = 0
    total_runtime_s: float = 0.0

    @property
    def best_value(self) -> float:
        return self.events[-1].best_value if self.events else float("inf")

    @property
    def best_point(self) -> tuple[float, ...] | None:
        return self.events[-1].best_point if self.events else None

    def record(self, calls: int, wall_time_s: float, value: float, point) -> None:
        if self.events and value > self.events[-1].best_value:
            raise ValueError("incumbent value may never increase")
        point = tuple(float(x) for x in np.asarray(point, dtype=np.float64))
        self.events.append(TraceEvent(calls, wall_time_s, value, point))

    def value_at(self, wall_time_s: float) -> float:
        """Best value seen up to a wall-time cutoff (inf before the first event)."""
        best = float("inf")
        for event in self.events:
            if event.wall_time_s <= wall_time_s:
                best = event.best_value
            else:
                break
        return best

    def write_csv(self, path) -> None:
        if not self.events:
            raise ValueError("cannot export an empty trace")
        dimension = len(self.events[0].best_point)
        header = ["calls", "wall_time_s", "best_value"] + [f"x{k}" for k in range(dimension)]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for event in self.events:
                writer.writerow(
                    [
                        event.unique_calls_so_far,
                        format(event.wall_time_s, ".6f"),
                        format(event.best_value, ".17g"),
                    ]
                    + [format(x, ".17g") for x in event.best_point]
                )
