#!/usr/bin/env python3
"""Dense 2-D slice of the mixer surrogate for plotting.

Scans the (connection length, y-angle) plane with the inlet radius and
connection radius held fixed, and writes a long-format CSV of the mixing
score.  The slice shows the two separated basins of the landscape.
"""

import argparse
from pathlib import Path

import numpy as np

from tetraopt import MIXER_BOUNDS, mixer_surrogate
from tetraopt.trace import write_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=100)
    parser.add_argument("--inlet-radius", type=float, default=0.275)
    parser.add_argument("--connection-radius", type=float, default=0.3)
    parser.add_argument("--out", type=Path, default=Path("landscape_slice.csv"))
    args = parser.parse_args()
    if args.points < 1:
        parser.error(f"--points must be at least 1, got {args.points}")
    for flag, value, (low, high) in (
        ("--connection-radius", args.connection_radius, MIXER_BOUNDS[1]),
        ("--inlet-radius", args.inlet_radius, MIXER_BOUNDS[3]),
    ):
        if not low <= value <= high:
            parser.error(f"{flag} must lie in [{low:g}, {high:g}], got {value:g}")

    rows = [
        (a, length, mixer_surrogate([a, args.connection_radius, length, args.inlet_radius]))
        for a in np.linspace(0.0, 30.0, args.points)
        for length in np.linspace(0.5, 1.5, args.points)
    ]
    write_table(
        args.out,
        "y_angle_deg,connection_length_mm,score",
        (f"{a:.6f},{length:.6f},{score:.8f}" for a, length, score in rows),
    )
    a, length, score = min(rows, key=lambda row: row[2])
    print(f"wrote {args.out} ({args.points}x{args.points} samples)")
    print(f"slice minimum {score:.5f} at angle {a:.2f} deg, length {length:.3f} mm")


if __name__ == "__main__":
    main()
