#!/usr/bin/env python3
"""Optimize cloners for the canonical finite input sets and print a summary
table against the closed-form values.

The headline results: three 120-degree equatorial states already force the
phase-covariant optimum 1/2 + sqrt(2)/4, and the four tetrahedron states force
the universal optimum 5/6.
"""

import argparse
import json

from clonebench.fidelity import closed_form_bound
from clonebench.optimize import OptimizationConfig, optimize
from clonebench.states import bb84, equatorial_trio, six_state, tetrahedron


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--restarts", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="optional JSON output path")
    args = parser.parse_args(argv)

    f_phase = closed_form_bound("phase_1to2")
    f_universal = closed_form_bound("universal_1to2")
    jobs = [
        (equatorial_trio(), f_phase, dict(symmetric=True)),
        (bb84(), f_phase, dict(symmetric=True)),
        (tetrahedron(), f_universal, dict(symmetric=True, ancilla_dim=2)),
        (six_state(), f_universal, dict(symmetric=True, ancilla_dim=2)),
    ]
    rows = []
    print(f"{'set':<12} {'objective':>14} {'target':>10} {'gap':>10} {'spread':>9}")
    for input_set, target, extra in jobs:
        cfg = OptimizationConfig(restarts=args.restarts, seed=args.seed, **extra)
        res = optimize(input_set, cfg)
        gap = res.objective - target
        print(
            f"{input_set.label:<12} {res.objective:>14.9f} {target:>10.6f} "
            f"{gap:>+10.1e} {res.spread:>9.1e}"
        )
        rows.append(
            {
                "set": input_set.label,
                "objective": res.objective,
                "target": target,
                "spread": res.spread,
            }
        )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "results": rows}, fh, indent=2)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
