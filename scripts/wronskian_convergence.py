#!/usr/bin/env python3
"""Wronskian drift of the bank integrator under substep halving.

Evolves a 64-node momentum bank over an oscillating background and prints
max |W - i| per substep cap. The integrator is fourth order, so each halving
should cut the drift by about 16x.
"""

from __future__ import annotations

import argparse

import numpy as np

from semiflrw import ModeBank, WickConfig, evolve_bank
from semiflrw.modes import potential
from semiflrw.wick import radial_grid


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mass", type=float, default=1.0)
    parser.add_argument("--amplitude", type=float, default=0.1)
    parser.add_argument("--halvings", type=int, default=4)
    parser.add_argument("--cap", type=float, default=0.02, help="coarsest substep cap")
    args = parser.parse_args()

    nodes = np.linspace(0.0, 2.0, 2001)
    v = potential(1.0 + args.amplitude * np.sin(nodes), 1.0, args.mass)
    momenta, weights = radial_grid(WickConfig(k_max=50.0, n_k=64))
    bank = ModeBank.at_initial(momenta, weights, a0=1.0, mass=args.mass, tau0=0.0)

    print(f"{'cap':>10} {'max |W - i|':>13} {'ratio':>8}")
    previous = None
    cap = args.cap
    for _ in range(args.halvings + 1):
        drift = evolve_bank(bank, v, nodes, substep_cap=cap).wronskian_error_max
        ratio = "" if previous is None else f"{previous / drift:8.1f}"
        print(f"{cap:>10.5f} {drift:>13.3e} {ratio:>8}")
        previous = drift
        cap *= 0.5


if __name__ == "__main__":
    main()
