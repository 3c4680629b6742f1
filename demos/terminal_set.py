"""Inspect the tube machinery: disturbance bound, margins, terminal set.

Builds the controller for the bundled linear scenario, prints the estimated
disturbance box, the stage-wise tightening margins, and the terminal set's
robust-invariance certificate: how many of its facets the one-step image
A_cl Omega (+) W exceeds, from one support value per facet.
"""

import os

import numpy as np

from lbmpc import cli, config, runtime
from lbmpc.polytope import bounding_box


def main():
    scenario = config.load_scenario(
        os.path.join(cli.SCENARIO_DIR, "linear.ini"))
    setup = runtime.build_setup(scenario)
    p = setup.problem
    model = p.model

    lo, hi = bounding_box(model.W)
    print("estimated disturbance box W:")
    for i, (a, b) in enumerate(zip(lo, hi)):
        print("  h%d in [%+.2e, %+.2e]" % (i + 1, a, b))

    print("\ntube gain K = %s" % np.array_str(p.cfg.K, precision=3))
    print("\nstate margins by stage (worst row fraction of the bound):")
    frac = p.margins.state / model.X.h[None, :]
    for i, row in enumerate(frac):
        print("  stage %2d: %.3f" % (i, float(np.max(row))))

    facets = p.omega.num_facets
    print("\nterminal set: %d facets" % facets)
    bad = cli.invariance_violations(setup)
    print("robust invariance: %d/%d facets violated" % (bad, facets))


if __name__ == "__main__":
    main()
