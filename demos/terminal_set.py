"""Inspect the tube machinery: disturbance bound, margins, terminal set.

Builds the controller for the bundled linear scenario, prints the estimated
disturbance box, the stage-wise tightening margins, and a sampled check of
the terminal set's robust invariance.
"""

import os

import numpy as np

from lbmpc import cli, config, runtime
from lbmpc.polytope import bounding_box


def main():
    scenario = config.load_scenario(
        os.path.join(cli.SCENARIO_DIR, "linear.ini"))
    setup = runtime.build_setup(scenario)
    model = setup.model

    lo, hi = bounding_box(model.W)
    print("estimated disturbance box W:")
    for i, (a, b) in enumerate(zip(lo, hi)):
        print("  h%d in [%+.2e, %+.2e]" % (i + 1, a, b))

    print("\ntube gain K = %s" % np.array_str(setup.cfg.K, precision=3))
    print("\nstate margins by stage (worst row fraction of the bound):")
    frac = setup.margins.state / model.X.h[None, :]
    for i, row in enumerate(frac):
        print("  stage %2d: %.3f" % (i, float(np.max(row))))

    print("\nterminal set: %d facets" % setup.omega.num_facets)
    samples = 2000
    bad = cli.invariance_violations(setup, samples)
    print("robust invariance: %d/%d sampled violations" % (bad, samples))


if __name__ == "__main__":
    main()
