"""Inspect the tube machinery: disturbance bound, margins, terminal set.

Builds the controller for the bundled linear scenario, prints the estimated
disturbance box, the stage-wise tightening margins, and a sampled check of
the terminal set's robust invariance.
"""

import os

import numpy as np

from lbmpc import cli, config, runtime
from lbmpc.polytope import support_many


def main():
    scenario = config.load_scenario(
        os.path.join(cli.SCENARIO_DIR, "linear.ini"))
    setup = runtime.build_setup(scenario)
    model = setup.model

    eye = np.eye(model.d)
    lo, hi = -support_many(model.W, -eye), support_many(model.W, eye)
    print("estimated disturbance box W:")
    for i, (a, b) in enumerate(zip(lo, hi)):
        print("  h%d in [%+.2e, %+.2e]" % (i + 1, a, b))

    print("\ntube gain K = %s" % np.array_str(setup.cfg.K, precision=3))
    print("\nstate margins by stage (worst row fraction of the bound):")
    frac = setup.margins.state / model.X.h[None, :]
    for i, row in enumerate(frac):
        print("  stage %2d: %.3f" % (i, float(np.max(row))))

    omega = setup.omega
    print("\nterminal set: %d facets" % omega.num_facets)
    A_cl = model.A + model.B @ setup.cfg.K
    box_lo, box_hi = -support_many(omega, -eye), support_many(omega, eye)
    rng = np.random.default_rng(0)
    hits, bad = 0, 0
    while hits < 2000:
        x = rng.uniform(box_lo, box_hi)
        if not omega.contains(x):
            continue
        hits += 1
        w = rng.uniform(lo, hi)
        if not omega.contains(A_cl @ x + w):
            bad += 1
    print("robust invariance: %d/%d sampled violations" % (bad, hits))


if __name__ == "__main__":
    main()
