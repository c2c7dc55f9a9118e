"""Regenerate the frozen accuracy oracles in ``oracle.json``.

    python3 bench/make_oracle.py

The oracles are the program's own model, converged further than the
benchmark runs it: the six chip presets (which share one cross section) at
``PRESET_LEVEL`` and every cross section of the sweep pool at
``POOL_LEVEL``. The budget tolerances in ``run.py`` are derived from these
levels. They are computed once and committed. A deliberate model
change (for instance a new corner treatment) must regenerate them in its own
benchmark change. The preset solve at level 5 takes about a minute and
roughly 3.5 GB of memory on a 2-core x86 machine.
"""

from __future__ import annotations

import json
import time

import env

env.pin_threads()

import gen  # noqa: E402
from run import ORACLE, PRESETS, budget_values  # noqa: E402

PRESET_LEVEL = 5
POOL_LEVEL = 4


def main():
    cp = env.import_cpwloss()

    t0 = time.perf_counter()
    base = cp.reference_presets("400C", "reference")
    sol = cp.solve_potential(cp.build_mesh(base, PRESET_LEVEL))
    presets = {}
    for temp, treatment in PRESETS:
        stack = cp.reference_presets(temp, treatment)
        presets[f"{temp}/{treatment}"] = budget_values(
            cp.simulate_budget(stack, solution=sol))
    print(f"presets at level {PRESET_LEVEL}: "
          f"{time.perf_counter() - t0:.1f} s", flush=True)
    del sol

    pool = []
    for geom in gen.sweep_pool():
        t1 = time.perf_counter()
        stack = cp.build_stack(**geom)
        budget = cp.simulate_budget(stack, refinement_level=POOL_LEVEL)
        mesh = cp.build_mesh(stack, 2)  # mesh size at the level sweep-l2 runs
        pool.append(dict(geom, nodes_l2=mesh.x.size * mesh.y.size,
                         oracle=budget_values(budget)))
        print(f"{geom}: {time.perf_counter() - t1:.1f} s", flush=True)

    record = {
        "command": "python3 bench/make_oracle.py",
        "preset_level": PRESET_LEVEL,
        "pool_level": POOL_LEVEL,
        "cpwloss_version": cp.__version__,
        "environment": env.environment(),
        "presets": presets,
        "sweep_pool": pool,
    }
    with open(ORACLE, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
