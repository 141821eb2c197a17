"""Write bench/reference/<workload>.json from the program as it stands.

    python3 bench/make_reference.py [workload ...]

Runs one unit of each input variant and stores the outputs the checks
compare against.  A variant whose oracle or invariant checks fail is
refused, so a stored reference always passes them.  Rerun this only when
a change to the program is meant to change its numbers, and say so.
"""

import json
import os
import shutil
import sys

import run  # sets the BLAS thread variables before numpy loads
from layers import Health
from workloads import N_VARIANTS, WORKLOADS


def main(names) -> int:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    nh = run.import_program()
    os.makedirs(os.path.join(run.HERE, "reference"), exist_ok=True)
    for name in names or WORKLOADS:
        workload = WORKLOADS[name]
        variants = {}
        for seed in range(N_VARIANTS):
            key = workload.variant(seed)
            if key in variants:
                continue
            workdir = os.path.join(run.WORK, f"reference-{name}-{key}")
            os.makedirs(workdir, exist_ok=True)
            try:
                inp = workload.inputs(nh, seed, workdir)
                health = Health()
                wall, result, error = run.run_unit(workload, nh, inp, health)
                if error is not None:
                    raise SystemExit(f"{name} variant {key}: {error}")
                out = workload.outputs(inp, result)
                checks = workload.checks(inp, out, out, health.settle())
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            bad = [c for c in checks if not c.ok]
            if bad:
                raise SystemExit(f"{name} variant {key}: {bad[0].name} failed: {bad[0].detail}")
            variants[key] = out
            print(f"{name} variant {key}: {len(checks)} checks pass, {wall:.2f} s")
        path = os.path.join(run.HERE, "reference", f"{name}.json")
        with open(path, "w") as fh:
            json.dump({"workload": name, "git_revision": run.git_revision(run.ROOT),
                       "environment": run.environment(), "variants": variants}, fh)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
