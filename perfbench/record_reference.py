"""Record the reference values that `check.py` compares outputs against.

    python3 perfbench/record_reference.py

Runs one pass of every workload for each seed in SEEDS and writes
`reference/<workload>.json`.  It is meant to be run once, at the commit
whose outputs are the reference; later commits are checked against
those files and must not rewrite them.  Squared-loss theory rows are not
recorded: the closed form checks them.  Operations of invocations that
read nothing seeded are stored once, under `shared`, and checked at
every seed; the others are stored per seed.

Each pass is run twice: once as the benchmark runs it, whose values are
recorded, and once with tighter solver tolerances (TIGHT_*).  The
largest gap between the two is stored as `max_gap`; `check.REF_TOL` is
derived from it.
"""

import contextlib
import copy
import functools
import json
import os
import shutil

import check
import run
import workloads

SEEDS = range(32)
DIGITS = 12  # far below REF_TOL, so rounding never decides a check
# Tighter than the defaults (fixed point 1e-10, population Newton 1e-10,
# logistic ERM Newton 1e-9).  The ridge fit is a direct solve.
TIGHT_SOLVER = {"tol": 1e-13, "max_iter": 200000}
TIGHT_POPULATION_TOL = 1e-13
TIGHT_LOGISTIC_TOL = 1e-12


@contextlib.contextmanager
def tight_solvers(workload):
    """`workload` with a tight fixed-point section in every logistic
    config, and the population and logistic ERM tolerances patched in
    the program.  Squared-loss configs keep the default: the closed form
    checks their theory rows, and their ridge fits use no tolerance."""
    import poisonlab.population as population
    import poisonlab.simulate as simulate

    tight = copy.deepcopy(workload)
    for inv in tight.invocations:
        if "problem" in inv.config and inv.loss != "squared":
            inv.config["solver"] = dict(TIGHT_SOLVER)
    saved = population.GRAD_TOL, simulate.logistic_fit
    population.GRAD_TOL = TIGHT_POPULATION_TOL
    simulate.logistic_fit = functools.partial(saved[1], tol=TIGHT_LOGISTIC_TOL)
    try:
        yield tight
    finally:
        population.GRAD_TOL, simulate.logistic_fit = saved


def pass_values(cli, workload, workdir, what):
    """{op_key: (values, seeded)} of one pass; every recorded row must
    exist and report convergence."""
    pass_dir = os.path.join(workdir, "pass")
    shutil.rmtree(pass_dir, ignore_errors=True)
    for inv in workload.invocations:
        with open(inv.config_path(workdir), "w") as fh:
            json.dump(inv.config, fh)
    *_, errors = run.run_pass(cli, workload, workdir, pass_dir)
    if errors:
        raise SystemExit(f"{what}: CLI failed: {errors}")
    tables = check.parse_tables(check.read_outputs(pass_dir))
    values = {}
    for inv in workload.invocations:
        for op in inv.ops:
            if op.kind in ("theory", "eigen_sweep") and inv.loss == "squared":
                continue
            row = check.find_row(op, tables)
            if row is None or (op.kind != "decompose" and row["converged"] != "1"):
                raise SystemExit(f"{what}: no converged row for {op}")
            values[check.op_key(op)] = (check.op_values(op, row), inv.seeded)
    return values


def gap(got, ref):
    return max(abs(g - r) / (abs(r) + 1.0) for g, r in zip(got, ref))


def record(cli, name, workdir):
    shared, seeds, max_gap = {}, {}, 0.0
    for seed in SEEDS:
        workload = workloads.generate(name, seed, workdir)
        default = pass_values(cli, workload, workdir, f"{name} seed {seed}")
        with tight_solvers(workload) as tight:
            exact = pass_values(cli, tight, workdir, f"{name} seed {seed} (tight)")
        seeds[str(seed)] = {}
        for key, (values, seeded) in default.items():
            max_gap = max(max_gap, gap(values, exact[key][0]))
            rounded = [float(f"%.{DIGITS}g" % v) for v in values]
            if seeded:
                seeds[str(seed)][key] = rounded
            elif shared.setdefault(key, rounded) != rounded:
                raise SystemExit(f"{name}: {key} is marked seed-independent but "
                                 f"differs at seed {seed}")
        shutil.rmtree(workdir, ignore_errors=True)
        print(f"recorded {name} seed {seed}: max gap so far {max_gap:.3e}", flush=True)
    return {
        "workload": name,
        "commit": run.machine_record()["git_commit"],
        "fields": "values per op_key (check.py); squared-loss theory rows are "
                  "checked by the closed form and not recorded",
        "max_gap": max_gap,
        "tight_tolerances": {"fixed_point": TIGHT_SOLVER["tol"],
                             "population": TIGHT_POPULATION_TOL,
                             "logistic_erm": TIGHT_LOGISTIC_TOL},
        "shared": shared,
        "seeds": seeds,
    }


def main():
    cli = run.import_program()
    workdir = os.path.join(run.ROOT, ".perfbench_work", f"record-{os.getpid()}")
    os.makedirs(check.REFERENCE_DIR, exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            payload = record(cli, name, workdir)
            with open(os.path.join(check.REFERENCE_DIR, f"{name}.json"), "w") as fh:
                json.dump(payload, fh, separators=(",", ":"))
                fh.write("\n")
            print(f"{name}: max gap {payload['max_gap']:.3e}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
