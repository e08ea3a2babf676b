"""Command-line harness.

Three subcommands:

    poisonlab validate  --config cfg.json
    poisonlab run       --config cfg.json --out DIR
    poisonlab decompose --config cfg.json [--out DIR]

``run`` dispatches on the config's mode (theory, erm, eigen_sweep,
population) and writes CSV results plus a JSON manifest into the
output directory.  Sweep CSVs share one fixed schema (CSV_COLUMNS);
population mode has its own documented schema.  Exit codes: 0 success,
2 configuration or validation error, 3 runtime or numerical failure,
including any fixed-point solve, population fixed-point solve or ERM fit
that does not converge or certify.  Every point is computed before the
first file is written, and a failed write removes the files written.

CSV floats are written with repr-faithful precision (%.17g), so two
runs of the same config produce byte-identical CSVs.
"""

import argparse
import csv
import functools
import json
import math
import os
import platform
import shlex
import sys
import time

import numpy as np
import scipy

from . import __version__, metrics, population
from .config import SWEEP_CSV, ConfigError, build_problem, load_config
from .fixed_point import SolverConfig, solve_self_consistent, solve_sweep, theory_predictions

CSV_COLUMNS = [
    "alpha", "phi", "kappa", "rep",
    "h_mu_theory", "h_v_theory", "sigma_sq", "zeta",
    "clean_acc_theory", "asr_theory",
    "h_mu_emp", "h_v_emp", "clean_acc_emp", "asr_emp",
    "converged", "iters",
]

POPULATION_COLUMNS = [
    "alpha", "a", "b", "grad_norm", "iters", "converged",
    "a_benign", "distance_to_benign", "one_step_gradient",
]

DECOMPOSE_COLUMNS = ["component", "description", "value", "share_percent"]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _write_csv(path: str, columns, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])


class _RunStats:
    """Convergence and geometry diagnostics accumulated over a run."""

    def __init__(self):
        self.max_residual = 0.0
        self.max_iters = 0
        self.max_abs_v_r_mu = 0.0
        self.erm_fallbacks = None  # set by a squared-loss erm run
        self.erm_max_grad_norm = None  # set by an erm run
        self.covariance_jitter = None  # the ridge a CSV covariance was given
        self.replicate_z = None  # set by an erm run: see ``_replicate_z``

    def record_state(self, state, spec):
        self.max_residual = max(self.max_residual, state.residual)
        self.max_iters = max(self.max_iters, state.iters)
        self.covariance_jitter = spec.cov.jitter
        overlap = abs(state.moments.r[0, 1].item())
        self.max_abs_v_r_mu = max(self.max_abs_v_r_mu, overlap)

    def as_dict(self):
        return {
            "max_residual": self.max_residual,
            "max_iters": self.max_iters,
            "max_abs_v_R_mu": self.max_abs_v_r_mu,
            "erm_fallbacks": self.erm_fallbacks,
            "erm_max_grad_norm": self.erm_max_grad_norm,
        }


def _require_converged(converged, what, cfg, alpha, rep=None, s_v_sq=None):
    """Fail the run (exit 3) at the first point that did not converge."""
    if not converged:
        where = f"mode {cfg['mode']}"
        if s_v_sq is not None:
            where += f", s_v_sq {s_v_sq:g}"
        where += f", alpha {alpha:g}"
        if rep is not None:
            where += f", rep {rep}"
        raise ArithmeticError(f"{what} did not converge: {where}")


def _theory_tables(cfg, stats, bases, s_v_sq_values=None):
    """Per base spec, its theory rows, one per alpha of the grid, all
    solved by one ``solve_sweep``.  The run fails at the first point that
    did not converge in base-major grid order, named with its base's
    entry of ``s_v_sq_values`` where given."""
    sweeps = solve_sweep(bases, cfg["alpha_grid"], cfg["loss"], SolverConfig(**cfg["solver"]))
    tables = []
    for base, s_v_sq, states in zip(bases, s_v_sq_values or [None] * len(bases), sweeps):
        for state in states:
            _require_converged(state.converged, "fixed-point solve", cfg, state.alpha, "theory",
                               s_v_sq)
        tables.append([_theory_row(cfg, stats, base, state) for state in states])
    return tables


def _theory_row(cfg, stats, base, state):
    """The theory row of a certified state of ``base``, recorded in the
    run's stats."""
    stats.record_state(state, base)
    pred = theory_predictions(state, cfg["alpha_test"])
    return {
        "alpha": state.alpha, "phi": base.phi, "kappa": base.kappa, "rep": "theory",
        "h_mu_theory": pred.h_mu, "h_v_theory": pred.h_v,
        "sigma_sq": pred.sigma_sq, "zeta": pred.zeta,
        "clean_acc_theory": pred.clean_acc, "asr_theory": pred.asr,
        "converged": state.converged, "iters": state.iters,
    }


def _run_theory(cfg, stats):
    rows, = _theory_tables(cfg, stats, [build_problem(cfg, cfg["alpha_grid"][0])])
    return [("results.csv", CSV_COLUMNS, rows)]


def _run_erm(cfg, stats):
    # Only this mode needs the simulator and, through it, scipy's BLAS.
    from . import simulate

    base = build_problem(cfg, cfg["alpha_grid"][0])
    theory_rows, = _theory_tables(cfg, stats, [base])
    # One draw per replicate serves every alpha of the grid.
    by_rep = []
    for rep in range(cfg["reps"]):
        try:
            by_rep.append(simulate.run_replicates(
                base, cfg["loss"], rep, cfg["seed"], cfg["alpha_test"], cfg["alpha_grid"]
            ))
        except ValueError as exc:  # a draw with too few negatives to poison
            raise ValueError(f"{exc}: mode {cfg['mode']}, rep {rep}") from exc
    # The largest certified gradient (logistic) or residual (squared) sup-norm.
    stats.erm_max_grad_norm = max(r.grad_norm for results in by_rep for r in results)
    if cfg["loss"] == "squared":
        stats.erm_fallbacks = sum(r.solver_iters == simulate.RIDGE_FALLBACK_ITERS
                                  for results in by_rep for r in results)
    rows, z_rows = [], []
    for trow, results in zip(theory_rows, zip(*by_rep)):
        alpha = trow["alpha"]
        for r in results:
            _require_converged(r.converged, "ERM fit", cfg, alpha, r.rep)
        rows.append(trow)
        theory = {k: v for k, v in trow.items() if k not in ("rep", "converged", "iters")}
        emp = {
            "h_mu_emp": [r.theta_mu for r in results],
            "h_v_emp": [r.theta_v for r in results],
            "clean_acc_emp": [r.clean_acc for r in results],
            "asr_emp": [r.asr for r in results],
        }
        for r in results:
            rows.append({
                **theory, "rep": r.rep,
                "h_mu_emp": r.theta_mu, "h_v_emp": r.theta_v,
                "clean_acc_emp": r.clean_acc, "asr_emp": r.asr,
                "converged": r.converged, "iters": r.solver_iters,
            })
        mean_row = {**theory, "rep": "mean"}
        se_row = {"alpha": alpha, "phi": trow["phi"], "kappa": trow["kappa"], "rep": "se"}
        for key, vals in emp.items():
            arr = np.asarray(vals)
            mean_row[key] = float(arr.mean())
            if arr.size > 1:  # one replicate has no standard error: the cells stay blank
                se_row[key] = float(arr.std(ddof=1) / math.sqrt(arr.size))
        rows.append(mean_row)
        rows.append(se_row)
        z_rows.append(_replicate_z(trow, mean_row, se_row))
    stats.replicate_z = {
        "per_alpha": z_rows,
        "max_abs_z": max((abs(z) for row in z_rows for key, z in row.items()
                          if key != "alpha" and z is not None), default=None),
    }
    return [("results.csv", CSV_COLUMNS, rows)]


def _replicate_z(trow, mean_row, se_row):
    """How the replicates of one alpha agree with the theory: z = (mean -
    theory) / se for h_mu, h_v, clean_acc and asr, None where se is blank
    (one replicate) or 0.  A report for the manifest, not a gate."""
    z = {"alpha": trow["alpha"]}
    for name in ("h_mu", "h_v", "clean_acc", "asr"):
        se = se_row.get(f"{name}_emp")
        z[name] = (mean_row[f"{name}_emp"] - trow[f"{name}_theory"]) / se if se else None
    return z


def _run_eigen_sweep(cfg, stats):
    """One theory table per trigger eigenvalue s_v_sq.

    One ``solve_sweep`` goes alpha by alpha, solving the point of every
    s_v_sq in one lockstep batch, each from its own root at the alpha
    before.  A table ends at its first point that does not converge, and
    only that table: the run reports the first failed point in
    s_v_sq-major grid order, as a sweep table by table would.
    """
    prob = cfg["problem"]
    values = cfg["sweep"]["s_v_sq_values"]
    bases = [build_problem(dict(cfg, problem=dict(
        prob, covariance=dict(prob["covariance"], s_v_sq=s_v_sq))), cfg["alpha_grid"][0])
        for s_v_sq in values]
    return [(SWEEP_CSV.format(s_v_sq), CSV_COLUMNS, rows)
            for s_v_sq, rows in zip(values, _theory_tables(cfg, stats, bases, values))]


def _run_population(cfg, stats):
    """The benign minimizer and every alpha of the grid, solved as one cold
    lockstep batch (``population.minimize_population``)."""
    params0 = population.PopulationParams(**cfg["population"], alpha=0.0, loss=cfg["loss"])
    grid = [params0.with_alpha(alpha) for alpha in cfg["alpha_grid"]]
    benign, *minima = population.minimize_population([population.benign_params(params0),
                                                      *grid])
    if not benign.converged:
        raise ArithmeticError("benign minimizer fixed-point solve failed to converge")
    a_ben = benign.a
    pull = population.one_step_gradient(params0, a_ben)
    rows = []
    for alpha, rs in zip(cfg["alpha_grid"], minima):
        _require_converged(rs.converged, "population fixed-point solve", cfg, alpha)
        stats.max_residual = max(stats.max_residual, rs.grad_norm)
        stats.max_iters = max(stats.max_iters, rs.iters)
        rows.append({
            "alpha": alpha, "a": rs.a, "b": rs.b,
            "grad_norm": rs.grad_norm, "iters": rs.iters, "converged": rs.converged,
            "a_benign": a_ben,
            "distance_to_benign": math.hypot(rs.a - a_ben, rs.b),
            "one_step_gradient": pull,
        })
    return [("population.csv", POPULATION_COLUMNS, rows)]


# Each runner computes every point of its mode and returns the
# (file name, columns, rows) tables to write.
_MODE_RUNNERS = {
    "theory": _run_theory,
    "erm": _run_erm,
    "eigen_sweep": _run_eigen_sweep,
    "population": _run_population,
}


def _decompose(cfg, stats):
    """Print the decomposition table; return the decomposition.csv table."""
    spec = build_problem(cfg, cfg["alpha"])
    state = solve_self_consistent(spec, cfg["loss"], SolverConfig(**cfg["solver"]))
    _require_converged(state.converged, "fixed-point solve", cfg, cfg["alpha"])
    stats.record_state(state, spec)
    decomp = metrics.variance_decomposition(state)
    gap = abs(decomp.total - state.sigma_sq)
    if gap > 1e-10 * max(1.0, state.sigma_sq):
        raise ArithmeticError(f"variance decomposition mismatch: {gap:.3e}")
    print(decomp.table())
    rows = [
        {"component": key, "description": label, "value": val, "share_percent": pct}
        for key, label, val, pct in decomp.rows()
    ]
    return [("decomposition.csv", DECOMPOSE_COLUMNS, rows)]


def _write_manifest(out_dir, cfg, argv, stats, outputs, started):
    manifest = {
        "command": shlex.join(["poisonlab", *argv]),
        "mode": cfg["mode"],
        "loss": cfg["loss"],
        "seed": cfg["seed"],
        "alpha_test": cfg.get("alpha_test"),
        "versions": {
            "poisonlab": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "walltime_sec": time.monotonic() - started,
        "convergence": stats.as_dict(),
        "covariance_jitter": stats.covariance_jitter,
        "replicate_z": stats.replicate_z,
        "outputs": [os.path.basename(p) for p in outputs],
    }
    path = os.path.join(out_dir, "run_manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    if "problem" in cfg:
        # The vector and dense covariance files are checked as they are
        # read, so build the first point as a run would.
        first = cfg["alpha"] if cfg["mode"] == "decompose" else cfg["alpha_grid"][0]
        build_problem(cfg, first)
    print(f"config OK: {args.config}")
    return 0


def _write_outputs(out_dir, tables, cfg, argv, stats, started):
    """Write the tables and the manifest; on failure remove what was written."""
    os.makedirs(out_dir, exist_ok=True)
    created = []
    try:
        for name, columns, rows in tables:
            path = os.path.join(out_dir, name)
            created.append(path)
            _write_csv(path, columns, rows)
        created.append(_write_manifest(out_dir, cfg, argv, stats, created, started))
    except BaseException:
        for path in created:
            if os.path.exists(path):
                os.remove(path)
        raise
    return created


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if cfg["mode"] == "decompose":
        raise ConfigError("mode 'decompose' runs through the decompose subcommand")
    started = time.monotonic()
    stats = _RunStats()
    tables = _MODE_RUNNERS[cfg["mode"]](cfg, stats)
    for path in _write_outputs(args.out, tables, cfg, args.argv, stats, started):
        print(f"wrote {path}")
    return 0


def _cmd_decompose(args) -> int:
    cfg = load_config(args.config)
    if cfg["mode"] != "decompose":
        raise ConfigError("decompose subcommand requires mode 'decompose'")
    started = time.monotonic()
    stats = _RunStats()
    tables = _decompose(cfg, stats)
    if args.out is not None:
        _write_outputs(args.out, tables, cfg, args.argv, stats, started)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: ``parse_args`` builds a fresh
    namespace per call, so nothing carries over between calls."""
    parser = argparse.ArgumentParser(
        prog="poisonlab",
        description="Backdoor-poisoning asymptotics for regularized linear classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a config file and exit")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=_cmd_validate)

    p_run = sub.add_parser("run", help="execute a sweep and write CSV + manifest")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_dec = sub.add_parser("decompose", help="print the margin-variance decomposition")
    p_dec.add_argument("--config", required=True)
    p_dec.add_argument("--out", default=None)
    p_dec.set_defaults(func=_cmd_decompose)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    # The manifest records the command line this call parsed.
    args.argv = argv
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
