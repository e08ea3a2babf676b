"""Output checker: decides, row by row, which operations failed.

An operation fails when its row is missing, when it reports
`converged=0`, when its CLI invocation exited non-zero, or when it
misses one of these checks:

* squared-loss theory rows match `theory_squared.projections_exact` to
  the 1e-8 relative tolerance of acceptance criterion 01;
* logistic theory, population, `eigen_sweep`, `decompose` and ERM rows
  match the reference values recorded at the seed commit
  (`reference/<workload>.json`) within REF_TOL, see `within_reference`;
* the `decompose` components sum to the `sigma_sq` that the theory run
  reports at the same alpha;
* every CSV is byte-identical to the one the first pass of the run
  wrote with the same seed.

The checker never raises on bad output: a failed check is recorded
against the operation and the run goes on.
"""

import csv
import io
import json
import os
import time

import numpy as np

ORACLE_RTOL = 1e-8
# Reference tolerance, measured rather than assumed: `record_reference.py`
# solves every reference point a second time with tighter solvers (fixed
# point 1e-13 instead of 1e-10, population Newton 1e-13 instead of 1e-10,
# logistic ERM Newton 1e-12 instead of 1e-9) and stores the largest gap
# |default - tight| / (|tight| + 1) of each workload as `max_gap`.  The
# largest of those over the three workloads, at commit 8d18d8a, is
# MEASURED_GAP, from dense_pipeline (theory_sweep 1.13e-9; erm_ridge 0,
# its ridge fits being direct solves).  REF_TOL adds a margin of
# REF_MARGIN, so a solver that stops anywhere within its default
# tolerance, on either side of the tight solution, still passes.
MEASURED_GAP = 1.46e-9
REF_MARGIN = 10.0
REF_TOL = REF_MARGIN * MEASURED_GAP
DECOMPOSE_RTOL = 1e-9

THEORY_FIELDS = ("h_mu_theory", "h_v_theory", "sigma_sq", "zeta",
                 "clean_acc_theory", "asr_theory")
ERM_FIELDS = ("h_mu_emp", "h_v_emp", "clean_acc_emp", "asr_emp")
POPULATION_FIELDS = ("a", "b", "a_benign", "distance_to_benign", "one_step_gradient")
DECOMPOSE_COMPONENTS = ("mean", "cross", "trigger", "noise")
# Failure reasons the program reports itself; every other reason is a
# wrong output, which makes the run's `correct` false.
SELF_REPORTED = ("converged=0", "invocation exited")

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def fmt_alpha(alpha):
    """The CLI's CSV spelling of a float (repr-faithful %.17g)."""
    return "%.17g" % alpha


def read_outputs(out_dir):
    """Every CSV under `out_dir`, as {relative path: bytes}."""
    found = {}
    for dirpath, _, names in os.walk(out_dir):
        for name in names:
            if name.endswith(".csv"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    found[os.path.relpath(path, out_dir).replace(os.sep, "/")] = fh.read()
    return found


def _rows(data):
    return list(csv.DictReader(io.StringIO(data.decode())))


def _index(rows):
    """Rows keyed by (alpha, rep) as the CLI spells them; population
    rows have no rep column and decompose rows key by component."""
    out = {}
    for row in rows:
        if "component" in row:
            out[row["component"]] = row
        else:
            out[(row.get("alpha"), row.get("rep", ""))] = row
    return out


def op_key(op):
    """The name under which an operation's reference values are stored."""
    return f"{op.csv} alpha={fmt_alpha(op.alpha)} rep={op.rep}"


def op_values(op, row):
    """The numeric fields of an operation's row that are compared.
    Raises KeyError, TypeError or ValueError on a malformed row."""
    if op.kind == "decompose":
        return [float(row[c]["value"]) for c in DECOMPOSE_COMPONENTS]
    fields = {"population": POPULATION_FIELDS, "erm": ERM_FIELDS}.get(op.kind, THEORY_FIELDS)
    return [float(row[f]) for f in fields]


def find_row(op, tables):
    """The row (or, for decompose, the component table) of `op`, or None."""
    table = tables.get(op.csv)
    if table is None:
        return None
    if op.kind == "decompose":
        return table if all(c in table for c in DECOMPOSE_COMPONENTS) else None
    return table.get((fmt_alpha(op.alpha), op.rep))


def within_reference(got, ref):
    return all(abs(g - r) <= REF_TOL * (abs(r) + 1.0) for g, r in zip(got, ref))


def load_reference(workload, seed):
    """{op_key: values} recorded for `workload`: the seed-independent
    operations always, the seeded ones only if `seed` was recorded.
    The second value says whether it was."""
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    if not os.path.isfile(path):
        return {}, False
    with open(path) as fh:
        recorded = json.load(fh)
    seeded = recorded["seeds"].get(str(seed))
    return {**recorded["shared"], **(seeded or {})}, seeded is not None


class SquaredOracle:
    """Closed-form squared-loss alignments, computed through the program's
    own `theory_squared` module; `seconds` accumulates its cost so that
    it can be kept out of the timed passes."""

    def __init__(self):
        self.seconds = 0.0
        self._tau = {}

    def alignments(self, config, alpha):
        import poisonlab as pl

        started = time.perf_counter()
        prob = config["problem"]
        p = prob["p"]
        covcfg = prob["covariance"]
        if covcfg["kind"] == "spectrum":
            model = pl.SpectrumCovariance(np.asarray(covcfg["eigenvalues"]))
        elif covcfg["kind"] == "isotropic":
            model = pl.IsotropicCovariance(p, covcfg.get("scale", 1.0))
        else:
            raise ValueError(f"no closed-form oracle for covariance {covcfg['kind']!r}")
        spec = pl.ProblemSpec(
            cov=model, mu=prob.get("norm_mu", 1.0) * pl.basis_vector(p, 0),
            v=pl.basis_vector(p, 1), alpha=alpha, phi=prob["phi"], lam=prob["lam"],
            n=prob["n"],
        )
        key = id(config)
        if key not in self._tau:
            self._tau[key] = pl.solve_tau(model, prob["lam"], prob["n"])
        result = pl.projections_exact(spec, self._tau[key])
        self.seconds += time.perf_counter() - started
        return result


def _rel_gap(got, want):
    return abs(got) if want == 0.0 else abs(got - want) / abs(want)


def _check_op(op, inv, row, tables, reference, oracle):
    """Reason the operation failed, or None."""
    if row is None:
        return "missing row"
    if op.kind != "decompose" and row.get("converged") != "1":
        converged = row.get("converged")
        if converged == "0":
            return "converged=0"
        return f"unreadable row: converged={converged!r}"
    try:
        got = op_values(op, row)
        if op.kind == "decompose":
            theory = tables.get("theory_logistic/results.csv", {}).get(
                (fmt_alpha(op.alpha), "theory"))
            sigma_sq = None if theory is None else float(theory["sigma_sq"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"unreadable row: {exc!r}"
    if op.kind in ("theory", "eigen_sweep") and inv.loss == "squared":
        try:
            want = oracle.alignments(inv.config, op.alpha)
        except Exception as exc:  # the oracle is program code; report, never abort
            return f"oracle error: {exc!r}"
        gap = max(_rel_gap(got[0], want[0]), _rel_gap(got[1], want[1]))
        if not gap <= ORACLE_RTOL:
            return f"closed form missed: rel gap {gap:.3e}"
        return None
    if op.kind == "decompose":
        if sigma_sq is None:
            return "no theory sigma_sq at the decompose alpha"
        if not abs(sum(got) - sigma_sq) <= DECOMPOSE_RTOL * max(1.0, sigma_sq):
            return f"decompose sum missed: {sum(got)!r} != sigma_sq {sigma_sq!r}"
    ref = reference.get(op_key(op))
    if ref is not None and not within_reference(got, ref):
        return "reference missed"
    return None


def check_pass(workload, outputs, exit_codes, reference=None, baseline=None, oracle=None):
    """One failure reason (or None) per operation of `workload`.

    `outputs` maps CSV paths (relative to the pass directory) to bytes,
    `exit_codes` maps invocation labels to CLI exit codes, `reference`
    maps `op_key`s to recorded values (an operation without an entry
    skips the reference check), and
    `baseline` is the first pass's `outputs` for the byte-identity check.
    """
    oracle = oracle or SquaredOracle()
    reference = reference or {}
    tables = parse_tables(outputs)
    changed = set()
    if baseline is not None:
        changed = {p for p in set(outputs) | set(baseline) if outputs.get(p) != baseline.get(p)}
        before = parse_tables({p: baseline[p] for p in changed if p in baseline})
    reasons = []
    for inv in workload.invocations:
        code = exit_codes.get(inv.label)
        for op in inv.ops:
            if code != 0:
                reasons.append(f"invocation exited {code}")
                continue
            if op.csv in changed and find_row(op, tables) != find_row(op, before):
                reasons.append("differs from the first pass")
                continue
            reasons.append(_check_op(op, inv, find_row(op, tables), tables, reference, oracle))
    return reasons


def parse_tables(outputs):
    tables = {}
    for path, data in outputs.items():
        try:
            tables[path] = _index(_rows(data))
        except (UnicodeDecodeError, csv.Error):
            tables[path] = {}
    return tables
