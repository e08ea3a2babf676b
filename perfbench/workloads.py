"""Seeded inputs and CLI invocations for the three benchmark workloads.

Every input the program sees is generated here from the workload seed
and written into a scratch directory: JSON configs, the `spectrum`
eigenvalues (inside the config), dense covariance CSVs and mu/v CSVs.
No config carries a `solver` section, a `workers` key or a `preset`, so
the solvers run at their default tolerances and the configs stay valid
if those keys are removed from the schema.

An operation is one requested result row: a theory point, an
`eigen_sweep` point, a population point, a `decompose` call or a fitted
ERM replicate.  `mean` and `se` summary rows are not operations.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("theory_sweep", "dense_pipeline", "erm_ridge")
# Workloads whose pass times are scaled to reference host speed (see
# hostspeed.py).  theory_sweep runs in one thread, the interpreter and
# small-vector mix of the kernel, and its pass time follows the kernel
# time.  dense_pipeline and erm_ridge spend their time in two-thread
# BLAS factorizations, which the single-threaded kernel does not track:
# scaling them doubled their run-to-run spread, so they stay unscaled.
HOST_SCALED = ("theory_sweep",)

# Shared problem geometry: phi and lam match the README examples.
PHI = 0.2
LAM = 0.5


@dataclass(frozen=True)
class Op:
    """One requested result row, located by CSV file and row key."""

    csv: str
    alpha: float
    rep: str  # "theory", a replicate number, or "" for population/decompose
    kind: str  # theory | eigen_sweep | population | decompose | erm


@dataclass
class Invocation:
    """One `poisonlab` CLI call and the operations it must produce."""

    label: str
    command: str  # "run" or "decompose"
    config: dict
    ops: list = field(default_factory=list)
    seeded: bool = True  # False when no input of this call depends on the seed

    @property
    def loss(self):
        return self.config["loss"]

    def config_path(self, workdir):
        return os.path.join(workdir, "inputs", f"{self.label}.json")

    def argv(self, workdir, out_dir):
        return [self.command, "--config", self.config_path(workdir), "--out", out_dir]


@dataclass
class Workload:
    invocations: list
    inputs: list  # one record per generated file: kind, size, bytes
    host_scaled: bool = False


def _stream(name, seed):
    return np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(name)]))


def _log_uniform(rng, size, lo=0.25, hi=4.0):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size))


def _dense_covariance(rng, p):
    """Random SPD matrix with a log-uniform spectrum in [0.25, 4]."""
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    c = (q * _log_uniform(rng, p)) @ q.T
    return 0.5 * (c + c.T)


def _unit(rng, p):
    x = rng.standard_normal(p)
    return x / np.linalg.norm(x)


def _theory_ops(label, kind, alphas, csv="results.csv"):
    return [Op(f"{label}/{csv}", a, "theory", kind) for a in alphas]


def _theory_sweep(seed, rng):
    p, n = 1000, 2000
    # mu = e0 and v = e1 keep unit eigenvalues, so the convergence
    # behaviour depends on the seeded bulk only through its traces.
    ev = np.concatenate([[1.0, 1.0], _log_uniform(rng, p - 2)])
    alphas = [0.0] + [float(a) for a in np.logspace(-1.0, 3.0, 6)]
    problem = {
        "p": p, "n": n, "phi": PHI, "lam": LAM,
        "covariance": {"kind": "spectrum", "eigenvalues": [float(x) for x in ev]},
    }
    invs = []
    for loss in ("squared", "logistic"):
        label = f"theory_{loss}"
        cfg = {"mode": "theory", "loss": loss, "seed": seed,
               "alpha_grid": alphas, "problem": problem}
        invs.append(Invocation(label, "run", cfg, _theory_ops(label, "theory", alphas)))
    # Population and eigen_sweep read nothing seeded, so their outputs
    # are the same at every seed.
    pop_cfg = {
        "mode": "population", "loss": "logistic", "alpha_grid": alphas,
        "population": {"norm_mu": 1.0, "s_mu_sq": 1.0, "s_v_sq": 1.0,
                       "lam": LAM, "phi": PHI},
    }
    invs.append(Invocation("population", "run", pop_cfg,
                           [Op("population/population.csv", a, "", "population")
                            for a in alphas], seeded=False))
    sweep_values = [0.25, 0.5, 1.0, 2.0, 4.0]
    sweep_alphas = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    sweep_cfg = {
        "mode": "eigen_sweep", "loss": "logistic", "alpha_grid": sweep_alphas,
        "problem": {"p": p, "n": n, "phi": PHI, "lam": LAM,
                    "covariance": {"kind": "eigen_pair", "s_mu_sq": 1.0,
                                   "s_v_sq": 1.0, "s_rest_sq": 1.0}},
        "sweep": {"s_v_sq_values": sweep_values},
    }
    ops = []
    for s in sweep_values:
        ops += _theory_ops("eigen_sweep", "eigen_sweep", sweep_alphas,
                           csv=f"results_sv_{s:g}.csv")
    invs.append(Invocation("eigen_sweep", "run", sweep_cfg, ops, seeded=False))
    return invs, {}


def _dense_pipeline(seed, rng):
    files = {}
    big, small = 400, 200
    for p in (big, small):
        files[f"cov_{p}.csv"] = ("dense covariance", (p, p), _dense_covariance(rng, p))
        files[f"mu_{p}.csv"] = ("mu vector", (p,), _unit(rng, p))
        files[f"v_{p}.csv"] = ("v vector", (p,), _unit(rng, p))

    def problem(p, n):
        return {"p": p, "n": n, "phi": PHI, "lam": LAM,
                "covariance": {"kind": "dense", "path": f"cov_{p}.csv"},
                "mu_path": f"mu_{p}.csv", "v_path": f"v_{p}.csv"}

    theory_alphas = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0]
    erm_alphas = [0.0, 2.0, 6.0, 16.0]
    reps = 6
    decompose_alpha = 4.0
    invs = [
        Invocation("theory_logistic", "run",
                   {"mode": "theory", "loss": "logistic", "seed": seed,
                    "alpha_grid": theory_alphas, "problem": problem(big, 2 * big)},
                   _theory_ops("theory_logistic", "theory", theory_alphas)),
        Invocation("decompose", "decompose",
                   {"mode": "decompose", "loss": "logistic", "seed": seed,
                    "alpha": decompose_alpha, "problem": problem(big, 2 * big)},
                   [Op("decompose/decomposition.csv", decompose_alpha, "", "decompose")]),
        _erm("erm_logistic", "logistic", seed, erm_alphas, reps, problem(small, 2 * small)),
    ]
    return invs, files


def _erm_ridge(seed, rng):
    # The isotropic covariance has no data file; the seed reaches the
    # program as the config seed that drives every replicate's draw.
    alphas = [float(a) for a in np.linspace(0.0, 16.0, 8)]
    problem = {"p": 600, "n": 300, "phi": PHI, "lam": LAM,
               "covariance": {"kind": "isotropic"}}
    return [_erm("erm_squared", "squared", seed, alphas, 6, problem)], {}


def _erm(label, loss, seed, alphas, reps, problem):
    cfg = {"mode": "erm", "loss": loss, "seed": seed, "alpha_grid": alphas,
           "reps": reps, "problem": problem}
    ops = []
    for a in alphas:
        ops.append(Op(f"{label}/results.csv", a, "theory", "theory"))
        ops += [Op(f"{label}/results.csv", a, str(r), "erm") for r in range(reps)]
    return Invocation(label, "run", cfg, ops)


_GENERATORS = {
    "theory_sweep": _theory_sweep,
    "dense_pipeline": _dense_pipeline,
    "erm_ridge": _erm_ridge,
}


def generate(name, seed, workdir):
    """Write the inputs of workload `name` for `seed` under `workdir/inputs`."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    invs, files = _GENERATORS[name](seed, _stream(name, seed))
    in_dir = os.path.join(workdir, "inputs")
    os.makedirs(in_dir, exist_ok=True)
    records = []
    for fname, (kind, shape, arr) in files.items():
        path = os.path.join(in_dir, fname)
        np.savetxt(path, arr.reshape(shape), delimiter=",", fmt="%.17g")
        records.append({"file": fname, "kind": kind, "size": list(shape),
                        "bytes": os.path.getsize(path)})
    for inv in invs:
        path = inv.config_path(workdir)
        with open(path, "w") as fh:
            json.dump(inv.config, fh)
        size = inv.config["problem"]["p"] if "problem" in inv.config else len(inv.ops)
        records.append({"file": os.path.basename(path), "kind": f"{inv.config['mode']} config",
                        "size": [size], "bytes": os.path.getsize(path)})
    return Workload(invs, records, name in HOST_SCALED)
