"""Run-configuration loading, validation, and object construction.

Configs are JSON.  Validation is strict: unknown keys anywhere in the
tree are rejected, as are values outside their admissible ranges, so a
typo fails fast instead of silently running a default.  Presets fill
in omitted regularization strengths for the two standard regimes.
"""

import json
import math
import os

import numpy as np

from . import covariance as cov
from .fixed_point import SolverConfig


class ConfigError(Exception):
    """Invalid configuration or unreadable referenced file."""


PRESETS = {
    "synthetic": {"lam": 0.5},
    "cifar_logistic": {"lam": 1e-4, "loss": "logistic"},
}

# One eigen_sweep output file per trigger eigenvalue.
SWEEP_CSV = "results_sv_{:g}.csv"

LOSSES = ("squared", "logistic")

# Top-level keys every mode accepts (the manifest records them), and the
# keys each mode reads.  A key of another mode is rejected, not ignored.
_COMMON_KEYS = {"mode", "loss", "seed", "alpha_test", "preset"}
_MODE_KEYS = {
    "theory": {"problem", "alpha_grid", "solver"},
    "erm": {"problem", "alpha_grid", "solver", "reps"},
    "eigen_sweep": {"problem", "alpha_grid", "solver", "sweep"},
    "population": {"population", "alpha_grid"},
    "decompose": {"problem", "alpha", "solver"},
}
MODES = tuple(_MODE_KEYS)
_PROBLEM_KEYS = {"p", "n", "norm_mu", "phi", "lam", "covariance", "mu_path", "v_path"}
_COV_KEYS = {
    "isotropic": {"kind", "scale"},
    "eigen_pair": {"kind", "s_mu_sq", "s_v_sq", "s_rest_sq"},
    "spectrum": {"kind", "eigenvalues"},
    "dense": {"kind", "path"},
}
_POPULATION_KEYS = {"norm_mu", "s_mu_sq", "s_v_sq", "lam", "phi"}
_SWEEP_KEYS = {"s_v_sq_values"}
_SOLVER_KEYS = {"tol", "max_iter"}


def _reject_unknown(section: dict, allowed: set, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return section[key]


def _as_number(value, key, positive=False, nonnegative=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number")
    x = float(value)
    if not math.isfinite(x):
        raise ConfigError(f"{key} must be finite")
    if positive and not x > 0:
        raise ConfigError(f"{key} must be positive")
    if nonnegative and x < 0:
        raise ConfigError(f"{key} must be nonnegative")
    return x


def _as_int(value, key, minimum=1):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer")
    if value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}")
    return value


def _as_grid(value, key):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{key} must be a nonempty list of numbers")
    grid = [_as_number(x, f"{key} entry", nonnegative=True) for x in value]
    if len(set(grid)) != len(grid):
        raise ConfigError(f"{key} has duplicate entries")
    return grid


def load_config(path: str) -> dict:
    """Read, validate, and normalize a JSON config file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return validate_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def validate_config(raw: dict, base_dir: str = ".") -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    mode = _require(raw, "mode", "config")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    _reject_unknown(raw, _COMMON_KEYS | _MODE_KEYS[mode], f"config for mode {mode!r}")

    preset = raw.get("preset")
    if preset is not None and preset not in PRESETS:
        raise ConfigError(f"preset must be one of {sorted(PRESETS)}, got {preset!r}")
    preset_vals = PRESETS.get(preset, {})

    out = {
        "mode": mode,
        "seed": _as_int(raw.get("seed", 0), "seed", minimum=0),
        "alpha_test": _as_number(raw.get("alpha_test", 0.5), "alpha_test", nonnegative=True),
        "preset": preset,
    }

    loss = raw.get("loss", preset_vals.get("loss", "squared"))
    if loss not in LOSSES:
        raise ConfigError(f"loss must be one of {LOSSES}, got {loss!r}")
    out["loss"] = loss

    if mode == "population":
        pop = _require(raw, "population", "config")
        _reject_unknown(pop, _POPULATION_KEYS, "population")
        lam_val = pop.get("lam", preset_vals.get("lam"))
        if lam_val is None:
            raise ConfigError("population.lam is required (or select a preset)")
        out["population"] = {
            "norm_mu": _as_number(pop.get("norm_mu", 1.0), "population.norm_mu", positive=True),
            "s_mu_sq": _as_number(pop.get("s_mu_sq", 1.0), "population.s_mu_sq", positive=True),
            "s_v_sq": _as_number(pop.get("s_v_sq", 1.0), "population.s_v_sq", positive=True),
            "lam": _as_number(lam_val, "population.lam", positive=True),
            "phi": _as_number(pop.get("phi", 0.0), "population.phi", nonnegative=True),
        }
        if not out["population"]["phi"] < 0.5:
            raise ConfigError("population.phi must lie in [0, 0.5)")
        out["alpha_grid"] = _as_grid(_require(raw, "alpha_grid", "config"), "alpha_grid")
        return out

    solver = raw.get("solver", {})
    _reject_unknown(solver, _SOLVER_KEYS, "solver")
    default = SolverConfig()
    out["solver"] = {
        "tol": _as_number(solver.get("tol", default.tol), "solver.tol", positive=True),
        "max_iter": _as_int(solver.get("max_iter", default.max_iter), "solver.max_iter"),
    }
    try:
        SolverConfig(**out["solver"])
    except ValueError as exc:
        raise ConfigError(f"solver.{exc}") from exc

    problem = _require(raw, "problem", "config")
    _reject_unknown(problem, _PROBLEM_KEYS, "problem")
    covcfg = _require(problem, "covariance", "problem")
    if not isinstance(covcfg, dict) or "kind" not in covcfg:
        raise ConfigError("problem.covariance must be an object with a 'kind' key")
    kind = covcfg["kind"]
    if kind not in _COV_KEYS:
        raise ConfigError(f"covariance.kind must be one of {sorted(_COV_KEYS)}, got {kind!r}")
    _reject_unknown(covcfg, _COV_KEYS[kind], f"covariance ({kind})")

    cov_out = {"kind": kind}
    if kind == "isotropic":
        cov_out["scale"] = _as_number(covcfg.get("scale", 1.0), "covariance.scale", positive=True)
    elif kind == "eigen_pair":
        for key in ("s_mu_sq", "s_v_sq"):
            cov_out[key] = _as_number(_require(covcfg, key, "covariance"), f"covariance.{key}", positive=True)
        cov_out["s_rest_sq"] = _as_number(covcfg.get("s_rest_sq", 1.0), "covariance.s_rest_sq", positive=True)
    elif kind == "spectrum":
        ev = _require(covcfg, "eigenvalues", "covariance")
        if not isinstance(ev, list) or not ev:
            raise ConfigError("covariance.eigenvalues must be a nonempty list")
        cov_out["eigenvalues"] = [
            _as_number(x, "covariance.eigenvalues entry", positive=True) for x in ev
        ]
    else:
        path = _require(covcfg, "path", "covariance")
        cov_out["path"] = _resolve_file(path, base_dir, "covariance.path")

    lam = problem.get("lam", preset_vals.get("lam"))
    if lam is None:
        raise ConfigError("problem.lam is required (or select a preset)")

    out["problem"] = {
        "p": _as_int(_require(problem, "p", "problem"), "problem.p"),
        "n": _as_int(_require(problem, "n", "problem"), "problem.n"),
        "norm_mu": _as_number(problem.get("norm_mu", 1.0), "problem.norm_mu", positive=True),
        "phi": _as_number(_require(problem, "phi", "problem"), "problem.phi", nonnegative=True),
        "lam": _as_number(lam, "problem.lam", positive=True),
        "covariance": cov_out,
        "mu_path": _resolve_file(problem["mu_path"], base_dir, "problem.mu_path")
        if "mu_path" in problem else None,
        "v_path": _resolve_file(problem["v_path"], base_dir, "problem.v_path")
        if "v_path" in problem else None,
    }
    if not out["problem"]["phi"] < 0.5:
        raise ConfigError("problem.phi must lie in [0, 0.5)")
    if "norm_mu" in problem and "mu_path" in problem:
        raise ConfigError("problem.norm_mu has no effect with problem.mu_path; give one of them")
    if kind == "spectrum" and len(cov_out["eigenvalues"]) != out["problem"]["p"]:
        raise ConfigError("covariance.eigenvalues length must equal problem.p")
    if out["problem"]["v_path"] is None and out["problem"]["p"] < 2:
        raise ConfigError("problem.p must be >= 2 for the default trigger e_1 (or give v_path)")

    if mode == "decompose":
        out["alpha"] = _as_number(_require(raw, "alpha", "config"), "alpha", nonnegative=True)
    else:
        out["alpha_grid"] = _as_grid(_require(raw, "alpha_grid", "config"), "alpha_grid")

    if mode == "erm":
        out["reps"] = _as_int(raw.get("reps", 8), "reps")

    if mode == "eigen_sweep":
        if kind != "eigen_pair":
            raise ConfigError("eigen_sweep mode requires an eigen_pair covariance")
        sweep = _require(raw, "sweep", "config")
        _reject_unknown(sweep, _SWEEP_KEYS, "sweep")
        vals = _require(sweep, "s_v_sq_values", "sweep")
        if not isinstance(vals, list) or not vals:
            raise ConfigError("sweep.s_v_sq_values must be a nonempty list")
        vals = [_as_number(x, "sweep.s_v_sq_values entry", positive=True) for x in vals]
        names = [SWEEP_CSV.format(x) for x in vals]
        shared = sorted({name for name in names if names.count(name) > 1})
        if shared:
            raise ConfigError(f"sweep.s_v_sq_values entries would share output files {shared}")
        out["sweep"] = {"s_v_sq_values": vals}
    return out


def _resolve_file(path, base_dir: str, key: str) -> str:
    if not isinstance(path, str):
        raise ConfigError(f"{key} must be a string path")
    resolved = path if os.path.isabs(path) else os.path.join(base_dir, path)
    if not os.path.isfile(resolved):
        raise ConfigError(f"{key}: file not found: {resolved}")
    return resolved


def build_covariance(cfg: dict, p: int) -> cov.SpectrumCovariance:
    kind = cfg["kind"]
    try:
        if kind == "isotropic":
            return cov.IsotropicCovariance(p, cfg["scale"])
        if kind == "eigen_pair":
            return cov.EigenPairCovariance(p, cfg["s_mu_sq"], cfg["s_v_sq"], cfg["s_rest_sq"])
        if kind == "spectrum":
            return cov.SpectrumCovariance(np.asarray(cfg["eigenvalues"]))
        model = cov.DenseCovariance.from_csv(cfg["path"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if model.dim != p:
        raise ConfigError(f"dense covariance dimension {model.dim} != problem.p {p}")
    return model


def _load_vector(prob: dict, key: str) -> np.ndarray:
    """The p-vector in the CSV file ``prob[key]``; a bad file is a ConfigError."""
    try:
        x = np.loadtxt(prob[key], delimiter=",", ndmin=1)
    except ValueError as exc:
        raise ConfigError(f"problem.{key}: {exc}") from exc
    if x.shape != (prob["p"],):
        raise ConfigError(f"problem.{key}: vector shape {x.shape} != ({prob['p']},)")
    return x


def build_problem(cfg: dict, alpha: float) -> cov.ProblemSpec:
    """Construct a ProblemSpec from the validated ``problem`` section."""
    prob = cfg["problem"]
    p = prob["p"]
    model = build_covariance(prob["covariance"], p)
    if prob["mu_path"] is not None:
        mu = _load_vector(prob, "mu_path")
    else:
        mu = prob["norm_mu"] * cov.basis_vector(p, 0)
    v = _load_vector(prob, "v_path") if prob["v_path"] is not None else cov.basis_vector(p, 1)
    try:
        return cov.ProblemSpec(
            cov=model, mu=mu, v=v, alpha=alpha,
            phi=prob["phi"], lam=prob["lam"], n=prob["n"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
