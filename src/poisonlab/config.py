"""Run-configuration loading, validation, and object construction.

Configs are JSON.  Each section is one table that gives every key its
rule and its default, or marks it required; a key no table holds is
rejected wherever it appears, as is a value outside its admissible
range, so a typo fails fast instead of silently running a default.
"""

import json
import math
import os

import numpy as np

from . import covariance as cov
from .fixed_point import SolverConfig
from .losses import REGISTRY


class ConfigError(Exception):
    """Invalid configuration or unreadable referenced file."""


# One eigen_sweep output file per trigger eigenvalue.
SWEEP_CSV = "results_sv_{:g}.csv"

LOSSES = tuple(REGISTRY)
MODES = ("theory", "erm", "eigen_sweep", "population", "decompose")

# A table maps each key of a section to (rule, default); a rule reads a
# value as ``rule(value, key, base_dir)``.  A default is read by the rule
# like a given value; _REQUIRED marks a key without one, and None a key
# that stays None when it is absent.
_REQUIRED = object()


def _section(raw, table: dict, where: str, prefix: str, base_dir: str) -> dict:
    """``raw`` read by ``table``, each key named ``prefix + key``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = raw.keys() - table.keys()
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    out = {}
    for key, (rule, default) in table.items():
        if key in raw:
            out[key] = rule(raw[key], prefix + key, base_dir)
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r} in {where}")
        else:
            out[key] = None if default is None else rule(default, prefix + key, base_dir)
    return out


def _as_float(x) -> float:
    """A number as a float; an integer beyond the float range is inf."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _number(ok, what):
    """A finite number for which ``ok`` holds, as a float."""
    def rule(value, key, base_dir):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key} must be a number")
        x = _as_float(value)
        if not math.isfinite(x):
            raise ConfigError(f"{key} must be finite")
        if not ok(x):
            raise ConfigError(f"{key} must {what}")
        return x
    return rule


def _numbers(ok, what):
    """A nonempty list of finite numbers for which ``ok`` holds, as one float
    array, checked in one type pass and one vectorized range test; the
    error names the first bad entry by its index."""
    def rule(value, key, base_dir):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{key} must be a nonempty list of numbers")
        for i, x in enumerate(value):
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise ConfigError(f"{key}[{i}] must be a number")
        try:
            arr = np.array(value, dtype=float)
        except OverflowError:
            arr = np.array([_as_float(x) for x in value])
        bad = np.flatnonzero(~(ok(arr) & (arr < math.inf)))
        if bad.size:
            raise ConfigError(f"{key}[{bad[0]}] must {what} and finite")
        return arr
    return rule


def _integer(minimum):
    """An integer >= minimum that a float can hold."""
    def rule(value, key, base_dir):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key} must be an integer")
        if value < minimum:
            raise ConfigError(f"{key} must be >= {minimum}")
        if _as_float(value) == math.inf:
            raise ConfigError(f"{key} must be finite")
        return value
    return rule


def _choice(options):
    def rule(value, key, base_dir):
        if value not in options:
            raise ConfigError(f"{key} must be one of {options}, got {value!r}")
        return value
    return rule


def _file(path, key: str, base_dir: str) -> str:
    if not isinstance(path, str):
        raise ConfigError(f"{key} must be a string path")
    resolved = path if os.path.isabs(path) else os.path.join(base_dir, path)
    if not os.path.isfile(resolved):
        raise ConfigError(f"{key}: file not found: {resolved}")
    return resolved


# Each range once, for a number and for a list of numbers.
_GT0 = (lambda x: x > 0, "be positive")
_GE0 = (lambda x: x >= 0, "be nonnegative")
_POSITIVE, _NONNEGATIVE = _number(*_GT0), _number(*_GE0)
_PHI = _number(lambda x: 0 <= x < 0.5, "lie in [0, 0.5)")
_COUNT = _integer(1)


def _grid(value, key, base_dir):
    grid = _numbers(*_GE0)(value, key, base_dir).tolist()
    if len(set(grid)) != len(grid):
        raise ConfigError(f"{key} has duplicate entries")
    return grid


_COVARIANCE = {
    "isotropic": {"scale": (_POSITIVE, 1.0)},
    "eigen_pair": {"s_mu_sq": (_POSITIVE, _REQUIRED), "s_v_sq": (_POSITIVE, _REQUIRED),
                   "s_rest_sq": (_POSITIVE, 1.0)},
    "spectrum": {"eigenvalues": (_numbers(*_GT0), _REQUIRED)},
    "dense": {"path": (_file, _REQUIRED)},
}


def _covariance(value, key, base_dir):
    if not isinstance(value, dict) or "kind" not in value:
        raise ConfigError(f"{key} must be an object with a 'kind' key")
    kind = _choice(tuple(_COVARIANCE))(value["kind"], "covariance.kind", base_dir)
    fields = {k: v for k, v in value.items() if k != "kind"}
    return {"kind": kind, **_section(fields, _COVARIANCE[kind], f"covariance ({kind})",
                                     "covariance.", base_dir)}


def _problem(value, key, base_dir):
    prob = _section(value, {
        "p": (_COUNT, _REQUIRED), "n": (_COUNT, _REQUIRED), "norm_mu": (_POSITIVE, 1.0),
        "phi": (_PHI, _REQUIRED), "lam": (_POSITIVE, _REQUIRED),
        "covariance": (_covariance, _REQUIRED), "mu_path": (_file, None), "v_path": (_file, None),
    }, "problem", "problem.", base_dir)
    if "norm_mu" in value and "mu_path" in value:
        raise ConfigError("problem.norm_mu has no effect with problem.mu_path; give one of them")
    ev = prob["covariance"].get("eigenvalues")
    if ev is not None and len(ev) != prob["p"]:
        raise ConfigError("covariance.eigenvalues length must equal problem.p")
    if prob["v_path"] is None and prob["p"] < 2:
        raise ConfigError("problem.p must be >= 2 for the default trigger e_1 (or give v_path)")
    return prob


def _population(value, key, base_dir):
    return _section(value, {
        "norm_mu": (_POSITIVE, 1.0), "s_mu_sq": (_POSITIVE, 1.0), "s_v_sq": (_POSITIVE, 1.0),
        "lam": (_POSITIVE, _REQUIRED), "phi": (_PHI, 0.0),
    }, "population", "population.", base_dir)


def _solver(value, key, base_dir):
    solver = _section(value, {"tol": (_POSITIVE, SolverConfig.tol),
                              "max_iter": (_COUNT, SolverConfig.max_iter)},
                      "solver", "solver.", base_dir)
    try:
        SolverConfig(**solver)
    except ValueError as exc:
        raise ConfigError(f"solver.{exc}") from exc
    return solver


def _sweep(value, key, base_dir):
    vals = _section(value, {"s_v_sq_values": (_numbers(*_GT0), _REQUIRED)},
                    "sweep", "sweep.", base_dir)["s_v_sq_values"].tolist()
    names = [SWEEP_CSV.format(x) for x in vals]
    shared = sorted({name for name in names if names.count(name) > 1})
    if shared:
        raise ConfigError(f"sweep.s_v_sq_values entries would share output files {shared}")
    return {"s_v_sq_values": vals}


# The top-level keys: rule, default, and the modes that read them.  A key
# of another mode is rejected, not ignored.
_SOLVING = ("theory", "erm", "eigen_sweep", "decompose")
_TOP = {
    "mode": (_choice(MODES), _REQUIRED, MODES),
    "loss": (_choice(LOSSES), "squared", MODES),
    "seed": (_integer(0), 0, MODES),
    "alpha_test": (_NONNEGATIVE, 0.5, MODES),
    "problem": (_problem, _REQUIRED, _SOLVING),
    "solver": (_solver, {}, _SOLVING),
    "alpha": (_NONNEGATIVE, _REQUIRED, ("decompose",)),
    "alpha_grid": (_grid, _REQUIRED, ("theory", "erm", "eigen_sweep", "population")),
    "reps": (_COUNT, 8, ("erm",)),
    "sweep": (_sweep, _REQUIRED, ("eigen_sweep",)),
    "population": (_population, _REQUIRED, ("population",)),
}
_MODE_TABLES = {mode: {key: (rule, default) for key, (rule, default, modes) in _TOP.items()
                       if mode in modes} for mode in MODES}


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
    mode = _choice(MODES)(raw.get("mode"), "mode", base_dir)
    cfg = _section(raw, _MODE_TABLES[mode], f"config for mode {mode!r}", "", base_dir)
    if mode == "eigen_sweep" and cfg["problem"]["covariance"]["kind"] != "eigen_pair":
        raise ConfigError("eigen_sweep mode requires an eigen_pair covariance")
    return cfg


def build_covariance(cfg: dict, p: int) -> cov.SpectrumCovariance:
    kind = cfg["kind"]
    try:
        if kind == "isotropic":
            return cov.IsotropicCovariance(p, cfg["scale"])
        if kind == "eigen_pair":
            return cov.EigenPairCovariance(p, cfg["s_mu_sq"], cfg["s_v_sq"], cfg["s_rest_sq"])
        if kind == "spectrum":
            return cov.SpectrumCovariance(cfg["eigenvalues"])
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
