"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each target below with a timing wrapper at
the module or class attribute where its caller looks it up, for
example `poisonlab.cli.solve_self_consistent` rather than the function
in `poisonlab.fixed_point`.  `uninstall()` puts the originals back.
Nothing under `src/` is edited, and an untraced run never imports this
module.

Each wrapped call records a span (name, start, end, parent span) in
memory; `counts` accumulates the per-call counters that the targets'
hooks extract from arguments and results.  A target that no longer
exists is listed in `missing` and skipped.  The benchmark calls into
the program from one thread, so one span stack suffices.
"""

import importlib
import inspect
import json
import os
import time
from collections import defaultdict


def _solve(counts, args, result):
    counts["fixed_point.iters"] += result.iters
    counts["fixed_point.iters_max"] = max(counts["fixed_point.iters_max"], result.iters)
    counts["fixed_point.unconverged"] += not result.converged
    counts["fixed_point.eta2_clamped"] += bool(result.eta2_clamped)


def _f_both(counts, args, result):
    counts["losses.f_both.points"] += result[0].size


def _population(counts, args, result):
    counts["population.newton_iters"] += result.iters
    counts["population.unconverged"] += not result.converged


def _logistic_fit(counts, args, result):
    counts["simulate.newton_iters"] += result.iters
    counts["simulate.fit_unconverged"] += not result.converged


def _cho_factor(counts, args, result):
    p = args[0].shape[0]
    counts["simulate.factor_gflop"] += p**3 / 3.0 / 1e9


def _from_csv(counts, args, result):
    counts["covariance.csv_bytes_read"] += os.path.getsize(args[-1])


def _write_csv(counts, args, result):
    counts["cli.write_csv.bytes"] += os.path.getsize(args[0])


_COVARIANCE_FUNCTIONALS = (
    "resolvent_quad", "resolvent_weighted_quad", "resolvent_sq_quad", "cov_quad",
    "resolvent_trace", "resolvent_sq_trace", "noise_trace",
)
_COVARIANCE_MODELS = (
    "IsotropicCovariance", "EigenPairCovariance", "SpectrumCovariance", "DenseCovariance",
)

# The span whose wrapper's hook feeds each counter.
COUNTER_SPANS = {
    "fixed_point.iters": "fixed_point.solve",
    "fixed_point.iters_max": "fixed_point.solve",
    "fixed_point.us_per_iter": "fixed_point.solve",
    "fixed_point.unconverged": "fixed_point.solve",
    "fixed_point.eta2_clamped": "fixed_point.solve",
    "losses.f_both.points": "losses.f_both",
    "population.newton_iters": "population.minimize",
    "population.unconverged": "population.minimize",
    "simulate.newton_iters": "simulate.logistic_fit",
    "simulate.fit_unconverged": "simulate.logistic_fit",
    "simulate.factor_gflop": "simulate.cho_factor",
    "covariance.csv_bytes_read": "covariance.dense_build",
    "cli.write_csv.bytes": "cli.write_csv",
}

# (span name, module, attribute path, counter hook)
TARGETS = [
    ("fixed_point.solve", "poisonlab.cli", "solve_self_consistent", _solve),
    ("fixed_point.predict", "poisonlab.cli", "theory_predictions", None),
    ("losses.f_both", "poisonlab.fixed_point", "f_both", _f_both),
    ("quadrature.nodes", "poisonlab.fixed_point", "standard_normal_nodes", None),
    ("quadrature.nodes", "poisonlab.population", "standard_normal_nodes", None),
    ("population.minimize", "poisonlab.population", "minimize_population_eigen", _population),
    ("population.benign", "poisonlab.population", "benign_minimizer_eigen", None),
    *[("covariance.functional", "poisonlab.covariance", name, None)
      for name in _COVARIANCE_FUNCTIONALS],
    ("config.load_config", "poisonlab.cli", "load_config", None),
    ("config.build_problem", "poisonlab.cli", "build_problem", None),
    ("covariance.dense_build", "poisonlab.covariance", "DenseCovariance.from_csv", _from_csv),
    ("covariance.dense_factor", "poisonlab.covariance", "DenseCovariance.__init__", None),
    ("metrics.variance_decomposition", "poisonlab.metrics", "variance_decomposition", None),
    ("simulate.logistic_fit", "poisonlab.simulate", "logistic_fit", _logistic_fit),
    ("simulate.ridge_fit", "poisonlab.simulate", "ridge_fit", None),
    ("simulate.cho_factor", "poisonlab.simulate", "cho_factor", _cho_factor),
    ("simulate.run_replicate", "poisonlab.simulate", "run_replicate", None),
    *[("simulate.sample", "poisonlab.simulate", name, None)
      for name in ("sample_clean", "poison", "absorb")],
    *[("covariance.sample_noise", "poisonlab.covariance", f"{cls}.sample_noise", None)
      for cls in _COVARIANCE_MODELS],
    ("simulate.evaluate", "poisonlab.simulate", "evaluate_analytic", None),
    ("cli.write_csv", "poisonlab.cli", "_write_csv", _write_csv),
]


def _resolve(module_name, attr_path):
    """(owner, attribute name, raw attribute) or None if any part is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        raw = inspect.getattr_static(owner, attr)
    except AttributeError:
        return None
    return owner, attr, raw


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = defaultdict(float)
        self.missing = []
        self._stack = []
        self._installed = []

    def span(self, name, fn, *args, hook=None, **kwargs):
        """Call fn inside a span named `name`."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)
        if hook is not None:
            hook(self.counts, args, result)
        return result

    def _wrap(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, hook=hook, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        self.missing = []
        for name, module_name, attr_path, hook in self.targets:
            found = _resolve(module_name, attr_path)
            if found is None:
                self.missing.append(f"{module_name}.{attr_path}")
                continue
            owner, attr, raw = found
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(name, raw.__func__, hook))
            else:
                replacement = self._wrap(name, raw, hook)
            own = attr in vars(owner)
            setattr(owner, attr, replacement)
            self._installed.append((owner, attr, raw, own))

    def uninstall(self):
        while self._installed:
            owner, attr, raw, own = self._installed.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def reset(self):
        self.spans = []
        self.counts = defaultdict(float)

    def totals(self):
        """{span name: (calls, inclusive seconds, self seconds)}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), inner in zip(self.spans, child_time):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - inner
        return {name: tuple(v) for name, v in out.items()}

    def write_spans(self, path):
        """Write the recorded spans as JSON lines: name, start, end, parent."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
