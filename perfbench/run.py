"""poisonlab benchmark: three workloads driven through the `poisonlab` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its `src/` directory, so nothing needs installing.  One run:

1. generates the workload's inputs from the seed (see `workloads.py`);
2. runs passes for S seconds, each pass a closed loop of the workload's
   CLI invocations through `poisonlab.cli.main`, one at a time, in this
   process.  The first pass warms up and is not timed; every pass is
   checked by `check.py` outside the timed region;
3. with `--trace 0`, times the set-up in a fresh process
   (`setup_probe.py`) before every pass, and after the window until
   there are SETUP_PROBES samples, and reports their median;
   on a workload in `workloads.HOST_SCALED`, every pass time is scaled
   to reference host speed by the kernel of `hostspeed.py`, timed
   around the pass's invocations, and the unscaled times go to the
   report line;
4. prints each metric with its unit, a JSON report line (machine,
   inputs, checks) and, last, the result line.

`--trace 1` alternates untraced passes with passes traced by
`tracing.py` and reports the per-layer metrics instead of the
end-to-end ones.  BLAS threading is left at the library default.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import check
import hostspeed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 9
SETUP_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def import_program():
    """Import poisonlab from this checkout's src/, never from elsewhere."""
    package = os.path.join(SRC, "poisonlab")
    if not os.path.isfile(os.path.join(package, "cli.py")):
        raise BenchError(f"no poisonlab sources at {package}")
    sys.path.insert(0, SRC)
    import poisonlab.cli

    if os.path.dirname(os.path.abspath(poisonlab.__file__)) != package:
        raise BenchError(f"imported poisonlab from {poisonlab.__file__}, not {package}")
    return poisonlab.cli


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def machine_record():
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "blas_threading": "library default: the benchmark sets no thread variable",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
    }


def probe_setup(workload, workdir):
    """Set-up time of one fresh process, in seconds."""
    probe = os.path.join(HERE, "setup_probe.py")
    configs = [inv.config_path(workdir) for inv in workload.invocations]
    try:
        done = subprocess.run([sys.executable, probe, SRC, *configs], capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"set-up probe took over {SETUP_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def call_cli(cli, argv, tracer=None):
    """Exit code of one CLI invocation and whatever it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv) if tracer is None else tracer.span("cli.main", cli.main, argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def run_pass(cli, workload, workdir, pass_dir, tracer=None):
    """Wall and CPU seconds of the pass's invocations, the host-speed
    kernel times sampled before, between and after them, and each
    invocation's exit code and error output."""
    codes, errors, kernels = {}, {}, hostspeed.sample()
    wall = cpu_s = 0.0
    for inv in workload.invocations:
        cpu0 = time.process_time()
        start = time.perf_counter()
        code, err = call_cli(cli, inv.argv(workdir, os.path.join(pass_dir, inv.label)), tracer)
        wall += time.perf_counter() - start
        cpu_s += time.process_time() - cpu0
        kernels += hostspeed.sample()
        codes[inv.label] = code
        if code != 0:
            errors[inv.label] = err.strip()[-500:]
    return wall, cpu_s, kernels, codes, errors


def _span_field(name):
    """(span name, index into `Tracer.totals()` entries) of a span metric."""
    for suffix, index in ((".calls", 0), (".self_s", 2), (".s", 1)):
        if name.endswith(suffix):
            return name[: -len(suffix)], index
    return None, None


def layer_values(spec_names, tracer, cpu_s, oracle_s):
    """Per-layer metrics of one traced pass."""
    totals = tracer.totals()

    def span(name, index):
        return float(totals.get(name, (0, 0.0, 0.0))[index])

    iters = tracer.counts.get("fixed_point.iters", 0.0)
    special = {
        "fixed_point.us_per_iter": 1e6 * span("fixed_point.solve", 1) / iters if iters else 0.0,
        "cli.self_s": span("cli.main", 2),
        "process.cpu_s": cpu_s,
        "theory_squared.oracle.s": oracle_s,
    }
    values = {}
    for name in spec_names:
        span_name, index = _span_field(name)
        if name in special:
            values[name] = special[name]
        elif span_name is not None:
            values[name] = span(span_name, index)
        else:
            values[name] = float(tracer.counts.get(name, 0.0))
    return values


def missing_metrics(spec_names, tracer):
    """Per-layer metrics whose every wrap target is gone from the program."""
    import tracing

    gone = set(tracer.missing)
    by_span = {}
    for span_name, module, attr, _ in tracer.targets:
        by_span.setdefault(span_name, []).append(f"{module}.{attr}" in gone)
    dead = {name for name, flags in by_span.items() if all(flags)}
    return sorted(m for m in spec_names
                  if tracing.COUNTER_SPANS.get(m, _span_field(m)[0]) in dead)


def run(args, spec):
    cli = import_program()
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; expected one of {sorted(names)}")
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return _run_in(cli, args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@dataclass
class Passes:
    """What the passes of one run measured and how their checks went."""

    walls: list = field(default_factory=list)  # scaled if the workload is host-scaled
    traced_walls: list = field(default_factory=list)  # scaled the same way
    raw_walls: list = field(default_factory=list)
    kernel_s: list = field(default_factory=list)
    layer_samples: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    reasons: dict = field(default_factory=dict)
    cli_errors: dict = field(default_factory=dict)

    def tally(self, pass_reasons):
        self.attempted += len(pass_reasons)
        for reason in pass_reasons:
            if reason is not None:
                self.failed += 1
                self.wrong += not reason.startswith(check.SELF_REPORTED)
                key = reason.split(":")[0]
                self.reasons[key] = self.reasons.get(key, 0) + 1


def measure_passes(cli, workload, workdir, reference, seconds, tracer, per_layer, probe):
    """A warm-up pass, then timed passes for `seconds`; with a tracer,
    untraced and traced passes alternate.  Every pass is checked.
    `probe`, unless None, is called before every pass."""
    got = Passes()
    baseline = None
    started = time.perf_counter()
    for index in itertools.count():
        if probe is not None:
            probe()
        traced = tracer is not None and index > 0 and index % 2 == 0
        pass_dir = os.path.join(workdir, f"pass{index}")
        if traced:
            tracer.reset()
            tracer.install()
        try:
            raw, cpu_s, kernel_s, codes, errors = run_pass(cli, workload, workdir, pass_dir,
                                                           tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        outputs = check.read_outputs(pass_dir)
        shutil.rmtree(pass_dir, ignore_errors=True)
        oracle = check.SquaredOracle()
        got.tally(check.check_pass(workload, outputs, codes, reference, baseline, oracle))
        baseline = baseline or outputs
        got.cli_errors.update(errors)
        wall = hostspeed.normalize(raw, kernel_s) if workload.host_scaled else raw
        if traced:
            got.traced_walls.append(wall)
            got.layer_samples.append(layer_values(per_layer, tracer, cpu_s, oracle.seconds))
        elif index > 0:
            got.walls.append(wall)
            got.raw_walls.append(raw)
            got.kernel_s.append(statistics.mean(kernel_s))
        enough = got.walls and (tracer is None or got.traced_walls)
        if enough and time.perf_counter() - started + raw > seconds:
            return got


def _run_in(cli, args, spec, workdir):
    workload = workloads.generate(args.workload, args.seed, workdir)
    reference, recorded = check.load_reference(args.workload, args.seed)
    report = {"workload": args.workload, "seed": args.seed, "machine": machine_record(),
              "inputs": workload.inputs, "reference_recorded": recorded,
              "reference_checked_ops": sum(check.op_key(op) in reference
                                           for inv in workload.invocations for op in inv.ops)}
    per_layer = [m["name"] for m in spec["per_layer"]]
    tracer, probe, setup_samples = None, None, []
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    else:
        def probe():
            setup_samples.append(probe_setup(workload, workdir))

    got = measure_passes(cli, workload, workdir, reference, args.seconds, tracer, per_layer,
                         probe)
    while probe is not None and len(setup_samples) < SETUP_PROBES:
        probe()
    ops = sum(len(inv.ops) for inv in workload.invocations)
    report.update({"operations_per_pass": ops, "setup_samples_s": setup_samples,
                   "host_scaled": workload.host_scaled,
                   "kernel_reference_s": hostspeed.REFERENCE_S,
                   "pass_unscaled_s": got.raw_walls, "pass_kernel_mean_s": got.kernel_s,
                   "pass_walls_s": got.walls, "traced_pass_walls_s": got.traced_walls,
                   "failure_reasons": got.reasons, "wrong_outputs": got.wrong,
                   "cli_errors": got.cli_errors})
    wall_s = statistics.median(got.walls)
    ok = got.attempted - got.failed
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": wall_s,
            "ok_ops_per_s": ok / (got.attempted / ops) / wall_s,
            "ok_share": ok / got.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        metrics = {name: statistics.median(s[name] for s in got.layer_samples)
                   for name in per_layer if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = statistics.median(got.traced_walls) - wall_s
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        report["missing"] = missing_metrics(per_layer, tracer)
        report["spans_file"] = os.path.join(
            ".perfbench_out", f"{args.workload}-seed{args.seed}-spans.jsonl")
        os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
        tracer.write_spans(os.path.join(ROOT, report["spans_file"]))
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    for name in units:
        print(f"{name:34s} {metrics[name]:>16.6g} {units[name]}")
    print(json.dumps({"report": report}))
    return {
        "correct": got.wrong == 0,
        "attempted": got.attempted,
        "failed": got.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args, load_spec())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
