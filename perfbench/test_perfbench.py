"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

The end-to-end tests start the benchmark itself with a one-second
window, so the suite takes about a minute.
"""

import copy
import json
import os
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import check  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import Invocation, Op, Workload  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"], lines[:-2]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_printed_metric_is_named_in_benchmark_json(trace, section):
    result, report, table = bench("erm_ridge", trace)
    named = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named
    assert {line.split()[0] for line in table} == set(named)
    assert result["correct"] and result["failed"] == 0
    if trace == 0:
        assert not report["host_scaled"]
        assert report["pass_walls_s"] == report["pass_unscaled_s"]


def test_theory_sweep_pass_times_are_scaled_to_reference_host_speed():
    result, report, _ = bench("theory_sweep", 0)
    assert report["host_scaled"]
    scaled = [hostspeed.normalize(raw, [kernel]) for raw, kernel
              in zip(report["pass_unscaled_s"], report["pass_kernel_mean_s"])]
    assert scaled == pytest.approx(report["pass_walls_s"])
    assert result["metrics"]["wall_s"]["value"] == pytest.approx(statistics.median(scaled))
    # A program twice as slow under the same kernel times reads twice as slow.
    assert hostspeed.normalize(2.0, [0.01, 0.03]) == 2 * hostspeed.normalize(1.0, [0.02])


def test_unconverged_squared_points_count_as_failed():
    result, report, _ = bench("theory_sweep", 0)
    passes = result["attempted"] // report["operations_per_pass"]
    # alpha >= 158 on the squared-loss grid stops at max_iter: two points a pass.
    assert report["failure_reasons"] == {"converged=0": 2 * passes}
    assert result["failed"] == 2 * passes
    assert result["metrics"]["ok_share"]["value"] == pytest.approx(1 - 2 / 51)
    assert result["correct"]


def _tiny_workload(loss, alphas):
    config = {"mode": "theory", "loss": loss, "alpha_grid": alphas,
              "problem": {"p": 40, "n": 80, "phi": 0.2, "lam": 0.5,
                          "covariance": {"kind": "isotropic"}}}
    ops = [Op("tiny/results.csv", a, "theory", "theory") for a in alphas]
    return Workload([Invocation("tiny", "run", config, ops)], [])


def _run_tiny(tmp_path, workload):
    cli = run.import_program()
    inv = workload.invocations[0]
    os.makedirs(os.path.dirname(inv.config_path(str(tmp_path))), exist_ok=True)
    with open(inv.config_path(str(tmp_path)), "w") as fh:
        json.dump(inv.config, fh)
    _, _, _, codes, _ = run.run_pass(cli, workload, str(tmp_path), str(tmp_path / "out"))
    return check.read_outputs(str(tmp_path / "out")), codes


def _corrupt(outputs, path, alpha, field, factor):
    text = outputs[path].decode().splitlines(keepends=True)
    header = text[0].strip().split(",")
    for i, line in enumerate(text[1:], 1):
        cells = line.rstrip("\r\n").split(",")
        if cells[0] == check.fmt_alpha(alpha):
            col = header.index(field)
            cells[col] = "%.17g" % (float(cells[col]) * factor)
            text[i] = ",".join(cells) + "\r\n"
    bad = dict(outputs)
    bad[path] = "".join(text).encode()
    return bad


def test_checker_flags_a_corrupted_row(tmp_path):
    workload = _tiny_workload("squared", [0.0, 1.0, 2.0])
    outputs, codes = _run_tiny(tmp_path, workload)
    assert check.check_pass(workload, outputs, codes) == [None, None, None]

    bad = _corrupt(outputs, "tiny/results.csv", 1.0, "h_v_theory", 1 + 1e-6)
    reasons = check.check_pass(workload, bad, codes)
    assert reasons[0] is None and reasons[2] is None
    assert reasons[1].startswith("closed form missed")
    reasons = check.check_pass(workload, bad, codes, baseline=outputs)
    assert reasons == [None, "differs from the first pass", None]


def test_checker_flags_a_row_off_its_reference(tmp_path):
    workload = _tiny_workload("logistic", [0.0, 2.0])
    outputs, codes = _run_tiny(tmp_path, workload)
    tables = check.parse_tables(outputs)
    reference = {check.op_key(op): check.op_values(op, check.find_row(op, tables))
                 for op in workload.invocations[0].ops}
    assert check.check_pass(workload, outputs, codes, reference) == [None, None]

    bad = _corrupt(outputs, "tiny/results.csv", 2.0, "sigma_sq", 1 + 1e-5)
    assert check.check_pass(workload, bad, codes, reference) == [None, "reference missed"]
    assert check.check_pass(workload, outputs, {"tiny": 3}, reference) == [
        "invocation exited 3", "invocation exited 3"]
    missing = copy.deepcopy(outputs)
    del missing["tiny/results.csv"]
    assert check.check_pass(workload, missing, codes) == ["missing row", "missing row"]


POPULATION_HEADER = (b"alpha,a,b,grad_norm,iters,converged,"
                     b"a_benign,distance_to_benign,one_step_gradient\r\n")


def _malformed_case(population_row, decompose_rows):
    pop = Op("population/population.csv", 0.0, "", "population")
    dec = Op("decompose/decomposition.csv", 4.0, "", "decompose")
    workload = Workload([Invocation("population", "run", {"loss": "logistic"}, [pop]),
                         Invocation("decompose", "decompose", {"loss": "logistic"}, [dec])],
                        [])
    outputs = {
        "population/population.csv": POPULATION_HEADER + population_row,
        "decompose/decomposition.csv":
            b"component,description,value,share_percent\r\n" + decompose_rows,
    }
    reasons = check.check_pass(workload, outputs, {"population": 0, "decompose": 0})
    tally = run.Passes()
    tally.tally(reasons)
    return reasons, tally.wrong


def test_checker_reports_truncated_and_garbled_rows_as_wrong_output():
    rest = b"cross,c,0.1,10\r\ntrigger,t,0.1,10\r\nnoise,n,0.8,80\r\n"
    # A population row cut off after `converged`, a decompose row with
    # only its component: the checker must report them, not raise.
    reasons, wrong = _malformed_case(b"0,0.5,0,1e-12,3,1\r\n", b"mean\r\n" + rest)
    assert [r.split(":")[0] for r in reasons] == ["unreadable row", "unreadable row"]
    assert wrong == 2
    full = b",0.5,0.5,0.1\r\n"
    for cell in (b"", b"yes", b"1.0"):
        reasons, wrong = _malformed_case(b"0,0.5,0,1e-12,3," + cell + full, b"")
        assert reasons[0] == f"unreadable row: converged={cell.decode()!r}"
        assert wrong == 2  # the empty decompose table is a missing row
    reasons, wrong = _malformed_case(b"0,0.5,0,1e-12,3,0" + full, b"")
    assert reasons == ["converged=0", "missing row"] and wrong == 1


def test_ref_tol_covers_the_recorded_solver_gaps():
    gaps = []
    for name in ("theory_sweep", "dense_pipeline", "erm_ridge"):
        with open(os.path.join(check.REFERENCE_DIR, f"{name}.json")) as fh:
            gaps.append(json.load(fh)["max_gap"])
    assert check.MEASURED_GAP >= max(gaps)
    # Seed-independent operations are checked at any seed.
    reference, recorded = check.load_reference("theory_sweep", 1000)
    assert not recorded and len(reference) == 7 + 30


def test_missing_wrap_target_is_reported_not_fatal():
    import poisonlab.simulate as simulate

    original = simulate.ridge_fit
    targets = tracing.TARGETS + [("gone.layer", "poisonlab.simulate", "no_such_function", None),
                                 ("gone.module", "poisonlab.no_such_module", "f", None)]
    tracer = tracing.Tracer(targets)
    tracer.install()
    try:
        assert simulate.ridge_fit is not original
    finally:
        tracer.uninstall()
    assert simulate.ridge_fit is original
    assert tracer.missing == ["poisonlab.simulate.no_such_function",
                              "poisonlab.no_such_module.f"]


def test_metrics_of_a_removed_target_are_listed_as_missing():
    targets = [(name, module, "ridge_fit_removed" if name == "simulate.ridge_fit" else attr, hook)
               for name, module, attr, hook in tracing.TARGETS]
    tracer = tracing.Tracer(targets)
    tracer.install()
    tracer.uninstall()
    names = [m["name"] for m in SPEC["per_layer"]]
    assert run.missing_metrics(names, tracer) == ["simulate.ridge_fit.calls",
                                                  "simulate.ridge_fit.s"]
    values = run.layer_values(names, tracer, 0.0, 0.0)
    assert set(values) == set(names)
