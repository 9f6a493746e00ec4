"""Per-layer metrics of the traced run.

Two kinds:

- ``per_op``: counts and fit statistics of the workload's own traced
  operations, per operation. A layer the workload does not reach reads 0.
- ``probe_times``: the time of each layer, measured the same way on every
  workload: median-of-repeats timings of the small functions, plus spans of
  a few traced probe operations (single-start fits, calibrations and CLI
  sessions) on inputs drawn from the run's seed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import optiqft
import tracing
import workloads

#: Input indices of the probe operations, apart from the workload's own.
PROBE_INDEX = 1_000_000
PROBE_REPEATS = 3
RECK_DIM = 8

CLI_COMMANDS = workloads.CliPipeline.COMMANDS

PER_LAYER = (
    # (name, unit)
    ("elements.matrix_builds_per_op", "count"),
    ("experiment.forward_calls_per_op", "count"),
    ("experiment.block_calls_per_op", "count"),
    ("experiment.primary_module_matrix_us", "us"),
    ("experiment.curves_us", "us"),
    ("experiment.synth_ms", "ms"),
    ("experiment.csv_write_ms", "ms"),
    ("experiment.csv_read_ms", "ms"),
    ("fitting.fits_per_op", "count"),
    ("fitting.starts_per_fit", "count"),
    ("fitting.forward_calls_per_start", "count"),
    ("fitting.converged_ratio", "ratio"),
    ("fitting.mu_abs_p50_rad", "rad"),
    ("fitting.phase_err_p50_rad", "rad"),
    ("fitting.start_ms", "ms"),
    ("fitting.self_ms", "ms"),
    ("fitting.gn_iteration_ms", "ms"),
    ("fitting.model_predict_us", "us"),
    ("calibration.calibrate_ms", "ms"),
    ("calibration.closed_loop_ms", "ms"),
    ("calibration.target_intensity_ms", "ms"),
    ("calibration.solve_step_ms", "ms"),
    ("calibration.signal_calls_per_op", "count"),
    ("calibration.signal_points_per_op", "count"),
    ("calibration.roots_per_step", "count"),
    ("synthesis.reck_decompose_us", "us"),
) + tuple((f"cli.{c}_ms", "ms") for c in CLI_COMMANDS) + (
    ("cli.self_ms", "ms"),
    ("cli.bytes_written_per_op", "B"),
    ("trace.overhead_ratio", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def per_op(counts, spans, infos, ops: int) -> dict:
    """Per-operation counts and fit statistics of one traced pass."""
    fits = [i for i in infos if "phase_err" in i]
    starts = counts["fitting.fit.starts"]
    signal = ("calibration.signal.closed_form", "calibration.signal.simulated")
    return {
        "elements.matrix_builds_per_op": counts["elements.matrix_build"] / ops,
        "experiment.forward_calls_per_op": counts["experiment.forward"] / ops,
        "experiment.block_calls_per_op":
            counts["experiment.block_matrices"] / ops,
        "fitting.fits_per_op": counts["fitting.fit"] / ops,
        "fitting.starts_per_fit": _ratio(starts, counts["fitting.fit"]),
        "fitting.forward_calls_per_start": _ratio(
            tracing.children_of(spans, "fitting.fit", "experiment.forward"),
            starts),
        "fitting.converged_ratio": _ratio(
            sum(i["converged"] for i in fits), len(fits)),
        "fitting.mu_abs_p50_rad": _median([abs(i["mu"]) for i in fits]),
        "fitting.phase_err_p50_rad": _median([i["phase_err"] for i in fits]),
        "calibration.signal_calls_per_op":
            sum(counts[s] for s in signal) / ops,
        "calibration.signal_points_per_op":
            sum(counts[s + ".points"] for s in signal) / ops,
        "calibration.roots_per_step": _ratio(
            counts["calibration.solve_step.roots"],
            counts["calibration.solve_step"]),
        "cli.bytes_written_per_op":
            sum(i.get("bytes_written", 0) for i in infos) / ops,
    }


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return float(statistics.median(times))


def probe_times(seed: int, workdir, tracer: tracing.Tracer) -> tuple[dict, list]:
    """Layer timings on probe inputs drawn from seed; also returns the
    check results of the probe operations."""
    out = {}
    fitting_wl = workloads.FitDefault(seed, workdir)
    cfg = fitting_wl.cfg
    fit_inputs = fitting_wl.make(PROBE_INDEX)
    trace, x = fit_inputs["trace"], tuple(fit_inputs["x_true"])
    grid = trace.phi
    rng = np.random.default_rng([seed, PROBE_INDEX])
    u = workloads.haar_unitary(RECK_DIM, rng)

    out["experiment.primary_module_matrix_us"] = 1e6 * _median_time(
        lambda: optiqft.primary_module_matrix(cfg, x), 200)
    out["experiment.curves_us"] = 1e6 * _median_time(
        lambda: optiqft.detector_intensity_curves(x, grid, cfg), 200)
    model = optiqft.FitModel(x=x)
    out["fitting.model_predict_us"] = 1e6 * _median_time(
        lambda: optiqft.model_predict(model, cfg, grid), 200)
    out["synthesis.reck_decompose_us"] = 1e6 * _median_time(
        lambda: optiqft.reck_decompose(u), 30)
    try:
        one_iteration = optiqft.FitOptions(multistart_offsets=(0.0,),
                                           max_iterations=1)
    except TypeError:
        tracer.absent.append("optiqft.FitOptions.max_iterations")
        out["fitting.gn_iteration_ms"] = 0.0
    else:
        out["fitting.gn_iteration_ms"] = 1e3 * _median_time(
            lambda: optiqft.fit(trace, cfg, options=one_iteration), 5)
    single = optiqft.FitOptions(multistart_offsets=(0.0,))
    cal_wl = workloads.CalibrateRandom(seed, workdir)
    cli_wl = workloads.CliPipeline(seed, workdir)
    cal_wl.span = cli_wl.span = tracer.span

    def traced(fn, *args, **kwargs):
        tracer.active = True
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.active = False

    checks = []
    tracer.reset()
    for j in range(PROBE_REPEATS):
        tracer.op = PROBE_INDEX + j
        inputs = fitting_wl.make(PROBE_INDEX + j)
        result = traced(optiqft.fit, inputs["trace"], cfg, options=single)
        checks.append(fitting_wl.check(inputs, result))
        for wl in (cal_wl, cli_wl):
            inputs = wl.make(PROBE_INDEX + j)
            try:
                checks.append(wl.check(inputs, traced(wl.run, inputs)))
            finally:
                wl.release(inputs)
    spans = tracer.spans
    own = tracing.self_times(spans)

    def ms(name):
        return 1e3 * _median(tracing.durations(spans, name))

    out["fitting.start_ms"] = ms("fitting.fit")
    out["fitting.self_ms"] = 1e3 * _median(
        [own[i] for i, s in enumerate(spans) if s[0] == "fitting.fit"])
    for name in ("synth", "csv_write", "csv_read"):
        out[f"experiment.{name}_ms"] = ms(f"experiment.{name}")
    for name in ("calibrate", "closed_loop", "target_intensity", "solve_step"):
        out[f"calibration.{name}_ms"] = ms(f"calibration.{name}")
    for name in CLI_COMMANDS:
        out[f"cli.{name}_ms"] = ms(f"cli.{name}")
    cli_self = {}
    for i, s in enumerate(spans):
        if s[0].startswith("cli."):
            cli_self[s[4]] = cli_self.get(s[4], 0.0) + own[i]
    out["cli.self_ms"] = 1e3 * _median(list(cli_self.values()))
    return out, checks
