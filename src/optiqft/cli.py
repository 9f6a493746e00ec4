"""Command-line front end: curve generation, virtual calibration, trace
synthesis, fringe fitting and unitary decomposition, all file based.

Exit codes: 0 success, 2 unreadable or malformed input or an output
(``--out`` or its manifest) that cannot be written, 3 degenerate physics
(no interference contrast to calibrate against), 4 non-unitary
decomposition input.  Every command writes a run manifest next to its
output; re-running with the same inputs and seed reproduces the output
byte for byte.

Each line is echoed to ``file=sys.stdout`` or ``sys.stderr``: without ``file``,
click caches a wrapper per stream that it never drops, one per CliRunner call.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .calibration import DegenerateConfigError, calibrate
from .elements import integer, real_array, reals
from .experiment import (DetectorTrace, ExperimentConfig, fourier_setpoints,
                         theoretical_curves)
from .fitting import FitOptions, fit, residual_report, synthesize_measured_trace
from .synthesis import reck_decompose, reconstruction_error


def _fail(code: int, message: str):
    click.echo(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _read(what: str, path: str, parse):
    """parse of the text at path, or exit 2 naming the input that failed."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        _fail(2, f"cannot read {what} {path}: {exc}")
    try:
        return parse(text)
    except ValueError as exc:  # json.JSONDecodeError included
        _fail(2, f"malformed {what} {path}: {exc}")


def _matrix(text: str) -> np.ndarray:
    """The complex matrix of a {"dim": n, "real": [[..]], "imag": [[..]]} object."""
    data = json.loads(text)
    if not (isinstance(data, dict) and {"dim", "real", "imag"} <= data.keys()):
        raise ValueError("need an object with keys 'dim', 'real' and 'imag'")
    dim = integer(data["dim"], "dim")
    # checked before 1j * imag, which turns an infinite entry into nan
    u = real_array(data["real"], "real") + 1j * real_array(data["imag"], "imag")
    if u.shape != (dim, dim):
        raise ValueError(f"matrix shape {u.shape} does not match dim {dim}")
    return u


def _save(out: str, text: str, command: str, inputs: dict, options: dict):
    """Write text to out and the run manifest to out.manifest.json, or exit 2."""
    manifest = json.dumps({"command": command, "inputs": inputs, "options": options,
                           "outputs": [out], "version": __version__}, indent=2, sort_keys=True)
    for path, content in ((out, text), (out + ".manifest.json", manifest + "\n")):
        try:
            Path(path).write_text(content)
        except OSError as exc:
            _fail(2, f"cannot write {path}: {exc}")


@click.group()
@click.version_option(__version__)
def main():
    """Simulate, calibrate and fit a lossy three-beam Fourier interferometer."""


@main.command()
@click.option("--config", "config_path", required=True, type=str,
              help="Experiment config JSON.")
@click.option("--out", "out_path", required=True, type=str,
              help="Output CSV path.")
@click.option("--mode", type=click.Choice(["ideal", "fixed"]), default="fixed",
              show_default=True, help="Ideal lossless circuit or lossy network.")
@click.option("--grid", type=int, default=720, show_default=True,
              help="Number of platform phases over one period.")
def curves(config_path, out_path, mode, grid):
    """Write theoretical detector curves as CSV."""
    cfg = _read("config", config_path, ExperimentConfig.from_json)
    try:
        trace = theoretical_curves(cfg, mode=mode, grid=grid)
    except ValueError as exc:
        _fail(2, f"bad option value: {exc}")
    _save(out_path, trace.to_csv(), "curves", {"config": config_path},
          {"mode": mode, "grid": grid})
    click.echo(f"wrote {len(trace.phi)} rows to {out_path}", file=sys.stdout)


@main.command(name="calibrate")
@click.option("--config", "config_path", required=True, type=str)
@click.option("--out", "out_path", required=True, type=str,
              help="Calibration report JSON path.")
def calibrate_cmd(config_path, out_path):
    """Run the virtual four-step adjustment and write the report."""
    cfg = _read("config", config_path, ExperimentConfig.from_json)
    try:
        result = calibrate(cfg)
    except DegenerateConfigError as exc:
        _fail(3, f"degenerate configuration: {exc}")
    _save(out_path, json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n",
          "calibrate", {"config": config_path}, {})
    click.echo(f"calibrated: max offset {result.max_offset:.3e} rad", file=sys.stdout)


@main.command()
@click.option("--config", "config_path", required=True, type=str)
@click.option("--out", "out_path", required=True, type=str,
              help="Output trace CSV path.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--grid", type=int, default=720, show_default=True)
@click.option("--noise", type=float, default=0.0, show_default=True,
              help="Gaussian noise standard deviation (intensity units).")
@click.option("--scale", type=str, default="1,1,1", show_default=True,
              help="Per-detector intensity scales a0,a1,a2.")
@click.option("--bias", type=str, default="0,0,0", show_default=True,
              help="Per-detector intensity biases b0,b1,b2.")
@click.option("--phase-scale", type=float, default=1.0, show_default=True)
@click.option("--phase-offset", type=float, default=0.0, show_default=True)
@click.option("--dx", type=str, default=None,
              help="Offsets from the zero point fourier_setpoints, dx1,dx2,dx3,dx4 "
                   "(overrides the config's x).")
def synth(config_path, out_path, seed, grid, noise, scale, bias,
          phase_scale, phase_offset, dx):
    """Generate a synthetic measured trace from the forward model."""
    cfg = _read("config", config_path, ExperimentConfig.from_json)
    try:
        scale_v, bias_v = reals(scale.split(","), "scale"), reals(bias.split(","), "bias")
        if dx is not None:
            offs = reals(dx.split(","), "dx")
            if len(offs) != 4:
                raise ValueError("need four comma-separated dx values")
            base = fourier_setpoints(cfg)
            cfg = cfg.replace(x=tuple(b + o for b, o in zip(base, offs)))
        trace = synthesize_measured_trace(cfg, scale_v, bias_v, phase_scale,
                                          phase_offset, noise, seed, grid)
    except ValueError as exc:
        _fail(2, f"bad option value: {exc}")
    _save(out_path, trace.to_csv(), "synth", {"config": config_path},
          {"seed": seed, "grid": grid, "noise": noise,
           "scale": list(scale_v), "bias": list(bias_v),
           "phase_scale": phase_scale, "phase_offset": phase_offset, "dx": dx})
    click.echo(f"wrote {len(trace.phi)} rows to {out_path}", file=sys.stdout)


@main.command(name="fit")
@click.option("--trace", "trace_path", required=True, type=str,
              help="Measured trace CSV.")
@click.option("--config", "config_path", required=True, type=str)
@click.option("--out", "out_path", required=True, type=str,
              help="Fit result JSON path.")
@click.option("--multistart/--no-multistart", default=True, show_default=True,
              help="Scan the 81-point phase initialization grid.")
def fit_cmd(trace_path, config_path, out_path, multistart):
    """Fit the fringe model to a measured trace."""
    cfg = _read("config", config_path, ExperimentConfig.from_json)
    trace = _read("trace", trace_path, DetectorTrace.from_csv)
    options = FitOptions() if multistart else FitOptions(multistart_offsets=(0.0,))
    try:
        result = fit(trace, cfg, options=options)
    except ValueError as exc:
        _fail(2, f"cannot fit trace: {exc}")
    payload = result.to_dict()
    payload["report"] = residual_report(result, trace)
    _save(out_path, json.dumps(payload, indent=2, sort_keys=True) + "\n", "fit",
          {"config": config_path, "trace": trace_path}, {"multistart": multistart})
    click.echo(f"fit residual {result.residual:.6e}, "
               f"delta_x = {[round(d, 4) for d in result.delta_x]}", file=sys.stdout)


@main.command()
@click.option("--matrix", "matrix_path", required=True, type=str,
              help="Unitary JSON: {\"dim\": n, \"real\": [[..]], \"imag\": [[..]]}.")
@click.option("--out", "out_path", required=True, type=str,
              help="Netlist JSON path.")
@click.option("--tol", type=float, default=1e-10, show_default=True)
def decompose(matrix_path, out_path, tol):
    """Decompose a unitary matrix into a splitter netlist."""
    if not 0.0 <= tol < np.inf:
        _fail(2, f"bad option value: --tol must be finite and >= 0, got {tol}")
    u = _read("matrix", matrix_path, _matrix)
    try:
        circuit = reck_decompose(u, tol=tol)
    except ValueError as exc:
        _fail(4, str(exc))
    _save(out_path, circuit.to_json() + "\n", "decompose", {"matrix": matrix_path},
          {"tol": tol})
    err = reconstruction_error(u, circuit)
    click.echo(f"netlist with {len(circuit.elements)} elements, "
               f"reconstruction error {err:.3e}", file=sys.stdout)


if __name__ == "__main__":
    main()
