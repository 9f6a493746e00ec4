"""One table over the public entry points: every checked argument, fed a
value of the wrong kind, raises a ValueError that names it, and every
stored field is an int, a float or a tuple of floats (NOTES.md, "Input
checks")."""

import dataclasses
import json

import numpy as np
import pytest
from click.testing import CliRunner

from optiqft import (CircuitDescription, DetectorTrace, ExperimentConfig,
                     FitModel, FitOptions, Loss, Mirror, Phase, Splitter,
                     calibrate, chi_from_split_ratio, default_phi_grid,
                     detector_intensities, detector_intensity_curves,
                     loss_matrix, phase_estimation_outcome,
                     phase_matrix, prepare_state, primary_module_matrix,
                     qft_matrix, reck_decompose,
                     simulated_step_intensity, solve_step, splitter_matrix,
                     synthesize_measured_trace, target_intensity,
                     theoretical_curves)
from optiqft.cli import main

CFG = ExperimentConfig.default()
RAGGED = [[0.1], [0.2, 0.3]]

#: values that no reader takes, by what is due; a sequence also gets each
#: of SEQUENCE_ENTRIES in place of its first entry
BAD = {
    "integer": [None, True, np.True_, "x", "01", np.nan, np.inf, RAGGED, 2.5],
    "real": [None, True, np.True_, "x", np.nan, np.inf, RAGGED],
    "sequence": [None, True, np.True_, "x", "01", 0.5, RAGGED],
    "array": [None, True, np.True_, "x", "01", ["0", "1"], [True, False], [0.5, True],
              RAGGED, [0.0, np.nan], [0.0, np.inf]],
}
SEQUENCE_ENTRIES = [None, True, np.True_, "x", np.nan, np.inf, [0.1]]


def splitter_from_dict(**fields):
    """A one-splitter netlist read by ``CircuitDescription.from_dict``."""
    return CircuitDescription.from_dict({"dim": 2, "elements": [{"kind": "splitter", **fields}]})


#: (entry point, the keyword arguments of a valid call, with every checked
#: sequence among them, and what each checked argument must be)
ENTRIES = [
    (Splitter, dict(j=0, k=1, chi=0.3, alpha=0.1, theta=0.2),
     dict(j="integer", k="integer", chi="real", alpha="real", theta="real")),
    (Phase, dict(j=0, beta=0.3), dict(j="integer", beta="real")),
    (Mirror, dict(j=0, psi=0.3), dict(j="integer", psi="real")),
    (Loss, dict(j=0, t=0.5), dict(j="integer", t="real")),
    (CircuitDescription, dict(dim=2, elements=()), dict(dim="integer")),
    (splitter_from_dict, dict(j=0, k=1, chi=0.3, alpha=0.1, theta=0.2),
     dict(j="integer", k="integer", chi="real", alpha="real", theta="real")),
    (splitter_matrix, dict(dim=3, j=0, k=1, chi=0.3, alpha=0.1, theta=0.2),
     dict(dim="integer", j="integer", k="integer", chi="real", alpha="real",
          theta="real")),
    (phase_matrix, dict(dim=3, j=0, beta=0.3),
     dict(dim="integer", j="integer", beta="real")),
    (loss_matrix, dict(dim=3, j=0, t=0.5), dict(dim="integer", j="integer", t="real")),
    (chi_from_split_ratio, dict(transmission=0.5, reflection=0.5),
     dict(transmission="real", reflection="real")),
    (ExperimentConfig, dict(chi0=0.8, alpha=(0.0,) * 4, theta=(0.0,) * 4, psi=(0.0,) * 6,
                            x=(0.0,) * 4), {
        **{name: "real" for name in ("chi0", "t_ps", "t_phi", "t_2phi", "alpha_a",
                                     "theta_a", "alpha_b", "theta_b", "psi_a")},
        **{name: "sequence" for name in ("alpha", "theta", "psi", "x")}}),
    (FitModel, dict(scale=(1.0,) * 3, bias=(0.0,) * 3, x=(0.0,) * 4),
     dict(scale="sequence", bias="sequence", phase_scale="real", phase_offset="real",
          x="sequence")),
    (FitOptions, dict(multistart_offsets=(0.0,)), dict(max_iterations="integer", multistart_offsets="sequence")),
    (DetectorTrace, dict(phi=[0.0, 1.0], intensities=np.zeros((2, 3))),
     dict(phi="array", intensities="array")),
    (default_phi_grid, dict(grid=30), dict(grid="integer")),
    (theoretical_curves, dict(cfg=CFG, grid=30), dict(grid="integer")),
    (synthesize_measured_trace,
     dict(cfg=CFG, scale=(1.0,) * 3, bias=(0.0,) * 3, grid=30, noise_sigma=0.01), dict(
        scale="sequence", bias="sequence", phase_scale="real", phase_offset="real",
        noise_sigma="real", seed="integer", grid="integer")),
    (prepare_state, dict(phi=[0.0, 1.0], cfg=CFG), dict(phi="array")),
    (primary_module_matrix, dict(cfg=CFG, x=(0.1, 0.2, 0.3, 0.4)), dict(x="array")),
    (detector_intensities, dict(x=(0.1, 0.2, 0.3, 0.4), phi=0.5, cfg=CFG),
     dict(x="array", phi="array")),
    (detector_intensity_curves,
     dict(x=(0.1, 0.2, 0.3, 0.4), phi_values=[0.0, 1.0], cfg=CFG, phase_scale=1.0,
          phase_offset=0.0),
     dict(x="array", phi_values="array", phase_scale="array", phase_offset="real")),
    (simulated_step_intensity, dict(step=3, dx=0.1, phi=0.5, cfg=CFG, prior_dx=(0.1, 0.2, 0.0)),
     dict(step="integer", dx="array", phi="real", prior_dx="sequence")),
    (target_intensity, dict(step=2, cfg=CFG, phi=0.5), dict(step="integer", phi="real")),
    (solve_step, dict(step=2, cfg=CFG, phi=0.5), dict(step="integer", phi="real")),
    (calibrate, dict(cfg=CFG, phi=0.5), dict(phi="real")),
    (qft_matrix, dict(d=3), dict(d="integer")),
    (phase_estimation_outcome, dict(d=3, m=1), dict(d="integer", m="integer")),
    (reck_decompose, dict(matrix=np.eye(2), tol=1e-10), dict(tol="real")),
]


def _cases():
    for entry, good, checked in ENTRIES:
        for key, kind in checked.items():
            values = list(BAD[kind])
            if kind == "sequence":
                values += [[bad, *good[key][1:]] for bad in SEQUENCE_ENTRIES]
            for value in values:
                yield pytest.param(entry, good, key, value,
                                   id=f"{entry.__name__}-{key}-{value!r}")


@pytest.mark.parametrize("entry, good, key, value", _cases())
def test_wrong_kind_rejected_by_name(entry, good, key, value):
    entry(**good)  # the valid call runs
    with pytest.raises(ValueError, match=f"'{key}'"):
        entry(**{**good, key: value})


@pytest.mark.parametrize("changes, message", [
    (dict(scale=(2.0,), bias=(0.1,)), "'scale' needs 3 entries, got 1"),
    (dict(scale=(2.0, 1.0)), "'scale' needs 3 entries, got 2"),
], ids=["one-scale-one-bias", "two-scales"])
def test_synthesis_lengths_checked_by_name(changes, message):
    # one entry each used to broadcast to all three detectors, and two
    # scales to end in numpy's broadcast error
    with pytest.raises(ValueError, match=message):
        synthesize_measured_trace(CFG, grid=30, **changes)


@pytest.mark.parametrize("entry", [
    lambda x: primary_module_matrix(CFG, x),
    lambda x: detector_intensities(x, 0.5, CFG),
    lambda x: detector_intensity_curves(x, [0.0, 1.0], CFG),
], ids=["primary_module_matrix", "detector_intensities", "detector_intensity_curves"])
@pytest.mark.parametrize("x", [(0.1, 0.2), (0.1,) * 5, 0.1, np.zeros((2, 3))], ids=repr)
def test_phase_count_checked_by_name(entry, x):
    # two phases gave the curves of a two-block device, five numpy's
    # reshape error
    with pytest.raises(ValueError, match="'x' needs 4 entries on its last axis"):
        entry(x)


@pytest.mark.parametrize("noise_sigma", [0.0, 0.1])
def test_negative_seed_rejected_by_name(noise_sigma):
    # with noise, numpy's own message named nothing; without, the seed passed
    with pytest.raises(ValueError, match="'seed' must be >= 0, got -1"):
        synthesize_measured_trace(CFG, noise_sigma=noise_sigma, seed=-1, grid=30)


@pytest.mark.parametrize("build", [
    lambda: Splitter(np.int64(0), np.int32(1), "0.3", np.float32(0.5), 1),
    lambda: Phase(np.int64(1), np.float64(0.2)),
    lambda: Loss(np.int8(0), " 0.5 "),
    lambda: Mirror(1, 2),
    lambda: CircuitDescription(np.int64(2), [Phase(0, 0.1)]),
    lambda: CircuitDescription.from_json(
        '{"dim": 2, "elements": [{"kind": "phase", "j": 1, "beta": "0.5"}]}'),
    lambda: ExperimentConfig(chi0="0.8", t_ps=np.float32(0.5), alpha=np.zeros(4),
                             psi=[0, 1, 2, 3, 4, 5], x=range(4)),
    lambda: FitModel(scale=np.ones(3), bias=[0, 0, 0], phase_scale=np.float32(1.0),
                     x=np.arange(4)),
    lambda: FitOptions(max_iterations=np.int64(5), multistart_offsets=np.array([0.0, 1.0])),
], ids=["Splitter", "Phase", "Loss", "Mirror", "CircuitDescription", "from_json",
        "ExperimentConfig", "FitModel", "FitOptions"])
def test_stored_fields_are_plain_numbers(build):
    # numpy scalars, strings float() reads and arrays are stored as the
    # readers read them, so equality, hashing and JSON see plain numbers
    obj = build()
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.type == "tuple":
            assert type(value) is tuple and all(type(v) is float for v in value), f.name
        elif f.type in ("int", "float"):
            assert type(value) is {"int": int, "float": float}[f.type], f.name
        else:  # a circuit's elements
            assert type(value) is tuple, f.name


@pytest.mark.parametrize("data, key", [
    ({"dim": 2, "real": [[True, False], [False, True]], "imag": [["0", "0"], ["0", "0"]]},
     "real"),
    ({"dim": 2, "real": [[1, 0], [0, 1]], "imag": [["0", "0"], ["0", "0"]]}, "imag"),
    ({"dim": "2", "real": [[1, 0], [0, 1]], "imag": [[0, 0], [0, 0]]}, "dim"),
], ids=["bool-real", "string-imag", "string-dim"])
def test_cli_decompose_wrong_kind_exits_2(tmp_path, data, key):
    path, out = tmp_path / "matrix.json", tmp_path / "netlist.json"
    path.write_text(json.dumps(data))
    result = CliRunner().invoke(main, ["decompose", "--matrix", str(path), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"'{key}'" in result.output
    assert not out.exists()
