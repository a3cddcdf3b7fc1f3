import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

import pibilliards
from oracles import closed_form_floor_mp
from pibilliards import BilliardParams, cli, hankel1, quantum, simulate
from pibilliards.cli import main
from pibilliards.curves import format_sig


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_digits_prints_value_and_certificate(capsys):
    code, out, err = run_cli(["digits", "--N", "4"], capsys)
    assert code == 0
    assert out == "31415\n"
    assert "bits" in err
    # the three computations, each under its own name
    assert ("collision-count route = 31415, interval floor = 31415, "
            "mpmath floor = 31415") in err
    assert "series route" not in err


@pytest.mark.parametrize("n, bits", [(0, 64), (1, 70), (8, 117), (100, 728)])
def test_digits_certificate_bytes(n, bits, tmp_path, capsys):
    # the note, the provenance line and the manifest all carry the certifying
    # precision, count_certified's start at M/m = 100**N: 64 + floor(log2 100**N)
    with mpmath.workdps(n + 30):
        value = str(int(mpmath.floor(mpmath.pi * 10 ** n)))
    code, out, err = run_cli(["digits", "--N", str(n), "--manifest", str(tmp_path / "m.json")],
                             capsys)
    version = pibilliards.__version__
    assert code == 0 and out == value + "\n"
    assert err == (
        f"certified: {bits} bits; collision-count route = {value}, interval floor = {value}, "
        f"mpmath floor = {value}\n"
        f'{{"command": "digits", "parameters": {{"N": {n}, "bits": {bits}}}, '
        f'"version": "{version}"}}\n')
    assert (tmp_path / "m.json").read_text() == (
        f'{{\n  "command": "digits",\n  "parameters": {{\n    "N": {n},\n'
        f'    "bits": {bits}\n  }},\n  "version": "{version}"\n}}\n')


def test_digits_beyond_int_str_limit(capsys):
    # more digits than str(int) allows; the interpreter-wide limit stays put
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run_cli(["digits", "--N", "700"], capsys)
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert len(out) == 702 and out.startswith("31415926535897932384")
    assert int(out) == pibilliards.pi_digits(700)
    assert f"mpmath floor = {out.strip()}" in err


def test_count_mass_ratio_one(capsys):
    code, out, _ = run_cli(["count", "--mass-ratio", "1"], capsys)
    assert code == 0
    assert out == "3\n"


def test_count_by_decade(capsys):
    code, out, _ = run_cli(["count", "--N", "1"], capsys)
    assert code == 0
    assert out == "31\n"


def test_count_by_beta(capsys):
    code, out, _ = run_cli(["count", "--beta", str(math.pi / 6)], capsys)
    assert code == 0
    assert out == "5\n"
    # certified: the double pi/beta gives ...263
    code, out, _ = run_cli(["count", "--beta", "1e-17"], capsys)
    assert code == 0
    assert out == "314159265358979301\n"


@pytest.mark.parametrize("ratio", [
    "1.470491205535975e14", "6.25994663169523e14", "6.294412848816792e15", "1e28",
    "1e29", "9.472135954999583"])
def test_count_mass_ratio_matches_mpmath_floor(ratio, capsys):
    # pi/beta is tens of millions and more here: a relative tie window wider
    # than the fractional part would snap these to the integer below, and
    # from 1e29 the double pi/beta cannot resolve the floor; the double nearest
    # cot^2(pi/10) lies a hair below that tie, so a tie snap would miss it
    with mpmath.workdps(60):
        root = mpmath.sqrt(mpmath.mpf(float(ratio)))
        expected = int(mpmath.floor(mpmath.pi / mpmath.acot(root)))
    code, out, _ = run_cli(["count", "--mass-ratio", ratio], capsys)
    assert code == 0
    assert int(out) == expected


def test_phaseshift_output(capsys):
    code, out, _ = run_cli(
        ["phaseshift", "--n", "1", "--beta", "0.314159265"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("delta = ")
    ratio = float(lines[1].split("(")[1].split(" pi")[0])
    assert ratio == pytest.approx(10.0, abs=1e-4)


def test_geometry_group_is_exclusive():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--beta", "0.3", "--mass-ratio", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["count"])
    assert exc.value.code == 2


def test_simulate_trace_csv(tmp_path, capsys):
    trace = tmp_path / "events.csv"
    code, out, _ = run_cli(
        ["simulate", "--mass-ratio", "100", "--trace", str(trace)], capsys)
    assert code == 0
    assert out == "31\n"
    lines = trace.read_text().splitlines()
    assert lines[0] == "index,kind,t,x,y,vx,vy"
    assert len(lines) == 32
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "ball-ball"
    manifest = json.loads((tmp_path / "events.csv.manifest.json").read_text())
    assert manifest["collision_count"] == 31
    assert manifest["version"]


@pytest.mark.parametrize("precision", [1, 12, 17])
def test_simulate_trace_csv_bytes(precision, tmp_path, capsys):
    # every row is the index, the kind, and format_sig of t, x, y, vx and vy
    path = tmp_path / "t.csv"
    code, out, _ = run_cli(["simulate", "--N", "2", "--trace", str(path),
                            "--precision", str(precision)], capsys)
    assert code == 0 and out == "314\n"
    trace = simulate(BilliardParams.from_mass_ratio(1e4), 1.0, 10.0, 1.0)
    rows = ["index,kind,t,x,y,vx,vy"]
    rows += [",".join([str(ev.index), ev.kind.value,
                       *(format_sig(v, precision) for v in (ev.t, s.x, s.y, s.vx, s.vy))])
             for ev in trace.events for s in (ev.state_after,)]
    assert path.read_bytes() == ("\n".join(rows) + "\n").encode()


def test_simulate_trace_with_nan_state_exit_3(tmp_path, monkeypatch, capsys):
    # one NaN in the states: exit 3 with the count of bad values, no file written
    trace = simulate(BilliardParams.from_mass_ratio(100.0), 1.0, 10.0, 1.0)
    events = list(trace.events)
    events[5] = replace(events[5], state_after=replace(events[5].state_after, x=math.nan))
    monkeypatch.setattr(cli, "simulate",
                        lambda *args: replace(trace, events=tuple(events)))
    code, out, err = run_cli(["simulate", "--N", "1", "--trace", str(tmp_path / "t.csv")],
                             capsys)
    assert code == 3
    assert out == ""
    assert err == "pibilliards: collision trace: 1 value(s) NaN or infinite in double precision\n"
    assert list(tmp_path.iterdir()) == []


def test_simulate_slow_start(capsys):
    # the velocity floats keep their bits however far v0 is from 1
    code, out, _ = run_cli(["simulate", "--N", "1", "--v0", "1e-20"], capsys)
    assert code == 0
    assert out == "31\n"


def test_simulate_params_file(tmp_path, capsys):
    pfile = tmp_path / "params.json"
    pfile.write_text('{"M": 9.0, "m": 1.0}')
    code, out, _ = run_cli(["simulate", "--params", str(pfile)], capsys)
    assert code == 0
    assert int(out) == 9  # pi/arccot(3) = 9.76


def test_simulate_manifest_parameters(tmp_path, capsys):
    # the geometry flags, the two masses and the start: no unit of action
    code, _, _ = run_cli(["simulate", "--N", "1", "--manifest", str(tmp_path / "m.json")],
                         capsys)
    assert code == 0
    parameters = json.loads((tmp_path / "m.json").read_text())["parameters"]
    assert set(parameters) == {"M", "m", "N", "beta", "mass_ratio", "v0", "x0", "y0"}


def test_semiclassical_extremum_count_certified(tmp_path, capsys):
    # P = 8919 + 5.5e-15 at the exact masses; the double prefactor is 8918.999999999998
    out_path = tmp_path / "s.csv"
    code, _, _ = run_cli(["semiclassical", "--n", "1", "--mass-ratio", "8955504.841738565",
                          "--samples", "4", "--out", str(out_path)], capsys)
    assert code == 0
    manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    assert manifest["series_metadata"]["extremum_count"] == 8919


def test_semiclassical_curve_csv(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code, _, _ = run_cli(
        ["semiclassical", "--n", "1", "--beta", str(math.pi / 10),
         "--samples", "64", "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "alpha,y_over_x,model,n"
    assert len(lines) == 65
    assert lines[1].endswith(",semiclassical,1")
    manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
    assert manifest["command"] == "semiclassical"
    assert manifest["parameters"]["n"] == 1


def test_quantum_curve_csv(tmp_path, capsys):
    out_path = tmp_path / "q.csv"
    code, _, _ = run_cli(
        ["quantum", "--n", "1", "--beta", str(math.pi / 10),
         "--samples", "64", "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "eta,theta_over_beta,model,l"
    assert lines[1].endswith(",quantum,10")
    manifest = json.loads((tmp_path / "q.csv.manifest.json").read_text())
    assert "amplitude_coefficient_rule" in manifest["parameters"]


def test_curve_json_format(tmp_path, capsys):
    out_path = tmp_path / "q.json"
    code, _, _ = run_cli(
        ["quantum", "--n", "1", "--beta", str(math.pi / 10),
         "--samples", "16", "--out", str(out_path), "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["columns"] == ["eta", "theta_over_beta", "model", "l"]
    assert len(payload["rows"]) == 16


def test_figures_bundle(tmp_path, capsys):
    outdir = tmp_path / "figs"
    code, _, _ = run_cli(
        ["figures", "--outdir", str(outdir), "--samples", "128"], capsys)
    assert code == 0
    names = {"fig3_classical.csv", "fig3_n1.csv", "fig3_n10.csv",
             "fig5_classical.csv", "fig5_l10.csv", "fig5_l100.csv",
             "figures_manifest.json"}
    assert {p.name for p in outdir.iterdir()} == names
    manifest = json.loads((outdir / "figures_manifest.json").read_text())
    assert manifest["parameters"]["beta"] == pytest.approx(math.pi / 10)
    assert manifest["outputs"] == sorted(n for n in names if n.endswith(".csv"))
    assert "amplitude_coefficient_rule" in manifest


def test_figures_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert main(["figures", "--outdir", str(d), "--samples", "64"]) == 0
    capsys.readouterr()
    for name in ("fig3_classical.csv", "fig5_l100.csv", "figures_manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


_PROVENANCE = {"command", "parameters", "version"}
_SERIES_PROVENANCE = _PROVENANCE | {"outputs", "series_labels", "series_metadata"}
_FIGURES = ["fig3_classical.csv", "fig3_n1.csv", "fig3_n10.csv",
            "fig5_classical.csv", "fig5_l10.csv", "fig5_l100.csv"]


@pytest.mark.parametrize("argv, outputs, default_manifest, keys", [
    (["digits", "--N", "3"], [], None, _PROVENANCE),
    (["count", "--mass-ratio", "100"], [], None, _PROVENANCE),
    (["simulate", "--N", "1"], [], None, _PROVENANCE),
    (["simulate", "--N", "1", "--trace", "t.csv"], ["t.csv"], "t.csv.manifest.json",
     _PROVENANCE | {"outputs", "collision_count", "max_energy_drift"}),
    (["semiclassical", "--N", "1", "--samples", "16", "--out", "s.csv"], ["s.csv"],
     "s.csv.manifest.json", _SERIES_PROVENANCE),
    (["quantum", "--N", "1", "--samples", "16", "--out", "q.json", "--format", "json"],
     ["q.json"], "q.json.manifest.json", _SERIES_PROVENANCE),
    (["phaseshift", "--n", "2", "--beta", "0.3"], [], None, _PROVENANCE),
    (["figures", "--samples", "16", "--outdir", "figs"], [f"figs/{n}" for n in _FIGURES],
     "figs/figures_manifest.json",
     _PROVENANCE | {"outputs", "amplitude_coefficient_rule", "series_metadata"}),
], ids=["digits", "count", "simulate", "simulate-trace", "semiclassical", "quantum-json",
        "phaseshift", "figures"])
def test_provenance_contract(argv, outputs, default_manifest, keys, tmp_path,
                             monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)

    def emitted(args):
        code, _, err = run_cli(args, capsys)
        assert code == 0
        return [json.loads(line) for line in err.splitlines() if line.startswith("{")]

    # --manifest: print-only runs write the object they print on stderr;
    # file-writing runs print none and write it to the given path only
    printed = emitted([*argv, "--manifest", "m.json"])
    payload = json.loads(Path("m.json").read_text())
    assert set(payload) == keys
    assert payload["command"] == argv[0]
    assert payload["version"] == pibilliards.__version__
    if outputs:
        assert printed == []
        assert payload["outputs"] == sorted(Path(o).name for o in outputs)
        assert not Path(default_manifest).exists()
    else:
        assert printed == [payload]
    Path("m.json").unlink()

    # without --manifest, the same object goes to the default place
    printed = emitted(argv)
    if outputs:
        assert printed == []
        assert json.loads(Path(default_manifest).read_text()) == payload
    else:
        assert printed == [payload]
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file()) \
        == sorted([*outputs, *filter(None, [default_manifest])])


def test_precision_flag(tmp_path, capsys):
    out_path = tmp_path / "c.csv"
    code, _, _ = run_cli(
        ["semiclassical", "--n", "1", "--mass-ratio", "100", "--samples", "8",
         "--out", str(out_path), "--precision", "4"], capsys)
    assert code == 0
    cell = out_path.read_text().splitlines()[1].split(",")[1]
    assert len(cell.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) <= 5


@pytest.mark.parametrize("argv", [
    ["digits", "--N", "4"], ["count", "--mass-ratio", "2"], ["count", "--beta", "0.3"],
], ids=["digits", "count-mass-ratio", "count-beta"])
def test_indeterminate_exit_code(argv, monkeypatch, capsys):
    from pibilliards.bigreal import BigReal
    monkeypatch.setattr(BigReal, "floor_certified", lambda self: None)
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert "not certified" in err


@pytest.mark.parametrize("argv", [["digits", "--N", "3"], ["count", "--N", "3"]])
def test_certificate_route_disagreement_exit_3(argv, monkeypatch, capsys):
    from pibilliards import classical
    true_floor = classical._pi_floor_independent
    monkeypatch.setattr(classical, "_pi_floor_independent", lambda n: true_floor(n) + 1)
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("pibilliards: ") and err.count("\n") == 1


def test_mpmath_floor_disagreement_exit_3(monkeypatch, capsys):
    # a wrong mpmath pi reaches the cross-check inside _pi_floor_independent
    monkeypatch.setattr(mpmath.mp, "pi", mpmath.mpf("3.1425"))
    code, out, err = run_cli(["digits", "--N", "3"], capsys)
    assert code == 3
    assert out == ""
    assert "disagrees with the mpmath floor 3142" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--mass-ratio", "inf"],
    ["simulate", "--N", "1", "--x0", "inf"],
    ["simulate", "--N", "1", "--v0", "inf"],
    ["semiclassical", "--N", "1", "--x-min", "inf"],  # no such option: no output depends on x_min
    ["quantum", "--N", "1", "--k", "inf"],  # no such option: the curve depends on k rho only
    ["digits", "--N", "3", "--precision", "5"],
    ["semiclassical", "--N", "155"],  # M/m = 100**N beyond the double range
    ["simulate", "--N", "155"],
    # --precision below 1 is refused before any file is written
    ["semiclassical", "--N", "1", "--precision", "0"],
    ["quantum", "--beta", "0.3", "--samples", "16", "--precision", "-1"],
    ["figures", "--samples", "16", "--outdir", "figs", "--precision", "-1"],
    ["simulate", "--N", "1", "--trace", "t.csv", "--precision", "-1"],
    ["simulate", "--N", "1", "--trace", "t.csv", "--precision", "0"],
])
def test_nonfinite_input_and_dead_flag_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if argv[0] in ("semiclassical", "quantum"):
        argv = [*argv, "--out", "c.csv"]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects an unknown option this way
        code = exc.code
    assert code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["count", "--N", "-1"],
    ["simulate", "--N", "-1", "--trace", "t.csv"],
    ["semiclassical", "--N", "-1", "--out", "c.csv"],
    ["quantum", "--N", "-1", "--out", "c.csv"],
    ["phaseshift", "--N", "-1"],
])
def test_negative_decade_exit_2(argv, tmp_path, monkeypatch, capsys):
    # every --N has the domain of digits --N: nothing is printed or written
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli([*argv, "--manifest", "m.json"], capsys)
    assert code == 2
    assert out == ""
    assert err == "pibilliards: N must be a non-negative integer\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["quantum", "--beta", "0.3", "--samples", "16", "--out", "q.csv"],  # a NaN mean angle
    ["phaseshift", "--beta", "1e-320"],
    ["simulate", "--N", "1", "--v0", "1e308", "--trace", "big.csv"],  # vy passes the range
    ["simulate", "--N", "1", "--v0", "1e-320", "--trace", "t.csv"],  # event times overflow
    ["simulate", "--mass-ratio", "2", "--v0", "5e-324", "--trace", "t.csv"],  # a speed rounds to 0
])
def test_nonfinite_output_exit_3(argv, tmp_path, monkeypatch, capsys):
    # NaN or inf in what would be printed or written: nothing is emitted
    monkeypatch.chdir(tmp_path)
    if argv[0] == "quantum":
        monkeypatch.setattr(quantum, "theta_mean",
                            lambda rho, n, beta: np.full(np.shape(rho), np.nan))
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("pibilliards: ")
    assert err.endswith(" NaN or infinite in double precision\n")
    assert list(tmp_path.iterdir()) == []


def test_count_beta_where_pi_over_beta_overflows(capsys):
    # pi/beta overflows a double below beta ~ 1.75e-308; the interval does not
    code, out, _ = run_cli(["count", "--beta", "1e-320"], capsys)
    assert code == 0
    assert out == f"{closed_form_floor_mp(1e-320)}\n"
    assert len(out) == 322


@pytest.mark.parametrize("trace", [False, True], ids=["print", "trace"])
@pytest.mark.parametrize("argv", [
    ["--N", "1", "--v0", "1e200"],  # M v0^2 overflows
    ["--mass-ratio", "100", "--v0", "1e154"],  # v0**2 raises past |v0| ~ 1.34e154
    ["--params", "huge.json", "--v0", "1e60"],  # M v0^2 is inf
    ["--N", "1", "--v0", "1e-300"],  # M v0^2 underflows to 0
])
def test_simulate_count_at_any_initial_energy(argv, trace, tmp_path, monkeypatch, capsys):
    # the drift is taken in units of the initial energy, which need not be a
    # double: the exact count is printed, and the trace is finite
    monkeypatch.chdir(tmp_path)
    Path("huge.json").write_text('{"M": 1e200, "m": 1e198}')
    code, out, _ = run_cli(["simulate", *argv, *(["--trace", "t.csv"] if trace else [])],
                           capsys)
    assert (code, out) == (0, "31\n")
    if trace:
        rows = [row.split(",")[2:] for row in Path("t.csv").read_text().splitlines()[1:]]
        assert len(rows) == 31 and all(math.isfinite(float(v)) for row in rows for v in row)
        assert json.loads(Path("t.csv.manifest.json").read_text())["max_energy_drift"] < 1e-15


def test_simulate_velocity_past_the_double_range_during_the_run(tmp_path, capsys):
    # e0 = 5e105 is finite, but the light ball reaches about 100 v0, where
    # its vy**2 raised OverflowError in the drift update
    pfile = tmp_path / "p.json"
    pfile.write_text('{"M": 1e-200, "m": 1e-204}')
    code, out, _ = run_cli(["simulate", "--params", str(pfile), "--v0", "1e153"], capsys)
    assert (code, out) == (0, "314\n")


def test_quantum_far_radius_missing_y_exit_3(tmp_path, capsys):
    # the last grid radius passes 7.15e8, where scipy's Y_l is a spurious 0:
    # the curve printed 0.5 there (mpmath: 0.5497) with exit 0
    out_path = tmp_path / "q.csv"
    code, out, err = run_cli(["quantum", "--mass-ratio", "1e8", "--n", "1",
                              "--samples", "20000", "--out", str(out_path)], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("pibilliards: ")
    assert list(tmp_path.iterdir()) == []


def test_quantum_curve_where_channel_n_plus_1_overflows(tmp_path, capsys):
    # yv of order l' overflows on 51 of these radii; the cross term is 0 to
    # double precision there, so the curve sits at theta/beta = 1/2
    out_path = tmp_path / "q.csv"
    code, out, _ = run_cli(["quantum", "--n", "7", "--mass-ratio", "1e6",
                            "--samples", "300", "--out", str(out_path)], capsys)
    assert code == 0 and out == ""
    ys = np.array([float(line.split(",")[1])
                   for line in out_path.read_text().splitlines()[1:]])
    assert ys.size == 300 and np.all(np.isfinite(ys))
    beta = BilliardParams.from_mass_ratio(1e6).wedge_angle
    etas = (np.arange(300) + 0.5) * (math.pi / 600)
    overflowed = np.isinf(np.abs(hankel1(8 * math.pi / beta, 7 * math.pi / beta / np.cos(etas))))
    assert np.count_nonzero(overflowed) > 0
    assert np.all(ys[overflowed] == 0.5)


@pytest.mark.parametrize("argv", [
    ["digits", "--N", "3", "--manifest", "nodir/m.json"],
    ["count", "--N", "3", "--manifest", "nodir/m.json"],
    ["phaseshift", "--n", "1", "--beta", "0.3", "--manifest", "nodir/m.json"],
    ["simulate", "--N", "1", "--trace", "nodir/t.csv"],
])
def test_unwritable_file_prints_no_result(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("pibilliards: ")


def test_calls_in_one_process_do_not_leak(tmp_path, monkeypatch, capsys):
    # each call of a sequence in one process gives what it gives alone in a
    # fresh interpreter: exit status, both streams and the manifest file
    sequence = [["count", "--mass-ratio", "2", "--manifest", "m.json"], ["count", "--N", "2"],
                ["simulate", "--N", "1", "--v0", "3"], ["simulate", "--N", "1"]]
    for i, argv in enumerate(sequence):
        alone, together = tmp_path / f"alone{i}", tmp_path / f"together{i}"
        alone.mkdir()
        together.mkdir()
        proc = _run_fresh(argv, cwd=alone)
        monkeypatch.chdir(together)
        assert run_cli(argv, capsys) == (proc.returncode, proc.stdout, proc.stderr)
        assert sorted((f.name, f.read_bytes()) for f in together.iterdir()) \
            == sorted((f.name, f.read_bytes()) for f in alone.iterdir())


@pytest.mark.parametrize("text, message", [
    ('{"masses": [1, 2]}', "unknown parameter"),
    # the units are natural: hbar is no parameter, and naming it is an error
    ('{"hbar": 0.5}', "unknown parameter keys"),
    # a value that is not a JSON number is refused, not coerced or crashed on
    ('{"M": null}', "JSON number"),
    ('{"M": [1]}', "JSON number"),
    ('{"M": true}', "JSON number"),
    ('{"M": "1e2"}', "JSON number"),
    # out of the double range: an integer overflows float(), a float parses as inf
    ('{"M": 1' + '0' * 400 + '}', "beyond the double range"),
    ('{"M": 1e400}', "positive and finite"),
], ids=["unknown-key", "hbar", "null", "list", "bool", "string", "huge-int", "huge-float"])
def test_bad_params_file_exit_code(text, message, tmp_path, capsys):
    pfile = tmp_path / "bad.json"
    pfile.write_text(text)
    code, out, err = run_cli(["simulate", "--params", str(pfile)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("pibilliards: ") and message in err


def _run_python(args, cwd=None):
    """``python args`` in a new interpreter that imports the package the suite
    imports, installed or not."""
    src = str(Path(pibilliards.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


def _run_fresh(argv, cwd=None):
    """``pibilliards argv`` in a new interpreter (see _run_python)."""
    return _run_python(["-m", "pibilliards.cli", *argv], cwd)


def test_console_script_entry_point():
    proc = _run_fresh(["digits", "--N", "2"])
    assert proc.returncode == 0
    assert proc.stdout == "314\n"


def test_integer_commands_import_neither_numpy_nor_scipy(tmp_path):
    # digits, count and simulate need only BigReal, Fraction and mpmath, and
    # phaseshift only math: importing numpy and scipy.special would be most of
    # a fresh run's time
    code = (
        "import sys\n"
        "from pibilliards.cli import main\n"
        "def loaded(*names):\n"
        "    return [name for name in names if name in sys.modules]\n"
        "for argv in (['digits', '--N', '10'], ['count', '--mass-ratio', '1e10'],\n"
        "             ['count', '--beta', '0.3'], ['simulate', '--N', '2'],\n"
        "             ['simulate', '--mass-ratio', '100', '--trace', 't.csv'],\n"
        "             ['phaseshift', '--n', '1', '--beta', '0.3']):\n"
        "    assert main(argv) == 0, argv\n"
        "    assert not loaded('numpy', 'scipy'), (argv, loaded('numpy', 'scipy'))\n"
        "assert main(['quantum', '--n', '1', '--beta', '0.3', '--samples', '50',\n"
        "             '--out', 'q.csv']) == 0\n")
    proc = _run_python(["-c", code], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "31415926535", "314159", "10", "314", "31",
        "delta = 34.4694776638 (10.971975512 pi)",
        "delta_delta = 32.898681337 (10.471975512 pi)"]
    assert len((tmp_path / "t.csv").read_text().splitlines()) == 1 + 31
    rows = (tmp_path / "q.csv").read_text().splitlines()
    assert rows[0] == "eta,theta_over_beta,model,l" and len(rows) == 1 + 50
