import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pibilliards
from pibilliards.cli import main


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


def test_simulate_params_file(tmp_path, capsys):
    pfile = tmp_path / "params.json"
    pfile.write_text('{"M": 9.0, "m": 1.0}')
    code, out, _ = run_cli(["simulate", "--params", str(pfile)], capsys)
    assert code == 0
    assert int(out) == 9  # pi/arccot(3) = 9.76



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


def test_precision_flag(tmp_path, capsys):
    out_path = tmp_path / "c.csv"
    code, _, _ = run_cli(
        ["semiclassical", "--n", "1", "--mass-ratio", "100", "--samples", "8",
         "--out", str(out_path), "--precision", "4"], capsys)
    assert code == 0
    cell = out_path.read_text().splitlines()[1].split(",")[1]
    assert len(cell.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) <= 5


def test_indeterminate_exit_code(monkeypatch, capsys):
    from pibilliards.bigreal import BigReal
    monkeypatch.setattr(BigReal, "floor_certified", lambda self: None)
    code, _, err = run_cli(["digits", "--N", "4"], capsys)
    assert code == 3
    assert "not certified" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--mass-ratio", "inf"],
    ["simulate", "--N", "1", "--x0", "inf"],
    ["simulate", "--N", "1", "--v0", "inf"],
    ["semiclassical", "--N", "1", "--x-min", "inf"],  # no such option: no output depends on x_min
    ["quantum", "--N", "1", "--k", "inf"],  # no such option: the curve depends on k rho only
    ["digits", "--N", "3", "--precision", "5"],
])
def test_nonfinite_input_and_dead_flag_exit_2(argv, tmp_path, capsys):
    out_path = tmp_path / "c.csv"
    if argv[0] in ("semiclassical", "quantum"):
        argv = [*argv, "--out", str(out_path)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects an unknown option this way
        code = exc.code
    assert code == 2
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["quantum", "--n", "7", "--mass-ratio", "1e6", "--samples", "300"],
    ["phaseshift", "--beta", "1e-320"],
    ["count", "--beta", "1e-320"],
    ["simulate", "--N", "1", "--v0", "1e200"],
    ["simulate", "--N", "1", "--v0", "1e-300"],  # initial energy underflows to 0
])
def test_nonfinite_output_exit_3(argv, tmp_path, capsys):
    # NaN or inf in what would be printed or written: nothing is emitted
    out_path = tmp_path / "q.csv"
    if argv[0] == "quantum":
        argv = [*argv, "--out", str(out_path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("pibilliards: ")
    assert list(tmp_path.iterdir()) == []


def test_bad_params_file_exit_code(tmp_path, capsys):
    pfile = tmp_path / "bad.json"
    pfile.write_text('{"masses": [1, 2]}')
    code, _, err = run_cli(["simulate", "--params", str(pfile)], capsys)
    assert code == 2
    assert "unknown parameter" in err


def test_console_script_entry_point():
    # the child imports the package the suite imports, installed or not
    src = str(Path(pibilliards.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-m", "pibilliards.cli", "digits", "--N", "2"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == "314\n"
