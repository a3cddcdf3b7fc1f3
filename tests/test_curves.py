import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_legendre

import pibilliards
from oracles import legendre_rule_mp
from pibilliards import CurveSeries
from pibilliards.cli import main
from pibilliards.curves import _OUTER_NODES, _legendre_rule, format_sig

# -0.0, subnormals, the ends of the double range, NaN and +-inf: to_csv
# writes whatever it is given, and the CLI refuses non-finite values before it.
_AWKWARD = [-0.0, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300, -1e300,
            1.7976931348623157e308, math.nan, math.inf, -math.inf, 1 / 3, -2.5,
            123456789.123456789, 1e-5, 9.9999999999999995e-7, 1e16, 0.5, 1.0]


def _format_sig_csv(series: CurveSeries, sig: int) -> str:
    """The CSV as format_sig of each value: the header, then x, y and the labels."""
    tail = [str(v) for v in series.labels.values()]
    rows = [",".join(series.header())]
    rows += [",".join([format_sig(x, sig), format_sig(y, sig), *tail])
             for x, y in zip(series.xs, series.ys)]
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("labels", [{}, {"model": "quantum", "n": 3, "l": 31.4},
                                    {"model": "50%", "n": 3}],
                         ids=["no-labels", "labels", "percent-label"])
@pytest.mark.parametrize("sig", [1, 5, 12, 17, 400])
def test_to_csv_rows_are_format_sig_of_each_value(sig, labels, tmp_path):
    xs = np.array(_AWKWARD)
    series = CurveSeries("x", "y", xs, -xs[::-1], labels=labels)
    path = tmp_path / "c.csv"
    series.to_csv(path, sig=sig)
    assert path.read_bytes() == _format_sig_csv(series, sig).encode()


@pytest.mark.parametrize("argv", [[], ["--precision", "5", "--samples", "300"]],
                         ids=["defaults", "precision-5"])
def test_figures_csvs_are_format_sig_of_each_value(argv, tmp_path, monkeypatch, capsys):
    written = {}
    to_csv = CurveSeries.to_csv

    def recording_to_csv(self, path, sig=12):
        written[Path(path).name] = (self, sig)
        to_csv(self, path, sig)

    monkeypatch.setattr(CurveSeries, "to_csv", recording_to_csv)
    assert main(["figures", "--outdir", str(tmp_path), *argv]) == 0
    capsys.readouterr()
    assert len(written) == 6
    for name, (series, sig) in written.items():
        assert (tmp_path / name).read_bytes() == _format_sig_csv(series, sig).encode()


@pytest.mark.parametrize("sig", [1, 12, 17])
def test_to_json_rows_are_format_sig_read_back(sig, tmp_path):
    xs = np.array([v for v in _AWKWARD if math.isfinite(v)])
    series = CurveSeries("x", "y", xs, -xs[::-1])
    path = tmp_path / "c.json"
    series.to_json(path, sig=sig)
    rows = json.loads(path.read_text())["rows"]
    expected = [[float(format_sig(x, sig)), float(format_sig(y, sig))]
                for x, y in zip(series.xs, series.ys)]
    assert [[repr(v) for v in row] for row in rows] == [[repr(v) for v in row] for row in expected]


# -- Gauss-Legendre rule ----------------------------------------------------

@pytest.mark.parametrize("m", [320, 322, 400, 2034, 6034])
def test_legendre_rule_matches_recurrence_reference(m):
    # 320 and 322 straddle the step of the node policy at n = 144; 2034 is
    # n = 1000 and 6034 is n = 3000, where numpy's dense rule needs hundreds of MB
    x, w = _legendre_rule(m)
    assert len(x) == m and np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    # _OUTER_NODES nodes at each end come from the recurrence, the rest from the series
    k = _OUTER_NODES
    if m <= 2034:
        sample = [0, 1, k - 1, k, k + 1, m // 7, m // 3, m // 2 - 1, m - k - 1, m - k, m - 1]
    else:
        sample = [k, m // 3, m // 2 - 1, m - k - 1]
    ref = legendre_rule_mp(m, sample)
    x_ref = np.array([float(r[0]) for r in ref])
    w_ref = np.array([float(r[1]) for r in ref])
    assert np.max(np.abs(x[sample] - x_ref)) <= 2.3e-16
    rel = np.abs(w[sample] / w_ref - 1)
    outer = np.array([i < k or i >= m - k for i in sample])
    assert np.max(rel[~outer]) <= 1e-14
    if outer.any():
        # at the ends the double node limits 1 - x^2, and so the weight, on
        # both rules: no worse than numpy's eigenvalue-based rule there
        w_numpy = np.polynomial.legendre.leggauss(m)[1]
        assert np.max(rel[outer]) <= np.max(np.abs(w_numpy[sample] / w_ref - 1)[outer])
    for j in range(21):
        assert np.sum(w * x ** (2 * j)) == pytest.approx(2 / (2 * j + 1), abs=1e-14)


@settings(max_examples=25, deadline=None)
@given(half=st.integers(160, 2017), data=st.data())
def test_legendre_rule_is_orthogonal_to_legendre_polynomials(half, data):
    # the rule integrates P_(2j) exactly for 2j < 2m, and the integral is 0;
    # P_(2j) comes from scipy's recurrence, not from the interior series
    m = 2 * half
    j = data.draw(st.integers(1, m - 1), label="j")
    x, w = _legendre_rule(m)
    assert abs(np.sum(w * eval_legendre(2 * j, x))) <= 1e-13


def test_quadratures_do_not_import_scipy_linalg():
    # scipy.special.roots_legendre imports scipy.linalg, tens of ms on every set-up
    src = str(Path(pibilliards.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import math, sys\n"
            "from pibilliards import berry_connection, theta_mean_quadrature\n"
            "theta_mean_quadrature(40.0, 1, math.pi / 10, wave='outgoing')\n"
            "berry_connection(1, 1.0)\n"
            "assert 'scipy.linalg' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
