"""Report serialization and the command-line surface."""

import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from shortmean.cli import run
from shortmean.reports import csv_report, json_report, svg_plot

ROOT = Path(__file__).resolve().parent.parent


def cap(argv):
    buf = io.BytesIO()

    class _Out:
        buffer = buf

        @staticmethod
        def write(text):
            buf.write(text.encode())

    old = sys.stdout
    sys.stdout = _Out
    try:
        rc = run(argv)
    finally:
        sys.stdout = old
    return rc, buf.getvalue()


# -- serialization ----------------------------------------------------------

def test_json_report_schema_and_rationals():
    data = json_report({"value": Fraction(11, 5), "x": 1.5})
    doc = json.loads(data)
    assert doc["schema"] == "shortmean-report/1"
    assert doc["value"] == "11/5"
    assert data.endswith(b"\n")


def test_json_report_shortest_round_trip_floats():
    data = json_report({"v": 0.1 + 0.2})
    assert b"0.30000000000000004" in data


def test_csv_report_versioned_header():
    data = csv_report(("a", "b"), [(1, 2.5), (Fraction(1, 3), 4)])
    lines = data.decode().splitlines()
    assert lines[0] == "# schema: shortmean-csv/1"
    assert lines[1] == "a,b"
    assert lines[2] == "1,2.5"
    assert lines[3] == "1/3,4"


def test_only_reports_writes_rationals():
    # records hand their Fractions to `reports`, which alone formats them
    writers = [path.name for path in (ROOT / "src" / "shortmean").glob("*.py")
               if "numerator}/{" in path.read_text()]
    assert writers == ["reports.py"]


def test_svg_plot_basic():
    data = svg_plot(
        [("err", [(100.0, 1e-2), (1000.0, 1e-3)])],
        title="t", xlabel="T", ylabel="err",
    )
    text = data.decode()
    assert text.startswith("<svg ")
    assert "polyline" in text
    assert "http://www.w3.org/2000/svg" in text


def test_svg_plot_rejects_empty():
    with pytest.raises(ValueError):
        svg_plot([("err", [])], title="t", xlabel="x", ylabel="y")


# -- CLI --------------------------------------------------------------------

def test_sum_first_five():
    rc, out = cap(["sum", "--fn", "f1", "--x", "0", "--h", "5"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["results"][0]["exact"] == "11/5"


def test_series_reports_exponents_and_flags():
    rc, out = cap(["series", "--fn", "all"])
    assert rc == 0
    doc = json.loads(out)
    by_fid = {r["fid"]: r for r in doc["results"]}
    assert by_fid["f1"]["a"] == "1/3" and by_fid["f1"]["b"] == "-1/45"
    assert by_fid["f2"]["b"] == "-13/288"
    assert any("19/244" in f for f in by_fid["f2"]["flags"])
    assert by_fid["f3"]["b"] == "1/8"
    assert any("sign" in f for f in by_fid["f3"]["flags"])
    assert by_fid["f4"]["b"] == "-1/8"


def test_sum_and_series_build_no_quadrature_rule():
    # the GL16 rule is built on first use, so in a fresh interpreter the
    # commands that integrate nothing never call leggauss
    code = (
        "import numpy.polynomial.legendre as legendre\n"
        "def refuse(*args):\n"
        "    raise AssertionError('leggauss called')\n"
        "legendre.leggauss = refuse\n"
        "from shortmean.cli import run\n"
        "assert run(['sum', '--fn', 'all', '--x', '1000', '--h', '100']) == 0\n"
        "assert run(['series', '--fn', 'all']) == 0\n"
    )
    assert run_fresh(code).count('"schema"') == 2


def test_import_builds_no_presieve_pattern():
    # the sieve's pattern, packed prime logs and key decodes are built on
    # first use: no exponent code is decoded and no denominator table
    # filled at import
    code = (
        "import shortmean.cli\n"
        "from shortmean import sieve\n"
        "assert sieve._presieve_pattern.cache_info().currsize == 0\n"
        "assert sieve._packed.size == 0\n"
        "assert sieve._signature.cache_info().currsize == 0\n"
        "assert sieve._reciprocals.cache_info().currsize == 0\n"
        "assert sieve._DENOMINATORS == {}\n"
        "assert shortmean.cli.run(['sum', '--fn', 'f1', '--x', '1000', '--h', '100']) == 0\n"
        "assert sieve._presieve_pattern.cache_info().currsize == 1\n"
        "assert sieve._signature.cache_info().currsize > 0\n"
    )
    assert run_fresh(code).count('"schema"') == 1


@pytest.mark.parametrize("preset, want", [(None, "1"), ("2", "2")])
def test_import_pins_openblas_unless_set(preset, want):
    # the package sets it before it imports numpy, which loads OpenBLAS
    code = (
        "import os, sys\n"
        "import shortmean\n"
        "assert 'numpy' not in sys.modules\n"
        "import shortmean.cli\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    assert run_fresh(code, OPENBLAS_NUM_THREADS=preset).split() == [want]


def run_fresh(code, **preset):
    """stdout of `code` run in a fresh interpreter that imports from src.

    Each keyword sets an environment variable, or unsets it if None.
    """
    env = dict(os.environ)
    for name, value in preset.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_usage_errors_exit_1():
    assert cap(["frobnicate"])[0] == 1
    assert cap(["sum", "--fn", "f7", "--x", "0", "--h", "5"])[0] == 1
    assert cap(["sum", "--fn", "f1", "--x", "0", "--h", "0"])[0] == 1
    assert cap(["series", "--fn", "f1", "--format", "svg"])[0] == 1


@pytest.mark.parametrize("argv", [
    ["constants", "--fn", "f4", "--N", "2", "--precision", "double"],
    ["compare", "--fn", "f2", "--x", "1000000", "--h", "100000", "--timings"],
    ["constants", "--fn", "f4", "--N", "2", "--threads", "2"],
    ["sum", "--fn", "f1", "--x", "0", "--h", "5", "--format", "json"],
    ["series", "--fn", "f1", "--format", "json"],
    ["perron", "--fn", "f4", "--x", "100.5", "--T", "200", "--format", "csv"],
])
def test_removed_flags_are_usage_errors(argv):
    assert cap(argv)[0] == 1


@pytest.mark.parametrize("argv", [
    ["zeta-moment", "--T", "inf"],
    ["perron", "--fn", "f3", "--x", "inf", "--T", "100"],
    ["sweep", "--fn", "f4", "--xs", "inf"],
    ["perron", "--fn", "f3", "--x", "100.5", "--T", "200,"],  # one-value scan
    ["perron", "--fn", "f3", "--x", "100.5", "--T", ","],  # empty scans
    ["zeta-moment", "--T", ","],
    # heights above zeta_many's stated range are refused before any panel
    # array is sized
    ["zeta-moment", "--T", "1e9"],
    ["perron", "--fn", "f3", "--x", "100.5", "--T", "1e9"],
    ["perron", "--fn", "f3", "--x", "100.5", "--T", "100,1e9"],
    # refused before anything is sieved
    ["sweep", "--fn", "f4", "--xs", "1e5", "--h-rule", "x^inf"],
    ["sweep", "--fn", "f4", "--xs", "1e5", "--h-rule", "x^nan"],
    ["sweep", "--fn", "f4", "--xs", "1e5", "--h-rule", "x^100"],  # h overflows
    ["sweep", "--fn", "f4", "--xs", "0", "--h-rule", "x^-1"],  # h = 1/0
    ["compare", "--fn", "f2", "--x", "1000000", "--h", "100000",
     "--tolerance", "nan"],
    ["compare", "--fn", "f2", "--x", "1000000", "--h", "100000",
     "--tolerance", "inf"],
    ["compare", "--fn", "f2", "--x", "1000000", "--h", "100000",
     "--tolerance", "-1"],
])
def test_non_finite_values_and_short_scans_are_usage_errors(argv, capsys):
    rc, out = cap(argv)
    err = capsys.readouterr().err
    assert rc == 1 and out == b""
    assert err.startswith("usage error: ") and "Traceback" not in err


def test_version_matches_pyproject(capsys):
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    want = re.search(r'^version\s*=\s*"([^"]+)"', pyproject.read_text(),
                     re.MULTILINE).group(1)
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == want


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, argv", [
    ("sum_all", ["sum", "--fn", "all", "--x", "1000000", "--h", "20000"]),
    ("series_all", ["series", "--fn", "all", "--order", "12"]),
    ("predict_f1", ["predict", "--fn", "f1", "--x", "100000000", "--h", "1000000",
                    "--N", "2"]),
    ("constants_f3", ["constants", "--fn", "f3", "--N", "4"]),
    # an interval with thresholds and a flag, and the full range without
    ("compare_f2", ["compare", "--fn", "f2", "--x", "1000000", "--h", "100000",
                    "--N", "2"]),
    ("compare_f1_full", ["compare", "--fn", "f1", "--x", "0", "--h", "100000",
                         "--N", "4"]),
])
def test_cli_json_matches_golden_bytes(name, argv):
    # the JSON of these subcommands stays byte-identical unless a change
    # says why and regenerates tests/golden
    rc, out = cap(argv)
    assert rc == 0
    assert out == (GOLDEN / f"{name}.json").read_bytes()


def _assert_close(got, want, rel, path=""):
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            _assert_close(got[key], want[key], rel, f"{path}/{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, rel, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=rel, abs=0), path
    else:
        assert got == want, path


@pytest.mark.parametrize("name, argv", [
    ("perron_f3", ["perron", "--fn", "f3", "--x", "1000.5",
                   "--T", "100,316,1000,3162"]),
    ("zeta_moment", ["zeta-moment", "--T", "100,1000,2000"]),
])
def test_cli_json_matches_golden_values(name, argv):
    # double-precision quadrature may move the last bits, so these compare
    # every number to 1e-10 relative, ten times tighter than the perfbench
    # reference check; rounding noise of 1e-13 relative on zeta already
    # moves the T = 3162 abs_err by ~1e-9
    rc, out = cap(argv)
    assert rc == 0
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    _assert_close(json.loads(out), want, 1e-10)


def test_zeta_moment_rows_in_input_order():
    # one sweep serves every T; the rows keep the order of --T
    rc, out = cap(["zeta-moment", "--T", "2000,100,1000"])
    assert rc == 0
    golden = json.loads((GOLDEN / "zeta_moment.json").read_text())["rows"]
    by_T = {row["T"]: row for row in golden}
    rows = json.loads(out)["rows"]
    assert [row["T"] for row in rows] == [2000.0, 100.0, 1000.0]
    for row in rows:
        _assert_close(row, by_T[row["T"]], 1e-10)


def test_capacity_error_exit_2():
    rc, _ = cap(["sum", "--fn", "f1", "--x", str(2**63 - 8), "--h", "6"])
    assert rc == 2


def test_output_file_and_determinism(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    argv = ["sum", "--fn", "all", "--x", "1000000", "--h", "20000"]
    assert run(argv + ["--out", str(p1), "--threads", "1"]) == 0
    assert run(argv + ["--out", str(p2), "--threads", "4"]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_predict_embeds_exponent_table_and_thresholds():
    rc, out = cap(["predict", "--fn", "f3", "--x", "100000000",
                   "--h", "1000000", "--N", "2"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["exponents"]["alpha"]["f3"] == "319/524"
    th = doc["results"][0]["thresholds"]
    assert set(th) >= {"alpha", "theorem", "proof", "flags"}
    assert any("mismatch" in f for f in th["flags"])


def test_compare_json_flags_and_no_runtime():
    rc, out = cap(["compare", "--fn", "f2", "--x", "1000000",
                   "--h", "100000", "--N", "2"])
    assert rc == 0
    doc = json.loads(out)
    r = doc["results"][0]
    assert "runtime_ms" not in r
    assert any("19/244" in f for f in r["flags"])


def test_zeta_moment_csv():
    rc, out = cap(["zeta-moment", "--T", "100", "--format", "csv"])
    assert rc == 0
    lines = out.decode().splitlines()
    assert lines[1] == "T,moment,ratio_to_TlnT"
    assert lines[2].startswith("100.0,")


def test_sweep_csv_and_svg(tmp_path):
    argv = ["sweep", "--fn", "f4", "--xs", "1e5,1e6", "--h-rule", "x^0.7",
            "--N", "2"]
    rc, out = cap(argv + ["--format", "csv"])
    assert rc == 0
    lines = out.decode().splitlines()
    assert lines[1] == "fid,x,h,exact,prediction,rel_err"
    assert len(lines) == 4
    svg = tmp_path / "sweep.svg"
    assert run(argv + ["--format", "svg", "--out", str(svg)]) == 0
    assert svg.read_bytes().startswith(b"<svg ")


def test_sweep_bad_h_rule():
    assert cap(["sweep", "--fn", "f4", "--xs", "1e5", "--h-rule", "log"])[0] == 1


def test_perron_single_run_json():
    rc, out = cap(["perron", "--fn", "f4", "--x", "100.5", "--T", "200"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["run"]["x"] == 100.5
    assert doc["run"]["abs_err"] < 1.0


def test_constants_report_shape():
    rc, out = cap(["constants", "--fn", "f4", "--N", "2"])
    assert rc == 0
    doc = json.loads(out)
    r = doc["results"][0]
    assert r["a"] == "1/2" and r["b"] == "-1/8"
    assert len(r["Pi"]) == 3 and len(r["K"]) == 3
    assert doc["ramanujanA0"]["crossRouteDelta"] < 1e-8
