"""End-to-end CLI checks: headers, determinism, exit codes, JSON round trips."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qglattice import cli, probability
from qglattice.bands import MAX_PROBES
from qglattice.cli import main


def _run(tmp_path, name, args):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def test_bands_csv_header_and_determinism(tmp_path):
    args = ["bands", "--kind", "kagome", "--c", "1", "--d", "3", "--ell", "1", "--k-max", "8"]
    code, out1 = _run(tmp_path, "a.csv", args)
    assert code == 0
    text1 = out1.read_bytes()
    lines = text1.decode().splitlines()
    assert lines[0] == "side,band_index,type,k_lo,k_hi,E_lo,E_hi"
    assert all(line.startswith("positive,") for line in lines[1:])
    code, out2 = _run(tmp_path, "b.csv", args)
    assert code == 0
    assert text1 == out2.read_bytes()


def test_bands_first_band_separated_for_small_period(tmp_path):
    code, out = _run(tmp_path, "sep.csv", [
        "bands", "--kind", "kagome", "--c", "1", "--d", "3", "--ell", "1", "--k-max", "3",
    ])
    first = out.read_text().splitlines()[1].split(",")
    assert first[2] == "continuous" and float(first[3]) > 1e-4


def test_bands_json_roundtrip(tmp_path):
    code, out = _run(tmp_path, "bands.json", [
        "bands", "--kind", "triangular", "--d", "2", "--k-max", "5", "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["spec"]["kind"] == "triangular"
    assert all({"band_index", "type", "k_lo", "k_hi", "E_lo", "E_hi"} <= set(iv) for iv in doc["intervals"])


def test_negative_csv(tmp_path):
    code, out = _run(tmp_path, "neg.csv", [
        "negative", "--kind", "equilateral", "--c", "1", "--ell", "1",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    types = [line.split(",")[2] for line in lines[1:]]
    assert types.count("continuous") == 2 and types.count("flat") == 1


def test_negative_kagome_large_cell_at_any_ell(tmp_path):
    # kagome(40, 45, 1) in cells of ell = 49, where (1/ell) * ell != 1: the
    # collapse roots keep their certified bracket (three bands, as at ell = 1)
    code, out = _run(tmp_path, "neg49.csv", [
        "negative", "--kind", "kagome", "--c", "1960", "--d", "2205", "--ell", "49", "--kappa-max", "0.0715",
    ])
    assert code == 0
    types = [line.split(",")[2] for line in out.read_text().splitlines()[1:]]
    assert types == ["continuous"] * 3


def test_flatbands_csv(tmp_path):
    code, out = _run(tmp_path, "fb.csv", [
        "flatbands", "--kind", "equilateral", "--c", "1", "--k-max", "7",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,E,family,embedded,note"
    families = {line.split(",")[2] for line in lines[1:]}
    assert families == {"equilateral_merged", "david_star"}


def test_probability_json_value(tmp_path):
    code, out = _run(tmp_path, "p.json", [
        "probability", "--kind", "equilateral", "--c", "1", "--ell", "1", "--K", "1e6",
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["method"] == "finite_scan"
    assert abs(doc["value"] - 2.0 / 3.0) < 1e-2


def test_torus_prob_json_value(tmp_path):
    code, out = _run(tmp_path, "t.json", [
        "torus-prob", "--c", "1", "--d", "2.618", "--grid", "2000",
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert abs(doc["value"] - 0.639081) < 5e-4


def test_torus_prob_grid_limit_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(probability, "np", None)  # refused before any array is made
    code = main(["torus-prob", "--c", "1", "--d", "2.618", "--grid", "20000", "--out", str(tmp_path / "t.json")])
    assert code == 2
    assert "grid_n" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "1.5"])
def test_bad_thread_count_exit_code(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("QG_THREADS", value)
    code = main(["probability", "--kind", "equilateral", "--c", "1", "--ell", "1", "--K", "1e4",
                 "--out", str(tmp_path / "p.json")])
    assert code == 2
    assert f"QG_THREADS must be a positive integer, got {value!r}" in capsys.readouterr().err


def test_sweep_csv(tmp_path):
    code, out = _run(tmp_path, "s.csv", [
        "sweep", "--ratios", "0.4,0.5", "--d", "1", "--ell", "1", "--K", "1e4",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "ratio,P,method,K_or_grid"
    assert len(lines) == 3
    assert lines[1].startswith("0.4,") and lines[2].startswith("0.5,")


def test_scattering_csv(tmp_path):
    code, out = _run(tmp_path, "scat.csv", [
        "scattering", "--n", "4", "--ell", "1", "--k", "1",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "i,j,re,im"
    assert len(lines) == 17
    # at k = 1/ell the matrix is the coupling permutation
    entries = {(int(p[0]), int(p[1])): float(p[2]) for p in (l.split(",") for l in lines[1:])}
    assert entries[(1, 2)] == 1.0 and entries[(1, 1)] == 0.0


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    # the parser is built on the first call and reused; the second call
    # writes the same bytes as the first
    built = []
    inner = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or inner())
    cli._parser.cache_clear()
    try:
        outputs = []
        for _ in range(2):
            assert main(["scattering", "--n", "3", "--k", "1"]) == 0
            outputs.append(capsys.readouterr().out)
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert outputs[0].startswith("i,j,re,im\n") and outputs[0] == outputs[1]


def test_asymptotics_csv(tmp_path):
    code, out = _run(tmp_path, "asy.csv", [
        "asymptotics", "--kind", "triangular", "--d", "4", "--n", "5",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "quantity,predicted,measured,relative_error"
    assert len(lines) > 1
    for line in lines[1:]:
        parts = line.split(",")
        assert float(parts[3]) < 0.5


def test_oracle_check_csv(tmp_path):
    code, out = _run(tmp_path, "oc.csv", [
        "oracle-check", "--kind", "kagome", "--c", "1", "--d", "3", "--ell", "1",
        "--k", "1.3", "--grid-n", "8",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,theta1,theta2,det_re,det_im,normalized"
    assert len(lines) == 65


def test_oracle_check_grid_limit_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "np", None)  # refused before the grid is built or looped over
    code = main(["oracle-check", "--kind", "kagome", "--c", "1", "--d", "3", "--k", "1.3",
                 "--grid-n", str(math.isqrt(MAX_PROBES) + 1), "--out", str(tmp_path / "oc.csv")])
    assert code == 2
    assert "--grid-n" in capsys.readouterr().err


def test_validation_error_exit_code(tmp_path, capsys):
    code = main(["bands", "--kind", "kagome", "--c", "2", "--d", "1", "--ell", "1",
                 "--k-max", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_sweep_bad_ratio_exit_code(tmp_path, capsys):
    code = main(["sweep", "--ratios", "1.5", "--K", "1e4", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    capsys.readouterr()


def test_missing_geometry_exit_code(tmp_path, capsys):
    code = main(["bands", "--kind", "triangular", "--k-max", "5",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("spec, flag", [
    (["--kind", "equilateral"], "--c"),
    (["--kind", "kagome", "--c", "1"], "--d"),
], ids=["equilateral-without-c", "kagome-without-d"])
def test_missing_kagome_length_exit_code(tmp_path, capsys, spec, flag):
    code = main(["bands", *spec, "--k-max", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert flag in capsys.readouterr().err


def test_default_out_writes_stdout(tmp_path, capsys):
    args = ["bands", "--kind", "kagome", "--c", "1", "--d", "3", "--k-max", "5"]
    assert main(args) == 0
    stdout = capsys.readouterr().out
    code, out = _run(tmp_path, "bands.csv", args)
    assert code == 0
    assert stdout.startswith("side,") and stdout == out.read_text()


@pytest.mark.parametrize("argv", [
    ["bands", "--kind", "kagome", "--c", "1", "--d", "3", "--k-max", "5", "--resolution", "0"],
    ["bands", "--kind", "kagome", "--c", "1", "--d", "3", "--k-max", "5", "--resolution", "-1"],
    ["probability", "--kind", "kagome", "--c", "1", "--d", "inf", "--K", "100"],
    ["probability", "--kind", "kagome", "--c", "1", "--d", "3", "--K", "inf"],
    ["negative", "--kind", "triangular", "--d", "nan"],
    ["bands", "--kind", "triangular", "--d", "2", "--ell", "nan", "--k-max", "5"],
    ["flatbands", "--kind", "triangular", "--d", "2", "--k-max", "inf"],
    ["scattering", "--n", "3", "--k", "nan"],
    ["scattering", "--n", "3", "--k", "inf"],
    ["scattering", "--n", "3", "--k", "1", "--ell", "inf"],
    ["oracle-check", "--kind", "kagome", "--c", "1", "--d", "3", "--k", "nan", "--grid-n", "2"],
    ["oracle-check", "--kind", "kagome", "--c", "1", "--d", "3", "--k", "2", "--grid-n", "0"],
    ["bands", "--kind", "kagome", "--c", "1", "--d", "3", "--k-max", "1e12"],
], ids=["resolution-zero", "resolution-negative", "d-inf", "K-inf", "d-nan", "ell-nan", "flat-k-max-inf",
        "scattering-k-nan", "scattering-k-inf", "scattering-ell-inf", "oracle-k-nan", "oracle-grid-n-zero",
        "bands-k-max-1e12"])
def test_non_finite_or_non_positive_input_exit_code(tmp_path, capsys, argv):
    code = main(argv + ["--out", str(tmp_path / "x.out")])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["probability", "--kind", "kagome", "--c", "1", "--d", "3", "--K", "-1"],
    ["sweep", "--ratios", "0.4", "--d", "1", "--K", "-4"],
], ids=["probability", "sweep"])
def test_negative_cutoff_names_k_energy(tmp_path, capsys, argv):
    code = main(argv + ["--out", str(tmp_path / "x.out")])
    assert code == 2
    assert "K_energy" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::UserWarning")
def test_overflowing_negative_scan_exit_code(tmp_path, capsys):
    code = main(["negative", "--kind", "triangular", "--d", "100", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "internal consistency failure" in capsys.readouterr().err


FIXTURES = Path(__file__).parent / "fixtures"

def test_flatbands_json_equals_csv(tmp_path):
    args = ["flatbands", "--kind", "kagome", "--c", "1", "--d", "3", "--k-max", "20"]
    code, csv_out = _run(tmp_path, "fb.csv", args)
    assert code == 0
    code, json_out = _run(tmp_path, "fb.json", args + ["--format", "json"])
    assert code == 0
    doc = json.loads(json_out.read_text())
    rows = csv_out.read_text().splitlines()[1:]
    assert len(doc) == len(rows) > 0
    for entry, row in zip(doc, rows):
        assert list(entry) == ["k", "E", "family", "embedded", "note"]
        assert ",".join(cli._fmt(v) for v in entry.values()) == row


#: Checked-in artifacts and the arguments that wrote them.
FIXTURE_ARGS = {
    f"{cmd}_{name}.csv": [cmd, "--kind", *spec, *extra]
    for name, spec in (("kagome", ["kagome", "--c", "1", "--d", "3"]),
                       ("equilateral", ["equilateral", "--c", "1"]),
                       ("triangular", ["triangular", "--d", "2"]))
    for cmd, extra in (("bands", ["--k-max", "10"]), ("negative", []), ("flatbands", ["--k-max", "20"]))
}
FIXTURE_ARGS["asymptotics_triangular.csv"] = ["asymptotics", "--kind", "triangular", "--d", "1"]
FIXTURE_ARGS["oracle-check_kagome.csv"] = ["oracle-check", "--kind", "kagome", "--c", "1", "--d", "3",
                                           "--k", "1.3", "--grid-n", "8"]
FIXTURE_ARGS["oracle-check_triangular.csv"] = ["oracle-check", "--kind", "triangular", "--d", "2",
                                               "--k", "1.2", "--side", "negative", "--grid-n", "8"]


def test_fixture_artifacts_regenerate_byte_for_byte(tmp_path):
    assert sorted(p.name for p in FIXTURES.iterdir()) == sorted(FIXTURE_ARGS)
    changed = []
    for name, args in FIXTURE_ARGS.items():
        code, out = _run(tmp_path, name, args)
        assert code == 0
        if out.read_bytes() != (FIXTURES / name).read_bytes():
            changed.append(name)
    assert not changed


def _run_module(args, preexec_fn=None):
    """`python -m qglattice.cli` in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    # one BLAS thread, so that the interpreter reserves little address space of its own
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "qglattice.cli", *args], env=env, capture_output=True, text=True,
                          preexec_fn=preexec_fn, timeout=120)


def test_module_entry_point_exit_codes():
    assert _run_module(["scattering", "--n", "3", "--k", "1"]).returncode == 0
    assert _run_module(["scattering", "--n", "2", "--k", "1"]).returncode == 2


@pytest.mark.parametrize("args", [
    ["flatbands", "--kind", "kagome", "--c", "1", "--d", "3", "--k-max", "1e12"],
    ["flatbands", "--kind", "kagome", "--c", "1", "--d", "3", "--k-max", "2e8"],
    ["bands", "--kind", "kagome", "--c", "1", "--d", "3", "--k-max", "1e9", "--resolution", "1e5"],
    ["scattering", "--n", "100000", "--k", "1"],
], ids=["flatbands", "flatbands-total", "bands", "scattering"])
def test_oversized_requests_fail_before_allocating(args):
    # 3.2e11 and 3.2e8 flat-band momenta, 1.9e8 in three families of fewer than
    # 1e8 each, and a 1e5 x 1e5 matrix: each is rejected before numpy asks for
    # the memory, so a 2 GB address space suffices
    resource = pytest.importorskip("resource")
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    out = _run_module(args, preexec_fn=limit)
    assert out.returncode == 2
    assert any(line.startswith("error: ") for line in out.stderr.splitlines()) and "Traceback" not in out.stderr
