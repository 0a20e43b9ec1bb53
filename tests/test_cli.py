"""End-to-end CLI checks: headers, determinism, exit codes, JSON round trips."""

import json
import math
from pathlib import Path

import pytest

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
], ids=["resolution-zero", "resolution-negative", "d-inf", "K-inf", "d-nan", "ell-nan", "flat-k-max-inf",
        "scattering-k-nan", "scattering-k-inf", "scattering-ell-inf", "oracle-k-nan"])
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

#: Checked-in artifacts and the arguments that wrote them.
FIXTURE_ARGS = {
    f"{cmd}_{name}.csv": [cmd, "--kind", *spec, *extra]
    for name, spec in (("kagome", ["kagome", "--c", "1", "--d", "3"]),
                       ("equilateral", ["equilateral", "--c", "1"]),
                       ("triangular", ["triangular", "--d", "2"]))
    for cmd, extra in (("bands", ["--k-max", "10"]), ("negative", []), ("flatbands", ["--k-max", "20"]))
}
FIXTURE_ARGS["asymptotics_triangular.csv"] = ["asymptotics", "--kind", "triangular", "--d", "1"]


def test_fixture_artifacts_regenerate_byte_for_byte(tmp_path):
    assert sorted(p.name for p in FIXTURES.iterdir()) == sorted(FIXTURE_ARGS)
    changed = []
    for name, args in FIXTURE_ARGS.items():
        code, out = _run(tmp_path, name, args)
        assert code == 0
        if out.read_bytes() != (FIXTURES / name).read_bytes():
            changed.append(name)
    assert not changed
