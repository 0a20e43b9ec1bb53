"""Tests of the benchmark itself: every check rejects a perturbed result,
the smoke mode runs every workload, traced counts repeat, and the runner
refuses a directory without the source.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import qglattice as qg  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def _moved(iv, **changes):
    return dataclasses.replace(iv, **changes)


def _with_intervals(bands, intervals):
    return dataclasses.replace(bands, intervals=intervals)


# --------------------------------------------------------------------------
# band_measure checks

def test_probability_checks_reject_a_moved_value():
    wl.check_probability_range(0.639, 0.629, 0.649, "kagome")
    with pytest.raises(wl.CheckFailed):
        wl.check_probability_range(0.639 + 0.02, 0.629, 0.649, "kagome")
    third = 2.0 / 3.0
    with pytest.raises(wl.CheckFailed):
        wl.check_probability_range(third + 0.02, third - 1e-2, third + 1e-2, "triangular")
    with pytest.raises(wl.CheckFailed):
        wl.check_close(wl.TORUS_VALUE + 0.02, wl.TORUS_VALUE, 5e-4, "torus")
    with pytest.raises(wl.CheckFailed):
        wl.check_close(0.6390917, 0.6390917 + 1e-6, 1e-9, "swap")


@pytest.mark.parametrize("spec", [qg.LatticeSpec.kagome(1.0, 1.6, 0.7), qg.LatticeSpec.equilateral(0.8, 1.3),
                                  qg.LatticeSpec.triangular(1.6, 0.9)])
def test_flat_band_check_rejects_a_moved_or_missing_band(spec):
    bands = qg.scan_bands(spec, "positive", 60.0)
    wl.check_flat_bands(bands, spec, 60.0, "ok")
    flat = [i for i, iv in enumerate(bands.intervals) if iv.band_type != "continuous"]
    moved = list(bands.intervals)
    moved[flat[3]] = _moved(moved[flat[3]], k_lo=moved[flat[3]].k_lo + 1e-6, k_hi=moved[flat[3]].k_hi + 1e-6)
    with pytest.raises(wl.CheckFailed):
        wl.check_flat_bands(_with_intervals(bands, moved), spec, 60.0, "moved")
    missing = [iv for i, iv in enumerate(bands.intervals) if i != flat[-1]]
    with pytest.raises(wl.CheckFailed):
        wl.check_flat_bands(_with_intervals(bands, missing), spec, 60.0, "missing")


# --------------------------------------------------------------------------
# oracle_xval checks

def test_oracle_disagreement_passes_only_at_a_band_edge():
    spec = qg.LatticeSpec.kagome(1.0, 3.0, 1.0)
    xval = wl.OracleXval(1, smoke=True)
    band = xval.bands_for(spec, "positive").continuous[2]
    xval.check_agreement(spec, "positive", band.k_hi, True, False)
    with pytest.raises(wl.CheckFailed):
        xval.check_agreement(spec, "positive", 0.5 * (band.k_lo + band.k_hi), True, False)


# --------------------------------------------------------------------------
# small_scans checks

def test_swap_check_rejects_an_edge_moved_by_1e_6():
    a = qg.scan_bands(qg.LatticeSpec.kagome(1.0, 3.0, 1.0), "positive", 20.0)
    b = qg.scan_bands(qg.LatticeSpec.kagome(2.0, 3.0, 1.0), "positive", 20.0)
    assert wl.check_swap_pair(a, b, 20.0, "ok") == []
    i = b.intervals.index(b.continuous[1])
    for change in ({"k_hi": b.intervals[i].k_hi + 1e-6}, {"k_hi": b.intervals[i].k_hi - 1e-6},
                   {"k_lo": b.intervals[i].k_lo - 1e-6}, {"k_lo": b.intervals[i].k_lo + 1e-6}):
        moved = list(b.intervals)
        moved[i] = _moved(moved[i], **change)
        with pytest.raises(wl.CheckFailed):
            wl.check_swap_pair(a, _with_intervals(b, moved), 20.0, "moved")


def _missing_gap(bands, i):
    """`bands` with continuous bands i and i + 1 merged across their gap."""
    lo, hi = bands.continuous[i], bands.continuous[i + 1]
    j = bands.intervals.index(lo)
    merged = [iv for iv in bands.intervals if iv is not hi]
    merged[j] = _moved(lo, k_hi=hi.k_hi)
    return _with_intervals(bands, merged)


def test_swap_checks_pass_only_a_gap_narrower_than_a_probe_step():
    # this geometry has a gap 3.02e-3 wide below k = 20, just under the
    # probe step 3.13e-3
    spec_a, spec_b = qg.LatticeSpec.kagome(0.56, 2.01, 1.0), qg.LatticeSpec.kagome(1.45, 2.01, 1.0)
    a = qg.scan_bands(spec_a, "positive", 20.0)
    b = qg.scan_bands(spec_b, "positive", 20.0)
    step = wl.probe_step(spec_a, 20.0)
    gaps = [(i, b.continuous[i + 1].k_lo - b.continuous[i].k_hi) for i in range(len(b.continuous) - 1)]
    narrow = next(i for i, w in gaps if w < step)
    wide = next(i for i, w in gaps if w > step)
    # a narrow gap merged over, as a scan whose probes all miss it reports it
    missed = wl.check_swap_pair(a, _missing_gap(b, narrow), 20.0, "narrow")
    assert missed == [(b.continuous[narrow].k_hi, b.continuous[narrow + 1].k_lo)]
    with pytest.raises(wl.CheckFailed):
        wl.check_swap_pair(a, _missing_gap(b, wide), 20.0, "wide")
    # the band measures agree once the missed gap is taken out, and not
    # if a value moves by 1e-6 as well
    K = 400.0
    est = lambda bands: qg.band_measure(bands, K)
    pair = ((est(a), a), (est(_missing_gap(b, narrow)), _missing_gap(b, narrow)))
    wl.check_swap_measure(*pair, K, "narrow")
    with pytest.raises(wl.CheckFailed):
        moved = dataclasses.replace(pair[1][0], value=pair[1][0].value + 1e-6)
        wl.check_swap_measure(pair[0], (moved, pair[1][1]), K, "moved")


def test_negative_checks_reject_broken_band_structures():
    tri = qg.scan_negative_bands(qg.LatticeSpec.triangular(2.0, 1.0))
    wl.check_negative_count(tri, 2, True, "tri")
    extra = tri.intervals + [qg.SpectralInterval(7.0, 7.1, "negative")]
    with pytest.raises(wl.CheckFailed):
        wl.check_negative_count(_with_intervals(tri, extra), 2, True, "tri")

    kag = qg.scan_negative_bands(qg.LatticeSpec.kagome(1.0, 3.0, 1.0))
    wl.check_inverse_ell_member(kag, 1.0, "kagome")
    shifted = [_moved(iv, k_lo=iv.k_lo + 0.5, k_hi=iv.k_hi + 0.5) if iv.k_lo <= 1.0 <= iv.k_hi else iv
               for iv in kag.intervals]
    with pytest.raises(wl.CheckFailed):
        wl.check_inverse_ell_member(_with_intervals(kag, shifted), 1.0, "kagome")

    eq = qg.scan_negative_bands(qg.LatticeSpec.equilateral(1.0, 1.0))
    wl.check_isolated_flat(eq, 1.0, "eq")
    widened = [_moved(iv, k_hi=1.01) if iv.band_type == "continuous" and iv.k_hi < 1.0 else iv
               for iv in eq.intervals]
    with pytest.raises(wl.CheckFailed):
        wl.check_isolated_flat(_with_intervals(eq, widened), 1.0, "eq")


def test_comparison_row_checks_reject_moved_rows():
    for spec in (qg.LatticeSpec.equilateral(1.0, 1.0), qg.LatticeSpec.triangular(10.0, 1.0)):
        rows = qg.asymptotics.comparison_rows(spec)
        wl.check_comparison_rows(rows, spec, "ok")
        name, pred, meas, rel = rows[0]
        bad = [(name, pred, 1.2 * pred, 0.2)] + rows[1:]
        with pytest.raises(wl.CheckFailed):
            wl.check_comparison_rows(bad, spec, "width")
    center = next(i for i, r in enumerate(rows) if r[0].startswith("negative_center"))
    name, pred, meas, rel = rows[center]
    moved = list(rows)
    moved[center] = (name, pred, meas + 2e-3, abs(meas + 2e-3 - pred) / abs(pred))
    with pytest.raises(wl.CheckFailed):
        wl.check_comparison_rows(moved, spec, "center")


def test_gap_closing_check_needs_the_oracle():
    small = wl.SmallScans(1, smoke=True)
    window = dict(side="positive", k_win=(1.8, 2.6), d_win=(2.1, 3.6))
    found = qg.detect_gap_closings(qg.LatticeSpec.kagome(1.0, 3.0, 1.0), (1.8, 2.6), (2.1, 3.6),
                                   side="positive", grid_n=32)
    small.check_gap_closings(found, **window)
    with pytest.raises(wl.CheckFailed):
        small.check_gap_closings([], **window)
    k, d, theta = found[0]
    spec = qg.LatticeSpec.kagome(1.0, d, 1.0)
    gap_k = next(x for x in np.linspace(1.8, 2.6, 801) if not qg.in_band(x, "positive", spec))
    with pytest.raises(wl.CheckFailed):
        small.check_gap_closings([(float(gap_k), d, theta)], **window)


def test_unitarity_check_rejects_a_perturbed_matrix():
    s = qg.scattering_matrix(5, 1.0, 2.0).entries
    wl.check_unitary(s, "ok")
    s = s.copy()
    s[1, 2] += 1e-9
    with pytest.raises(wl.CheckFailed):
        wl.check_unitary(s, "perturbed")


def test_cli_checks_reject_a_changed_byte(tmp_path):
    small = wl.SmallScans(1, smoke=True, tmpdir=str(tmp_path))
    for op in small.ops:
        if op.label.startswith("cli "):
            code, data = op.fn()
            op.check((code, data))
            i = data.index(b"\n") + 3
            changed = data[:i] + bytes([data[i] ^ 1]) + data[i + 1:]
            with pytest.raises(wl.CheckFailed):
                op.check((code, changed))
            with pytest.raises(wl.CheckFailed):
                wl.check_same_bytes(changed, data, op.label)


def test_csv_value_check_rejects_a_changed_digit():
    rows = [("positive", 1, "continuous", 0.123456789012345, 2.0)]
    header = "side,band_index,type,k_lo,k_hi"
    wl.check_csv_values(header + "\npositive,1,continuous,0.123456789012,2\n", header, rows, "ok")
    with pytest.raises(wl.CheckFailed):
        wl.check_csv_values(header + "\npositive,1,continuous,0.123456789013,2\n", header, rows, "digit")


# --------------------------------------------------------------------------
# the runner

def _run(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], capture_output=True, text=True,
                          cwd=cwd, timeout=300)


def _smoke(workload, trace, seed=1):
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_file_keeps_its_limits():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["perfbench"] and 1 <= BENCH["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in BENCH[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCH["workloads"])
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_metrics_match_the_benchmark_file():
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]} == tracing.METRICS


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_reports_every_metric(workload):
    result = _smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # only the two overflowing triangular scans fail
    assert result["failed"] == (2 if workload == "small_scans" else 0)


@pytest.mark.parametrize("workload", ["oracle_xval", "small_scans"])
def test_traced_counts_repeat(workload):
    first, second = _smoke(workload, 1, seed=5), _smoke(workload, 1, seed=5)
    assert set(first["metrics"]) == set(tracing.METRICS)
    for name in tracing.TOTALS:
        if first["metrics"][name]["unit"] in ("count", "bytes"):
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert all(math.isfinite(m["value"]) for m in first["metrics"].values())


def test_refuses_a_directory_without_the_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "small_scans", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""
