"""Workload inputs, operations and output checks of the qglattice benchmark.

A workload is built from a seed.  It holds a fixed list of operations (one
round); the runner repeats whole rounds, so every round attempts the same
operations and the share of failed operations never depends on the seed or
on the run length.  Every check compares an output with a computation made
apart from the operation, or with a property the method must have; none
compares with a stored copy of earlier output.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import qglattice as qg
from qglattice import asymptotics, cli, probability

PHI = (1.0 + math.sqrt(5.0)) / 2.0

#: Edge ratios c/d of the band-measure scans: two edge-swap pairs
#: (1/phi + 1/phi^2 = 1 and (sqrt2 - 1) + (2 - sqrt2) = 1).
KAGOME_RATIOS = (1.0 / PHI, 1.0 / PHI ** 2, math.sqrt(2.0) - 1.0, 2.0 - math.sqrt(2.0))

#: Incommensurate-limit band measure of the kagome lattice.
TORUS_VALUE = 0.639081

#: Triangular negative scans at these periods fail today: the hyperbolic
#: kernels overflow and the scan reports a spurious third band.
TRI_LARGE_D = (20.0, 100.0, 200.0)


class CheckFailed(AssertionError):
    """An operation's output broke a property it must have."""


def require(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Op:
    """One library or CLI call, with the check of its own output."""

    label: str
    fn: Callable[[], Any]
    check: Callable[[Any], None] | None = None
    out_path: str | None = None


# --------------------------------------------------------------------------
# shared checks

def check_probability_range(value: float, lo: float, hi: float, label: str) -> None:
    require(lo <= value <= hi, f"{label}: P={value!r} outside [{lo}, {hi}]")


def check_close(a: float, b: float, tol: float, label: str) -> None:
    require(abs(a - b) <= tol, f"{label}: |{a!r} - {b!r}| > {tol}")


def _series(step: float, k_max: float) -> list:
    n = np.arange(1, int(k_max / step) + 2)
    ks = n * step
    return list(ks[ks <= k_max])


def expected_flat_momenta(spec: qg.LatticeSpec, k_max: float) -> list:
    """Flat-band momenta from the closed forms: 2 n pi / L for every edge
    length L (n pi / c and the zeros of 2 cos(kc) + 1 for the equilateral
    lattice), plus k = 1/ell where 2 cos(L/ell) + 1 = 0."""
    if spec.kind == "equilateral_kagome":
        ks = _series(math.pi / spec.c, k_max)
        for start in (2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0):
            m = np.arange(0, int(k_max * spec.c / (2.0 * math.pi)) + 2)
            zs = (start + 2.0 * math.pi * m) / spec.c
            ks.extend(zs[zs <= k_max])
        lengths = (spec.d,)
    elif spec.kind == "triangular":
        ks = _series(2.0 * math.pi / spec.d, k_max)
        lengths = (spec.d,)
    else:
        lengths = (spec.c, spec.b, spec.d)
        ks = [k for L in lengths for k in _series(2.0 * math.pi / L, k_max)]
    if 1.0 / spec.ell <= k_max and any(abs(2.0 * math.cos(L / spec.ell) + 1.0) < 1e-9 for L in lengths):
        ks.append(1.0 / spec.ell)
    return sorted(ks)


def check_flat_bands(bands, spec: qg.LatticeSpec, k_max: float, label: str) -> None:
    """The scan's zero-width bands sit exactly on the closed-form momenta."""
    # momenta within 1e-9 of the cutoff may fall either side of it
    edge = k_max * (1.0 - 1e-9)
    got = np.array(sorted(iv.k_lo for iv in bands.flat if iv.k_lo <= edge))
    want = np.array([k for k in expected_flat_momenta(spec, k_max) if k <= edge])
    require(got.size == want.size, f"{label}: {got.size} flat bands, expected {want.size}")
    if got.size:
        err = float(np.max(np.abs(got - want) / want))
        require(err <= 1e-12, f"{label}: flat band off its closed form by {err:.2e} (relative)")


def _uncovered(x, y) -> list:
    """Pieces of the intervals `x` that no interval of `y` covers (both
    lists sorted and disjoint)."""
    out = []
    j = 0
    for lo, hi in x:
        while j < len(y) and y[j][1] < lo:
            j += 1
        cur, i = lo, j
        while i < len(y) and y[i][0] < hi:
            if y[i][0] > cur:
                out.append((cur, y[i][0]))
            cur = max(cur, y[i][1])
            i += 1
        if cur < hi:
            out.append((cur, hi))
    return out


def probe_step(spec: qg.LatticeSpec, k_max: float) -> float:
    """Grid step of a positive scan at the default resolution."""
    return k_max / max(8, math.floor(k_max / (2.0 * math.pi / (1000.0 * spec.d))))


def missed_gaps(a, b, k_max: float, jitter, label: str) -> tuple:
    """Pieces of momentum that the continuous bands of one scan of a swap
    pair cover and the other's do not, ignoring pieces no wider than
    ``jitter(k)``.  Swapping the two kagome edge lengths leaves the spectrum
    unchanged, so each such piece must be a whole gap of the other scan,
    narrower than one probe step, that the covering scan stepped over; the
    closed-form membership test must put its midpoint outside the spectrum of
    both lattices.  Anything else fails.  Returns the pieces covered by `a`
    only and by `b` only."""
    step = max(probe_step(a.spec, k_max), probe_step(b.spec, k_max))
    ia = [(iv.k_lo, iv.k_hi) for iv in a.continuous]
    ib = [(iv.k_lo, iv.k_hi) for iv in b.continuous]
    found = []
    for cover, other in ((ia, ib), (ib, ia)):
        gaps = set(zip([hi for _, hi in other[:-1]], [lo for lo, _ in other[1:]]))
        pieces = [(lo, hi) for lo, hi in _uncovered(cover, other) if hi - lo > jitter(hi)]
        for lo, hi in pieces:
            mid = 0.5 * (lo + hi)
            require((lo, hi) in gaps and hi - lo < step and not qg.in_band(mid, "positive", a.spec)
                    and not qg.in_band(mid, "positive", b.spec),
                    f"{label}: bands differ on [{lo!r}, {hi!r}]")
        found.append(pieces)
    return tuple(found)


def check_swap_pair(a, b, k_max: float, label: str, tol: float = 1e-9) -> list:
    """Band edges of a swap pair agree within `tol`, except across gaps
    narrower than one probe step that one scan missed (see `missed_gaps`);
    flat bands agree.  Returns the missed gaps."""
    only_a, only_b = missed_gaps(a, b, k_max, lambda k: tol, label)
    fa = sorted(round(iv.k_lo, 9) for iv in a.flat)
    fb = sorted(round(iv.k_lo, 9) for iv in b.flat)
    require(fa == fb, f"{label}: flat bands differ")
    return only_a + only_b


def check_swap_measure(a, b, K: float, label: str, tol: float = 1e-9) -> list:
    """The band measures of a swap pair agree within `tol` once the gaps
    narrower than one probe step that one scan missed are taken out.  Edges
    may differ by the bisection tolerance (1e-10 relative), so pieces up to
    1e-9 k wide are left in.  Returns the missed gaps."""
    (est_a, bands_a), (est_b, bands_b) = a, b
    only_a, only_b = missed_gaps(bands_a, bands_b, math.sqrt(K), lambda k: 1e-9 * max(1.0, k), label)
    measure = lambda pieces: sum(hi * hi - lo * lo for lo, hi in pieces) / K
    check_close(est_a.value - measure(only_a), est_b.value - measure(only_b), tol, f"swap {label}")
    return only_a + only_b


def _edge_distance(x: float, bands) -> float:
    return min(min(abs(x - iv.k_lo), abs(x - iv.k_hi)) for iv in bands.intervals)


# --------------------------------------------------------------------------
# band_measure

def _finite_scan(spec: qg.LatticeSpec, K: float):
    """finite_scan_probability, also returning the band structure it integrated."""
    inner = probability.scan_bands
    seen = []

    @functools.wraps(inner)
    def capture(*args, **kwargs):
        bands = inner(*args, **kwargs)
        seen.append(bands)
        return bands

    probability.scan_bands = capture
    try:
        est = probability.finite_scan_probability(spec, K)
    finally:
        probability.scan_bands = inner
    return est, seen[0]


class BandMeasure:
    """Finite-cutoff band measure (the paper's headline number) and the
    torus-area limit: a few long scans over about 3 M probes each."""

    name = "band_measure"

    def __init__(self, seed: int, smoke: bool = False, tmpdir: str | None = None):
        rng = np.random.default_rng([seed, 1])
        # the cell period sets the probe count, so it varies little
        d = float(rng.uniform(1.6, 1.64))
        ell = float(rng.uniform(0.5, 2.0))
        self.K = 1.0e6 if smoke else 1.0e8
        self.ops = []
        for r in KAGOME_RATIOS:
            spec = qg.LatticeSpec.kagome(r * d, d, ell)
            self.ops.append(self._scan_op(f"kagome c/d={r:.6f}", spec, (0.629, 0.649)))
        self.pairs = [(self.ops[0].label, self.ops[1].label), (self.ops[2].label, self.ops[3].label)]
        third = 2.0 / 3.0
        self.ops.append(self._scan_op("equilateral", qg.LatticeSpec.equilateral(0.5 * d, ell),
                                      (third - 1e-2, third + 1e-2)))
        self.ops.append(self._scan_op("triangular", qg.LatticeSpec.triangular(d, ell),
                                      (third - 1e-2, third + 1e-2)))
        torus_spec = qg.LatticeSpec.kagome(d / PHI, d, ell)
        self.ops.append(Op("torus grid_n=2000",
                           lambda: qg.torus_probability(torus_spec, grid_n=2000),
                           lambda est: check_close(est.value, TORUS_VALUE, 5e-4, "torus")))

    def _scan_op(self, label, spec, p_range):
        K = self.K

        def check(result):
            est, bands = result
            check_probability_range(est.value, *p_range, label)
            check_flat_bands(bands, spec, math.sqrt(K), label)

        return Op(label, lambda: _finite_scan(spec, K), check)

    def check_round(self, results: dict) -> list:
        missed = []
        for a, b in self.pairs:
            if a in results and b in results:
                missed += check_swap_measure(results[a], results[b], self.K, f"{a} / {b}")
        return missed


# --------------------------------------------------------------------------
# oracle_xval

ORACLE_SPECS = (
    qg.LatticeSpec.kagome(1.0, 3.0, 1.0),
    qg.LatticeSpec.equilateral(1.0, 1.0),
    qg.LatticeSpec.triangular(2.0, 1.0),
)


class OracleXval:
    """Closed-form membership against the Floquet-determinant oracle at
    seeded momenta, both sides of the spectrum."""

    name = "oracle_xval"

    def __init__(self, seed: int, smoke: bool = False, tmpdir: str | None = None):
        rng = np.random.default_rng([seed, 2])
        per_group = 2 if smoke else 60
        self._scans = {}
        self.ops = []
        for spec in ORACLE_SPECS:
            for side, top in (("positive", 40.0), ("negative", 4.0)):
                # one momentum per stratum keeps the in-band share, and so
                # the oracle's early exits, nearly the same for every seed
                u = 1.0 - rng.random(per_group)
                for i, x in enumerate((np.arange(per_group) + u) * (top / per_group)):
                    self.ops.append(self._op(spec, side, float(x), i))

    def _op(self, spec, side, x, i):
        def run():
            return qg.in_band(x, side, spec), qg.oracle_in_spectrum(x, spec, side=side)

        def check(result):
            self.check_agreement(spec, side, x, *result)

        return Op(f"{spec.kind} {side} #{i}", run, check)

    def bands_for(self, spec, side):
        key = (spec, side)
        if key not in self._scans:
            self._scans[key] = (qg.scan_bands(spec, "positive", 41.0) if side == "positive"
                                else qg.scan_negative_bands(spec))
        return self._scans[key]

    def check_agreement(self, spec, side, x, member, oracle) -> None:
        """A disagreement is allowed only within 1e-8 of a scanned band edge."""
        if member == oracle:
            return
        dist = _edge_distance(x, self.bands_for(spec, side))
        require(dist < 1e-8, f"{spec.kind} {side} x={x!r}: in_band={member}, oracle={oracle}, "
                             f"{dist:.2e} from the nearest band edge")

    def check_round(self, results: dict) -> list:
        return []


# --------------------------------------------------------------------------
# small_scans

def check_negative_count(bands, bound: int, exact: bool, label: str) -> None:
    n = len(bands.continuous)
    ok = n == bound if exact else n <= bound
    require(ok, f"{label}: {n} negative bands, expected {'exactly' if exact else 'at most'} {bound}")


def check_inverse_ell_member(bands, ell: float, label: str) -> None:
    """-1/ell^2 belongs to every non-equilateral kagome spectrum."""
    k = 1.0 / ell
    require(any(iv.k_lo <= k <= iv.k_hi for iv in bands.continuous),
            f"{label}: kappa=1/ell={k!r} outside every negative band")


def check_isolated_flat(bands, ell: float, label: str) -> None:
    """The equilateral negative flat band at kappa = 1/ell lies in a gap."""
    k = 1.0 / ell
    flats = [iv for iv in bands.intervals if iv.band_type == "flat"]
    require(len(flats) == 1 and flats[0].k_lo == k, f"{label}: flat bands {flats}")
    require(not any(iv.k_lo <= k <= iv.k_hi for iv in bands.continuous),
            f"{label}: flat band at kappa={k!r} inside a continuous band")


def check_comparison_rows(rows, spec: qg.LatticeSpec, label: str) -> None:
    """Criterion 09 bounds on the narrow pair everywhere; criterion 10
    bounds on the negative rows of the large cell (triangular d = 10)."""
    by_name = {r[0]: r for r in rows}
    for name, pred, meas, rel in rows:
        require(math.isfinite(pred) and math.isfinite(meas), f"{label} {name}: non-finite row")
        check_close(rel, abs(meas - pred) / abs(pred), 1e-12 * max(1.0, rel), f"{label} {name} relative error")
    width = by_name["narrow_band_width_E(n=50)"]
    gap = by_name["narrow_gap_width_E(n=50)"]
    require(width[3] < 0.10, f"{label}: narrow width off by {width[3]:.2%}")
    target = 8.0 if spec.kind == "equilateral_kagome" else 2.0
    ratio = (gap[2] / width[2]) / target - 1.0
    require(abs(ratio) < 0.10, f"{label}: gap/width ratio off by {ratio:.2%}")
    negative = [r for r in rows if r[0].startswith("negative_")]
    if spec.kind == "triangular" and spec.d == 10.0:
        require(len(negative) == 4, f"{label}: {len(negative)} negative rows")
        for name, pred, meas, rel in negative:
            if name.startswith("negative_center"):
                require(abs(meas - pred) < 1e-3, f"{label} {name}: center off by {abs(meas - pred):.2e}")
            else:
                require(rel < 0.10, f"{label} {name}: width off by {rel:.2%}")
    else:
        # small cells: no limit applies, but the rows must describe
        # negative bands
        require(negative, f"{label}: no negative rows")
        for name, pred, meas, rel in negative:
            if name.startswith("negative_center"):
                require(meas < 0.0, f"{label} {name}: center {meas!r} not negative")
            else:
                require(meas > 0.0, f"{label} {name}: width {meas!r} not positive")


def check_unitary(entries, label: str, tol: float = 1e-12) -> None:
    n = entries.shape[0]
    err = float(np.abs(entries @ entries.conj().T - np.eye(n)).max())
    require(err <= tol, f"{label}: unitarity error {err:.2e} > {tol}")


def check_same_bytes(data: bytes, reference: bytes, label: str) -> None:
    require(data == reference, f"{label}: artifact differs from a second invocation")


def _same_value(field: str, value) -> bool:
    if isinstance(value, (bool, np.bool_, str)) or isinstance(value, (int, np.integer)):
        return field == str(value)
    value = float(value)
    if math.isnan(value):
        return field == "nan"
    return abs(float(field) - value) <= 5e-12 * abs(value)


def check_csv_values(text: str, header: str, rows, label: str) -> None:
    """CSV fields equal the library's values to 12 significant digits."""
    lines = text.splitlines()
    require(lines and lines[0] == header, f"{label}: header {lines[:1]}")
    require(len(lines) - 1 == len(rows), f"{label}: {len(lines) - 1} rows, library gives {len(rows)}")
    for i, (line, row) in enumerate(zip(lines[1:], rows), start=1):
        fields = line.split(",")
        require(len(fields) == len(row), f"{label}: row {i} has {len(fields)} fields")
        for f, v in zip(fields, row):
            try:
                same = _same_value(f, v)
            except ValueError:
                same = False
            require(same, f"{label}: row {i} field {f!r} != library {v!r}")


def check_probability_json(text: str, value: float, label: str) -> None:
    doc = json.loads(text)
    require(doc.get("method") == "finite_scan", f"{label}: method {doc.get('method')!r}")
    require(_same_value(repr(doc.get("value")), value), f"{label}: value {doc.get('value')!r} != {value!r}")


def _positive_geometry(rng):
    """A kagome geometry away from the equilateral one.  A positive scan's
    probe count grows with d, so d varies little and the scan's cost with it."""
    ell = float(rng.choice([0.5, 1.0, 2.0]))
    d = float(rng.uniform(2.8, 3.2))
    return ell, d * float(rng.uniform(0.15, 0.45)), d


class SmallScans:
    """Many short calls: negative scans, short positive scans, asymptotics,
    gap closings and the CLI, where per-call overhead dominates."""

    name = "small_scans"

    def __init__(self, seed: int, smoke: bool = False, tmpdir: str | None = None):
        rng = np.random.default_rng([seed, 3])
        self.tmpdir = tmpdir
        n_geo = 2 if smoke else 16
        n_eq = 1 if smoke else 4
        n_pairs = 1 if smoke else 5
        self.ops = []
        self.pairs = []
        self._references = {}

        for i in range(n_geo):  # drawn as acceptance criterion 06 draws them
            ell = float(rng.choice([0.5, 1.0, 2.0]))
            c = float(rng.uniform(0.3, 1.5)) * ell
            d = c * float(rng.uniform(1.15, 3.6))
            self.ops.append(self._negative_op(f"kagome negative #{i}", qg.LatticeSpec.kagome(c, d, ell)))
        for i in range(n_geo):
            ell = float(rng.choice([0.5, 1.0, 2.0]))
            d = float(rng.uniform(0.4, 5.0)) * ell
            self.ops.append(self._negative_op(f"triangular negative #{i}", qg.LatticeSpec.triangular(d, ell)))
        for i in range(n_eq):
            ell = float(rng.choice([0.5, 1.0, 2.0]))
            c = float(rng.uniform(0.3, 1.5)) * ell
            self.ops.append(self._negative_op(f"equilateral negative #{i}", qg.LatticeSpec.equilateral(c, ell)))
        for i in range(n_pairs):
            ell, c, d = _positive_geometry(rng)
            a = Op(f"positive k<=40 #{i}", self._scan40(qg.LatticeSpec.kagome(c, d, ell)))
            b = Op(f"positive k<=40 #{i} swapped", self._scan40(qg.LatticeSpec.kagome(d - c, d, ell)))
            self.ops += [a, b]
            self.pairs.append((a.label, b.label))
        for spec in (qg.LatticeSpec.equilateral(1.0, 1.0), qg.LatticeSpec.triangular(1.0, 1.0),
                     qg.LatticeSpec.triangular(10.0, 1.0)):
            label = f"comparison_rows {spec.kind} d={spec.d:g}"
            self.ops.append(Op(label, functools.partial(asymptotics.comparison_rows, spec),
                               functools.partial(check_comparison_rows, spec=spec, label=label)))
        gap_spec = qg.LatticeSpec.kagome(1.0, 3.0, 1.0)
        for side, k_win, d_win in (("positive", (1.8, 2.6), (2.1, 3.6)),
                                   ("negative", (0.5, 2.2), (2.0, 4.5))):
            run = functools.partial(qg.detect_gap_closings, gap_spec, k_win, d_win, side=side, grid_n=32)
            self.ops.append(Op(f"gap closings {side}", run,
                               functools.partial(self.check_gap_closings, side=side,
                                                 k_win=k_win, d_win=d_win)))
        self._cli_ops(rng)
        for d in TRI_LARGE_D:
            self.ops.append(self._negative_op(f"triangular negative d={d:g}", qg.LatticeSpec.triangular(d, 1.0)))

    def _negative_op(self, label, spec):
        def check(bands):
            if spec.kind == "triangular":
                check_negative_count(bands, 2, True, label)
            else:
                check_negative_count(bands, 3, False, label)
            if spec.kind == "kagome":
                check_inverse_ell_member(bands, spec.ell, label)
            elif spec.kind == "equilateral_kagome":
                check_isolated_flat(bands, spec.ell, label)

        return Op(label, functools.partial(qg.scan_negative_bands, spec), check)

    @staticmethod
    def _scan40(spec):
        return functools.partial(qg.scan_bands, spec, "positive", 40.0)

    def check_gap_closings(self, found, side, k_win, d_win) -> None:
        label = f"gap closings {side}"
        require(found, f"{label}: none found")
        for k, d, theta in found:
            require(k_win[0] <= k <= k_win[1] and d_win[0] <= d <= d_win[1],
                    f"{label}: ({k!r}, {d!r}) outside the window")
            key = (k, d, side)
            if key not in self._references:
                self._references[key] = qg.oracle_in_spectrum(k, qg.LatticeSpec.kagome(1.0, d, 1.0), side=side)
            require(self._references[key], f"{label}: oracle puts k={k!r} at d={d!r} outside the spectrum")

    # ---- CLI

    def _cli_ops(self, rng) -> None:
        ell, c, d = _positive_geometry(rng)
        spec = qg.LatticeSpec.kagome(c, d, ell)
        geo = ["--kind", "kagome", "--c", repr(c), "--d", repr(d), "--ell", repr(ell)]
        tri = qg.LatticeSpec.triangular(float(rng.uniform(2.0, 6.0)), 1.0)
        n = int(rng.integers(3, 13))
        k_s = float(10.0 ** rng.uniform(-2.0, 2.0))
        K = 1.0e4
        commands = {
            "bands": (geo + ["--k-max", "8"],
                      lambda: (cli.BANDS_HEADER, qg.scan_bands(spec, "positive", 8.0).csv_rows())),
            "negative": (geo,
                         lambda: (cli.BANDS_HEADER, qg.scan_negative_bands(spec).csv_rows())),
            "flatbands": (geo + ["--k-max", "20"],
                          lambda: (cli.FLATBANDS_HEADER,
                                   [(fb.k, fb.k ** 2, fb.family, fb.embedded, fb.multiplicity_note)
                                    for fb in qg.flat_bands(spec, 20.0)])),
            "probability": (geo + ["--K", repr(K)],
                            lambda: qg.finite_scan_probability(spec, K).value),
            "asymptotics": (["--kind", "triangular", "--d", repr(tri.d), "--n", "50"],
                            lambda: (cli.ASYMPTOTICS_HEADER, asymptotics.comparison_rows(tri, n=50))),
            "scattering": (["--n", str(n), "--ell", repr(ell), "--k", repr(k_s)],
                           lambda: self._scattering_reference(n, ell, k_s)),
        }
        for sub, (args, library) in commands.items():
            argv = [sub] + args
            path = os.path.join(self.tmpdir or ".", f"{sub}.out")
            self.ops.append(Op(f"cli {sub}", functools.partial(self._cli_call, argv, path),
                               functools.partial(self.check_cli, argv=argv, library=library),
                               out_path=path))

    @staticmethod
    def _cli_call(argv, path):
        code = cli.main(argv + ["--out", path])
        with open(path, "rb") as fh:
            data = fh.read()
        return code, data

    @staticmethod
    def _scattering_reference(n, ell, k):
        entries = qg.scattering_matrix(n, ell, k).entries
        check_unitary(entries, f"scattering n={n}")
        rows = [(i + 1, j + 1, entries[i, j].real, entries[i, j].imag) for i in range(n) for j in range(n)]
        return cli.SCATTERING_HEADER, rows

    def cli_reference(self, argv, library):
        """A second invocation's bytes and the library's values, made once."""
        key = tuple(argv)
        if key not in self._references:
            path = os.path.join(self.tmpdir or ".", f"{argv[0]}.reference")
            code = cli.main(argv + ["--out", path])
            require(code == 0, f"cli {argv[0]}: second invocation exit {code}")
            with open(path, "rb") as fh:
                self._references[key] = (fh.read(), library())
        return self._references[key]

    def check_cli(self, result, argv, library) -> None:
        label = f"cli {argv[0]}"
        code, data = result
        require(code == 0, f"{label}: exit {code}")
        reference, values = self.cli_reference(argv, library)
        check_same_bytes(data, reference, label)
        text = data.decode()
        if argv[0] == "probability":
            check_probability_json(text, values, label)
        else:
            check_csv_values(text, *values, label)

    def check_round(self, results: dict) -> list:
        missed = []
        for a, b in self.pairs:
            if a in results and b in results:
                missed += check_swap_pair(results[a], results[b], 40.0, f"swap {a}")
        return missed


WORKLOADS = {w.name: w for w in (BandMeasure, OracleXval, SmallScans)}
