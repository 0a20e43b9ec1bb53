"""Command-line front end producing CSV/JSON artifacts from the library.

Subcommands: bands, negative, flatbands, probability, torus-prob, sweep,
scattering, asymptotics, oracle-check.  All flags are long-form; lengths
are in the same unit as the coupling scale ell.  Identical invocations
write byte-identical files.  Exit codes: 0 success, 2 validation error,
1 internal-consistency failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import asymptotics as asy
from . import probability as prob
from .bands import (
    InternalConsistencyError,
    flat_bands,
    scan_bands,
    scan_negative_bands,
)
from .kernels import GeometryError, LatticeSpec, Quasimomentum
from .secular import _bracket_prefactor, kagome_secular_matrix, triangular_secular_matrix
from .vertex import scattering_matrix


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x + 0.0:.12g}"  # +0.0 folds negative zero
    return str(x)


def _write_lines(path: str, lines) -> None:
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _write_csv(path: str, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _write_lines(path, lines)


def _write_json(path: str, obj) -> None:
    _write_lines(path, [json.dumps(obj, indent=2)])


def _spec_from_args(args) -> LatticeSpec:
    if args.kind == "triangular":
        if args.d is None:
            raise GeometryError("triangular lattice requires --d")
        return LatticeSpec.triangular(args.d, args.ell)
    if args.kind == "equilateral":
        if args.c is None:
            raise GeometryError("equilateral lattice requires --c")
        return LatticeSpec.equilateral(args.c, args.ell)
    if args.c is None or args.d is None:
        raise GeometryError("kagome lattice requires --c and --d")
    return LatticeSpec.kagome(args.c, args.d, args.ell)


def _add_spec_flags(p, kinds=("kagome", "equilateral", "triangular")):
    p.add_argument("--kind", choices=kinds, required=True)
    p.add_argument("--c", type=float, default=None, help="kagome edge length")
    p.add_argument("--d", type=float, default=None, help="cell period (d = b + c)")
    p.add_argument("--ell", type=float, default=1.0, help="coupling length scale")


def _add_out_flags(p, default_format="csv"):
    p.add_argument("--out", default="-", help="output path, - for stdout")
    p.add_argument("--format", choices=("csv", "json"), default=default_format)


BANDS_HEADER = "side,band_index,type,k_lo,k_hi,E_lo,E_hi"
SWEEP_HEADER = "ratio,P,method,K_or_grid"
ASYMPTOTICS_HEADER = "quantity,predicted,measured,relative_error"
ORACLE_HEADER = "k,theta1,theta2,det_re,det_im,normalized"
SCATTERING_HEADER = "i,j,re,im"
FLATBANDS_HEADER = "k,E,family,embedded,note"


def _emit_bands(bs, args) -> None:
    if args.format == "json":
        _write_json(args.out, bs.to_dict())
    else:
        _write_csv(args.out, BANDS_HEADER, bs.csv_rows())


def _cmd_bands(args) -> int:
    spec = _spec_from_args(args)
    bs = scan_bands(spec, "positive", args.k_max, args.resolution)
    _emit_bands(bs, args)
    return 0


def _cmd_negative(args) -> int:
    spec = _spec_from_args(args)
    bs = scan_negative_bands(spec, args.kappa_max, args.resolution)
    _emit_bands(bs, args)
    return 0


def _cmd_flatbands(args) -> int:
    spec = _spec_from_args(args)
    fbs = flat_bands(spec, args.k_max)
    if args.format == "json":
        _write_json(args.out, [
            {"k": fb.k, "E": fb.k ** 2, "family": fb.family,
             "embedded": fb.embedded, "note": fb.multiplicity_note}
            for fb in fbs
        ])
    else:
        rows = [(fb.k, fb.k ** 2, fb.family, fb.embedded, fb.multiplicity_note) for fb in fbs]
        _write_csv(args.out, FLATBANDS_HEADER, rows)
    return 0


def _cmd_probability(args) -> int:
    spec = _spec_from_args(args)
    est = prob.finite_scan_probability(spec, args.K, args.resolution)
    _write_json(args.out, est.to_dict())
    return 0


def _cmd_torus_prob(args) -> int:
    spec = LatticeSpec.kagome(args.c, args.d, args.ell)
    est = prob.torus_probability(spec, args.grid)
    _write_json(args.out, est.to_dict())
    return 0


def _cmd_sweep(args) -> int:
    ratios = [float(r) for r in args.ratios.split(",") if r.strip()]
    template = LatticeSpec.kagome(0.5 * args.d, args.d, args.ell)
    results = prob.probability_sweep(ratios, template, args.K, args.resolution)
    rows = [(r, est.value, est.method, est.K) for r, est in results]
    _write_csv(args.out, SWEEP_HEADER, rows)
    return 0


def _cmd_scattering(args) -> int:
    s = scattering_matrix(args.n, args.ell, args.k)
    rows = [
        (i + 1, j + 1, s.entries[i, j].real, s.entries[i, j].imag)
        for i in range(args.n) for j in range(args.n)
    ]
    _write_csv(args.out, SCATTERING_HEADER, rows)
    return 0


def _cmd_asymptotics(args) -> int:
    spec = _spec_from_args(args)
    rows = asy.comparison_rows(spec, n=args.n)
    _write_csv(args.out, ASYMPTOTICS_HEADER, rows)
    return 0


def _cmd_oracle_check(args) -> int:
    spec = _spec_from_args(args)
    z = complex(args.k) if args.side == "positive" else 1j * args.k
    matrix_fn = kagome_secular_matrix if spec.is_kagome else triangular_secular_matrix
    thetas = np.linspace(-np.pi, np.pi, args.grid_n, endpoint=False)
    rows = []
    for t1 in thetas:
        for t2 in thetas:
            q = Quasimomentum(float(t1), float(t2))
            system = matrix_fn(z, q, spec)
            raw = np.linalg.det(system.matrix)  # factored once for both columns
            det = system.conventional(raw)
            with np.errstate(divide="ignore", invalid="ignore"):
                norm = raw / _bracket_prefactor(z, q.theta2, spec)
            rows.append((args.k, float(t1), float(t2), det.real, det.imag, float(norm.real)))
    _write_csv(args.out, ORACLE_HEADER, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qglattice",
        description="Band structure of kagome and triangular quantum-graph lattices "
                    "with the circulant time-reversal-breaking vertex coupling.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bands", help="scan the positive spectrum")
    _add_spec_flags(p)
    p.add_argument("--k-max", type=float, required=True)
    p.add_argument("--resolution", type=float, default=None)
    _add_out_flags(p)
    p.set_defaults(fn=_cmd_bands)

    p = sub.add_parser("negative", help="scan the negative spectrum")
    _add_spec_flags(p)
    p.add_argument("--kappa-max", type=float, default=None)
    p.add_argument("--resolution", type=float, default=None)
    _add_out_flags(p)
    p.set_defaults(fn=_cmd_negative)

    p = sub.add_parser("flatbands", help="enumerate flat and point-degenerate bands")
    _add_spec_flags(p)
    p.add_argument("--k-max", type=float, required=True)
    _add_out_flags(p)
    p.set_defaults(fn=_cmd_flatbands)

    p = sub.add_parser("probability", help="finite-cutoff band measure")
    _add_spec_flags(p)
    p.add_argument("--K", type=float, required=True, help="energy cutoff")
    p.add_argument("--resolution", type=float, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_probability)

    p = sub.add_parser("torus-prob", help="incommensurate-limit band measure (torus area)")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--ell", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=2000)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_torus_prob)

    p = sub.add_parser("sweep", help="band measure over edge length ratios")
    p.add_argument("--ratios", required=True, help="comma-separated c/d ratios in (0,1)")
    p.add_argument("--d", type=float, default=1.0)
    p.add_argument("--ell", type=float, default=1.0)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--resolution", type=float, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("scattering", help="vertex scattering matrix entries")
    p.add_argument("--n", type=int, required=True, help="vertex degree")
    p.add_argument("--ell", type=float, default=1.0)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_scattering)

    p = sub.add_parser("asymptotics", help="predicted vs scanned asymptotic quantities")
    _add_spec_flags(p)
    p.add_argument("--n", type=int, default=50, help="narrow-band pair index")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_asymptotics)

    p = sub.add_parser("oracle-check", help="secular determinant over a quasimomentum grid")
    _add_spec_flags(p)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--side", choices=("positive", "negative"), default="positive")
    p.add_argument("--grid-n", type=int, default=16)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_oracle_check)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1
    except (GeometryError, prob.InsufficientScanError, prob.UnsupportedLatticeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
