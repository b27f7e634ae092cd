"""Command-line interface.

Subcommands: irreps, fusion, report, tangle (eval | moves), fourier,
tannaka, suite.  Groups come from the built-in catalog, a JSON file path,
or the directory named by TWOHILB_CATALOG.  Exit status: 0 all checks pass,
1 a check failed (a machine-readable failure list is printed), 2 bad input.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

import numpy as np

from . import acceptance
from .errors import TwoHilbError
from .groups import FiniteGroup, FiniteSuperGroup, catalog_names, load_group
from .reps import RepCategory
from .tangles import EvalContext, evaluate, move_suite, parse as parse_tangle
from .transforms import FourierMap, tannaka_reconstruct


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _complex_pair(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_rows(rows: list[dict], fmt: str, out: str | None, title: str = "") -> None:
    if fmt == "json":
        _write(json.dumps(rows, indent=2) + "\n", out)
        return
    if fmt == "csv":
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _fmt(v) if isinstance(v, float) else v
                                 for k, v in row.items()})
        _write(buf.getvalue(), out)
        return
    lines = [title] if title else []
    for row in rows:
        lines.append("  ".join(f"{k}={_fmt(v) if isinstance(v, float) else v}"
                               for k, v in row.items()))
    _write("\n".join(lines) + "\n", out)


def _category(args) -> RepCategory:
    group = load_group(args.group)
    if getattr(args, "super_grading", None) is not None:
        if isinstance(group, FiniteSuperGroup):
            raise TwoHilbError(f"{args.group} already carries a grading")
        if args.super_grading == "auto":
            involutions = group.central_involutions()
            if len(involutions) != 1:
                raise TwoHilbError(
                    f"{args.group} has central involutions {involutions}; "
                    "pass an explicit index")
            z = involutions[0]
        else:
            z = int(args.super_grading)
        group = FiniteSuperGroup.make(group, z)
    return RepCategory(group)


def _resolve_irrep(cat: RepCategory, name: str):
    labels = cat.irrep_labels()
    if name in labels:
        return cat.irrep(name)
    irreps = cat.irreps()
    if name == "triv":
        return cat.irrep("1a")
    if name == "sgn":
        ones = [i for i in irreps if i.degree == 1]
        nontrivial = [i for i in ones if not np.allclose(i.character, 1.0)]
        if len(nontrivial) == 1:
            return cat.irrep(nontrivial[0].label)
    if name == "std":
        top = max(i.degree for i in irreps)
        candidates = [i for i in irreps if i.degree == top]
        if top > 1 and len(candidates) == 1:
            return cat.irrep(candidates[0].label)
    raise TwoHilbError(f"unknown object {name!r}; labels are {labels} "
                       "(aliases: triv, sgn, std)")


def _cmd_irreps(args) -> int:
    cat = _category(args)
    rows = []
    for irr in cat.irreps():
        row = {"label": irr.label, "degree": irr.degree}
        if cat.z_index is not None:
            row["parity"] = "odd" if irr.parity else "even"
        if args.format == "json":
            row["character"] = [_complex_pair(c) for c in irr.character]
        elif args.format == "csv":
            row["character"] = ";".join(
                f"{_fmt(c.real)},{_fmt(c.imag)}" for c in irr.character)
        rows.append(row)
    _emit_rows(rows, args.format, args.out, title=f"irreducibles of {cat.name}")
    return 0


def _cmd_fusion(args) -> int:
    cat = _category(args)
    labels = cat.irrep_labels()
    rows = []
    for a in labels:
        for b in labels:
            mults = cat.multiplicities(cat.tensor(cat.irrep(a), cat.irrep(b)))
            pieces = []
            for lab in labels:
                n = mults.get(lab, 0)
                if n == 1:
                    pieces.append(lab)
                elif n > 1:
                    pieces.append(f"{n}*{lab}")
            rows.append({"left": a, "right": b, "decomposition": " + ".join(pieces)})
    _emit_rows(rows, args.format, args.out, title=f"fusion table of {cat.name}")
    return 0


def _cmd_report(args) -> int:
    cat = _category(args)
    rng = np.random.default_rng(args.seed)
    rows = []
    for irr in cat.irreps():
        x = cat.object_of_irrep(irr)
        duality = cat.classify_self_dual(x, rng)
        b = cat.balancing(x).matrix
        phase = complex(np.trace(b) / irr.degree)
        row = {"label": irr.label, "degree": irr.degree,
               "dim": float(cat.dim(x)), "qdim": float(cat.qdim(x)),
               "self_dual": duality.kind,
               "self_dual_sign": duality.sign if duality.sign is not None else "",
               "balancing_phase": f"{phase.real:+.6f}"}
        if cat.z_index is not None:
            row["parity"] = "odd" if irr.parity else "even"
        rows.append(row)
    _emit_rows(rows, args.format, args.out, title=f"report for {cat.name}")
    return 0


def _cmd_tangle(args) -> int:
    cat = _category(args)
    obj = _resolve_irrep(cat, args.object)
    ctx = EvalContext.make(cat, obj, ambient=args.dim, tol=args.tol,
                           scale=args.scale)
    if args.action == "eval":
        if not args.expr:
            raise TwoHilbError("tangle eval needs an expression")
        expr = parse_tangle(args.expr)
        value = evaluate(expr, ctx)
        if expr.src == "" and expr.dst == "":
            scalar = complex(value.matrix[0, 0])
            if args.format == "json":
                _write(json.dumps({"expr": args.expr, "closed": True,
                                   "value": _complex_pair(scalar)}) + "\n", args.out)
            elif abs(scalar.imag) < 1e-9:
                _write(f"{scalar.real:.6f}\n", args.out)
            else:
                _write(f"{scalar.real:.6f}{scalar.imag:+.6f}j\n", args.out)
        else:
            payload = {"expr": args.expr, "closed": False,
                       "src": expr.src, "dst": expr.dst,
                       "matrix": [[_complex_pair(v) for v in row]
                                  for row in value.matrix]}
            if args.format == "json":
                _write(json.dumps(payload) + "\n", args.out)
            else:
                _write(f"{expr.src or '()'} -> {expr.dst or '()'} "
                       f"({value.matrix.shape[0]}x{value.matrix.shape[1]} matrix)\n",
                       args.out)
        return 0
    entries = move_suite(ctx)
    report = {"context": {"group": args.group, "object": args.object,
                          "ambient": args.dim, "scale": args.scale},
              "moves": [e.to_json() for e in entries]}
    if args.format == "json":
        _write(json.dumps(report, indent=2) + "\n", args.out)
    else:
        lines = [f"move suite for {args.object} of {args.group}, ambient {args.dim}"]
        for e in entries:
            status = "PASS" if e.passed else ("FAIL" if e.required else "fail*")
            note = f" ({e.note})" if e.note else ""
            lines.append(f"  {e.move_id:<20} {status}  dev={e.deviation:.3e}{note}")
        _write("\n".join(lines) + "\n", args.out)
    failed = [e for e in entries if e.required and not e.passed]
    if failed:
        sys.stderr.write(json.dumps({"failed_moves": [e.move_id for e in failed]})
                         + "\n")
        return 1
    return 0


def _cmd_fourier(args) -> int:
    cat = _category(args)
    fm = FourierMap(cat)
    rng = np.random.default_rng(args.seed)
    rows = []
    for lab in cat.irrep_labels():
        fibers = fm.transform(cat.irrep(lab)).mults
        rows.append({"irrep": lab,
                     "fibers": " ".join(str(n) for n in fibers)})
    x = cat.random_object(rng, max_dim=4)
    y = cat.random_object(rng, max_dim=4)
    defect = fm.monoidal_defect(x, y, cat.hom_basis(x, x, rng)[0],
                                cat.hom_basis(y, y, rng)[0])
    round_trip = fm.round_trip_defect(x)
    rows.append({"irrep": "(structure-map defect)", "fibers": _fmt(defect)})
    rows.append({"irrep": "(round-trip defect)", "fibers": _fmt(round_trip)})
    _emit_rows(rows, args.format, args.out,
               title=f"transform to the dual of {cat.group.name} "
                     f"(elements: {' '.join(fm.dual.element_names)})")
    if defect > args.tol or round_trip > args.tol:
        sys.stderr.write(json.dumps({"failed": ["fourier-defect"]}) + "\n")
        return 1
    return 0


def _cmd_tannaka(args) -> int:
    cat = _category(args)
    res = tannaka_reconstruct(cat)
    payload = {"group": args.group, "order": res.order,
               "cyclic": res.is_cyclic,
               "element_orders": list(res.element_orders),
               "injection_verified": res.injection_verified}
    if args.format == "json":
        _write(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        structure = ("cyclic" if res.is_cyclic
                     else "non-cyclic" if res.is_cyclic is not None
                     else "injection only")
        _write(f"reconstructed transformation group of {args.group}: "
               f"order {res.order} ({structure})\n", args.out)
    return 0 if res.injection_verified else 1


def _cmd_suite(args) -> int:
    results = acceptance.run_all(args.seed)
    report = {"seed": args.seed,
              "results": [r.to_json() for r in results]}
    if args.format == "json":
        _write(json.dumps(report, indent=2) + "\n", args.out)
    else:
        lines = []
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"criterion {r.check_id:>2} ({r.name}): {status} "
                         f"[dev {r.deviation:.3e}, tol {r.tolerance:.1e}, "
                         f"{r.runtime:.2f}s]")
        total = sum(r.runtime for r in results)
        lines.append(f"total runtime: {total:.2f}s")
        _write("\n".join(lines) + "\n", args.out)
    failed = [r.check_id for r in results if not r.passed]
    if failed:
        sys.stderr.write(json.dumps({"failed_criteria": failed}) + "\n")
        return 1
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args fills a fresh
    namespace on every call and leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="twohilb",
        description="skeletal 2-Hilbert spaces, finite (super)group "
                    "representation categories, tangle evaluation, and "
                    "categorified transforms")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, group=True):
        if group:
            p.add_argument("--group", required=True,
                           help=f"catalog name ({', '.join(catalog_names())}), "
                                "JSON path, or file in $TWOHILB_CATALOG")
            p.add_argument("--super", dest="super_grading", nargs="?",
                           const="auto", default=None, metavar="Z",
                           help="grade by a central involution "
                                "(index, or unique one when omitted)")
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
        p.add_argument("--format", choices=["text", "json", "csv"], default="text")
        p.add_argument("--out", default=None, help="write the report to a file")

    p = sub.add_parser("irreps", help="list the irreducibles of a group")
    common(p)
    p.set_defaults(fn=_cmd_irreps)

    p = sub.add_parser("fusion", help="tensor-decomposition table")
    common(p)
    p.set_defaults(fn=_cmd_fusion)

    p = sub.add_parser("report",
                       help="dimensions, parities, self-duality, balancing phases")
    common(p)
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("tangle", help="evaluate tangle expressions or run the move suite")
    p.add_argument("action", choices=["eval", "moves"])
    p.add_argument("expr", nargs="?", default=None,
                   help="tangle expression (for eval)")
    common(p)
    p.add_argument("--object", required=True,
                   help="irreducible label or alias (triv, sgn, std)")
    p.add_argument("--dim", type=int, default=3, choices=[2, 3, 4],
                   help="ambient dimension")
    p.add_argument("--scale", type=float, default=None,
                   help="deliberately mis-scale the duality (testing aid)")
    p.set_defaults(fn=_cmd_tangle)

    p = sub.add_parser("fourier", help="isotypic grading over the dual group")
    common(p)
    p.set_defaults(fn=_cmd_fourier)

    p = sub.add_parser("tannaka", help="reconstruct the symmetry group")
    common(p)
    p.set_defaults(fn=_cmd_tannaka)

    p = sub.add_parser("suite", help="run every acceptance check")
    common(p, group=False)
    p.set_defaults(fn=_cmd_suite)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (TwoHilbError, FileNotFoundError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
