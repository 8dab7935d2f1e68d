"""Command-line front end.

Subcommands: invariants, census, verify-table, search, bhc, hb.  Every
subcommand takes --format {table,json,csv}; json and csv stay machine-clean
(diagnostics and diffs go to standard error in those modes).  Any long flag
can be preset through an environment variable PSL2_<FLAG>, e.g.
PSL2_T_MAX=1000000 or PSL2_FORMAT=json; an explicit flag wins.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, 3 resource
abort (a cap or out of memory), 4 internal error (traceback on stderr), 141
(128 + SIGPIPE) when the reader of standard output closed it early, as
`| head` does; that ends quietly, with no traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import traceback

import numpy as np

from . import arith, bhc, heathbrown, invariants, oracle, runner, search

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a reader that stopped

PROGRESS_THRESHOLD = 10**7  # scans at least this long report blocks on stderr


def _real(x: float) -> str:
    return f"{x:.10g}"


def _jreal(x: float) -> float:
    """Reals are emitted at 10 significant digits in every format."""
    return float(f"{x:.10g}")


def _int_arg(text: str) -> int:
    """Integer flag value, also in scientific notation like 1e9, read exactly; past 309 digits, as a float overflows, refused."""
    try:
        return int(text)
    except ValueError:
        import decimal  # only here: start-up need not pay for it
    value = decimal.Decimal(text, decimal.Context(traps=[]))  # NaN where text is no decimal
    if not value.is_finite() or value != value.to_integral_value():
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value and value.adjusted() >= 309:  # checked before the int is built
        raise argparse.ArgumentTypeError(f"expected an integer of at most 309 digits, got {text!r}")
    return int(value)


def _env_name(flag: str) -> str:
    return "PSL2_" + flag.lstrip("-").replace("-", "_").upper()


# what a store_true flag's environment preset may say, case-insensitively
_PRESET_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
                 **dict.fromkeys(("0", "false", "no", "off", ""), False)}


def _add(parser: argparse.ArgumentParser, flag: str, **kw) -> None:
    """add_argument with an environment-variable default override.

    The preset is read when the parser is built, as the flag's own value
    would be: through the argument's type and choices, or, for a store_true
    flag, as one of _PRESET_BOOLS.  A refused preset drops required and is
    kept as the subparser's bad_preset, naming the variable, which main
    raises once that subcommand is parsed, so it fails no other.
    """
    env = os.environ.get(name := _env_name(flag))
    if env is not None:
        if kw.get("action") == "store_true":
            value = _PRESET_BOOLS.get(env.strip().lower())
            error = value is None and " is not one of 1/true/yes/on or 0/false/no/off"
        else:
            try:
                value = kw.get("type", str)(env)
                error = value not in kw.get("choices", (value,)) and f" is not one of {'/'.join(kw['choices'])}"
            except (argparse.ArgumentTypeError, ValueError) as exc:
                error = f": {exc}"
        if error:  # the subparser keeps its first bad preset
            parser.set_defaults(bad_preset=parser.get_default("bad_preset") or f"{name}={env!r}{error}")
        else:
            kw["default"] = value
        kw.pop("required", None)
    parser.add_argument(flag, **kw)


def _add_format(parser: argparse.ArgumentParser) -> None:
    _add(parser, "--format", choices=("table", "json", "csv"), default="table",
         help="output format (default table)")


# ---------------------------------------------------------------------------
# invariants


def _profile_row(p: int) -> tuple[list, tuple[int, int, int, int]]:
    prof = invariants.profile(p)
    cells = [prof.delta, prof.epsilon, prof.k, prof.l, prof.sigma, prof.alpha]
    return cells, invariants.counts(prof)


def cmd_invariants(args) -> int:
    p = args.p
    if p == 3:
        # No divisor-split profile exists at p = 3; the counts still do.
        print("invariants: p = 3 has no profile, counts taken from the brute-force census",
              file=sys.stderr)
        cen = oracle.oracle_census(3)
        cells: list = [None] * 6
        quad = (cen.i, cen.c, cen.s, cen.n)
    else:
        cells, quad = _profile_row(p)

    names = ("delta", "epsilon", "k", "l", "sigma", "alpha")
    if args.format == "json":
        out = {"p": p}
        out.update(zip(names, cells))
        out.update(zip("icsn", quad))
        print(json.dumps(out))
    elif args.format == "csv":
        fields = [str(p)] + ["" if c is None else str(c) for c in cells] + [str(v) for v in quad]
        print(",".join(fields))
    else:
        head = f"p={p}"
        if cells[0] is None:
            head += " (no divisor-split profile)"
        else:
            head += " " + " ".join(f"{n}={c}" for n, c in zip(names, cells))
        print(head)
        print(" ".join(f"{n}={v}" for n, v in zip("icsn", quad)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# census


def _census_diff(formula: invariants.ClassCensus, brute: invariants.ClassCensus) -> list[str]:
    fm = {e.label: e for e in formula.entries}
    bm = {e.label: e for e in brute.entries}
    diffs = []
    for label in sorted(fm.keys() | bm.keys()):
        f, b = fm.get(label), bm.get(label)
        if f is None:
            diffs.append(f"{label}: only in brute-force census")
        elif b is None:
            diffs.append(f"{label}: only in formula census")
        else:
            for field in ("num_classes", "self_normalising"):  # ClassCensus ties each order to its label
                fv, bv = getattr(f, field), getattr(b, field)
                if fv != bv:
                    diffs.append(f"{label}: {field} formula={fv} brute={bv}")
    return diffs


def _print_census(cen: invariants.ClassCensus, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(cen.to_json_dict()))
        return
    if fmt == "csv":
        print("label,order,classes,self_normalising")
        for e in cen.entries:
            print(f"{e.label},{e.order},{e.num_classes},{int(e.self_normalising)}")
        return
    order = cen.p * (cen.p * cen.p - 1) // 2
    print(f"PSL(2,{cen.p})  order {order}  proper nontrivial subgroup classes:")
    width = max(len(e.label) for e in cen.entries)
    for e in cen.entries:
        mark = "self-normalising" if e.self_normalising else ""
        print(f"  {e.label:<{width}}  order {e.order:>6}  classes {e.num_classes}  {mark}".rstrip())
    print(f"i={cen.i} c={cen.c} s={cen.s} n={cen.n}")
    sn = sorted(e.label for e in cen.entries if e.self_normalising)
    print(f"self-normalising: {', '.join(sn) if sn else '(none)'}")


def cmd_census(args) -> int:
    p = args.p
    if args.oracle and p < 3:
        raise ValueError(f"brute-force census needs 3 <= p <= {oracle.MAX_P}, got {p}")
    if args.oracle and p > oracle.MAX_P:
        raise ValueError(f"brute-force census is capped at p <= {oracle.MAX_P}")
    if p == 3 and not args.oracle:
        raise ValueError("census formulas require p >= 5; use --oracle for p = 3")

    diff_stream = sys.stdout if args.format == "table" else sys.stderr
    if p == 3:
        _print_census(oracle.oracle_census(3), args.format)
        return EXIT_OK

    cen = invariants.census(p)
    _print_census(cen, args.format)
    if not args.oracle:
        return EXIT_OK

    brute = oracle.oracle_census(p)
    diffs = _census_diff(cen, brute)
    print("diff (formula vs brute force):", file=diff_stream)
    if diffs:
        for line in diffs:
            print("  " + line, file=diff_stream)
        return EXIT_MISMATCH
    print("  (empty)", file=diff_stream)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-table


def _cell(c: invariants.CellCheck) -> dict:
    return {"p": c.p, "column": c.column, "expected": c.expected, "computed": c.computed}


def cmd_verify_table(args) -> int:
    report = invariants.verify_golden(oracle_rows=args.oracle_rows)

    if args.format == "json":
        out = {
            "rows": [{"p": p, "status": status} for p, status, _ in report.rows],
            "mismatches": [_cell(c) for c in report.mismatches],
            "known_issues": [_cell(c) for c in report.known_issues],
            "ok": report.ok,
        }
        print(json.dumps(out))
    elif args.format == "csv":
        print("p,status")
        for p, status, _ in report.rows:
            print(f"{p},{status}")
    else:
        for p, status, cells in report.rows:
            line = f"p={p:<3} {status}"
            for c in cells:
                line += f"  ({c.column}: table {c.expected}, computed {c.computed})"
            print(line)
        n_formula = sum(1 for p, _, _ in report.rows if p >= 5)
        print(
            f"{n_formula} formula rows checked"
            + (" (plus brute-force rows)" if args.oracle_rows else "")
            + f", p=3 checked by brute force; "
            f"mismatches: {len(report.mismatches)}, known issues: {len(report.known_issues)}"
        )

    if report.mismatches:
        return EXIT_MISMATCH
    if args.strict and report.known_issues:
        return EXIT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# search

_CASE = "{a,b,c,d,M+:M-}"  # the case names search.split_of reads


def cmd_search(args) -> int:
    if args.show_hits < 0:
        raise ValueError("--show-hits must be at least 0")
    if args.threads is not None and args.threads < 1:
        raise ValueError("--threads must be at least 1")
    spec = search.case_spec(args.case)
    jobs = args.threads if args.threads is not None else runner.default_jobs()
    summary = search.scan(
        spec,
        args.t_max,
        # only the shown hits are built, so csv builds none; a --show-hits past the cap still goes to scan, which refuses it
        hit_cap=args.show_hits if args.format != "csv" or args.show_hits > search.MAX_HITS else 0,
        jobs=jobs,
        progress=args.t_max >= PROGRESS_THRESHOLD,
    )
    if args.format == "json":
        print(json.dumps(summary.to_json_dict()))
    elif args.format == "csv":
        print("case,t_max,q_count,sigma_alpha_zero")
        print(f"{summary.case_id},{summary.t_max},{summary.q_count},{summary.sigma_alpha_zero_count}")
    else:
        print(f"case ({summary.case_id}): t in [1, {summary.t_max}]")
        print(f"prime triples: {summary.q_count}")
        print(f"with sigma = alpha = 0: {summary.sigma_alpha_zero_count}")
        print(f"first {len(summary.hits)} hits (s, r both at least {spec.least_hit}):")
        for h in summary.hits:
            flags = "".join("icsn"[j] if h.attains[j] else "-" for j in range(4))
            print(f"  t={h.t:<8} p={h.p:<12} s={h.s:<12} r={h.r:<12} attains {flags}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bhc


def _read_q_file(path: str, spec: search.CaseSpec, x: float) -> tuple[int, int]:
    """q_count and t_max of a JSON scan summary of the case's split (a or 3:2 for case a), with t_max = x.

    Every bad input raises ValueError naming the scan file: a usage error, not a bug.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            scan_data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read scan file {path}: {exc!r}") from exc
    q = scan_data.get("q_count") if isinstance(scan_data, dict) else None
    if type(q) is not int or q < 1:  # type(), as a bool is an int too
        raise ValueError(f"scan file {path} has no integer q_count >= 1 at its top level")
    case, t_max = scan_data.get("case"), scan_data.get("t_max")
    split = None
    with contextlib.suppress(ValueError):  # a string that names no case has no split
        split = search.split_of(case) if isinstance(case, str) else None
    if split != spec.split:
        raise ValueError(f"scan file is for case {case!r}, estimate is for {spec.case_id!r}")
    if type(t_max) is not int or t_max != x:
        raise ValueError(f"scan file {path} is for t_max = {t_max!r}, estimate is for x = {_real(x)}")
    return q, t_max


def cmd_bhc(args) -> int:
    # the case and the scan file are checked before anything is computed or printed
    spec = search.case_spec(args.case)
    q_scan = None if args.q_file is None else _read_q_file(args.q_file, spec, args.x)
    bhc.check_x(spec.polys, args.x)  # refuse a bad x before sieving for the Euler product
    constant = bhc.hl_constant(spec.polys, args.trunc)
    est = bhc.estimate_E(spec.polys, float(args.x), constant)

    out = {
        "family": args.case,
        "x": _jreal(est.x),
        "a": est.a,
        "P": constant.truncation,
        "C": _jreal(constant.value),
        "integral": _jreal(est.integral),
        "E": _jreal(est.e_value),
        "tail_bound": _jreal(constant.tail_bound),
    }
    if args.format == "json":
        print(json.dumps(out))
    elif args.format == "csv":
        print(",".join(out.keys()))
        print(",".join(_real(v) if isinstance(v, float) else str(v) for v in out.values()))
    else:
        print(f"family ({args.case}), x = {_real(est.x)}")
        print(f"integration from a = {est.a}, constant truncated at P = {constant.truncation}")
        print(f"C = {_real(constant.value)} (tail bound {_real(constant.tail_bound)})")
        print(f"integral = {_real(est.integral)}")
        print(f"E = {_real(est.e_value)}")

    if q_scan is not None:
        q, t_max = q_scan
        rel = bhc.compare(q, est)
        stream = sys.stdout if args.format == "table" else sys.stderr
        print(f"Q = {q} at t_max = {t_max}, (E - Q)/Q = {rel * 100:+.4f}%", file=stream)
    return EXIT_OK


# ---------------------------------------------------------------------------
# hb


_HB_COLUMNS = ("p", "omega_minus", "omega_plus", "i", "c", "s", "n")

# Per format: a row's p part, the template of its tail (Omega(p -+ 1), i, c, s, n) and the text between rows.
_HB_ROWS = {
    "json": ('{"p": %d', "".join(f', "{name}": %d' for name in _HB_COLUMNS[1:]) + "}", ", "),
    "csv": ("%d", ",%d" * 6 + "\n", ""),
    "table": ("  p=%-10d", " Omega(p-1)=%d Omega(p+1)=%d i=%d c=%d s=%d n=%d\n", ""),
}


def _hb_rows(found: heathbrown.HbScan, bounds, fmt: str, cap: int | None) -> tuple[int, int, str]:
    """(rows, rows past the bounds, the text of the first cap rows) of one segment of hb.

    Rows share few tails (166 distinct among the 27,077 rows to 1e7), so each
    distinct tail is formatted once and joined to every p that has it.
    """
    head, tail, sep = _HB_ROWS[fmt]
    tails = np.column_stack((found.omega_minus, found.omega_plus, *invariants.counts(found.profile)))
    violations = int(np.count_nonzero((tails[:, 2:] > bounds).any(axis=1)))
    tails = tails[:cap]
    # one int per tail, exactly: ravel_multi_index raises where the tails' box would pass intp
    key = np.ravel_multi_index(tuple(tails.T), tuple(tails.max(axis=0, initial=0) + 1))
    _, first, which = np.unique(key, return_index=True, return_inverse=True)
    texts = [tail % row for row in map(tuple, tails[first].tolist())]
    return len(found), violations, sep.join([head % p + texts[j] for p, j in zip(found.p[:cap].tolist(), which.tolist())])


def cmd_hb(args) -> int:
    if args.show < 0:
        raise ValueError("--show must be at least 0")
    bounds = heathbrown.derive_upper_bounds()
    cap = args.show if args.format == "table" else None
    # map_hb refuses a bad limit before it returns, so a usage error or a cap leaves stdout empty.
    parts = heathbrown.map_hb(args.limit, lambda found: _hb_rows(found, bounds, args.format, cap))
    if args.format == "json":
        # the bytes of json.dumps(out) over the whole dict, with its ", " and ": " separators
        head = json.dumps({"limit": args.limit, "bounds": dict(zip("icsn", bounds))})
        sys.stdout.write(head[:-1] + ', "candidates": [')
    elif args.format == "csv":
        sys.stdout.write(",".join(_HB_COLUMNS) + "\n")
    else:
        print("bounds: i<={} c<={} s<={} n<={}".format(*bounds))
    # Each segment is written as soon as the ones before it are, in every format; a later
    # failure keeps their rows.  Table writes only the first --show rows and its count line last.
    total = violations = 0
    with contextlib.closing(parts):  # a failed write kills and reaps the children at once
        for n, v, text in parts:
            if args.format == "table" and total + n > args.show:
                text = "".join(text.splitlines(keepends=True)[: args.show - total]) if total < args.show else ""
            sys.stdout.write(_HB_ROWS[args.format][2] + text if total and n else text)
            total, violations = total + n, violations + v
    if args.format == "json":
        sys.stdout.write("]}\n")
    elif args.format == "table":
        if total > args.show:
            print(f"  ... {total - args.show} more (use --show)")
        print(f"primes p = 5 mod 72 with few factors around them, p <= {args.limit}: {total}")
    if violations:
        print(f"{violations} candidates exceed the derived bounds", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psl2count",
        description="Subgroup-class counts of PSL(2,p) and prime-triple searches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="divisor-split profile and (i,c,s,n) for one prime")
    p_inv.add_argument("p", type=_int_arg)
    _add_format(p_inv)
    p_inv.set_defaults(func=cmd_invariants)

    p_cen = sub.add_parser("census", help="subgroup-class catalogue for one prime")
    p_cen.add_argument("p", type=_int_arg)
    _add(p_cen, "--oracle", action="store_true", default=False,
         help=f"also run the brute-force census and diff it (p <= {oracle.MAX_P})")
    _add_format(p_cen)
    p_cen.set_defaults(func=cmd_census)

    p_ver = sub.add_parser("verify-table", help="recompute the reference table and report per row")
    _add(p_ver, "--strict", action="store_true", default=False,
         help="exit 1 on known issues too, not only on fresh mismatches")
    _add(p_ver, "--oracle-rows", action="store_true", default=False,
         help="also recompute p in {5,7,11,13,17,19} by brute force")
    _add_format(p_ver)
    p_ver.set_defaults(func=cmd_verify_table)

    p_sea = sub.add_parser("search", help="scan a linear progression for prime triples")
    p_sea.add_argument("case", metavar=_CASE, help="case a-d, or a split M+:M- with (p + 1)/2 = M+ s and (p - 1)/2 = M- r, such as 4:3")
    _add(p_sea, "--t-max", type=_int_arg, required=True, help="scan t in [1, t_max]")
    _add(p_sea, "--threads", type=_int_arg, default=None,
         help="worker processes, capped at the machine parallelism (the default); result independent of it")
    _add(p_sea, "--show-hits", type=_int_arg, default=10,
         help=f"hits to include in table/json output, at most {search.MAX_HITS} (each built hit takes about 1 KB; more exits 3)")
    p_sea.set_defaults(func=cmd_search)
    _add_format(p_sea)

    p_bhc = sub.add_parser("bhc", help="predicted prime-triple count E(x) for one case")
    p_bhc.add_argument("case", metavar=_CASE, help="a case or a split M+:M-, as for search")
    _add(p_bhc, "--x", type=float, required=True, help="upper end of the integral")
    _add(p_bhc, "--trunc", type=_int_arg, default=10**7,
         help="truncation point P of the constant's Euler product")
    _add(p_bhc, "--q-file", default=None,
         help="JSON scan summary to compare against (prints (E-Q)/Q)")
    p_bhc.set_defaults(func=cmd_bhc)
    _add_format(p_bhc)

    p_hb = sub.add_parser("hb", help="primes p = 5 mod 72 with bounded factor counts")
    _add(p_hb, "--limit", type=_int_arg, required=True, help="scan primes up to this bound")
    _add(p_hb, "--show", type=_int_arg, default=10, help="rows to print in table format")
    p_hb.set_defaults(func=cmd_hb)
    _add_format(p_hb)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if getattr(args, "bad_preset", None):
            raise ValueError(args.bad_preset)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the flush on the way out cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ValueError as exc:
        print(f"psl2count: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (arith.ResourceLimitError, MemoryError) as exc:
        print(f"psl2count: resource cap hit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except Exception as exc:
        traceback.print_exc()
        print(f"psl2count: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    """Run main on the command line, flush stdio and end by os._exit, with no
    finalisation (about 3 ms) and no atexit handler (the package has none);
    under a profiler or tracer, or after a failed flush, end by sys.exit."""
    if isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):
        # python -u: a raw write cut short by a closing pipe drops the rest unreported; a buffered one raises
        sys.stdout = io.TextIOWrapper(io.BufferedWriter(sys.stdout.buffer), sys.stdout.encoding, sys.stdout.errors, line_buffering=True)
    status = main(sys.argv[1:])
    if sys.getprofile() is None and sys.gettrace() is None:  # cProfile, pdb and coverage write their data at exit
        with contextlib.suppress(Exception):  # a failed flush is retried and reported by the exit below, as before
            sys.stdout.flush()  # --help leaves main by SystemExit, before main's own flush
            sys.stderr.flush()
            os._exit(status)
    sys.exit(status)


if __name__ == "__main__":
    entry()
