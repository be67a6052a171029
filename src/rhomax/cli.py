"""Command-line surface.

Subcommands: params, build, enumerate, certify, table, classify, oracle,
selfcheck.  Exit codes: 0 success, 2 verification failure (a mathematical
event: a certified inequality did not hold), 1 operational error (usage
errors included).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from . import certify as ct
from . import compare as cp
from . import exactpoly as xp
from . import graphs as gr
from . import oracle as orc
from . import tsubenum as te
from .errors import RhomaxError, StructureViolation, VerificationFailed

EXIT_OK = 0
EXIT_OPERATIONAL = 1
EXIT_VERIFICATION = 2


# -- argument parsing ----------------------------------------------------


def positive_int(text: str) -> int:
    """argparse type of --jobs and --places: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def parse_e_range(text: str) -> tuple[int, int]:
    """"4..30" or a single "10"."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def parse_steps(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.replace(",", " ").split())


# -- small output helpers ------------------------------------------------


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _decimal(q: Fraction, places: int) -> str:
    sign = "-" if q < 0 else ""
    q = abs(q)
    scaled = (q.numerator * 10**places) // q.denominator
    s = str(scaled).rjust(places + 1, "0")
    return f"{sign}{s[:-places]}.{s[-places:]}"


def _atomic_write(path: str, data: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(data)
    os.replace(tmp, path)


# -- subcommands ---------------------------------------------------------


def cmd_params(args) -> int:
    p = gr.edge_params(args.e)
    print(json.dumps({"e": p.e, "k": p.k, "t": p.t, "b": p.b}))
    return EXIT_OK


def _family_graph(args) -> gr.ThresholdGraph:
    """The graph of order --n and surplus --e named by --family."""
    if args.family == "D":
        return gr.build_D(args.n, args.e)
    if args.family == "V":
        return gr.build_V(args.n, args.e)
    if args.steps is None:
        raise ValueError("family tsub requires --steps")
    return gr.ThresholdGraph(args.n, gr.StepSequence(parse_steps(args.steps)))


def _omega_str(e: int, width: Fraction, places: int) -> str:
    """omega_e as an exact fraction, or as an enclosure of the given width
    printed with the given number of decimals."""
    omega = cp.omega_value(e)
    if omega.exact is not None:
        return _frac_str(omega.exact)
    iv = omega.enclose(width)
    return f"[{_decimal(iv.lo, places)}, {_decimal(iv.hi, places)}]"


def cmd_build(args) -> int:
    g = _family_graph(args)
    dense = gr.adjacency(g)
    out = {
        "n": g.n,
        "e": g.e,
        "size": g.size,
        "steps": list(g.steps.steps),
        "degree_sequence": list(dense.degree_sequence()),
        "graph6": gr.graph6(dense),
    }
    print(json.dumps(out))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    resume = parse_steps(args.resume_after) if args.resume_after else None
    if args.count:
        print(te.count_S(args.e))
        return EXIT_OK
    it = (te.enumerate_S_star(args.e, resume) if args.star
          else te.enumerate_S(args.e, resume))
    n = 0
    for seq in it:
        print(json.dumps(list(seq.steps)))
        n += 1
        if args.limit and n >= args.limit:
            break
    return EXIT_OK


def _certificate_filename(e: int) -> str:
    return f"certs_e{e:03d}.json"


def cmd_certify(args) -> int:
    e_lo, e_hi = parse_e_range(args.e)
    resume = parse_steps(args.resume_after) if args.resume_after else None
    # the cursor applies to the first certified e: never replace that e's
    # certificates with the tail of its stream
    first = next((e for e in range(e_lo, e_hi + 1)
                  if e >= 4 and gr.edge_params(e).t), 0)
    path = os.path.join(args.out, _certificate_filename(first))
    if resume is not None and not first:
        print(f"error: --e {args.e} holds no certified e for "
              f"--resume-after to apply to", file=sys.stderr)
        return EXIT_OPERATIONAL
    if resume is not None and os.path.exists(path):
        print(f"error: {path} exists; a resumed run would overwrite it "
              f"with the tail of S*_{first}", file=sys.stderr)
        return EXIT_OPERATIONAL

    index_entries = []
    any_failure = False
    for e in range(e_lo, e_hi + 1):
        p = gr.edge_params(e)
        if e < 4:
            print(f"e={e}: below supported range, skipped", file=sys.stderr)
            index_entries.append({"e": e, "status": "unsupported"})
            continue
        if p.t == 0:
            print(f"e={e}: t=0: covered by closed form (Bell)")
            index_entries.append({"e": e, "status": "covered_by_closed_form"})
            continue
        # the cursor only applies to the first certified e, pass or fail
        cursor, resume = resume, None
        certs = []
        t0 = time.monotonic()
        last_report = t0
        try:
            for cert in ct.certify_all(e, resume_after=cursor, jobs=args.jobs):
                certs.append(cert)
                now = time.monotonic()
                if now - last_report >= 5.0:
                    rate = len(certs) / (now - t0)
                    print(f"e={e}: {len(certs)} candidates, "
                          f"{rate:.1f}/s, current s1={cert.steps[0]}",
                          file=sys.stderr)
                    last_report = now
        except VerificationFailed as exc:
            any_failure = True
            print(f"e={e}: FAILED at step {exc.step}: {exc.detail}",
                  file=sys.stderr)
            index_entries.append({"e": e, "status": "fail",
                                  "step": exc.step, "detail": exc.detail})
            continue
        fname = _certificate_filename(e)
        payload = {
            "e": e,
            "count": len(certs),
            "certificates": [c.to_dict() for c in certs],
        }
        _atomic_write(os.path.join(args.out, fname),
                      json.dumps(payload, indent=1, sort_keys=True) + "\n")
        # a resumed run certifies only the tail of S*_e: not a pass
        expected = te.count_S(e) - 2
        status = "pass" if len(certs) == expected else "partial"
        note = " (S* empty)" if not expected else f" ({status})"
        print(f"e={e}: {len(certs)} of {expected} candidates certified{note}")
        index_entries.append({"e": e, "status": status, "count": len(certs),
                              "expected": expected, "file": fname})
    all_pass = all(x["status"] not in ("fail", "partial") for x in index_entries)
    index = {"e_range": [e_lo, e_hi], "entries": index_entries,
             "all_pass": all_pass}
    _atomic_write(os.path.join(args.out, "index.json"),
                  json.dumps(index, indent=1, sort_keys=True) + "\n")
    return EXIT_VERIFICATION if any_failure else EXIT_OK


def _table_rows(e_lo: int, e_hi: int, places: int):
    width = Fraction(1, 10**places)
    for e in range(e_lo, e_hi + 1):
        p = gr.edge_params(e)
        psi = cp.psi_value(e)
        regime = "t=0(closed form)" if p.t == 0 else "t>=1"
        psi_iv = psi.refined(width).interval
        yield {
            "e": e, "k": p.k, "t": p.t, "b": p.b,
            "psi": _decimal(psi_iv.mid, places),
            "psi_cubic": list(cp.psi_poly(e).coeffs),
            "omega": _omega_str(e, width, places),
            "regime": regime,
        }


def cmd_table(args) -> int:
    e_lo, e_hi = parse_e_range(args.e)
    if e_lo < 4:
        print("table requires e >= 4", file=sys.stderr)
        return EXIT_OPERATIONAL
    rows = list(_table_rows(e_lo, e_hi, args.places))
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        w.writerow(["e", "k", "t", "b", "psi", "psi_cubic", "omega", "regime"])
        for r in rows:
            w.writerow([r["e"], r["k"], r["t"], r["b"], r["psi"],
                        " ".join(str(c) for c in r["psi_cubic"]),
                        r["omega"], r["regime"]])
        sys.stdout.write(buf.getvalue())
    else:
        print(json.dumps(rows, indent=1))
    return EXIT_OK


def cmd_classify(args) -> int:
    n, e = args.n, args.e
    verdict = cp.classify(n, e, unsafe_extrapolate=args.unsafe_extrapolate)
    if e > cp.PROVEN_E_MAX:
        print(f"WARNING: e={e} is beyond the proven range "
              f"(<= {cp.PROVEN_E_MAX}); verdict is extrapolated")
    p = gr.edge_params(e)
    print(verdict.verdict)
    print(f"  n={n} e={e} k={p.k} t={p.t} b={p.b} "
          f"omega={_omega_str(e, Fraction(1, 10**9), 12)}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.kind == "rho":
        g = _family_graph(args)
        pd = orc.spectral_radius(gr.adjacency(g))
        print(json.dumps({"n": g.n, "e": g.e, "rho": pd.rho}))
        return EXIT_OK
    if args.kind == "ratios":
        r = orc.perron_ratios_D(args.n, args.e)
        print(json.dumps({"n": args.n, "e": args.e, "ratios": list(r)}))
        return EXIT_OK
    # brute force
    res = orc.brute_force_max(args.n, args.e)
    print(json.dumps(res.to_dict()))
    return EXIT_OK


# -- selfcheck -----------------------------------------------------------
# Each suite runs the library's own checks, which raise on a violated
# invariant, or compares the pipeline with an independent reference: the
# DP count, the dense Faddeev-LeVerrier charpoly, the t = 0 closed form
# and LAPACK eigenvalues.


def _check(ok: bool, what: str) -> None:
    """An invariant check that, unlike assert, also runs under python -O."""
    if not ok:
        raise StructureViolation(what)


def _suite_tsubenum() -> None:
    for e in range(1, 25):
        n = sum(1 for _ in te.enumerate_S(e))
        _check(n == te.count_S(e), f"e={e}: {n} sequences, not count_S(e)")


def _suite_kernel() -> None:
    """Creation-sequence charpolys against the dense reference."""
    for e in range(1, 13):
        for steps in te.enumerate_S(e):
            a = gr.tsub_adjacency(steps)
            p_t, p_t1 = ct.tsub_charpolys(steps.steps)
            _check(p_t.expand() == xp.charpoly(a)
                   and p_t1.expand() == xp.charpoly(gr.cone(a)),
                   f"charpolys of {steps.steps} differ from the dense ones")


def _suite_certify() -> None:
    for e in range(4, 21):
        if gr.edge_params(e).t:
            n = sum(1 for _ in ct.certify_all(e))
            _check(n == te.count_S(e) - 2, f"e={e}: {n} certificates")


def _suite_compare() -> None:
    for e in range(4, cp.PROVEN_E_MAX + 1):
        cp.psi_root_structure(e)
        p = gr.edge_params(e)
        if p.t == 0:
            _check(cp.omega_value(e).exact == cp.bell_f(p.k),
                   f"e={e}: omega differs from the closed form")
    _check(cp.classify(60, 10).verdict == cp.TIE, "(60, 10) is not a tie")
    _check(cp.corollary_range_check(86, 350).all_pass,
           "large-surplus range check failed")


def _suite_oracle() -> None:
    for e in range(1, 11):
        for steps in te.enumerate_S(e):
            for n in range(steps[0] + 2, e + 7):
                exact = ct.rho_of_threshold(steps, n).refined(Fraction(1, 10**9))
                g = gr.adjacency(gr.ThresholdGraph(n, steps))
                numeric = orc.spectral_radius(g).rho
                _check(abs(float(exact.interval.mid) - numeric) <= 1e-7,
                       f"exact and numeric rho differ for {steps.steps} at n={n}")


def cmd_selfcheck(args) -> int:
    suites = [
        ("tsubenum", _suite_tsubenum),
        ("kernel", _suite_kernel),
        ("certify", _suite_certify),
        ("compare", _suite_compare),
        ("oracle", _suite_oracle),
    ]
    failures = []
    for name, fn in suites:
        t0 = time.monotonic()
        try:
            fn()
            print(f"[pass] {name} ({time.monotonic() - t0:.2f}s)")
        except Exception as exc:  # report and continue
            failures.append((name, exc))
            print(f"[FAIL] {name}: {exc!r}")
    if failures:
        return EXIT_VERIFICATION
    print("all suites passed")
    return EXIT_OK


# -- entry point ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error: 2 means a certified inequality failed."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_OPERATIONAL, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="rhomax",
        description="Exact certification of spectral-radius maximizers.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="derived parameters of a surplus")
    p.add_argument("e", type=int)
    p.set_defaults(run=cmd_params)

    p = sub.add_parser("build", help="build a graph and print its encoding")
    p.add_argument("family", choices=["D", "V", "tsub"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--e", type=int, default=0)
    p.add_argument("--steps", help="step sequence, e.g. '4,1' (tsub only)")
    p.set_defaults(run=cmd_build)

    p = sub.add_parser("enumerate", help="stream candidate step sequences")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--star", action="store_true",
                   help="exclude the two extremal sequences")
    p.add_argument("--resume-after", help="cursor: last emitted sequence")
    p.add_argument("--count", action="store_true")
    p.add_argument("--limit", type=int, default=0)
    p.set_defaults(run=cmd_enumerate)

    p = sub.add_parser("certify", help="run the elimination over a range")
    p.add_argument("--e", required=True, help="range, e.g. 4..30 or 12")
    p.add_argument("--jobs", type=positive_int, default=1)
    p.add_argument("--out", default="certificates",
                   help="certificate directory")
    p.add_argument("--resume-after", help="cursor for the first e in range")
    p.set_defaults(run=cmd_certify)

    p = sub.add_parser("table", help="crossover table over a range")
    p.add_argument("--e", required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--places", type=positive_int, default=12,
                   help="decimal places for enclosures")
    p.set_defaults(run=cmd_table)

    p = sub.add_parser("classify", help="which family wins at (n, e)")
    p.add_argument("n", type=int)
    p.add_argument("e", type=int)
    p.add_argument("--unsafe-extrapolate", action="store_true")
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("oracle", help="numeric ground-truth checks")
    p.add_argument("kind", choices=["rho", "brute", "ratios"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--family", choices=["D", "V", "tsub"], default="D")
    p.add_argument("--steps")
    p.set_defaults(run=cmd_oracle)

    p = sub.add_parser(
        "selfcheck",
        help="run the library's checks against independent references")
    p.set_defaults(run=cmd_selfcheck)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except VerificationFailed as exc:
        print(f"verification failure at step {exc.step}: {exc.detail}",
              file=sys.stderr)
        return EXIT_VERIFICATION
    except BrokenPipeError:
        # the reader of stdout left early (`rhomax enumerate | head`), so
        # nothing failed; fd 1 goes to /dev/null so that the flush at exit
        # does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (RhomaxError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OPERATIONAL


if __name__ == "__main__":
    sys.exit(main())
