"""Command-line surface.

Subcommands: params, build, enumerate, certify, table, classify, oracle,
selfcheck.  Exit codes: 0 success, 2 verification failure (a mathematical
event: a certified inequality did not hold), 1 operational error.

Configuration precedence is flags > environment variables (prefix
``RHOMAX_``) > JSON config file (``--config``).
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

ENV_PREFIX = "RHOMAX_"


# -- configuration -------------------------------------------------------


def _load_config_file(path: Optional[str]) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must contain a JSON object")
    return data


def _resolve(flag_value, key: str, cfg_file: dict, default, cast=str):
    """flags > RHOMAX_<KEY> env var > config file > default."""
    if flag_value is not None:
        return flag_value
    env = os.environ.get(ENV_PREFIX + key.upper())
    if env is not None:
        return cast(env)
    if key in cfg_file:
        return cast(cfg_file[key])
    return default


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


def _decimal(q: Fraction, places: int = 12) -> str:
    sign = "-" if q < 0 else ""
    q = abs(q)
    scaled = (q.numerator * 10**places) // q.denominator
    s = str(scaled).rjust(places + 1, "0")
    return f"{sign}{s[:-places]}.{s[-places:]}"


def _atomic_write(path: str, data: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(data)
    os.replace(tmp, path)


# -- subcommands ---------------------------------------------------------


def cmd_params(args) -> int:
    p = gr.edge_params(args.e)
    print(json.dumps({"e": p.e, "k": p.k, "t": p.t, "b": p.b}))
    return EXIT_OK


def cmd_build(args) -> int:
    if args.family == "D":
        g = gr.build_D(args.n, args.e)
    elif args.family == "V":
        g = gr.build_V(args.n, args.e)
    else:
        if args.steps is None:
            print("build tsub requires --steps", file=sys.stderr)
            return EXIT_OPERATIONAL
        g = gr.ThresholdGraph(args.n, gr.StepSequence(parse_steps(args.steps)))
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


def cmd_certify(args, cfg_file: dict) -> int:
    e_lo, e_hi = parse_e_range(args.e)
    jobs = _resolve(args.jobs, "jobs", cfg_file, 1, int)
    out_dir = _resolve(args.out, "out_dir", cfg_file, "certificates")
    resume = parse_steps(args.resume_after) if args.resume_after else None
    os.makedirs(out_dir, exist_ok=True)

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
        certs = []
        t0 = time.monotonic()
        last_report = t0
        try:
            for cert in ct.certify_all(e, resume_after=resume, jobs=jobs):
                if args.timing:
                    elapsed = int((time.monotonic() - t0) * 1000)
                    cert = ct.Certificate(cert.e, cert.steps, cert.d_branch,
                                          cert.v_branch, cert.n_U, cert.n_L,
                                          cert.coverage, elapsed)
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
        resume = None  # the cursor only applies to the first certified e
        fname = _certificate_filename(e)
        payload = {
            "e": e,
            "count": len(certs),
            "certificates": [c.to_dict() for c in certs],
        }
        _atomic_write(os.path.join(out_dir, fname),
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
    _atomic_write(os.path.join(out_dir, "index.json"),
                  json.dumps(index, indent=1, sort_keys=True) + "\n")
    return EXIT_VERIFICATION if any_failure else EXIT_OK


def _table_rows(e_lo: int, e_hi: int, enclosure_width: Fraction):
    for e in range(e_lo, e_hi + 1):
        p = gr.edge_params(e)
        psi = cp.psi_value(e)
        omega = cp.omega_value(e)
        regime = "t=0(closed form)" if p.t == 0 else "t>=1"
        psi_iv = psi.refined(enclosure_width).interval
        if omega.exact is not None:
            omega_s = _frac_str(omega.exact)
        else:
            iv = omega.enclose(enclosure_width)
            omega_s = f"[{_decimal(iv.lo)}, {_decimal(iv.hi)}]"
        yield {
            "e": e, "k": p.k, "t": p.t, "b": p.b,
            "psi": _decimal(psi_iv.mid),
            "psi_cubic": list(cp.psi_poly(e).coeffs),
            "omega": omega_s,
            "regime": regime,
        }


def cmd_table(args, cfg_file: dict) -> int:
    e_lo, e_hi = parse_e_range(args.e)
    if e_lo < 4:
        print("table requires e >= 4", file=sys.stderr)
        return EXIT_OPERATIONAL
    fmt = _resolve(args.format, "format", cfg_file, "json")
    width = Fraction(1, 10**args.places)
    rows = list(_table_rows(e_lo, e_hi, width))
    if fmt == "csv":
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
    omega = cp.omega_value(e)
    if omega.exact is not None:
        omega_s = _frac_str(omega.exact)
    else:
        iv = omega.enclose(Fraction(1, 10**9))
        omega_s = f"[{_decimal(iv.lo)}, {_decimal(iv.hi)}]"
    p = gr.edge_params(e)
    print(verdict.verdict)
    print(f"  n={n} e={e} k={p.k} t={p.t} b={p.b} omega={omega_s}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.kind == "rho":
        steps = gr.StepSequence(parse_steps(args.steps)) if args.steps else None
        if args.family == "D":
            g = gr.build_D(args.n, args.e)
        elif args.family == "V":
            g = gr.build_V(args.n, args.e)
        else:
            if steps is None:
                print("oracle rho with family=tsub requires --steps",
                      file=sys.stderr)
                return EXIT_OPERATIONAL
            g = gr.ThresholdGraph(args.n, steps)
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


def _check(ok: bool, what: str) -> None:
    """An invariant check that, unlike assert, also runs under python -O."""
    if not ok:
        raise StructureViolation(what)


def _suite_graphs() -> None:
    for e in range(1, 40):
        p = gr.edge_params(e)
        _check(p.k * (p.k - 1) // 2 <= e < (p.k + 1) * p.k // 2, f"e={e}: k out of range")
        _check(p.t == e - p.k * (p.k - 1) // 2, f"e={e}: t != e - C(k,2)")
        d = gr.d_step_sequence(e)
        _check(d.e == e, f"e={e}: near-clique steps do not sum to e")
        g = gr.adjacency(gr.build_D(p.b + 3, e))
        _check(gr.is_stepwise(g.a), f"e={e}: D adjacency not stepwise")
        _check(g.size == p.b + 3 - 1 + e, f"e={e}: D has the wrong size")
        degs = g.degree_sequence()
        _check(all(x >= y for x, y in zip(degs, degs[1:])),
               f"e={e}: D degrees not non-increasing")


def _suite_exactpoly() -> None:
    p = xp.IntPoly([-2, 0, 1])  # x^2 - 2
    r = xp.kth_largest_root(p, 1)
    _check(r is not None, "x^2 - 2 has no largest root")
    iv = r.refined(Fraction(1, 10**6)).interval
    _check(iv.width <= Fraction(1, 10**6) and iv.lo ** 2 <= 2 <= iv.hi ** 2,
           "refined sqrt(2) enclosure wrong")
    _check(xp.sign_at_root(xp.IntPoly([0, 1]), r) > 0, "sqrt(2) not positive")
    _check(xp.count_real_roots(p) == 2, "x^2 - 2 does not have two real roots")
    a = xp.IntPoly([1, 2, 1])
    _check(xp.squarefree_part(a) == xp.IntPoly([1, 1]), "squarefree part of (x+1)^2")
    cp_ = xp.charpoly([[0, 1], [1, 0]])
    _check(cp_ == xp.IntPoly([-1, 0, 1]), "charpoly of K2")


def _suite_tsubenum() -> None:
    for e in range(1, 25):
        seqs = list(te.enumerate_S(e))
        _check(len(seqs) == te.count_S(e), f"e={e}: enumeration != count_S")
        _check(all(s.e == e for s in seqs), f"e={e}: sequence with wrong surplus")
        keys = [s.steps for s in seqs]
        _check(keys == sorted(keys, reverse=True), f"e={e}: enumeration out of order")
        if len(seqs) > 2:
            mid = seqs[len(seqs) // 2]
            rest = [s.steps for s in te.enumerate_S(e, mid.steps)]
            _check(rest == keys[keys.index(mid.steps) + 1:],
                   f"e={e}: resume does not continue after the cursor")


def _suite_certify() -> None:
    for e in (5, 7, 8, 9, 11):
        for cert in ct.certify_all(e):
            _check(cert.coverage in (ct.COVER_ALL_N, ct.COVER_SPLIT),
                   f"e={e}: {cert.steps.steps} has coverage {cert.coverage}")


def _suite_compare() -> None:
    for e in range(4, 30):
        poly = cp.psi_poly(e)
        _check(poly.leading > 0, f"e={e}: psi cubic not positive-leading")
        p = gr.edge_params(e)
        _check(xp.sign_at(poly, p.k + 1) < 0, f"e={e}: psi cubic not negative at k+1")
        psi = cp.psi_value(e)
        _check(xp.compare_with_rational(psi, p.k + 1) > 0, f"e={e}: psi <= k+1")
        cp.psi_root_structure(e)
    _check(cp.omega_value(10).exact == 60, "omega_10 != 60")
    _check(cp.classify(60, 10).verdict == cp.TIE, "(60, 10) is not a tie")


def _suite_oracle() -> None:
    import math
    pd = orc.spectral_radius(gr.adjacency(gr.build_V(6, 0)))
    _check(abs(pd.rho - math.sqrt(5)) < 1e-8, "rho(K_{1,5}) != sqrt(5)")
    r = ct.rho_of_threshold(gr.d_step_sequence(5), 8).refined(Fraction(1, 10**9))
    num = orc.spectral_radius(gr.adjacency(gr.build_D(8, 5)), tol=1e-12).rho
    _check(abs(float(r.interval.mid) - num) < 1e-7, "exact and numeric rho(D(8,5)) differ")


def cmd_selfcheck(args) -> int:
    suites = [
        ("graphs", _suite_graphs),
        ("exactpoly", _suite_exactpoly),
        ("tsubenum", _suite_tsubenum),
        ("certify", _suite_certify),
        ("compare", _suite_compare),
    ]
    if not args.skip_oracle:
        suites.append(("oracle", _suite_oracle))
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rhomax",
        description="Exact certification of spectral-radius maximizers.")
    ap.add_argument("--config", help="JSON config file (lowest precedence)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="derived parameters of a surplus")
    p.add_argument("e", type=int)

    p = sub.add_parser("build", help="build a graph and print its encoding")
    p.add_argument("family", choices=["D", "V", "tsub"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--e", type=int, default=0)
    p.add_argument("--steps", help="step sequence, e.g. '4,1' (tsub only)")

    p = sub.add_parser("enumerate", help="stream candidate step sequences")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--star", action="store_true",
                   help="exclude the two extremal sequences")
    p.add_argument("--resume-after", help="cursor: last emitted sequence")
    p.add_argument("--count", action="store_true")
    p.add_argument("--limit", type=int, default=0)

    p = sub.add_parser("certify", help="run the elimination over a range")
    p.add_argument("--e", required=True, help="range, e.g. 4..30 or 12")
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--out", default=None, help="certificate directory")
    p.add_argument("--resume-after", help="cursor for the first e in range")
    p.add_argument("--timing", action="store_true",
                   help="record wall-clock ms in certificates "
                        "(breaks byte determinism across job counts)")

    p = sub.add_parser("table", help="crossover table over a range")
    p.add_argument("--e", required=True)
    p.add_argument("--format", choices=["json", "csv"], default=None)
    p.add_argument("--places", type=int, default=12,
                   help="decimal places for enclosures")

    p = sub.add_parser("classify", help="which family wins at (n, e)")
    p.add_argument("n", type=int)
    p.add_argument("e", type=int)
    p.add_argument("--unsafe-extrapolate", action="store_true")

    p = sub.add_parser("oracle", help="numeric ground-truth checks")
    p.add_argument("kind", choices=["rho", "brute", "ratios"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--family", choices=["D", "V", "tsub"], default="D")
    p.add_argument("--steps")

    p = sub.add_parser("selfcheck", help="run all module invariant suites")
    p.add_argument("--skip-oracle", action="store_true",
                   help="certified suites only")

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg_file = _load_config_file(args.config)
        if args.command == "params":
            return cmd_params(args)
        if args.command == "build":
            return cmd_build(args)
        if args.command == "enumerate":
            return cmd_enumerate(args)
        if args.command == "certify":
            return cmd_certify(args, cfg_file)
        if args.command == "table":
            return cmd_table(args, cfg_file)
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "oracle":
            return cmd_oracle(args)
        if args.command == "selfcheck":
            return cmd_selfcheck(args)
        raise AssertionError("unreachable")
    except VerificationFailed as exc:
        print(f"verification failure at step {exc.step}: {exc.detail}",
              file=sys.stderr)
        return EXIT_VERIFICATION
    except (RhomaxError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OPERATIONAL


if __name__ == "__main__":
    sys.exit(main())
