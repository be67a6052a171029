"""Per-layer instrumentation: which attributes are wrapped, and how the
recorded spans become the per-layer metrics.

Each metric is listed with the end-to-end metric and workload it should
move (see README.md).  A layer that a workload never enters reports 0.
"""

from __future__ import annotations

import json

# (name, unit, better)
PER_LAYER = [
    ("exactpoly.self_s", "s", "lower"),
    ("exactpoly.eval_ratfun.calls", "count", "lower"),
    ("exactpoly.eval_ratfun.self_s", "s", "lower"),
    ("exactpoly.kth_largest_root.calls", "count", "lower"),
    ("exactpoly.kth_largest_root.self_s", "s", "lower"),
    ("exactpoly.kth_largest_root.mean_degree", "degree", "lower"),
    ("exactpoly.squarefree_part.calls", "count", "lower"),
    ("exactpoly.squarefree_part.self_s", "s", "lower"),
    ("exactpoly.squarefree_part.hit_ratio", "ratio", "higher"),
    ("exactpoly.sturm_chain.calls", "count", "lower"),
    ("exactpoly.sturm_chain.self_s", "s", "lower"),
    ("exactpoly.sturm_chain.hit_ratio", "ratio", "higher"),
    ("exactpoly.poly_gcd.calls", "count", "lower"),
    ("exactpoly.poly_gcd.self_s", "s", "lower"),
    ("exactpoly.divexact.calls", "count", "lower"),
    ("exactpoly.divexact.self_s", "s", "lower"),
    ("exactpoly.compare.calls", "count", "lower"),
    ("exactpoly.compare.self_s", "s", "lower"),
    ("exactpoly.charpoly.calls", "count", "lower"),
    ("exactpoly.charpoly.self_s", "s", "lower"),
    ("exactpoly.sign_at_root.calls", "count", "lower"),
    ("exactpoly.sign_at_root.self_s", "s", "lower"),
    ("certify.self_s", "s", "lower"),
    ("certify.certify_candidate.calls", "count", "lower"),
    ("certify.certify_candidate.self_s", "s", "lower"),
    ("certify.step7_rounds_per_cand", "rounds/cand", "lower"),
    ("certify.charpoly_via_modules.self_s", "s", "lower"),
    ("certify.q_poly.self_s", "s", "lower"),
    ("certify.tsub_charpolys.hit_ratio", "ratio", "higher"),
    ("certify.branch.PositiveLeading.Unused", "count", "lower"),
    ("certify.branch.NegativeLeadingWithBound.SmallRoot", "count", "lower"),
    ("certify.branch.NegativeLeadingWithBound.BoundAtNL", "count", "lower"),
    ("compare.self_s", "s", "lower"),
    ("compare.psi_value.calls", "count", "lower"),
    ("compare.psi_value.self_s", "s", "lower"),
    ("compare.classify.calls", "count", "lower"),
    ("compare.classify.self_s", "s", "lower"),
    ("compare.omega_value.calls", "count", "lower"),
    ("compare.omega_value.self_s", "s", "lower"),
    ("graphs.self_s", "s", "lower"),
    ("tsubenum.candidates", "count", "lower"),
    ("tsubenum.enumerate.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.pool_wait_s", "s", "lower"),
    ("cli.serialize_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("oracle.self_s", "s", "lower"),
    ("oracle.eigvalsh.calls", "count", "lower"),
    ("oracle.eigvalsh.self_s", "s", "lower"),
    ("oracle.is_connected.calls", "count", "lower"),
    ("oracle.is_isomorphic.self_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.unwrapped_s", "s", "lower"),
]

SERIALIZE = ("cli.serialize.json_dumps", "cli.serialize.atomic_write",
             "cli.serialize.to_dict")
# measured on the jobs=2 run of certify-e40-jobs2; the rest on jobs=1
PARENT_SIDE = ("cli.pool_wait_s", "cli.serialize_s", "cli.bytes_written",
               "tsubenum.candidates", "tsubenum.enumerate.self_s")
CACHED = {"exactpoly.squarefree_part": ("exactpoly", "squarefree_part"),
          "exactpoly.sturm_chain": ("exactpoly", "sturm_chain"),
          "certify.tsub_charpolys": ("certify", "tsub_charpolys")}


def _modules() -> dict:
    from rhomax import certify, cli, compare, exactpoly, oracle
    return {"certify": certify, "cli": cli, "compare": compare,
            "exactpoly": exactpoly, "oracle": oracle}


class Instruments:
    """Wraps the layer boundaries for one traced repetition.

    side "parent" wraps only what runs in the parent of a process pool
    (the certify_all iterator, enumeration and serialisation), so pool
    workers run unwrapped code; side "kernel" wraps every layer.
    """

    def __init__(self, tracer, side: str):
        self.tracer = tracer
        m = _modules()
        self.cache_start = {k: getattr(m[mod], fn).cache_info()
                            for k, (mod, fn) in CACHED.items()}
        self.rounds = 0
        self.degree_sum = 0
        self._d_num = None
        ct, cli = m["certify"], m["cli"]
        w = tracer.wrap

        w(ct, "certify_all", "certify.certify_all")
        w(ct, "enumerate_S_star", "tsubenum.enumerate")
        w(json, "dumps", SERIALIZE[0])
        w(cli, "_atomic_write", SERIALIZE[1])
        w(ct.Certificate, "to_dict", SERIALIZE[2])
        if side == "parent":
            return
        xp, cp, orc = m["exactpoly"], m["compare"], m["oracle"]
        w(cli, "main", "cli.main")
        for fn in ("squarefree_part", "sturm_chain", "poly_gcd", "divexact",
                   "compare", "sign_at_root", "charpoly"):
            w(xp, fn, f"exactpoly.{fn}")
        w(xp, "kth_largest_root", "exactpoly.kth_largest_root",
          self._count_degree)
        w(xp, "eval_ratfun", "exactpoly.eval_ratfun", self._count_round)
        for fn in ("certify_candidate", "charpoly_via_modules", "q_poly",
                   "tsub_charpolys"):
            w(ct, fn, f"certify.{fn}")
        w(ct, "r_D_closed_form", "certify.r_D_closed_form", self._remember_d)
        for fn in ("tsub_adjacency", "cone"):
            w(ct, fn, f"graphs.{fn}")
        for fn in ("adjacency", "build_D", "build_V"):
            w(orc, fn, f"graphs.{fn}")
        for fn in ("psi_value", "omega_value", "classify", "psi_poly"):
            w(cp, fn, f"compare.{fn}")
        for fn in ("brute_force_max", "spectral_radius", "is_isomorphic"):
            w(orc, fn, f"oracle.{fn}")
        w(orc, "_is_connected", "oracle.is_connected")
        w(orc.np.linalg, "eigvalsh", "oracle.eigvalsh")

    # observe hooks: run after the wrapped call returns

    def _count_degree(self, args, result):
        self.degree_sum += args[0].degree

    def _remember_d(self, args, result):
        self._d_num = result[0]

    def _count_round(self, args, result):
        # one step-7 refinement round evaluates the near-clique link
        # function exactly once
        if args[0] is self._d_num:
            self.rounds += 1

    def hit_ratios(self) -> dict[str, float]:
        m, out = _modules(), {}
        for key, (mod, fn) in CACHED.items():
            # the wrapper hides the cache; the original is restored by now
            now, start = getattr(m[mod], fn).cache_info(), self.cache_start[key]
            hits, misses = now.hits - start.hits, now.misses - start.misses
            out[f"{key}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out

    def metrics(self, totals: dict, rep: dict) -> dict[str, float]:
        """Per-layer metrics of a traced repetition; call after restore."""
        def get(name, field):
            return totals.get(name, {}).get(field, 0)

        out = {name: 0 for name, _, _ in PER_LAYER}
        for name in totals:
            layer = name.partition(".")[0]
            if layer in ("exactpoly", "certify", "compare", "graphs",
                         "oracle", "cli"):
                out[f"{layer}.self_s"] += totals[name]["self_s"]
                for field in ("calls", "self_s"):
                    key = f"{name}.{field}"
                    if key in out:
                        out[key] = totals[name][field]
        out["tsubenum.enumerate.self_s"] = get("tsubenum.enumerate", "self_s")
        out["tsubenum.candidates"] = self.tracer.yields.get("tsubenum.enumerate", 0)
        # the parent is blocked on the pool inside certify_all's next()
        out["cli.pool_wait_s"] = get("certify.certify_all", "self_s")
        out["cli.serialize_s"] = sum(get(n, "self_s") for n in SERIALIZE)
        out["cli.bytes_written"] = rep["info"].get("bytes_written", 0)
        cands = get("certify.certify_candidate", "calls")
        out["certify.step7_rounds_per_cand"] = self.rounds / cands if cands else 0.0
        kth = get("exactpoly.kth_largest_root", "calls")
        out["exactpoly.kth_largest_root.mean_degree"] = (
            self.degree_sum / kth if kth else 0.0)
        out.update(self.hit_ratios())
        for key, count in rep["info"].get("branches", {}).items():
            out[f"certify.branch.{key}"] = count
        out["trace.traced_wall_s"] = rep["wall_s"]
        out["trace.unwrapped_s"] = get("bench.rep", "self_s")
        return out
