#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark (README.md).

    compare.py A B                 verdict per workload x metric, A = parent
    compare.py --self-test         check the verdict rule on synthetic sets
    compare.py snapshot -o OUT LABEL=SET ...
                                   collate result sets into one file
                                   (how BENCH_e2e.json is made)

A result set is a directory of result files written by run.sh
(build-e2e/results/<label>/) or FILE.json#LABEL, one set of a snapshot.

Runs are paired by seed (by order where seeds differ). B "improved" when it
wins at least nine tenths of the pairs, ties counting for neither, and its
median beats A's by more than A's own quartile spread; it is "worse" when it
loses that way. Otherwise it is "unresolved" when either side's quartile
spread, relative to its median, exceeds the metric's bound (unless every B
run beats every A run), "worse" when B's median is worse than A's by more
than the bound, and "unchanged" else. A gain does not count when B fails
more requests than A, and a higher error_share (failed / attempted) is
"worse" by any amount. The paired rules assume A and B ran interleaved,
seed by seed, so that drift of the host's speed hits both alike.

Bounds and directions come from BENCHMARK.json; the per-workload detail
metrics (sim_tta_s, rebuild_gbps, ...) are parts of answer_s, are reported
against its bound for information and do not affect the exit code, which is
1 when any BENCHMARK.json metric or error_share is "worse".
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def load_set(spec):
    """Result objects of one set: a directory of result files or FILE#LABEL."""
    if os.path.isdir(spec):
        results = []
        for name in sorted(os.listdir(spec)):
            if name.endswith(".json"):
                with open(os.path.join(spec, name)) as f:
                    results.append(json.loads(f.read()))
        return results
    path, _, label = spec.partition("#")
    with open(path) as f:
        snapshot = json.load(f)
    sets = snapshot["sets"]
    if label not in sets:
        raise SystemExit(f"compare.py: {path} has no set '{label}' (has {', '.join(sets)})")
    return sets[label]


def table(results):
    """{workload: {"metrics"|"details": {name: {seed: value}}, "failed": n,
    "attempted": n, "units": {name: unit}, "better": {detail: "lower"|"higher"}}}."""
    out = {}
    for r in results:
        w = out.setdefault(r["workload"], {"metrics": {}, "details": {}, "failed": 0,
                                           "attempted": 0, "units": {}, "better": {}})
        w["failed"] += int(r.get("failed", 0))
        w["attempted"] += int(r.get("attempted", 0))
        for kind in ("metrics", "details"):
            for name, m in r.get(kind, {}).items():
                w[kind].setdefault(name, {})[r["seed"]] = float(m["value"])
                w["units"][name] = m.get("unit", "")
                if "better" in m:
                    w["better"][name] = m["better"]
    return out


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(a, b):
    """Pair runs by seed; fall back to sorted order when no seeds match."""
    common = sorted(set(a) & set(b))
    if common:
        return [(a[s], b[s]) for s in common]
    return list(zip([a[s] for s in sorted(a)], [b[s] for s in sorted(b)]))


def verdict(a, b, better, bound, more_failures=False):
    """Compare {seed: value} maps a (parent) and b (change)."""
    av, bv = list(a.values()), list(b.values())
    a_q1, a_med, a_q3 = quartiles(av)
    b_q1, b_med, b_q3 = quartiles(bv)
    sign = 1.0 if better == "lower" else -1.0

    def beats(x, y):  # x better than y
        return sign * (y - x) > 0

    ps = pairs(a, b)
    win_frac = sum(1 for x, y in ps if beats(y, x)) / len(ps) if ps else 0.0
    loss_frac = sum(1 for x, y in ps if beats(x, y)) / len(ps) if ps else 0.0
    clear = abs(b_med - a_med) > (a_q3 - a_q1)
    worse_by = sign * (b_med - a_med) / a_med if a_med else 0.0
    spread = max((a_q3 - a_q1) / a_med if a_med else 0.0, (b_q3 - b_q1) / b_med if b_med else 0.0)
    all_better = all(beats(y, x) for x in av for y in bv)

    if win_frac >= 0.9 and beats(b_med, a_med) and clear and not more_failures:
        v = "improved"
    elif loss_frac >= 0.9 and beats(a_med, b_med) and clear:
        v = "worse"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    else:
        v = "unchanged"
    return {"a": (a_q1, a_med, a_q3), "b": (b_q1, b_med, b_q3),
            "change": (b_med - a_med) / a_med if a_med else 0.0,
            "wins": win_frac, "losses": loss_frac, "pairs": len(ps), "spread": spread,
            "verdict": v}


def compare(a_spec, b_spec, benchmark_path):
    with open(benchmark_path) as f:
        bench = json.load(f)
    a, b = table(load_set(a_spec)), table(load_set(b_spec))
    detail_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "answer_s")
    rows, worse = [], False

    def error_share(t):
        return t["failed"] / t["attempted"] if t["attempted"] else 1.0

    for w in sorted(set(a) & set(b)):
        more_failures = error_share(b[w]) > error_share(a[w])
        worse |= more_failures
        for m in bench["end_to_end"]:
            name = m["name"]
            if name in a[w]["metrics"] and name in b[w]["metrics"]:
                r = verdict(a[w]["metrics"][name], b[w]["metrics"][name], m["better"], m["bound"],
                            more_failures)
                rows.append((w, name, m["unit"], m["bound"], r, False))
                worse |= r["verdict"] == "worse"
        for name in sorted(set(a[w]["details"]) & set(b[w]["details"])):
            unit = a[w]["units"].get(name, "")
            if unit == "count":
                continue
            better = a[w]["better"].get(name, "lower")
            r = verdict(a[w]["details"][name], b[w]["details"][name], better, detail_bound,
                        more_failures)
            rows.append((w, name, unit, detail_bound, r, True))
    print(f"A = {a_spec}\nB = {b_spec}")
    print(f"{'workload':<14} {'metric':<20} {'unit':<6} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'change':>8} {'won-lost':>9} {'bound':>6}  verdict")
    for w, name, unit, bound, r, detail in rows:
        fa = "%.5g [%.5g, %.5g]" % (r["a"][1], r["a"][0], r["a"][2])
        fb = "%.5g [%.5g, %.5g]" % (r["b"][1], r["b"][0], r["b"][2])
        wins = "%d-%d/%d" % (round(r["wins"] * r["pairs"]), round(r["losses"] * r["pairs"]),
                             r["pairs"])
        tag = r["verdict"] + (" (detail)" if detail else "")
        print(f"{w:<14} {name:<20} {unit:<6} {fa:>32} {fb:>32} {100 * r['change']:>7.2f}% "
              f"{wins:>9} {bound:>6.2f}  {tag}")
    for w in sorted(set(a) & set(b)):
        verdict_tag = "worse" if error_share(b[w]) > error_share(a[w]) else "unchanged"
        print(f"{w}: error_share A {a[w]['failed']}/{a[w]['attempted']}, "
              f"B {b[w]['failed']}/{b[w]['attempted']}  {verdict_tag}")
    return 1 if worse else 0


def snapshot(out, specs):
    sets = {}
    for spec in specs:
        label, _, path = spec.partition("=")
        if not path:
            raise SystemExit(f"compare.py: snapshot takes LABEL=SET, got '{spec}'")
        sets[label] = load_set(path)
    doc = {
        "description": "bench_e2e result sets (bench/e2e/README.md); compare with "
                       "bench/e2e/compare.py FILE#LABEL FILE#LABEL",
        "sets": sets,
    }
    with open(out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {out}: " + ", ".join(f"{k} ({len(v)} results)" for k, v in sets.items()))


def self_test():
    def runs(values, seed0=1):
        return {str(seed0 + i): v for i, v in enumerate(values)}

    base = [10.0, 10.2, 9.9, 10.1, 10.05, 9.95, 10.15, 9.85, 10.0, 10.1]
    cases = [
        ("same code", runs(base), runs([v * 1.003 for v in reversed(base)]), "lower", "unchanged"),
        ("30% faster", runs(base), runs([v * 0.7 for v in base]), "lower", "improved"),
        ("30% slower", runs(base), runs([v * 1.3 for v in base]), "lower", "worse"),
        ("5% slower on every pair, inside the bound", runs(base),
         runs([v * 1.05 for v in base]), "lower", "worse"),
        ("5% slower on half the pairs", runs(base),
         runs([v * 1.05 for v in base[:5]] + [v * 0.99 for v in base[5:]]), "lower",
         "unchanged"),
        ("noisy parent", runs([5, 15, 8, 12, 10, 6, 14, 9, 11, 13]), runs(base), "lower",
         "unresolved"),
        ("higher is better, 30% up", runs(base), runs([v * 1.3 for v in base]), "higher",
         "improved"),
        ("higher is better, 30% down", runs(base), runs([v * 0.7 for v in base]), "higher",
         "worse"),
        ("10% faster but wins only 8 of 10", runs(base),
         runs([v * 0.9 for v in base[:8]] + [v * 1.02 for v in base[8:]]), "lower", "unchanged"),
    ]
    failed = 0
    for name, a, b, better, want in cases:
        got = verdict(a, b, better, 0.10)["verdict"]
        status = "ok" if got == want else "FAIL"
        failed += got != want
        print(f"{status:<4} {name}: {got} (want {want})")
    got = verdict(runs(base), runs([v * 0.7 for v in base]), "lower", 0.10, more_failures=True)
    failed += got["verdict"] == "improved"
    print(("ok  " if got["verdict"] != "improved" else "FAIL") +
          f" gain with more failures: {got['verdict']} (want not improved)")
    # Pairing is by seed: the same values under shuffled seeds still pair up.
    a = runs(base)
    b = {s: a[s] * 0.7 for s in reversed(list(a))}
    got = verdict(a, b, "lower", 0.10)
    failed += got["wins"] != 1.0
    print(("ok  " if got["wins"] == 1.0 else "FAIL") + f" pairs by seed: wins {got['wins']}")
    print("self-test " + ("passed" if not failed else f"FAILED ({failed})"))
    return 1 if failed else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "snapshot":
        p = argparse.ArgumentParser(prog="compare.py snapshot")
        p.add_argument("-o", "--out", required=True)
        p.add_argument("sets", nargs="+", metavar="LABEL=SET")
        args = p.parse_args(sys.argv[2:])
        snapshot(args.out, args.sets)
        return 0
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    p.add_argument("a", nargs="?")
    p.add_argument("b", nargs="?")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if not (args.a and args.b):
        p.error("give two result sets, or --self-test")
    return compare(args.a, args.b, args.benchmark)


if __name__ == "__main__":
    sys.exit(main())
