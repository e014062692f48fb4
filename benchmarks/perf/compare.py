"""Compare two sets of perf ledgers: ``python -m benchmarks.perf.compare A B``.

``A`` (the base) and ``B`` are ledger files written by ``run.py`` or
directories of them.  For every (workload, end-to-end metric) it prints
each side's median and quartiles, how much worse ``B``'s median is as a
share of ``A``'s, the metric's bound, and a verdict:

``regressed``   worse by more than the bound
``improved``    better by more than the bound
``unresolved``  either set's own spread (q3 − q1 over its median) exceeds
                the bound, so the sets cannot tell
``ok``          otherwise

Failed operations are compared as ``fail_ratio`` (failed ÷ attempted, bound
0: any increase is a regression).  ``--same-code`` additionally requires
what this code computes deterministically — the digests, the modeled clock,
the quality figures and the exact counts — to be identical between runs
that share a seed.  Exit status 1 on any regression or mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from benchmarks.perf.workloads import E2E_METRICS

#: Identical to the last digit between runs of the same code and seed.
EXACT_E2E = ("modeled_s", "cut_ratio", "vertex_balance")
EXACT_LAYERS = ("core.edge_balance", "core.work_units", "simmpi.rounds",
                "simmpi.comm_bytes")
EXACT_FIELDS = ("parts_digest", "signature_digest")


def load(path):
    """The ledgers at ``path`` (a file, or a directory of ``*.json``)."""
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".json"))
    else:
        files = [path]
    ledgers = []
    for name in files:
        with open(name) as f:
            ledgers.append(json.load(f))
    if not ledgers:
        raise SystemExit(f"no ledger found at {path}")
    return ledgers


def quartiles(values):
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, better, bound):
    """``(share by which b's median is worse than a's, verdict)``."""
    qa, qb = quartiles(a), quartiles(b)
    worse = (qb[1] - qa[1]) / qa[1]
    if better == "higher":
        worse = -worse
    spread = max((q[2] - q[0]) / q[1] for q in (qa, qb))
    if spread > bound:
        return worse, "unresolved"
    if worse > bound:
        return worse, "regressed"
    if worse < -bound:
        return worse, "improved"
    return worse, "ok"


def _measured(ledgers, workload):
    return [ld["workloads"][workload] for ld in ledgers
            if workload in ld["workloads"]
            and "error" not in ld["workloads"][workload]]


def _fail_ratio(ledgers, workload):
    rows = [ld["workloads"][workload] for ld in ledgers
            if workload in ld["workloads"]]
    return (sum(r["failed"] for r in rows)
            / max(1, sum(r["attempted"] for r in rows)))


def compare(base, other):
    """Print the table; returns the number of regressions."""
    regressions = 0
    workloads = [w for w in base[0]["workloads"] if w in other[0]["workloads"]]
    print(f"{'workload':<14s} {'metric':<17s} {'A q1/median/q3':>34s} "
          f"{'B q1/median/q3':>34s} {'worse':>8s} {'bound':>6s}  verdict")
    for workload in workloads:
        a_rows, b_rows = _measured(base, workload), _measured(other, workload)
        for metric, _unit, better, bound in E2E_METRICS:
            a = [r["e2e"][metric] for r in a_rows]
            b = [r["e2e"][metric] for r in b_rows]
            if not a or not b:
                continue
            worse, word = verdict(a, b, better, bound)
            regressions += word == "regressed"
            cells = ["/".join(f"{v:.5g}" for v in quartiles(x))
                     for x in (a, b)]
            print(f"{workload:<14s} {metric:<17s} {cells[0]:>34s} "
                  f"{cells[1]:>34s} {worse:>+8.2%} {bound:>6.0%}  {word}")
        fa, fb = _fail_ratio(base, workload), _fail_ratio(other, workload)
        word = "regressed" if fb > fa else "ok"
        regressions += word == "regressed"
        print(f"{workload:<14s} {'fail_ratio':<17s} {fa:>34.4g} {fb:>34.4g} "
              f"{'':>8s} {'0':>6s}  {word}")
    return regressions


def exact_mismatches(ledgers):
    """What differs between runs that share a seed but must not."""
    seen, bad = {}, []
    for ld in ledgers:
        for workload, row in ld["workloads"].items():
            if "error" in row:
                continue
            layers = row["layers"] or {}
            got = {**{k: row["e2e"][k] for k in EXACT_E2E},
                   **{k: layers.get(k) for k in EXACT_LAYERS},
                   **{k: row[k] for k in EXACT_FIELDS}}
            first = seen.setdefault((workload, ld["seed"], ld["smoke"]), got)
            bad += [f"{workload} seed {ld['seed']}: {k} {first[k]!r} != {v!r}"
                    for k, v in got.items() if first[k] != v]
    return bad


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="ledger file or directory (A)")
    ap.add_argument("other", help="ledger file or directory (B)")
    ap.add_argument("--same-code", action="store_true",
                    help="A and B ran the same code: deterministic figures "
                    "must be identical for equal seeds")
    args = ap.parse_args(argv)
    base, other = load(args.base), load(args.other)
    bad = compare(base, other)
    if args.same_code:
        mismatches = exact_mismatches(base + other)
        for line in mismatches:
            print(f"NOT DETERMINISTIC {line}")
        if not mismatches:
            print("deterministic figures identical across all runs")
        bad += len(mismatches)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
