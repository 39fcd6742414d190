#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

  python3 perfbench/selftest.py

Produces real result documents from short runs of the workloads, shows that
every check accepts them, then feeds each check a deliberately broken copy
and shows that the check rejects it. Exits 1 if a clean document is rejected
or a broken one is accepted.
"""
import copy
import json
import os
import resource
import shutil
import subprocess
import sys

import checks
import run


def gt_stream(spec, doc):
    return next(f for f in doc["flows"]
                if spec["traffic"][f["group"]]["gt"] and f["pattern"] == "pairs")


def drop_gt_word(spec, doc):
    gt_stream(spec, doc)["words_total"] -= 1


def starve_gt_stream(spec, doc):
    """A GT stream that delivered a revolution's worth of words too few,
    with its latency samples consistent."""
    flow = gt_stream(spec, doc)
    d = spec["traffic"][flow["group"]]
    lo, _ = checks.gt_window_bounds(spec, d["period"], doc["cycles_run"])
    flow["words_total"] = int(lo) - 1
    flow["latency"]["count"] = flow["words_total"]
    flow["words_in_window"] = min(flow["words_in_window"], flow["words_total"])


def reclaim_one_more(spec, doc):
    doc["transitions"][-1]["slots_reclaimed"] += 1


def allocate_one_less(spec, doc):
    doc["transitions"][0]["slots_allocated"] -= 1


def tap_extra_flit(spec, doc):
    next(l for l in doc["stats"]["links"]
         if l["kind"] == "injection")["gt_flits"] += 1


def ni_extra_be_flits(spec, doc):
    n_inj = sum(1 for l in doc["stats"]["links"] if l["kind"] == "injection")
    doc["aggregate"]["be_flits"] += n_inj + 1


def unexplained_violation(spec, doc):
    doc["fault"]["monitor"]["unexplained_violations"] = 1


def memory_overcomplete(spec, doc):
    tr = next(f for f in doc["flows"] if f["pattern"] == "memory")["transactions"]
    tr["completed"] = tr["issued"] + 1


def main():
    run.build()
    failures = []

    def expect(name, problems, rejected):
        ok = bool(problems) == rejected
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}"
              + (f" ({problems[0]})" if problems else ""))
        if not ok:
            failures.append(name)

    docs = {}
    for name in ("mesh16_gt", "star_long", "reconfig_sweep"):
        bench = run.Bench(name, seed=1)
        try:
            out = bench.driver(["check", "--scn", os.path.join(
                run.SPECS, bench.wl["scn"]), "--seed", "1", "--duration",
                str(bench.wl["short"]), "--out", bench.path("p")])
            doc = bench.load(bench.path("p0.json"))
            sent = {(f["group"], f["src"], f["dst"]): f["sent"]
                    for f in out["points"][0]["flows"]}
            with open(bench.path("p0.json"), "rb") as f:
                raw = f.read()
        finally:
            shutil.rmtree(bench.work, ignore_errors=True)
        docs[name] = (bench.spec, doc, sent, raw)
        expect(f"{name}: clean result", checks.check_result(bench.spec, doc, sent),
               rejected=False)

    cases = [
        ("mesh16_gt", "one GT word removed from a flow", drop_gt_word,
         lambda s, d, n: checks.check_accounting(d, n)),
        ("mesh16_gt", "a GT stream below its rate", starve_gt_stream,
         lambda s, d, n: checks.check_gt_rate(s, d)),
        ("mesh16_gt", "an obs link total above the NI counters", tap_extra_flit,
         lambda s, d, n: checks.check_obs_links(d)),
        ("star_long", "NI counters beyond the tap's last-slot lag",
         ni_extra_be_flits, lambda s, d, n: checks.check_obs_links(d)),
        ("star_long", "a memory flow completing more than it issued",
         memory_overcomplete, lambda s, d, n: checks.check_accounting(d)),
        ("reconfig_sweep", "a transition's slots_reclaimed off by one",
         reclaim_one_more, lambda s, d, n: checks.check_transitions(s, d)),
        ("reconfig_sweep", "a transition's slots_allocated off by one",
         allocate_one_less, lambda s, d, n: checks.check_transitions(s, d)),
        ("reconfig_sweep", "an unexplained monitor violation",
         unexplained_violation, lambda s, d, n: checks.check_verify(s, d)),
    ]
    for workload, name, breaker, check in cases:
        spec, doc, sent, _ = docs[workload]
        broken = copy.deepcopy(doc)
        breaker(spec, broken)
        expect(f"{workload}: {name}", check(spec, broken, sent), rejected=True)

    spec, doc, sent, raw = docs["mesh16_gt"]
    flow = gt_stream(spec, doc)
    short_sent = dict(sent)
    key = (flow["group"], flow["src"], flow["dst"])
    short_sent[key] = flow["words_total"] - 1
    expect("mesh16_gt: delivered more than the NI channel sent",
           checks.check_accounting(doc, short_sent), rejected=True)
    expect("mesh16_gt: result differing from the oracle by one byte",
           checks.check_oracle(raw, raw[:-2] + b"0" + raw[-1:]), rejected=True)

    point = {"index": 0, "aggregate": dict(doc["aggregate"])}
    expect("sweep: point aggregate equal to its own run",
           checks.check_sweep_points({"points": [point]}, [doc]), rejected=False)
    point["aggregate"]["gt_flits"] += 1
    expect("sweep: point aggregate differing from its own run",
           checks.check_sweep_points({"points": [point]}, [doc]), rejected=True)

    # The launcher reports the tool's own high-water mark, not the
    # harness's: a trivial run must read well below this interpreter.
    harness_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cost = json.loads(subprocess.run(
        [run.SPAWN, "--", run.NOC_SIM, "--help"], capture_output=True,
        text=True, check=True).stdout)
    tool_mb = cost["maxrss_kb"] / 1024
    ok = tool_mb < 0.5 * harness_mb
    print(f"{'ok  ' if ok else 'FAIL'} launcher: noc_sim --help peaks at "
          f"{tool_mb:.1f} MB, the harness at {harness_mb:.1f} MB")
    if not ok:
        failures.append("launcher")

    if failures:
        print(f"selftest: {len(failures)} case(s) failed", file=sys.stderr)
        return 1
    print("selftest: every check accepts clean results and rejects broken ones")
    return 0


if __name__ == "__main__":
    sys.exit(main())
