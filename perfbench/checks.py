"""Correctness checks on the simulator's result documents.

Every check takes parsed documents (and the workload spec, parsed here from
the .scn text) and returns a list of problems; an empty list passes. The
expected values are derived from the spec and from counters of other layers,
never from a stored copy of an earlier run's output.
"""

FLIT_WORDS = 3  # words per flit = cycles per TDM slot


def parse_scn(text):
    """The subset of the scenario grammar the checks need."""
    spec = {"stu": 8, "queues": 32, "warmup": 500, "duration": 20000, "verify": False,
            "phases": [], "traffic": []}
    phase = -1
    in_fault = False
    for raw in text.splitlines():
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        key = words[0]
        if in_fault:
            in_fault = key != "end"
            continue
        if key == "fault":
            in_fault = True
        elif key in ("stu", "queues", "warmup", "duration"):
            spec[key] = int(words[1])
        elif key == "verify":
            spec["verify"] = words[1] == "on"
        elif key == "phase":
            phase += 1
            spec["phases"].append(
                {"name": words[1], "duration": int(words[words.index("duration") + 1])})
        elif key == "traffic":
            spec["traffic"].append(parse_traffic(words[1:], phase))
    return spec


def parse_traffic(words, phase):
    d = {"pattern": words[0], "phase": phase, "persist": "persist" in words,
         "gt": False, "slots": 0, "inject": None, "period": None, "nis": []}
    i = 1
    while i < len(words) and words[i].isdigit():
        d["nis"].append(int(words[i]))
        i += 1
    if "inject" in words:
        j = words.index("inject")
        d["inject"] = words[j + 1]
        if d["inject"] == "periodic":
            d["period"] = int(words[j + 2])
    if "qos" in words:
        j = words.index("qos")
        if words[j + 1] == "gt":
            d["gt"] = True
            d["slots"] = int(words[j + 2])
    return d


def connections_of(directive):
    """Connections one directive opens (only the patterns the workloads use)."""
    if directive["pattern"] == "pairs":
        return len(directive["nis"]) // 2
    if directive["pattern"] == "memory":
        return 1
    raise ValueError(f"pattern {directive['pattern']} not supported here")


def gt_slots_of(directive):
    """TDM slots a directive reserves: memory connections reserve them on
    both the request and the response channel."""
    if not directive["gt"]:
        return 0
    per_conn = directive["slots"] * (2 if directive["pattern"] == "memory" else 1)
    return per_conn * connections_of(directive)


# --- checks -------------------------------------------------------------------

def check_oracle(default_bytes, naive_bytes):
    """The default engine's document equals the naive oracle's, byte for byte."""
    if default_bytes != naive_bytes:
        return ["default engine's result differs from the naive oracle's"]
    return []


def gt_window_bounds(spec, period, cycles):
    """Words a periodic GT stream delivers in `cycles`: cycles/period, to
    within one slot-table revolution, plus one word for the source's seeded
    phase offset and one still in transit at the window's end.

    With BE traffic in the scenario a GT stream's end-to-end credits can
    return late (they ride the reverse channel, which BE arbitration may
    delay), so the source may additionally trail by up to its credit window,
    one channel queue of words."""
    expected = cycles / period
    slack = spec["stu"] * FLIT_WORDS / period + 2
    if any(not d["gt"] for d in spec["traffic"]):
        slack += spec["queues"]
    return expected - slack, expected + 1


def check_gt_rate(spec, result):
    """Every periodic GT stream delivers its offered rate."""
    problems = []
    for flow in result["flows"]:
        d = spec["traffic"][flow["group"]]
        if not (d["gt"] and d["inject"] == "periodic" and d["pattern"] == "pairs"):
            continue
        if spec["phases"]:
            windows = [(ps["words"], spec["phases"][ps["phase"]]["duration"],
                        f"phase {ps['phase']}") for ps in flow["phase_stats"]]
        else:
            windows = [(flow["words_total"], result["cycles_run"], "run")]
        for words, cycles, where in windows:
            lo, hi = gt_window_bounds(spec, d["period"], cycles)
            if not lo <= words <= hi:
                problems.append(
                    f"GT flow g{flow['group']} {flow['src']}->{flow['dst']} "
                    f"delivered {words} words in {where}, expected "
                    f"{lo:.1f}..{hi:.1f}")
    return problems


def check_accounting(result, sent=None):
    """Per-flow word accounting: delivered words match the latency samples,
    delivered <= admitted into the network, memory completed <= issued.

    `sent` maps (group, src, dst) to the words the source NI channel sent,
    as read from the NI kernel counters by the in-process driver."""
    problems = []
    for flow in result["flows"]:
        name = f"g{flow['group']} {flow['src']}->{flow['dst']}"
        if flow["pattern"] == "memory":
            tr = flow["transactions"]
            if tr["completed"] > tr["issued"]:
                problems.append(f"memory flow {name} completed "
                                f"{tr['completed']} > issued {tr['issued']}")
            continue
        if flow["words_total"] != flow["latency"]["count"]:
            problems.append(f"flow {name} delivered {flow['words_total']} words "
                            f"but has {flow['latency']['count']} latency samples")
        if flow["words_in_window"] > flow["words_total"]:
            problems.append(f"flow {name} counts more words in its window "
                            "than in the whole run")
        if sent is not None:
            key = (flow["group"], flow["src"], flow["dst"])
            if key not in sent:
                problems.append(f"flow {name} has no NI channel counter")
            elif flow["words_total"] > sent[key]:
                problems.append(f"flow {name} delivered {flow['words_total']} "
                                f"words but its NI channel sent {sent[key]}")
    return problems


def check_transitions(spec, result):
    """Each transition reclaims the GT slots of the outgoing phase's closing
    directives and allocates those of the incoming phase's directives."""
    problems = []
    traffic = spec["traffic"]
    for tr in result.get("transitions", []):
        k = tr["into_phase"]
        allocated = sum(gt_slots_of(d) for d in traffic if d["phase"] == k)
        reclaimed = sum(gt_slots_of(d) for d in traffic
                        if d["phase"] == k - 1 and not d["persist"])
        if tr["slots_allocated"] != allocated:
            problems.append(f"transition into phase {k} allocated "
                            f"{tr['slots_allocated']} slots, spec says {allocated}")
        if tr["slots_reclaimed"] != reclaimed:
            problems.append(f"transition into phase {k} reclaimed "
                            f"{tr['slots_reclaimed']} slots, spec says {reclaimed}")
    if spec["phases"] and len(result.get("transitions", [])) != len(spec["phases"]):
        problems.append("not every phase was entered")
    return problems


def check_obs_links(result):
    """The observation taps' injection-link flit totals equal the NI kernels'
    gt_flits / be_flits. The tap samples each link once per slot, so flits
    sent in the run's final slot are not on its books yet: the NI count may
    exceed the tap's by at most one flit per injection link."""
    links = result["stats"]["links"]
    inj = [l for l in links if l["kind"] == "injection"]
    dlv = [l for l in links if l["kind"] == "delivery"]
    agg = result["aggregate"]
    problems = []
    for cls in ("gt_flits", "be_flits"):
        tapped = sum(l[cls] for l in inj)
        if not 0 <= agg[cls] - tapped <= len(inj):
            problems.append(f"injection links carried {tapped} {cls}, NI "
                            f"kernels sent {agg[cls]}")
        delivered = sum(l[cls] for l in dlv)
        if delivered > tapped:
            problems.append(f"delivery links carried {delivered} {cls}, more "
                            f"than the {tapped} injected")
    return problems


def check_verify(spec, result):
    """Verified runs report no unexplained monitor violations."""
    if not spec["verify"]:
        return []
    fault = result.get("fault")
    if fault is None:
        return []  # without faults any violation already fails the run
    n = fault["monitor"]["unexplained_violations"]
    return [f"{n} unexplained monitor violations"] if n else []


def check_sweep_points(sweep_doc, point_results):
    """The sweep's per-point aggregates equal separate runs of each point."""
    points = sweep_doc["points"]
    if len(points) != len(point_results):
        return [f"sweep has {len(points)} points, expected {len(point_results)}"]
    problems = []
    for point, result in zip(points, point_results):
        for cls in ("gt_flits", "be_flits"):
            if point["aggregate"][cls] != result["aggregate"][cls]:
                problems.append(f"sweep point {point['index']} {cls} "
                                f"{point['aggregate'][cls]} != "
                                f"{result['aggregate'][cls]} of its own run")
    return problems


def check_result(spec, result, sent=None):
    """Every check that applies to one scenario result document."""
    problems = (check_gt_rate(spec, result) + check_accounting(result, sent) +
                check_transitions(spec, result) + check_verify(spec, result))
    if "stats" in result:
        problems += check_obs_links(result)
    return problems
