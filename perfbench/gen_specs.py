#!/usr/bin/env python3
"""Writes the benchmark's workload specs into perfbench/specs/.

The 16x16 workloads cannot use the pattern generators (`neighbor`,
`bitcomp`, `uniform`): on a 16x16 mesh they produce routes longer than the
7-hop source path the paper's 21-bit header can encode. They therefore list
every flow explicitly as a `pairs` directive, and this script is the single
place those lists come from.

  python3 perfbench/gen_specs.py           # (re)write the specs
  python3 perfbench/gen_specs.py --check   # exit 1 unless the committed
                                           # specs equal a fresh generation
"""
import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_DIR = os.path.join(HERE, "specs")

MESH_ROWS = 16
MESH_COLS = 16
MESH_WARMUP = 1000
MESH_DURATION = 8000
# GT streams: 2 reserved slots of an 8-slot table give at least 4 payload
# words per 24-cycle revolution; one word every 8 cycles offers 3.
GT_PERIOD = 8
GT_SLOTS = 2
BE_RATE = 0.04

STAR_WARMUP = 1000
STAR_DURATION = 2_000_000


def ni(row, col):
    """Mesh NI id with one NI per router (row-major routers)."""
    return row * MESH_COLS + col


def gt_pairs():
    """Every horizontally adjacent NI pair, both directions."""
    pairs = []
    for r in range(MESH_ROWS):
        for c in range(MESH_COLS - 1):
            pairs.append((ni(r, c), ni(r, c + 1)))
            pairs.append((ni(r, c + 1), ni(r, c)))
    return pairs


def be_pairs():
    """Every NI to the NI two rows below it (2 vertical hops)."""
    return [(ni(r, c), ni(r + 2, c))
            for r in range(MESH_ROWS - 2) for c in range(MESH_COLS)]


def pairs_directive(pairs, clauses):
    # The spec grammar is line based: one directive is one (long) line.
    body = " ".join(f"{s} {d}" for s, d in pairs)
    return f"traffic pairs {body} {clauses}\n"


def mesh_spec(name, with_be):
    what = ("GT streams between horizontal neighbours plus BE streams two "
            "rows apart" if with_be else
            "GT streams between horizontal neighbours only")
    text = (
        f"# Generated by perfbench/gen_specs.py; do not edit.\n"
        f"# 16x16 mesh, one NI per router: {what}.\n"
        f"scenario {name}\n"
        f"noc mesh {MESH_ROWS} {MESH_COLS} 1\n"
        "stu 8\n"
        "queues 32\n"
        "seed 1\n"
        f"warmup {MESH_WARMUP}\n"
        f"duration {MESH_DURATION}\n"
        "\n")
    text += pairs_directive(
        gt_pairs(), f"inject periodic {GT_PERIOD} qos gt {GT_SLOTS}")
    if with_be:
        text += pairs_directive(be_pairs(), f"inject bernoulli {BE_RATE} qos be")
    return text


STAR_LONG = f"""# Generated by perfbench/gen_specs.py; do not edit.
# 7-NI star for millions of cycles: GT stream pairs, uniform BE background
# and two shared-memory master->slave flows (one GT, one BE).
scenario star_long
noc star 7
stu 8
queues 32
seed 1
warmup {STAR_WARMUP}
duration {STAR_DURATION}

traffic pairs 0 1 1 0 inject periodic 8 qos gt 2
traffic uniform inject bernoulli 0.01 qos be
traffic memory 2 3 inject periodic 40 qos gt 2 burst 4
traffic memory 4 5 inject bernoulli 0.02 qos be burst 4
"""

RECONFIG = """# Generated by perfbench/gen_specs.py; do not edit.
# Phased 3x3 mesh: five use cases that open and close GT, BE and memory
# connections over the NoC, with config messages dropped and the retry
# policy armed, under the guarantee monitor.
scenario reconfig
noc mesh 3 3 1
stu 8
queues 16
seed 1
warmup 200
drain 20000
verify on
cfgni 4

phase a duration 1500
traffic pairs 0 1 2 5 inject periodic 8 qos gt 2 persist
traffic pairs 3 6 7 8 inject bernoulli 0.03 qos be

phase b duration 1500
traffic pairs 6 3 8 7 inject periodic 12 qos gt 1
traffic memory 1 2 inject periodic 50 qos be burst 4

phase c duration 1500
traffic memory 3 0 inject periodic 60 qos gt 2 burst 4
traffic pairs 5 8 inject bernoulli 0.05 qos be

phase d duration 1500
traffic pairs 7 6 3 0 inject periodic 8 qos gt 2
traffic pairs 2 1 inject bernoulli 0.03 qos be

phase e duration 1500
traffic pairs 8 5 inject periodic 16 qos gt 1
traffic memory 6 7 inject periodic 40 qos gt 1 burst 4

fault
seed 1
config drop 0.1
config delay 0.1 30
retry timeout 120 max 8 backoff 1
end
"""

RECONFIG_SWEEP = """# Generated by perfbench/gen_specs.py; do not edit.
# The phased reconfiguration scenario over 3 simulation seeds x 4 fault
# seeds: every point repeats set-up, the Fig. 9 configuration sequences,
# config-message loss with retries, and the verify monitor.
sweep reconfig_sweep
base reconfig.scn
axis seed 1 2 3
axis fault.seed 1 2 3 4
"""


def generate():
    return {
        "mesh16_gt.scn": mesh_spec("mesh16_gt", with_be=False),
        "mesh16_mixed.scn": mesh_spec("mesh16_mixed", with_be=True),
        "star_long.scn": STAR_LONG,
        "reconfig.scn": RECONFIG,
        "reconfig_sweep.swp": RECONFIG_SWEEP,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare instead of writing")
    args = parser.parse_args()
    files = generate()
    if args.check:
        bad = []
        for name, text in files.items():
            path = os.path.join(SPEC_DIR, name)
            try:
                with open(path, "rb") as f:
                    if f.read() != text.encode():
                        bad.append(name)
            except OSError:
                bad.append(name)
        extra = sorted(set(os.listdir(SPEC_DIR)) - set(files)) \
            if os.path.isdir(SPEC_DIR) else []
        for name in bad:
            print(f"gen_specs: specs/{name} differs from a fresh generation",
                  file=sys.stderr)
        for name in extra:
            print(f"gen_specs: specs/{name} is not generated", file=sys.stderr)
        if bad or extra:
            return 1
        print(f"gen_specs: {len(files)} specs match the generator")
        return 0
    os.makedirs(SPEC_DIR, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(SPEC_DIR, name), "w", newline="\n") as f:
            f.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
