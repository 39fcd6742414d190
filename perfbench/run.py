#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the noc_sim / noc_sweep tools.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the tools and the
benchmark's driver into perfbench/.build. With --trace 0 it times the
shipped tools on the default engine for S seconds and prints the end-to-end
metrics; with --trace 1 it runs the in-process driver and prints the
per-layer metrics. Every result document is checked (checks.py); a tool
that fails or a check that rejects its output counts as a failed operation.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import checks  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPECS = os.path.join(HERE, "specs")
BUILD = os.path.join(HERE, ".build")
WORK = os.path.join(HERE, ".work")

NOC_SIM = os.path.join(BUILD, "aethereal", "noc_sim")
NOC_SWEEP = os.path.join(BUILD, "aethereal", "noc_sweep")
DRIVER = os.path.join(BUILD, "perfbench_driver")
SPAWN = os.path.join(BUILD, "perfbench_spawn")
TARGETS = ["noc_sim", "noc_sweep", "perfbench_driver", "perfbench_spawn"]

# `short`: measured cycles of the shortened copy the oracle and in-process
# checks run (phased scenarios keep their own phase durations).
WORKLOADS = {
    "mesh16_gt": {"scn": "mesh16_gt.scn", "short": 2000},
    "mesh16_mixed": {"scn": "mesh16_mixed.scn", "short": 2000},
    "star_long": {"scn": "star_long.scn", "short": 20000},
    "reconfig_sweep": {"scn": "reconfig.scn", "swp": "reconfig_sweep.swp",
                       "short": 1500},
}
SWEEP_JOBS = 1  # this host delivers about one effective core
# The sweep's grid: --seed picks `seed` axis values seed..seed+2 and
# `fault.seed` values seed..seed+3.
SEED_VALUES, FAULT_SEED_VALUES = 3, 4
MIN_ROUNDS = 3

# How a run sums up its rounds. The simulation is deterministic, so every
# round does the same work and a slower round is the host's doing (stolen
# or shared cycles), not the program's: time metrics take the best round.
ROUND_SUMMARY = {"wall_s": min, "cpu_s": min,
                 "peak_rss_mb": statistics.median,
                 "sim_kcycles_per_s": max, "flits_per_s": max}


def manifest_units(kind):
    """Metric name -> unit of BENCHMARK.json's `kind` list, the one place
    the names and units are written down."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark cannot run at all (no sources, build failure)."""


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("the simulator sources are not beside perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
               *generator]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", *TARGETS]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def host_block():
    with open(os.path.join(BUILD, "build_info.json")) as f:
        host = json.load(f)
    host.update(json.loads(subprocess.run(
        [DRIVER, "host"], capture_output=True, text=True, check=True).stdout))
    sha = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, env=env)
        if r.returncode == 0:
            sha = r.stdout.strip()
    host["git_sha"] = sha
    return host


class Bench:
    """Operation accounting plus the per-run scratch directory."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.wl = WORKLOADS[name]
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.work = os.path.join(WORK, f"{name}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        with open(os.path.join(SPECS, self.wl["scn"])) as f:
            self.spec = checks.parse_scn(f.read())
        self.sweep = self.seeded_sweep() if "swp" in self.wl else None
        # Operations per tool run: one per sweep point.
        self.points = SEED_VALUES * FAULT_SEED_VALUES if self.sweep else 1

    def path(self, name):
        return os.path.join(self.work, name)

    def seeded_sweep(self):
        """The committed sweep with its seed axes drawn from --seed."""
        s = self.seed
        lines = []
        with open(os.path.join(SPECS, self.wl["swp"])) as f:
            for line in f:
                if line.startswith("base "):
                    line = "base " + os.path.relpath(
                        os.path.join(SPECS, line.split()[1]), self.work) + "\n"
                elif line.startswith("axis seed "):
                    line = "axis seed " + axis_values(s, SEED_VALUES) + "\n"
                elif line.startswith("axis fault.seed "):
                    line = ("axis fault.seed " +
                            axis_values(s, FAULT_SEED_VALUES) + "\n")
                lines.append(line)
        path = self.path("sweep.swp")
        with open(path, "w") as f:
            f.writelines(lines)
        return path

    def op(self, ok, count=1, what=""):
        """Accounts `count` operations that all failed unless `ok`."""
        self.attempted += count
        if not ok:
            self.failed += count
            log(f"perfbench: {self.name}: failed: {what}")
        return ok

    def checked(self, problems, count=1):
        """A check over the outputs of `count` operations."""
        for p in problems:
            log(f"perfbench: {self.name}: check failed: {p}")
        if problems:
            self.correct = False
            self.failed += count
        return not problems

    # --- tool invocations --------------------------------------------------
    def tool_cmd(self, out=None, validate=False, extra=()):
        if self.sweep is not None:
            cmd = [NOC_SWEEP, "--quiet", "--jobs", str(SWEEP_JOBS), *extra]
        else:
            cmd = [NOC_SIM, "--quiet", *extra]
            if not validate:  # --validate wires the spec's own seed
                cmd += ["--seed", str(self.seed)]
        if validate:
            cmd.append("--validate")
        if out is not None:
            cmd += ["-o", out]
        cmd.append(self.sweep or os.path.join(SPECS, self.wl["scn"]))
        return cmd

    def spawn(self, cmd, count=1):
        """Runs one tool process through the launcher; None on failure."""
        r = subprocess.run([SPAWN, "--", *cmd], capture_output=True, text=True)
        cost = json.loads(r.stdout) if r.returncode == 0 else None
        ok = cost is not None and cost["exit"] == 0
        if not ok:
            log(r.stderr.strip())
        self.op(ok, count, " ".join(os.path.basename(c) for c in cmd))
        return cost if ok else None

    def driver(self, args, count=1):
        r = subprocess.run([DRIVER, *args], capture_output=True, text=True)
        if not self.op(r.returncode == 0, count, "perfbench_driver " + args[0]):
            log(r.stderr.strip())
            return None
        return json.loads(r.stdout)

    def load(self, path):
        with open(path) as f:
            return json.load(f)

    # --- correctness legs ----------------------------------------------------
    def oracle_check(self):
        """Default engine vs the naive oracle on a shortened copy."""
        docs = []
        for engine in (None, "naive"):
            out = self.path(f"short_{engine or 'default'}.json")
            extra = ["--engine", engine] if engine else []
            if self.sweep is not None:
                s = self.seed
                extra += ["--axis", f"seed={s}", "--axis", f"fault.seed={s},{s + 1}"]
                count = 2
            else:
                extra += ["--duration", str(self.wl["short"])]
                count = 1
            if self.spawn(self.tool_cmd(out=out, extra=extra), count) is None:
                return
            with open(out, "rb") as f:
                docs.append(f.read())
        self.checked(checks.check_oracle(*docs), 2 * count)

    def driver_check(self):
        """In-process observation-armed runs: link totals against NI
        counters, delivered words against NI channel counters, and every
        result check. Returns the per-point result documents."""
        prefix = self.path("point")
        if self.sweep is not None:
            args = ["check", "--swp", self.sweep, "--out", prefix]
        else:
            args = ["check", "--scn", os.path.join(SPECS, self.wl["scn"]),
                    "--seed", str(self.seed), "--duration",
                    str(self.wl["short"]), "--out", prefix]
        out = self.driver(args, self.points)
        if out is None:
            return None
        docs = []
        for i, point in enumerate(out["points"]):
            doc = self.load(f"{prefix}{i}.json")
            sent = {(f["group"], f["src"], f["dst"]): f["sent"]
                    for f in point["flows"]}
            self.checked(checks.check_result(self.spec, doc, sent))
            docs.append(doc)
        return docs

    # --- measured runs -------------------------------------------------------
    def end_to_end(self, seconds):
        setup = self.spawn(self.tool_cmd(validate=True))  # the cold set-up
        self.oracle_check()
        point_docs = self.driver_check()

        rounds = []
        out = self.path("result.json")
        deadline = time.monotonic() + seconds
        attempts = 0
        while attempts < MIN_ROUNDS or time.monotonic() < deadline:
            attempts += 1
            validate = self.spawn(self.tool_cmd(validate=True))
            run = self.spawn(self.tool_cmd(out=out), self.points)
            if validate is None or run is None:
                continue
            doc = self.load(out)
            if self.sweep is not None:
                if point_docs is None:
                    continue
                ok = self.checked(checks.check_sweep_points(doc, point_docs),
                                  self.points)
                cycles = sum(d["cycles_run"] for d in point_docs)
                flits = sum(p["aggregate"]["gt_flits"] + p["aggregate"]["be_flits"]
                            for p in doc["points"])
            else:
                ok = self.checked(checks.check_result(self.spec, doc))
                cycles = doc["cycles_run"]
                flits = doc["aggregate"]["gt_flits"] + doc["aggregate"]["be_flits"]
            if ok:
                # Rates use CPU time: it leaves out the time the hypervisor
                # steals from this VM in bursts, which wall_s shows.
                sim_s = cpu_s(run) - cpu_s(validate)
                rounds.append({
                    "wall_s": run["wall_s"],
                    "cpu_s": cpu_s(run),
                    "peak_rss_mb": run["maxrss_kb"] / 1024.0,
                    "sim_kcycles_per_s": cycles / sim_s / 1e3,
                    "flits_per_s": flits / sim_s,
                })

        metrics = {k: ROUND_SUMMARY[k](r[k] for r in rounds) if rounds else 0.0
                   for k in ROUND_SUMMARY}
        metrics["setup_s"] = setup["wall_s"] if setup else 0.0
        return metrics

    def per_layer(self, seconds):
        out = self.path("layers.json")
        args = ["layers", "--scn", os.path.join(SPECS, self.wl["scn"]),
                "--seed", str(self.seed), "--short-duration",
                str(self.wl["short"]), "--seconds", str(seconds), "--out", out]
        if self.sweep is not None:
            args += ["--swp", self.sweep]
        r = subprocess.run([DRIVER, *args], capture_output=True, text=True)
        if r.returncode != 0:
            log(r.stderr.strip())
            self.op(False, what="perfbench_driver layers")
            return {}
        layers = json.loads(r.stdout)
        self.op(True, int(layers.pop("operations")))
        self.checked(checks.check_result(self.spec, self.load(out)))
        return layers


def cpu_s(cost):
    return cost["user_s"] + cost["sys_s"]


def axis_values(first, count):
    return " ".join(str(first + i) for i in range(count))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        build()
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    host = host_block()
    print("host " + json.dumps(host, sort_keys=True))

    bench = Bench(args.workload, args.seed)
    try:
        if args.trace:
            values = bench.per_layer(args.seconds)
        else:
            values = bench.end_to_end(args.seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    units = manifest_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        log("perfbench: measured metrics differ from BENCHMARK.json's: "
            f"{sorted(set(values) ^ set(units))}")
        return 1
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(json.dumps({"correct": bench.correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
