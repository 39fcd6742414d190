// perfbench_driver — the in-process half of the benchmark. It links the
// simulator library and calls its public API directly, so it can time the
// stages a CLI run hides and read the counters the library exposes.
//
//   perfbench_driver host
//       Host block: hardware_concurrency and the measured effective
//       parallelism (the same spin loop on N threads against 1 thread).
//   perfbench_driver check (--scn FILE [--seed N] [--duration N] | --swp FILE)
//                          --out PREFIX
//       One observation-armed run of the scenario, or of every point of the
//       sweep; writes result JSONs to PREFIX<i>.json and prints, per stream
//       flow, the words its source channel sent into the network (read
//       from the NI kernel's channel counters, independently of the
//       runner's flow accounting).
//   perfbench_driver layers --scn FILE [--seed N] [--swp FILE]
//                           --short-duration N --seconds S --out FILE
//       Per-layer metrics of the workload (see perfbench/README.md); the
//       untraced full run's result JSON goes to FILE for checking.
//
// Every mode prints one JSON object on stdout.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "scenario/inspect.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "sweep/runner.h"
#include "sweep/spec.h"

using namespace aethereal;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[noreturn]] void Fail(const std::string& what) {
  std::cerr << "perfbench_driver: " << what << "\n";
  std::exit(1);
}

template <typename T>
T Unwrap(Result<T> result, const std::string& what) {
  if (!result.ok()) Fail(what + ": " + result.status().ToString());
  return std::move(result).value();
}

/// VmHWM of this process in MB: the peak resident set of the current
/// address space (reset by execve, unlike ru_maxrss).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Ordered key -> number map printed as one JSON object.
class Metrics {
 public:
  void Set(const std::string& key, double value) { values_[key] = value; }
  void Print() const {
    std::printf("{");
    bool first = true;
    for (const auto& [key, value] : values_) {
      std::printf("%s\"%s\": %.9g", first ? "" : ", ", key.c_str(), value);
      first = false;
    }
    std::printf("}\n");
  }

 private:
  std::map<std::string, double> values_;
};

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) Fail("cannot write " + path);
}

struct Args {
  std::string scn;
  std::string swp;
  std::string out;
  std::optional<Cycle> duration;
  std::optional<std::uint64_t> seed;
  Cycle short_duration = 0;
  double seconds = 1.0;
};

Args ParseArgs(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Fail("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--scn") {
      args.scn = value;
    } else if (arg == "--swp") {
      args.swp = value;
    } else if (arg == "--out") {
      args.out = value;
    } else if (arg == "--seed") {
      args.seed = std::stoull(value);
    } else if (arg == "--duration") {
      args.duration = std::stoll(value);
    } else if (arg == "--short-duration") {
      args.short_duration = std::stoll(value);
    } else if (arg == "--seconds") {
      args.seconds = std::stod(value);
    } else {
      Fail("unknown option " + arg);
    }
  }
  if (args.scn.empty() && args.swp.empty()) Fail("--scn or --swp is required");
  return args;
}

/// The workload's scenario spec, with the run's seed applied.
scenario::ScenarioSpec Load(const Args& args) {
  auto spec = Unwrap(scenario::LoadScenarioFile(args.scn), "load");
  if (args.seed) spec.seed = *args.seed;
  return spec;
}

// ---------------------------------------------------------------------------
// host

/// A fixed amount of integer work that the optimizer cannot fold away.
std::uint64_t Spin(std::uint64_t iterations) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

int Host() {
  constexpr std::uint64_t kIterations = 30'000'000;
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  std::atomic<std::uint64_t> sink{0};

  auto start = Clock::now();
  sink += Spin(kIterations);
  const double one = SecondsSince(start);

  start = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < n; ++t) {
    threads.emplace_back([&sink] { sink += Spin(kIterations); });
  }
  for (auto& t : threads) t.join();
  const double all = SecondsSince(start);

  std::printf(
      "{\"hardware_concurrency\": %u, \"effective_parallelism\": %.3f, "
      "\"spin_1_thread_s\": %.4f, \"spin_n_threads_s\": %.4f}\n",
      n, n * one / all, one, all);
  return 0;
}

// ---------------------------------------------------------------------------
// check

/// Runs `spec` once with observation armed, writes its result JSON to
/// `out` and prints the per-flow NI channel counters as a JSON object.
void CheckOne(scenario::ScenarioSpec spec, const std::string& out) {
  // Observation never changes results; it adds the per-link counters the
  // link-total check compares with the NI kernels' own.
  spec.obs.sample_every = 1000;
  const auto inspection =
      Unwrap(scenario::InspectScenario(spec, /*wire=*/false), "inspect");

  scenario::ScenarioRunner runner(spec);
  const auto result = Unwrap(runner.Run(), "run");
  WriteFile(out, result.ToJson());

  std::printf("{\"flows\": [");
  bool first = true;
  for (const auto& flow : inspection.flows) {
    const auto& traffic = spec.traffic[static_cast<std::size_t>(flow.group)];
    if (traffic.pattern == scenario::PatternKind::kMemory) continue;
    core::NiKernel* ni = runner.soc()->ni(flow.flow.src);
    const ChannelId ch =
        runner.soc()->port(flow.flow.src, 0)->GlobalChannelOf(flow.src_connid);
    std::printf("%s{\"group\": %d, \"src\": %d, \"dst\": %d, \"sent\": %lld}",
                first ? "" : ", ", flow.group, flow.flow.src, flow.flow.dst,
                static_cast<long long>(ni->channel_stats(ch).words_sent));
    first = false;
  }
  std::printf("]}");
}

/// A scenario, or every point of a sweep: result JSONs go to
/// `<out><index>.json`, the counters to stdout as {"points": [...]}.
int Check(const Args& args) {
  std::vector<scenario::ScenarioSpec> specs;
  if (!args.swp.empty()) {
    const auto sweep = Unwrap(sweep::LoadSweepFile(args.swp), "load sweep");
    for (const auto& point : sweep::ExpandGrid(sweep)) {
      specs.push_back(Unwrap(sweep::MaterializePoint(sweep, point), "point"));
    }
  } else {
    auto spec = Load(args);
    if (args.duration && !spec.Phased()) spec.duration = *args.duration;
    specs.push_back(std::move(spec));
  }
  std::printf("{\"points\": [");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i > 0) std::printf(", ");
    CheckOne(specs[i], args.out + std::to_string(i) + ".json");
  }
  std::printf("]}\n");
  return 0;
}

// ---------------------------------------------------------------------------
// layers

struct StageTimes {
  double parse = 0, build = 0, run = 0, emit = 0;
  std::size_t bytes = 0;
};

/// One full untraced run through the public API, each stage timed; the
/// result JSON is written to `out` like noc_sim -o does.
scenario::ScenarioResult TimedRun(const Args& args, StageTimes* times,
                                  Metrics* mem) {
  auto start = Clock::now();
  auto spec = Load(args);
  times->parse = SecondsSince(start);

  scenario::ScenarioRunner runner(spec);
  start = Clock::now();
  if (Status s = runner.Build(); !s.ok()) Fail("build: " + s.ToString());
  times->build = SecondsSince(start);
  if (mem != nullptr) mem->Set("mem.rss_after_build_mb", PeakRssMb());

  start = Clock::now();
  auto result = Unwrap(runner.Run(), "run");
  times->run = SecondsSince(start);
  if (mem != nullptr) mem->Set("mem.rss_after_run_mb", PeakRssMb());

  start = Clock::now();
  const std::string json = result.ToJson();
  WriteFile(args.out, json);
  times->emit = SecondsSince(start);
  times->bytes = json.size();
  return result;
}

/// Run wall time of the scenario with the given tweak applied, Build()
/// excluded.
template <typename Tweak>
double RunSeconds(const Args& args, Tweak tweak,
                  scenario::ScenarioResult* result_out = nullptr,
                  sim::EngineProfile* profile_out = nullptr) {
  auto spec = Load(args);
  tweak(spec);
  scenario::ScenarioRunner runner(spec);
  if (Status s = runner.Build(); !s.ok()) Fail("build: " + s.ToString());
  if (profile_out != nullptr) runner.soc()->sim().EnableProfiling();
  const auto start = Clock::now();
  auto result = Unwrap(runner.Run(), "run");
  const double seconds = SecondsSince(start);
  if (profile_out != nullptr) *profile_out = runner.soc()->sim().profile();
  if (result_out != nullptr) *result_out = std::move(result);
  return seconds;
}

int Layers(const Args& args) {
  if (args.out.empty()) Fail("--out is required");
  if (args.short_duration <= 0) Fail("--short-duration is required");
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(args.seconds);
  Metrics m;
  int operations = 0;

  // Rounds of (untraced timed run, profiled run) until the time is up;
  // the first round's fresh address space gives the memory high-water
  // marks. Medians over rounds.
  std::vector<double> parse, build, run, emit, traced_run, evaluate, commit,
      park_wake, outside, overhead;
  std::vector<double> steps;
  scenario::ScenarioResult result;
  std::size_t result_bytes = 0;
  do {
    StageTimes t;
    result = TimedRun(args, &t, parse.empty() ? &m : nullptr);
    parse.push_back(t.parse);
    build.push_back(t.build);
    run.push_back(t.run);
    emit.push_back(t.emit);
    result_bytes = t.bytes;

    sim::EngineProfile profile;
    const double traced = RunSeconds(
        args, [](scenario::ScenarioSpec&) {}, nullptr, &profile);
    traced_run.push_back(traced);
    evaluate.push_back(profile.evaluate_sec);
    commit.push_back(profile.commit_sec);
    park_wake.push_back(profile.park_wake_sec);
    steps.push_back(static_cast<double>(profile.steps));
    outside.push_back(traced - profile.evaluate_sec - profile.commit_sec -
                      profile.park_wake_sec);
    overhead.push_back(traced - t.run);
    operations += 2;
  } while (Clock::now() < deadline);

  m.Set("scenario.parse_s", Median(parse));
  m.Set("scenario.build_s", Median(build));
  m.Set("scenario.run_s", Median(run));
  m.Set("scenario.emit_s", Median(emit));
  m.Set("scenario.result_bytes", static_cast<double>(result_bytes));
  m.Set("sim.steps", Median(steps));
  m.Set("sim.evaluate_s", Median(evaluate));
  m.Set("sim.commit_s", Median(commit));
  m.Set("sim.park_wake_s", Median(park_wake));
  m.Set("sim.outside_kernel_s", Median(outside));
  m.Set("trace.overhead_s", Median(overhead));

  // Counters of the untraced run's result.
  m.Set("core.gt_flits", static_cast<double>(result.gt_flits));
  m.Set("core.be_flits", static_cast<double>(result.be_flits));
  m.Set("core.credit_only_packets",
        static_cast<double>(result.credit_only_packets));
  m.Set("core.idle_slots", static_cast<double>(result.idle_slots));
  m.Set("core.payload_words", static_cast<double>(result.payload_words_sent));
  double samples = 0, completed = 0, messages = 0;
  for (const auto& flow : result.flows) {
    samples += static_cast<double>(flow.latency_samples.size());
    completed += static_cast<double>(flow.transactions_completed);
  }
  for (const auto& tr : result.transitions) {
    messages += static_cast<double>(tr.config_messages);
  }
  m.Set("stats.latency_samples", samples);
  m.Set("shells.transactions_completed", completed);
  m.Set("config.messages", messages);
  m.Set("config.write_retries",
        result.fault ? static_cast<double>(result.fault->config_write_retries)
                     : 0.0);
  m.Set("config.ack_timeouts",
        result.fault ? static_cast<double>(result.fault->config_ack_timeouts)
                     : 0.0);
  m.Set("fault.events",
        result.fault ? static_cast<double>(result.fault->events_total) : 0.0);

  // Router counters from an observation-armed run of the full workload.
  scenario::ScenarioResult observed;
  RunSeconds(
      args, [](scenario::ScenarioSpec& s) { s.obs.sample_every = 1000; },
      &observed);
  ++operations;
  double hops = 0, blocked_credit = 0, blocked_gt = 0;
  for (const auto& r : observed.obs_stats->routers) {
    hops += static_cast<double>(r.gt_flits + r.be_flits);
    blocked_credit += static_cast<double>(r.be_blocked_credit);
    blocked_gt += static_cast<double>(r.be_blocked_gt);
  }
  m.Set("router.flit_hops", hops);
  m.Set("router.be_blocked_credit", blocked_credit);
  m.Set("router.be_blocked_gt", blocked_gt);

  // Monitor cost: the short copy with verify on minus verify off.
  const Cycle short_duration = args.short_duration;
  auto shorten = [short_duration](scenario::ScenarioSpec& s) {
    if (!s.Phased()) s.duration = short_duration;
  };
  const double verified = RunSeconds(args, [&](scenario::ScenarioSpec& s) {
    shorten(s);
    s.verify = true;
  });
  const double unverified = RunSeconds(args, [&](scenario::ScenarioSpec& s) {
    shorten(s);
    s.verify = false;
  });
  operations += 2;
  m.Set("verify.monitor_s", verified - unverified);

  // Sweep layer: the workload's own sweep on one job, or — for a single
  // scenario, which is a one-point grid — the median stage times above.
  if (!args.swp.empty()) {
    auto spec = Unwrap(sweep::LoadSweepFile(args.swp), "load sweep");
    const auto start = Clock::now();
    const auto swept = Unwrap(sweep::SweepRunner(spec).Run(1), "sweep");
    const double seconds = SecondsSince(start);
    const double points = static_cast<double>(swept.points.size());
    operations += static_cast<int>(swept.points.size());
    m.Set("sweep.points", points);
    m.Set("sweep.s_per_point", seconds / points);
  } else {
    m.Set("sweep.points", 1);
    m.Set("sweep.s_per_point",
          Median(parse) + Median(build) + Median(run) + Median(emit));
  }
  m.Set("operations", operations);
  m.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Fail("usage: perfbench_driver host|check|layers [options]");
  const std::string mode = argv[1];
  if (mode == "host") return Host();
  if (mode == "check") return Check(ParseArgs(argc, argv, 2));
  if (mode == "layers") return Layers(ParseArgs(argc, argv, 2));
  Fail("unknown mode " + mode);
}
