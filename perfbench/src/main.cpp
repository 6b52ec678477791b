// Motor's benchmark: one binary, four workloads, nothing modelled.
//
//   perfbench --workload pingpong|reliable_stream|objects|ps_gc|all
//             --seed N --seconds S --trace 0|1 [--out-dir DIR]
//             [--source-id ID]
//
// --trace 0 runs the chosen workload and prints the end-to-end metrics,
// the same set for every workload. --trace 1 runs the layer suite: the
// traced pass of every workload, so that every per-layer metric is
// measured whichever workload is chosen, plus the chosen workload's
// tracing overhead. Every metric is printed by name with its unit; the
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. The exit code is non-zero when any
// operation failed or any output was wrong. See README.md.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using namespace perfbench;

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimisedBuild = true;
#else
constexpr bool kOptimisedBuild = false;
#endif

struct Workload {
  const char* name;
  void (*run)(const Options&, Report&);
};

constexpr Workload kWorkloads[] = {
    {"pingpong", run_pingpong},
    {"reliable_stream", run_reliable_stream},
    {"objects", run_objects},
    {"ps_gc", run_ps_gc},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload pingpong|reliable_stream|objects|"
               "ps_gc|all --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--source-id ID]\n",
               argv0);
  return 2;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

void print_env(const Options& opt, const std::string& source_id,
               bool gc_env_was_set) {
  std::printf(
      "# env {\"seed\": %llu, \"nproc\": %d, \"cpu\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"optimised\": true, "
      "\"source_id\": \"%s\", \"collector\": \"stop_the_world\", "
      "\"MOTOR_GC_INCREMENTAL_cleared\": %s, \"runtime_profile\": "
      "\"uncosted\", \"wire_latency_ns\": 0, \"modelled_cost\": false, "
      "\"seconds\": %g, \"trace\": %d}\n",
      static_cast<unsigned long long>(opt.seed), usable_cpus(),
      json_escape(cpu_model()).c_str(), json_escape(compiler()).c_str(),
      PERFBENCH_BUILD_TYPE, json_escape(source_id).c_str(),
      gc_env_was_set ? "true" : "false", opt.seconds, opt.trace ? 1 : 0);
}

void print_table(const char* workload, const Report& r) {
  std::printf("# %s (%s)\n", workload, "metric value unit [note]");
  for (const Metric& m : r.metrics) {
    std::printf("%-40s %16.6f %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string source_id = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_val = i + 1 < argc;
    if (a == "--workload" && has_val) {
      opt.workload = argv[++i];
      have_workload = true;
    } else if (a == "--seed" && has_val) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_val) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_val) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--out-dir" && has_val) {
      opt.out_dir = argv[++i];
    } else if (a == "--source-id" && has_val) {
      source_id = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload || opt.seconds <= 0) return usage(argv[0]);

  const bool all = opt.workload == "all";
  auto chosen = [&](const Workload& w) { return all || opt.workload == w.name; };
  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads) {
    if (chosen(w) || opt.trace) selected.push_back(&w);
  }
  if (std::none_of(std::begin(kWorkloads), std::end(kWorkloads), chosen)) {
    return usage(argv[0]);
  }

  if (!kOptimisedBuild) {
    std::fprintf(stderr, "perfbench: refusing to measure a non-optimised "
                         "build (%s)\n", PERFBENCH_BUILD_TYPE);
    return 3;
  }
  // The collector mode is part of the workload definition: clear the
  // environment override so the heaps run exactly what base_world() sets.
  const bool gc_env_was_set = std::getenv("MOTOR_GC_INCREMENTAL") != nullptr;
  unsetenv("MOTOR_GC_INCREMENTAL");
  print_env(opt, source_id, gc_env_was_set);

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> out;
  for (const Workload* w : selected) {
    Options wopt = opt;
    wopt.workload = w->name;
    // The layer suite's other passes only feed per-layer metrics, which
    // have no bound: a quarter of the run length keeps a traced run short.
    if (!chosen(*w)) wopt.seconds = opt.seconds / 4;
    Report r;
    try {
      w->run(wopt, r);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s aborted: %s\n", w->name, e.what());
      return 3;
    }
    const std::uint64_t a = r.ledger.attempted();
    const std::uint64_t f = r.ledger.failed();
    const double error_rate =
        a > 0 ? static_cast<double>(f) / static_cast<double>(a) : 1.0;
    if (!opt.trace) {
      // 0 on a correct run; the result line carries it as failed/attempted.
      r.add("error_rate", "fraction", error_rate, ratio_note(f, a),
            /*listed=*/false);
    }
    print_table(w->name, r);
    for (const std::string& why : r.ledger.reasons()) {
      std::printf("# FAILED %s: %s\n", w->name, why.c_str());
    }
    std::printf("# %s negative check (corrupted result rejected): %s\n",
                w->name, r.negative_check_caught ? "caught" : "NOT CAUGHT");
    correct = correct && f == 0 && a > 0 && r.negative_check_caught;
    attempted += a;
    failed += f;
    for (Metric& m : r.metrics) {
      if (!m.listed) continue;
      // The tracing overhead belongs to the chosen workload; the layer
      // suite's other passes contribute only their per-layer metrics.
      const bool overhead = m.name.rfind("trace_overhead.", 0) == 0;
      if (overhead && !chosen(*w)) continue;
      if (all && (overhead || !opt.trace)) {
        m.name = std::string(w->name) + "." + m.name;
      }
      out.push_back(std::move(m));
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", out[i].name.c_str(), out[i].value,
                out[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
