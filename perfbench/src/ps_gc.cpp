// ps_gc: one parameter-server shard (rank 0) and one worker (rank 1),
// four threads with the two comm threads, default coalescing and credit
// window. The worker holds a 16 MiB elder graph and pushes 32-float
// deltas over a seeded key sequence, one Pull per 64 pushes, so reads run
// beside writes. Each window of 64 pushes ends with a Flush, which makes
// the window's updates applied before the Pull reads one of them. Without
// it a window (~20 us of pushes) is as long as the comm threads' idle
// spin before they park for 200 us, so the pull latency splits ~55/45
// between ~40 us (comm threads awake) and ~350 us (parked) and its median
// flips between the two from run to run. Every push also allocates young garbage, so the
// stop-the-world collector runs full-heap marks over the live graph
// (well over 100 pauses per run). Marking and the coalesce -> comm thread
// -> apply pipeline do the work; the serializer and CRC do none.
//
// Oracle: every pulled value must equal the running closed-form sum of
// the deltas pushed to its key (read-your-writes), and after the worker
// closes, the server's whole table must equal the final sums.
#include <array>
#include <cstring>
#include <mutex>

#include "common/prng.hpp"
#include "harness.hpp"
#include "pal/clock.hpp"
#include "ps/ps.hpp"
#include "vm/handles.hpp"

namespace perfbench {
namespace {

using namespace motor;

constexpr std::uint64_t kKeys = 1024;
constexpr std::size_t kLanes = 32;            // floats per value
constexpr int kPushesPerPull = 64;
constexpr std::size_t kLiveBytes = 16u << 20;  // the elder graph
constexpr std::size_t kHeads = 512;            // chains anchoring it
constexpr int kChurnPerPush = 2;               // young nodes per push
constexpr int kWarmupWindows = 64;

/// Lane `lane` of key k holds sum_v[k] * (1 + lane % 4): exact in float
/// for every run length the benchmark produces.
float lane_value(std::uint64_t sum_v, std::size_t lane) {
  return static_cast<float>(sum_v * (1 + lane % 4));
}

/// The final-table oracle: every key present, every lane equal to the
/// closed-form sum.
bool table_matches(const ps::PsServer& server,
                   const std::vector<std::uint64_t>& sum_v) {
  if (server.table_size() != kKeys) return false;
  std::vector<float> v;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    if (!server.Lookup(k, &v) || v.size() != kLanes) return false;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      if (v[lane] != lane_value(sum_v[k], lane)) return false;
    }
  }
  return true;
}

/// The final table is one operation; a mismatch is one failure.
void check_table(const ps::PsServer& server,
                 const std::vector<std::uint64_t>& sum_v, Ledger& led) {
  led.attempt();
  if (!table_matches(server, sum_v)) {
    led.fail("ps_gc: final table differs from the closed form");
  }
}

struct Expected {
  std::mutex mu;
  std::vector<std::uint64_t> sum_v = std::vector<std::uint64_t>(kKeys, 0);
  bool published = false;
};

struct Samples {
  std::vector<double> pull_us;
  std::vector<double> pause_ms;
  double pushes = 0;
  double busy_us = 0;
  Samples() {  // reserved so peak RSS does not follow the sample count
    pull_us.reserve(1 << 19);
    pause_ms.reserve(1 << 14);
  }
};

struct Worker {
  mp::MotorContext& ctx;
  ps::PsClient& cl;
  vm::ManagedHeap& heap;
  const vm::MethodTable* node_mt;
  vm::RootRange heads;
  vm::GcRoot churn_head;
  Prng rng;
  PauseRecorder pauses;
  std::vector<std::uint64_t> sum_v = std::vector<std::uint64_t>(kKeys, 0);
  std::int64_t serial = 0;

  Worker(mp::MotorContext& c, ps::PsClient& client, std::uint64_t seed)
      : ctx(c), cl(client), heap(c.vm().heap()),
        node_mt(c.vm()
                    .types()
                    .define_class("ChurnNode")
                    .field("value", vm::ElementKind::kInt64)
                    .ref_field("next", c.vm().types().object_type(), true)
                    .build()),
        heads(c.thread()), churn_head(c.thread(), nullptr), rng(seed),
        pauses(heap) {}

  vm::Obj make_node(vm::Obj next) {
    vm::GcRoot next_root(ctx.thread(), next);
    vm::Obj n = heap.alloc_object(node_mt);
    vm::set_field(n, 0, ++serial);
    heap.store_ref_field(n, 8, next_root.get());
    return n;
  }

  /// The live set: kHeads chains grown round-robin until the elder
  /// generation holds kLiveBytes (collections during the build promote
  /// every rooted node).
  void build_live_set() {
    for (std::size_t i = 0; i < kHeads; ++i) heads.add(nullptr);
    for (std::size_t k = 0; heap.elder_bytes() < kLiveBytes; k = (k + 1) % kHeads) {
      heads[k] = make_node(heads.at(k));
    }
    heap.collect();  // start measuring with an empty nursery
  }

  void churn() {
    for (int j = 0; j < kChurnPerPush; ++j) {
      vm::Obj c = make_node(churn_head.get());
      churn_head.set(serial % 16 == 0 ? nullptr : c);  // dies young
    }
  }
};

/// Worker: windows of 64 pushes + flush + 1 pull until `seconds` elapse or
/// `max_windows` complete. Key, delta and pull key are drawn before each
/// window; the oracle runs after it.
void drive(Worker& w, double seconds, int max_windows, Tracer* tr,
           Samples* out, Ledger& led, std::uint32_t& op) {
  const std::uint64_t deadline =
      pal::monotonic_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::array<std::uint64_t, kPushesPerPull> keys{};
  std::array<std::uint64_t, kPushesPerPull> vs{};
  std::array<std::array<float, kLanes>, kPushesPerPull> deltas{};
  std::array<float, kLanes> pulled{};
  w.pauses.ms.clear();
  for (int done = 0; done < max_windows && pal::monotonic_ns() < deadline;
       ++done, ++op) {
    for (int i = 0; i < kPushesPerPull; ++i) {
      const auto k = static_cast<std::size_t>(i);
      keys[k] = w.rng.next_below(kKeys);
      vs[k] = 1 + w.rng.next_below(4);
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        deltas[k][lane] = lane_value(vs[k], lane);
      }
    }
    const std::uint64_t pull_key = w.rng.next_below(kKeys);
    led.attempt(kPushesPerPull + 1);
    w.pauses.sync();
    Status pull_st;
    std::uint64_t pull_ns = 0;
    const std::uint64_t t0 = pal::monotonic_ns();
    {
      Scope root(tr, "ps_gc.window", op);
      for (int i = 0; i < kPushesPerPull; ++i) {
        const auto k = static_cast<std::size_t>(i);
        {
          Scope sc(tr, "ps.PsClient::Push", op);
          led.ok(w.cl.Push(keys[k], deltas[k]), "PsClient::Push");
        }
        w.churn();
      }
      {
        Scope sc(tr, "ps.PsClient::Flush", op);
        led.ok(w.cl.Flush(), "PsClient::Flush");
      }
      const std::uint64_t p0 = pal::monotonic_ns();
      {
        Scope sc(tr, "ps.PsClient::Pull", op);
        pull_st = w.cl.Pull(pull_key, std::span<float>(pulled));
      }
      pull_ns = pal::monotonic_ns() - p0;
    }
    const std::uint64_t t1 = pal::monotonic_ns();
    w.pauses.record();
    // Untimed oracle: the pull reads every push issued before it.
    for (int i = 0; i < kPushesPerPull; ++i) {
      w.sum_v[keys[static_cast<std::size_t>(i)]] += vs[static_cast<std::size_t>(i)];
    }
    if (led.ok(pull_st, "PsClient::Pull")) {
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        if (pulled[lane] != lane_value(w.sum_v[pull_key], lane)) {
          led.fail("ps_gc: pulled value differs from the pushed sum");
          break;
        }
      }
    }
    if (out != nullptr) {
      out->pull_us.push_back(static_cast<double>(pull_ns) / 1e3);
      out->pushes += kPushesPerPull;
      out->busy_us += static_cast<double>(t1 - t0) / 1e3;
    }
  }
  if (out != nullptr) {
    out->pause_ms.insert(out->pause_ms.end(), w.pauses.ms.begin(),
                         w.pauses.ms.end());
  }
}

struct Session {
  Samples untraced, traced;
  Tracer tracer{1};
  vm::GcStats gc_before, gc_after;
  std::size_t elder_bytes = 0;
  ps::PsClientStats cl_before, cl_after, cl_final;
  ps::CommThreadStats comm_final;
  ps::PsServerStats server;
  std::vector<std::uint64_t> batch_rtt_ns;
  bool negative_caught = false;
};

double session(const Options& opt, bool measure, Session& out, Ledger& led) {
  const mp::MotorWorldConfig wc = base_world();
  const double e2e_s = opt.trace ? opt.seconds * 0.5 : opt.seconds;
  const std::uint64_t t0 = pal::monotonic_ns();
  double setup_s = 0.0;
  Expected expected;
  mp::run_motor_world(wc, [&](mp::MotorContext& ctx) {
    assert_unmodelled(ctx, wc);
    ps::PsConfig pc;
    pc.servers = 1;
    pc.collect_latency = measure && opt.trace;
    ps::PsNode node(ctx, pc);
    if (node.is_server()) {
      led.ok(node.server().Serve(), "PsServer::Serve");
      std::lock_guard<std::mutex> lk(expected.mu);
      if (!expected.published) {
        led.fail("ps_gc: worker never published its expected table");
        return;
      }
      check_table(node.server(), expected.sum_v, led);
      if (measure) {
        out.server = node.server().stats();
        // Negative check: the same oracle must record one failure for an
        // expectation that is off by one delta on one key.
        std::vector<std::uint64_t> wrong = expected.sum_v;
        wrong[0] += 1;
        Ledger probe;
        check_table(node.server(), wrong, probe);
        out.negative_caught = probe.failed() == 1;
      }
      return;
    }

    ps::PsClient& cl = node.client();
    Worker w(ctx, cl, opt.seed);
    std::uint32_t op = 0;
    // Set-up: the live graph, every key's first push and the warm-up.
    w.build_live_set();
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      led.attempt();
      led.ok(cl.Push(k, std::array<float, kLanes>{}), "PsClient::Push");
    }
    drive(w, 1e9, kWarmupWindows, nullptr, nullptr, led, op);
    led.ok(cl.Flush(), "PsClient::Flush");
    setup_s = seconds_since(t0);

    if (measure) {
      drive(w, e2e_s, INT32_MAX, nullptr, &out.untraced, led, op);
      if (opt.trace) {
        (void)cl.take_latency_samples();
        out.cl_before = cl.stats();
        out.gc_before = w.heap.stats();
        drive(w, e2e_s, INT32_MAX, &out.tracer, &out.traced, led, op);
        out.gc_after = w.heap.stats();
        out.cl_after = cl.stats();
        out.elder_bytes = w.heap.elder_bytes();
        out.batch_rtt_ns = cl.take_latency_samples();
      }
    }
    led.ok(cl.Flush(), "PsClient::Flush");
    {
      std::lock_guard<std::mutex> lk(expected.mu);
      expected.sum_v = w.sum_v;
      expected.published = true;
    }
    led.ok(cl.Close(), "PsClient::Close");
    if (measure) {
      out.cl_final = cl.stats();
      out.comm_final = cl.comm_stats();
    }
  });
  return setup_s;
}

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void run_ps_gc(const Options& opt, Report& report) {
  Session s;
  timed_setups(opt, report, [&](bool measure) {
    return session(opt, measure, s, report.ledger);
  });
  report.negative_check_caught = s.negative_caught;
  auto e2e = [&](const Samples& x, std::vector<Metric>* into) {
    const std::string pulls = count_note(x.pull_us.size()) + " pulls";
    const std::string pauses = count_note(x.pause_ms.size()) + " pauses";
    // Every workload's result line carries the same metrics: here the
    // pull is the round trip and the pushed deltas are the payload.
    // ps_gc is not a workload of BENCHMARK.json because these move by
    // more than their bounds between sets of runs of the same code: a
    // pull either finds the comm threads awake (~30 us) or waits out a
    // 200 us park, and about 70 % of a window is GC pauses whose length
    // follows the host's memory traffic (see README).
    const double delta_bytes = static_cast<double>(kLanes * sizeof(float));
    std::vector<Metric> m = {
        {"rtt_p50_us", "us", quantile(x.pull_us, 0.5),
         pulls + " (PsClient::Pull)"},
        {"rtt_p90_us", "us", quantile(x.pull_us, 0.9),
         pulls + " (PsClient::Pull)"},
        {"goodput_MBps", "MB/s", x.pushes * delta_bytes / x.busy_us,
         "pushed delta bytes / summed window time (window: 64 pushes, "
         "flush, pull)"},
        {"push_per_s", "1/s", x.pushes / (x.busy_us / 1e6),
         "pushes / summed window time; unlisted, see README", false},
        {"pull_p99_us", "us", quantile(x.pull_us, 0.99),
         pulls + "; unlisted, see README", false},
        {"gc_pause_p50_ms", "ms", quantile(x.pause_ms, 0.5),
         pauses + "; unlisted, see README", false},
        {"gc_pause_p90_ms", "ms", quantile(x.pause_ms, 0.9),
         pauses + "; unlisted, see README", false},
    };
    into->insert(into->end(), m.begin(), m.end());
  };
  if (!opt.trace) {
    e2e(s.untraced, &report.metrics);
    return;
  }

  const vm::GcStats& a = s.gc_after;
  const vm::GcStats& b = s.gc_before;
  const double gcs = static_cast<double>(a.collections - b.collections);
  const double sweeps = static_cast<double>(a.elder_sweeps - b.elder_sweeps);
  auto phase_ms = [&](std::uint64_t after, std::uint64_t before) {
    return per(static_cast<double>(after - before) / 1e6, gcs);
  };
  const std::string per_gc = "per collection, traced pass";
  report.add("vm.gc_collections", "count", gcs, "worker heap, traced pass");
  report.add("vm.gc_full_frac", "fraction", per(sweeps, gcs),
             "elder_sweeps / collections = " + ratio_note(sweeps, gcs));
  report.add("vm.gc_pin_resolve_ms", "ms", phase_ms(a.pin_resolve_ns, b.pin_resolve_ns), per_gc);
  report.add("vm.gc_roots_ms", "ms", phase_ms(a.root_scan_ns, b.root_scan_ns), per_gc);
  report.add("vm.gc_mark_ms", "ms", phase_ms(a.mark_ns, b.mark_ns), per_gc);
  report.add("vm.gc_relocate_ms", "ms", phase_ms(a.relocate_ns, b.relocate_ns), per_gc);
  report.add("vm.gc_sweep_ms", "ms", phase_ms(a.sweep_ns, b.sweep_ns), per_gc);
  const double mark_ms = phase_ms(a.mark_ns, b.mark_ns);
  report.add("vm.gc_mark_MBps", "MB/s",
             per(static_cast<double>(s.elder_bytes) / 1e6, mark_ms / 1e3),
             "computed: elder_bytes / mark time per collection");

  report.add("ps.push_call_us_p50", "us",
             median(s.tracer.durations_us("ps.PsClient::Push")),
             "median PsClient::Push span");
  const ps::PsClientStats& ca = s.cl_after;
  const ps::PsClientStats& cb = s.cl_before;
  const double records = static_cast<double>(ca.records_flushed - cb.records_flushed);
  const double batches = static_cast<double>(ca.batches_flushed - cb.batches_flushed);
  const double waits = static_cast<double>(ca.credit_waits - cb.credit_waits);
  report.add("ps.records_per_batch", "count", per(records, batches),
             "records_flushed / batches_flushed = " + ratio_note(records, batches));
  report.add("ps.credit_wait_frac", "fraction", per(waits, batches),
             "credit_waits / batches_flushed = " + ratio_note(waits, batches));
  const double applied = static_cast<double>(s.server.batches_applied);
  const double cycles = static_cast<double>(s.server.apply_cycles);
  report.add("ps.batches_per_apply", "count", per(applied, cycles),
             "server batches_applied / apply_cycles, whole session = " +
                 ratio_note(applied, cycles));
  std::vector<double> rtt_us;
  for (const std::uint64_t ns : s.batch_rtt_ns) rtt_us.push_back(static_cast<double>(ns) / 1e3);
  report.add("ps.batch_rtt_p50_us", "us", median(rtt_us),
             "flush -> credit return, " + count_note(rtt_us.size()));
  const double parks = static_cast<double>(s.comm_final.parks);
  const double all_batches = static_cast<double>(s.cl_final.batches_flushed);
  report.add("ps.comm_parks_per_batch", "count", per(parks, all_batches),
             "client comm-thread parks / batches, whole session = " +
                 ratio_note(parks, all_batches));

  std::vector<Metric> traced, untraced;
  e2e(s.traced, &traced);
  e2e(s.untraced, &untraced);
  for (std::size_t i = 0; i < traced.size(); ++i) {
    if (!traced[i].listed) continue;
    report.add("trace_overhead." + traced[i].name, traced[i].unit,
               traced[i].value - untraced[i].value, "traced - untraced pass");
  }
  const std::string path = write_trace(opt, {&s.tracer});
  std::printf("# ps_gc trace: %s (%zu spans)\n",
              path.empty() ? "not written" : path.c_str(), s.tracer.spans().size());
}

}  // namespace perfbench
