// Shared pieces of the benchmark: options, the result record, the
// correctness ledger, order statistics, the span tracer and the per-pause
// GC recorder. Every workload (pingpong.cpp, reliable_stream.cpp,
// objects.cpp, ps_gc.cpp) builds on these.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/buffer.hpp"
#include "mpi/comm.hpp"
#include "pal/clock.hpp"
#include "motor/motor_runtime.hpp"
#include "vm/heap.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

/// One reported number. `note` carries the sample count, the numerator
/// and denominator of a ratio, or the word "computed" for a quantity
/// derived from other measurements rather than observed directly. An
/// unlisted metric is printed in the table but left out of the result
/// line, because BENCHMARK.json gives it no bound (see README.md).
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;
  bool listed = true;
};

/// Operations attempted and failed, shared by all rank threads of a run.
/// A failure is a non-success Status or an oracle mismatch.
class Ledger {
 public:
  void attempt(std::uint64_t n = 1) {
    attempted_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Record one failed operation; the first few reasons are kept.
  void fail(const std::string& why);
  /// Check `st`; a non-success status counts as a failure.
  bool ok(const motor::Status& st, const char* what);
  [[nodiscard]] std::uint64_t attempted() const {
    return attempted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t failed() const {
    return failed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::vector<std::string> reasons() const;

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> reasons_;
};

/// What one workload run produced: end-to-end metrics (untraced run) or
/// per-layer metrics (traced run), plus the correctness ledger.
struct Report {
  std::vector<Metric> metrics;
  Ledger ledger;
  bool negative_check_caught = false;

  void add(std::string name, std::string unit, double value,
           std::string note = {}, bool listed = true) {
    metrics.push_back({std::move(name), std::move(unit), value,
                       std::move(note), listed});
  }
};

// ---- order statistics ----------------------------------------------------

/// Quantile q in [0,1] by linear interpolation between closest ranks (the
/// "type 7" definition). Returns 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
std::string count_note(std::size_t n);
std::string ratio_note(double num, double den);

// ---- environment ---------------------------------------------------------

double peak_rss_mib();
/// Seconds elapsed on the monotonic clock since `t0_ns`.
double seconds_since(std::uint64_t t0_ns);

/// World configuration every workload starts from: two ranks, nothing
/// modelled (uncosted runtime profile, zero wire latency), and the
/// stop-the-world collector chosen explicitly.
motor::mp::MotorWorldConfig base_world();
/// Refuse to measure if any modelled cost is active or the collector is
/// not the explicitly chosen one. Reads the live state of the rank: its
/// runtime profile, its link to the peer (no latency or bandwidth
/// decorator) and its heap's collector mode. Called on each rank after
/// set-up.
void assert_unmodelled(motor::mp::MotorContext& ctx,
                       const motor::mp::MotorWorldConfig& wc);

/// Pin the calling rank thread to the rank-th CPU the process may use
/// (wrapping when there are fewer CPUs than ranks), so the two
/// busy-polling ranks of a round trip never migrate between CPUs and
/// never share one.
void pin_rank_thread(int rank);

/// Run `session(measure)` kSetupRuns times: the first call measures, the
/// others only set up and tear down. Each call returns its set-up
/// seconds; the median goes into the report as setup_s. Peak RSS is read
/// right after the measured session, before the set-up-only sessions
/// reuse freed memory in an order that varies from run to run. A traced
/// run sets up once and reports neither.
inline constexpr int kSetupRuns = 9;
template <class Session>
void timed_setups(const Options& opt, Report& report, Session&& session) {
  std::vector<double> setups = {session(true)};
  if (opt.trace) return;
  const double rss = peak_rss_mib();
  for (int i = 1; i < kSetupRuns; ++i) setups.push_back(session(false));
  report.add("setup_s", "s", median(setups),
             count_note(setups.size()) + " set-ups, median");
  report.add("peak_rss_MiB", "MiB", rss, "after the measured session");
}

// ---- payload patterns ----------------------------------------------------

/// Fill `out` with the seeded byte pattern for stream `stream`.
void fill_pattern(std::byte* out, std::size_t n, std::uint64_t seed,
                  std::uint64_t stream);
/// Write `stamp` into the first and last 8 bytes (n >= 16).
void write_stamp(std::byte* buf, std::size_t n, std::uint64_t stamp);
std::uint64_t read_stamp(const std::byte* buf);
/// The oracle's byte comparison. Returns true when equal.
bool same_bytes(const std::byte* got, const std::byte* want, std::size_t n);

// ---- tracing -------------------------------------------------------------

/// In-memory span recorder for one thread. A span holds its name, start,
/// end, parent span and operation id. Spans are kept until the run ends,
/// then summarised and written out as a Chrome trace file.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int32_t parent;
    std::uint32_t op;
  };

  explicit Tracer(int tid) : tid_(tid) { spans_.reserve(1 << 18); }

  std::int32_t begin(const char* name, std::uint32_t op);
  void end(std::int32_t id);

  /// Durations (us) of every span called `name`.
  [[nodiscard]] std::vector<double> durations_us(const char* name) const;
  /// Self times (us) of every span called `name`: its duration minus the
  /// time its direct children cover.
  [[nodiscard]] std::vector<double> self_us(const char* name) const;
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] int tid() const { return tid_; }

 private:
  int tid_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a null tracer records nothing (the untraced path).
class Scope {
 public:
  Scope(Tracer* t, const char* name, std::uint32_t op)
      : t_(t), id_(t != nullptr ? t->begin(name, op) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  std::int32_t id_;
};

/// Write the spans of `tracers` to `<out_dir>/trace_<workload>.json`
/// (Chrome trace-event format, capped at kMaxWrittenSpans per thread).
/// Returns the path, or an empty string when it could not be written.
inline constexpr std::size_t kMaxWrittenSpans = 100'000;
std::string write_trace(const Options& opt,
                        const std::vector<const Tracer*>& tracers);

// ---- round-trip rungs ----------------------------------------------------

/// Rank-0-led loop of alternating small and large round trips that runs
/// until `seconds` elapse. Rank 0 calls lead(large, last), which returns
/// false when the round trip failed; `last` is set on the final (large)
/// round trip and must travel in the message's stamp. Rank 1 calls
/// follow(large), which returns true on the stop bit or a failure. Either
/// side stops at its first failure instead of waiting on a dead peer.
template <class Lead, class Follow>
void alternate_round_trips(int me, double seconds, Lead&& lead,
                           Follow&& follow) {
  const std::uint64_t deadline =
      motor::pal::monotonic_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  for (int k = 0;; ++k) {
    const bool large = (k % 2) == 1;
    if (me == 0) {
      const bool last = large && motor::pal::monotonic_ns() >= deadline;
      if (!lead(large, last) || last) return;
    } else if (follow(large)) {
      return;
    }
  }
}

inline constexpr std::size_t kSmallBytes = 64;
inline constexpr std::size_t kLargeBytes = 256 * 1024;

/// Seeded native payloads for the mpi-level rungs.
struct NativeBufs {
  std::vector<std::byte> small_out, small_in, large_out, large_in;
  explicit NativeBufs(std::uint64_t seed);
  std::byte* out(bool large) {
    return large ? large_out.data() : small_out.data();
  }
  std::byte* in(bool large) { return large ? large_in.data() : small_in.data(); }
};

/// The mpi rung: native mpi::send/recv round trips of 64 B and 256 KiB
/// between ranks 0 and 1 of `comm`; rank 0 records one span per round
/// trip (`small_span` / `large_span`) and checks every echo.
void mpi_rung(motor::mpi::Comm& comm, NativeBufs& nb, double seconds,
              Tracer* tr, const char* small_span, const char* large_span,
              Ledger& led, std::uint32_t& op);

// ---- GC pauses -----------------------------------------------------------

/// Exact per-pause durations of one heap, observed at operation
/// boundaries: GcStats::total_pause_ns and collections are read before
/// and after each timed call, and each collection in between is one
/// stop-the-world pause. (The log2 PauseHistogram only resolves a pause
/// to its power-of-two bucket.) When one call holds several pauses, each
/// gets their mean. Must be used on the heap's managed thread.
class PauseRecorder {
 public:
  explicit PauseRecorder(const motor::vm::ManagedHeap& heap) : heap_(heap) {
    ms.reserve(1 << 16);
    sync();
  }
  /// Forget collections since the last call (untimed work happened).
  void sync() {
    last_n_ = heap_.stats().collections;
    last_ns_ = heap_.stats().total_pause_ns;
  }
  /// Attribute collections since the last call to the timed interval.
  void record();
  std::vector<double> ms;

 private:
  const motor::vm::ManagedHeap& heap_;
  std::uint64_t last_n_ = 0;
  std::uint64_t last_ns_ = 0;
};

// ---- workloads -----------------------------------------------------------

void run_pingpong(const Options& opt, Report& report);
void run_reliable_stream(const Options& opt, Report& report);
void run_objects(const Options& opt, Report& report);
void run_ps_gc(const Options& opt, Report& report);

}  // namespace perfbench
