#include "harness.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/prng.hpp"
#include "mpi/pt2pt.hpp"
#include "pal/clock.hpp"
#include "transport/bandwidth_channel.hpp"
#include "transport/latency_channel.hpp"

namespace perfbench {

void Ledger::fail(const std::string& why) {
  failed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  if (reasons_.size() < 8) reasons_.push_back(why);
}

bool Ledger::ok(const motor::Status& st, const char* what) {
  if (st.is_ok()) return true;
  fail(std::string(what) + ": " + st.to_string());
  return false;
}

std::vector<std::string> Ledger::reasons() const {
  std::lock_guard<std::mutex> lk(mu_);
  return reasons_;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::string count_note(std::size_t n) { return "n=" + std::to_string(n); }

std::string ratio_note(double num, double den) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.0f / %.0f", num, den);
  return buf;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(motor::pal::monotonic_ns() - t0_ns) / 1e9;
}

motor::mp::MotorWorldConfig base_world() {
  motor::mp::MotorWorldConfig wc;
  wc.ranks = 2;
  wc.world.wire_latency_ns = 0;
  wc.world.wire_bandwidth_bps = 0;
  wc.vm.profile = motor::vm::RuntimeProfile::uncosted();
  wc.vm.heap.incremental = false;
  return wc;
}

void assert_unmodelled(motor::mp::MotorContext& ctx,
                       const motor::mp::MotorWorldConfig& wc) {
  const motor::vm::RuntimeProfile& p = ctx.vm().profile();
  MOTOR_CHECK(p.pinvoke_transition_ns == 0 && p.jni_transition_ns == 0 &&
                  p.fcall_transition_ns == 0 && p.pin_extra_ns == 0 &&
                  p.serializer_cost_factor == 1.0,
              "benchmark requires the uncosted runtime profile");
  // A modelled wire wraps the link in a latency or bandwidth decorator.
  const motor::transport::Channel& link =
      ctx.rank_ctx().world().fabric().link(ctx.rank(), 1 - ctx.rank());
  MOTOR_CHECK(dynamic_cast<const motor::transport::LatencyChannel*>(&link) == nullptr &&
                  dynamic_cast<const motor::transport::BandwidthChannel*>(&link) == nullptr,
              "benchmark requires an unmodelled wire");
  MOTOR_CHECK(ctx.vm().heap().incremental_enabled() == wc.vm.heap.incremental,
              "collector mode differs from the configured one");
}

void pin_rank_thread(int rank) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  MOTOR_CHECK(sched_getaffinity(0, sizeof allowed, &allowed) == 0,
              "sched_getaffinity failed");
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<std::size_t>(rank) % cpus.size()], &one);
  MOTOR_CHECK(pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0,
              "pthread_setaffinity_np failed");
}

void fill_pattern(std::byte* out, std::size_t n, std::uint64_t seed,
                  std::uint64_t stream) {
  motor::Prng rng(seed * 0x9E3779B97F4A7C15ull + stream);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t w = rng.next_u64();
    std::memcpy(out + i, &w, 8);
  }
  const std::uint64_t w = rng.next_u64();
  std::memcpy(out + i, &w, n - i);
}

void write_stamp(std::byte* buf, std::size_t n, std::uint64_t stamp) {
  std::memcpy(buf, &stamp, 8);
  std::memcpy(buf + n - 8, &stamp, 8);
}

std::uint64_t read_stamp(const std::byte* buf) {
  std::uint64_t s = 0;
  std::memcpy(&s, buf, 8);
  return s;
}

bool same_bytes(const std::byte* got, const std::byte* want, std::size_t n) {
  return std::memcmp(got, want, n) == 0;
}

std::int32_t Tracer::begin(const char* name, std::uint32_t op) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, motor::pal::monotonic_ns(), 0, parent, op});
  open_.push_back(id);
  return id;
}

void Tracer::end(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = motor::pal::monotonic_ns();
  open_.pop_back();
}

std::vector<double> Tracer::durations_us(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

std::vector<double> Tracer::self_us(const char* name) const {
  // Children follow their parent in begin order, so one pass
  // accumulates each span's child coverage.
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) /
                    1e3);
    }
  }
  return out;
}

std::string write_trace(const Options& opt,
                        const std::vector<const Tracer*>& tracers) {
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::string path = opt.out_dir + "/trace_" + opt.workload + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return {};
  std::uint64_t t0 = UINT64_MAX;
  for (const Tracer* t : tracers) {
    if (!t->spans().empty()) t0 = std::min(t0, t->spans().front().start_ns);
  }
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  for (const Tracer* t : tracers) {
    const std::size_t n = std::min(t->spans().size(), kMaxWrittenSpans);
    for (std::size_t i = 0; i < n; ++i) {
      const Tracer::Span& s = t->spans()[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"op\": %u, \"parent\": %d}}",
                   first ? "" : ",\n", s.name, t->tid(),
                   static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.op,
                   s.parent);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  return path;
}

NativeBufs::NativeBufs(std::uint64_t seed)
    : small_out(kSmallBytes), small_in(kSmallBytes), large_out(kLargeBytes),
      large_in(kLargeBytes) {
  fill_pattern(small_out.data(), small_out.size(), seed, 100);
  fill_pattern(large_out.data(), large_out.size(), seed, 101);
}

void mpi_rung(motor::mpi::Comm& comm, NativeBufs& nb, double seconds,
              Tracer* tr, const char* small_span, const char* large_span,
              Ledger& led, std::uint32_t& op) {
  constexpr int kTag = 31;
  const int me = comm.rank();
  const int peer = 1 - me;
  alternate_round_trips(
      me, seconds,
      [&](bool large, bool last) {
        const std::size_t n = large ? kLargeBytes : kSmallBytes;
        write_stamp(nb.out(large), n,
                    (static_cast<std::uint64_t>(op) << 1) | (last ? 1 : 0));
        led.attempt();
        motor::ErrorCode e;
        {
          Scope sc(tr, large ? large_span : small_span, op);
          e = motor::mpi::send(comm, nb.out(large), n, peer, kTag);
          if (e == motor::ErrorCode::kSuccess) {
            e = motor::mpi::recv(comm, nb.in(large), n, peer, kTag);
          }
        }
        const bool ok = led.ok(motor::Status(e), "mpi round trip");
        if (ok && !same_bytes(nb.in(large), nb.out(large), n)) {
          led.fail("mpi rung: echoed payload differs");
        }
        ++op;
        return ok;
      },
      [&](bool large) {
        const std::size_t n = large ? kLargeBytes : kSmallBytes;
        motor::ErrorCode e = motor::mpi::recv(comm, nb.in(large), n, peer, kTag);
        if (e == motor::ErrorCode::kSuccess) {
          e = motor::mpi::send(comm, nb.in(large), n, peer, kTag);
        }
        return !led.ok(motor::Status(e), "mpi echo") ||
               (read_stamp(nb.in(large)) & 1) != 0;
      });
}

void PauseRecorder::record() {
  const motor::vm::GcStats& s = heap_.stats();
  const std::uint64_t n = s.collections - last_n_;
  if (n > 0) {
    const double each = static_cast<double>(s.total_pause_ns - last_ns_) /
                        static_cast<double>(n) / 1e6;
    for (std::uint64_t i = 0; i < n; ++i) ms.push_back(each);
  }
  last_n_ = s.collections;
  last_ns_ = s.total_pause_ns;
}

}  // namespace perfbench
