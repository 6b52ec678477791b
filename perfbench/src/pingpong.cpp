// pingpong: two ranks, one message in flight. Rank 0 sends a managed
// uint8[] with MPDirect::send and waits for the echo with MPDirect::recv;
// sizes cycle through 64 B / 4 KiB / 64 KiB / 256 KiB in a seeded order.
// Nothing is allocated in the loop, so the GC, serializer, CRC and ps
// stay idle: only System.MP entry, the FCall, the pin decision, the
// eager/rendezvous match and the ring channel do work.
//
// The traced run adds the ladder: the same 64 B and 256 KiB round trip
// timed at three rungs — Channel::try_write_v/try_read on a Fabric link,
// mpi::send/recv, and MPDirect::send/recv. A layer's self time is the
// difference between its rung and the rung below.
#include <array>
#include <cstring>

#include "common/prng.hpp"
#include "harness.hpp"
#include "motor/mp_direct.hpp"
#include "mpi/collectives.hpp"
#include "mpi/device.hpp"
#include "pal/clock.hpp"
#include "transport/fabric.hpp"
#include "vm/handles.hpp"

namespace perfbench {
namespace {

using namespace motor;

constexpr std::array<std::size_t, 4> kSizes = {kSmallBytes, 4096, 65536,
                                               kLargeBytes};
constexpr int kSmall = 0;
constexpr int kLarge = 3;
constexpr int kTag = 11;
constexpr int kWarmupCycles = 500;

/// Per-rank state: rank 0 owns send + return buffers per size, rank 1 one
/// echo buffer per size, all managed uint8[] kept in a root range.
struct PingRank {
  mp::MotorContext& ctx;
  mp::MPDirect& d;
  vm::RootRange bufs;
  int me;

  explicit PingRank(mp::MotorContext& c)
      : ctx(c), d(c.mp().direct()), bufs(c.thread()), me(c.rank()) {
    const vm::MethodTable* u8 =
        c.vm().types().primitive_array(vm::ElementKind::kUInt8);
    const int per_size = me == 0 ? 2 : 1;
    for (std::size_t s = 0; s < kSizes.size(); ++s) {
      for (int k = 0; k < per_size; ++k) {
        bufs.add(c.vm().heap().alloc_array(
            u8, static_cast<std::int64_t>(kSizes[s])));
      }
    }
  }
  vm::Obj buf(int size_idx, int which = 0) {
    const int per_size = me == 0 ? 2 : 1;
    return bufs[static_cast<std::size_t>(size_idx * per_size + which)];
  }
};

/// Seeded permutation of the four sizes for the next cycle. Both ranks
/// draw from identically seeded generators, so they agree on the order.
std::array<int, 4> next_cycle(Prng& order) {
  std::array<int, 4> perm = {0, 1, 2, 3};
  for (int i = 3; i > 0; --i) {
    const auto j = static_cast<int>(order.next_below(static_cast<std::uint64_t>(i) + 1));
    std::swap(perm[static_cast<std::size_t>(i)], perm[static_cast<std::size_t>(j)]);
  }
  return perm;
}

struct Samples {
  std::array<std::vector<double>, 4> rtt_us;
  // Reserved up front: growing by doubling would make peak RSS depend on
  // how many samples a run happened to take.
  Samples() {
    for (auto& v : rtt_us) v.reserve(1 << 20);
  }
};

/// The echo oracle: the returned buffer must equal the one sent, per-op
/// stamp included.
void check_echo(vm::Obj rcv, vm::Obj snd, std::size_t n, Ledger& led) {
  if (!same_bytes(vm::array_data(rcv), vm::array_data(snd), n)) {
    led.fail("pingpong: echoed payload differs from the sent pattern");
  }
}

/// Negative check on the last 256 KiB echo rank 0 received: the oracle
/// must pass it as it is, then record one failure for a flipped body byte
/// and one for an altered stamp. The buffer is restored afterwards.
bool corrupted_echo_caught(PingRank& r) {
  const std::size_t n = kSizes[kLarge];
  vm::Obj snd = r.buf(kLarge, 0);
  vm::Obj rcv = r.buf(kLarge, 1);
  std::byte* p = vm::array_data(rcv);
  Ledger probe;
  check_echo(rcv, snd, n, probe);
  const bool clean = probe.failed() == 0;
  for (const std::size_t at : {n / 2, std::size_t{0}}) {
    p[at] ^= std::byte{0x5A};
    check_echo(rcv, snd, n, probe);
    p[at] ^= std::byte{0x5A};
  }
  return clean && probe.failed() == 2;
}

/// Rank 0's end-to-end loop: whole cycles until `seconds` elapse or
/// `max_cycles` complete. The last message of the last cycle carries the
/// stop bit in its stamp, which is how rank 1 learns the loop ended.
void drive(PingRank& r, Prng& order, double seconds, int max_cycles,
           Tracer* tr, Samples* out, Ledger& led, std::uint32_t& op) {
  const std::uint64_t deadline =
      pal::monotonic_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  bool last = false;
  for (int cycle = 0; !last; ++cycle) {
    const std::array<int, 4> perm = next_cycle(order);
    for (int k = 0; k < 4; ++k) {
      const int s = perm[static_cast<std::size_t>(k)];
      const std::size_t n = kSizes[static_cast<std::size_t>(s)];
      last = k == 3 && (cycle + 1 >= max_cycles ||
                        pal::monotonic_ns() >= deadline);
      vm::Obj snd = r.buf(s, 0);
      vm::Obj rcv = r.buf(s, 1);
      write_stamp(vm::array_data(snd), n,
                  (static_cast<std::uint64_t>(op) << 1) | (last ? 1 : 0));
      led.attempt();
      Status a, b;
      const std::uint64_t t0 = pal::monotonic_ns();
      {
        Scope root(tr, "pingpong.round_trip", op);
        {
          Scope sc(tr, "motor.MPDirect::send", op);
          a = r.d.send(snd, 1, kTag);
        }
        {
          Scope sc(tr, "motor.MPDirect::recv", op);
          b = r.d.recv(rcv, 1, kTag);
        }
      }
      const std::uint64_t t1 = pal::monotonic_ns();
      if (out != nullptr) {
        out->rtt_us[static_cast<std::size_t>(s)].push_back(
            static_cast<double>(t1 - t0) / 1e3);
      }
      if (led.ok(a, "MPDirect::send") && led.ok(b, "MPDirect::recv")) {
        check_echo(rcv, snd, n, led);
      }
      ++op;
    }
  }
}

/// Rank 1's mirror of drive(): echo every message until the stop bit.
void echo(PingRank& r, Prng& order, Ledger& led) {
  for (;;) {
    const std::array<int, 4> perm = next_cycle(order);
    for (int k = 0; k < 4; ++k) {
      vm::Obj e = r.buf(perm[static_cast<std::size_t>(k)]);
      led.ok(r.d.recv(e, 0, kTag), "MPDirect::recv");
      led.ok(r.d.send(e, 0, kTag), "MPDirect::send");
      if (k == 3 && (read_stamp(vm::array_data(e)) & 1) != 0) return;
    }
  }
}

// ---- the ladder ------------------------------------------------------------

enum class Rung { kTransport, kMpi, kMotor };

const char* rung_span(Rung rung, bool large) {
  switch (rung) {
    case Rung::kTransport:
      return large ? "transport.round_trip_large" : "transport.round_trip_small";
    case Rung::kMpi:
      return large ? "mpi.round_trip_large" : "mpi.round_trip_small";
    default:
      return large ? "motor.round_trip_large" : "motor.round_trip_small";
  }
}

void write_all(transport::Channel& ch, const std::byte* p, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ByteSpan part{p + off, n - off};
    off += ch.try_write_v(std::span<const ByteSpan>(&part, 1));
  }
}

void read_all(transport::Channel& ch, std::byte* p, std::size_t n) {
  std::size_t off = 0;
  while (off < n) off += ch.try_read({p + off, n - off});
}

/// The transport rung: the raw bytes of a round trip pushed through a
/// benchmark-owned Fabric link pair with no device above it.
void transport_rung(int me, transport::Channel& out, transport::Channel& in,
                    NativeBufs& nb, double seconds, Tracer* tr, Ledger& led,
                    std::uint32_t& op) {
  alternate_round_trips(
      me, seconds,
      [&](bool large, bool last) {
        const std::size_t n = large ? kLargeBytes : kSmallBytes;
        write_stamp(nb.out(large), n,
                    (static_cast<std::uint64_t>(op) << 1) | (last ? 1 : 0));
        led.attempt();
        {
          Scope sc(tr, rung_span(Rung::kTransport, large), op);
          write_all(out, nb.out(large), n);
          read_all(in, nb.in(large), n);
        }
        if (!same_bytes(nb.in(large), nb.out(large), n)) {
          led.fail("transport rung: echoed bytes differ");
        }
        ++op;
        return true;
      },
      [&](bool large) {
        const std::size_t n = large ? kLargeBytes : kSmallBytes;
        read_all(in, nb.in(large), n);
        write_all(out, nb.in(large), n);
        return (read_stamp(nb.in(large)) & 1) != 0;
      });
}

/// The motor rung: MPDirect::send/recv of the 64 B and 256 KiB managed
/// buffers, outside the seeded size cycle.
void motor_rung(PingRank& r, double seconds, Tracer* tr, Ledger& led,
                std::uint32_t& op) {
  alternate_round_trips(
      r.me, seconds,
      [&](bool large, bool last) {
        const int s = large ? kLarge : kSmall;
        const std::size_t n = kSizes[static_cast<std::size_t>(s)];
        vm::Obj snd = r.buf(s, 0);
        vm::Obj rcv = r.buf(s, 1);
        write_stamp(vm::array_data(snd), n,
                    (static_cast<std::uint64_t>(op) << 1) | (last ? 1 : 0));
        led.attempt();
        Status st;
        {
          Scope sc(tr, rung_span(Rung::kMotor, large), op);
          st = r.d.send(snd, 1, kTag);
          if (st.is_ok()) st = r.d.recv(rcv, 1, kTag);
        }
        const bool ok = led.ok(st, "MPDirect round trip");
        if (ok && !same_bytes(vm::array_data(rcv), vm::array_data(snd), n)) {
          led.fail("motor rung: echoed payload differs");
        }
        ++op;
        return ok;
      },
      [&](bool large) {
        vm::Obj e = r.buf(large ? kLarge : kSmall);
        Status st = r.d.recv(e, 0, kTag);
        if (st.is_ok()) st = r.d.send(e, 0, kTag);
        return !led.ok(st, "MPDirect echo") ||
               (read_stamp(vm::array_data(e)) & 1) != 0;
      });
}

struct RankCounters {
  mp::PinStats pins;
  std::uint64_t bytes_direct = 0;
  std::uint64_t bytes_staged = 0;
};

RankCounters read_counters(PingRank& r) {
  RankCounters c;
  c.pins = r.d.policy().stats();
  c.bytes_direct = r.ctx.rank_ctx().device().bytes_direct();
  c.bytes_staged = r.ctx.rank_ctx().device().bytes_staged();
  return c;
}

/// Results of one measured session, filled by the rank threads.
struct Session {
  Samples untraced;
  Samples traced;
  std::array<RankCounters, 2> before{}, after{};
  Tracer tracer{0};
  bool negative_caught = false;
};

double session(const Options& opt, bool measure, Session& out, Ledger& led) {
  mp::MotorWorldConfig wc = base_world();
  const std::uint64_t t0 = pal::monotonic_ns();
  double setup_s = 0.0;
  // Phase lengths: the untraced run measures for the whole budget; the
  // traced run splits it into an untraced and a traced pass of the same
  // loop (their difference is the tracing overhead) and the ladder.
  const double e2e_s = opt.trace ? opt.seconds * 0.35 : opt.seconds;
  const double ladder_s = opt.seconds * 0.30;
  transport::Fabric ladder_fabric(2, wc.world.channel, wc.world.channel_capacity);

  mp::run_motor_world(wc, [&](mp::MotorContext& ctx) {
    assert_unmodelled(ctx, wc);
    pin_rank_thread(ctx.rank());
    PingRank r(ctx);
    Prng order(opt.seed);
    std::uint32_t op = 0;
    if (r.me == 0) {
      for (std::size_t s = 0; s < kSizes.size(); ++s) {
        fill_pattern(vm::array_data(r.buf(static_cast<int>(s), 0)), kSizes[s],
                     opt.seed, s);
      }
    }

    // Warm-up: a fixed number of cycles, part of set-up.
    if (r.me == 0) {
      drive(r, order, 1e9, kWarmupCycles, nullptr, nullptr, led, op);
    } else {
      echo(r, order, led);
    }
    led.ok(Status(mpi::barrier(r.d.comm())), "barrier");
    if (r.me == 0) setup_s = seconds_since(t0);
    if (!measure) return;

    if (r.me == 0) {
      drive(r, order, e2e_s, INT32_MAX, nullptr, &out.untraced, led, op);
      out.negative_caught = corrupted_echo_caught(r);
    } else {
      echo(r, order, led);
    }
    if (!opt.trace) return;

    led.ok(Status(mpi::barrier(r.d.comm())), "barrier");
    out.before[static_cast<std::size_t>(r.me)] = read_counters(r);
    if (r.me == 0) {
      drive(r, order, e2e_s, INT32_MAX, &out.tracer, &out.traced, led, op);
    } else {
      echo(r, order, led);
    }
    out.after[static_cast<std::size_t>(r.me)] = read_counters(r);

    // Ladder: rungs interleaved over three rounds so drift hits all alike.
    transport::Channel& out_ch = ladder_fabric.link(r.me, 1 - r.me);
    transport::Channel& in_ch = ladder_fabric.link(1 - r.me, r.me);
    NativeBufs nb(opt.seed);
    constexpr int kRounds = 3;
    for (int round = 0; round < kRounds; ++round) {
      for (const Rung which : {Rung::kTransport, Rung::kMpi, Rung::kMotor}) {
        led.ok(Status(mpi::barrier(r.d.comm())), "barrier");
        const double slice = ladder_s / (3 * kRounds);
        Tracer* tr = r.me == 0 ? &out.tracer : nullptr;
        if (which == Rung::kTransport) {
          transport_rung(r.me, out_ch, in_ch, nb, slice, tr, led, op);
        } else if (which == Rung::kMpi) {
          mpi_rung(r.d.comm(), nb, slice, tr, rung_span(which, false),
                   rung_span(which, true), led, op);
        } else {
          motor_rung(r, slice, tr, led, op);
        }
      }
    }
  });
  return setup_s;
}

}  // namespace

void run_pingpong(const Options& opt, Report& report) {
  Session s;
  timed_setups(opt, report, [&](bool measure) {
    return session(opt, measure, s, report.ledger);
  });
  report.negative_check_caught = s.negative_caught;
  const auto& small_u = s.untraced.rtt_us[kSmall];
  const auto& large_u = s.untraced.rtt_us[kLarge];
  const double large_bytes = 2.0 * static_cast<double>(kSizes[kLarge]);

  if (!opt.trace) {
    report.add("rtt_p50_us", "us", median(small_u),
               "64 B round trip, " + count_note(small_u.size()));
    report.add("rtt_p90_us", "us", quantile(small_u, 0.9),
               "64 B round trip, " + count_note(small_u.size()));
    // Unlisted: its median moved by more than the bound between two sets
    // of runs of the same code (see README).
    report.add("rtt_small_p99_us", "us", quantile(small_u, 0.99),
               count_note(small_u.size()) + "; unlisted, see README",
               /*listed=*/false);
    report.add("goodput_MBps", "MB/s", large_bytes / median(large_u),
               "2 x 256 KiB / median round trip, " + count_note(large_u.size()));
    return;
  }

  const Tracer& t = s.tracer;
  auto rung_p50 = [&](Rung which, bool large) {
    return median(t.durations_us(rung_span(which, large)));
  };
  const double tr_s = rung_p50(Rung::kTransport, false);
  const double tr_l = rung_p50(Rung::kTransport, true);
  const double mpi_s = rung_p50(Rung::kMpi, false);
  const double mpi_l = rung_p50(Rung::kMpi, true);
  const double mo_s = rung_p50(Rung::kMotor, false);
  const double mo_l = rung_p50(Rung::kMotor, true);
  const std::string n_rung =
      count_note(t.durations_us(rung_span(Rung::kTransport, false)).size()) +
      " per rung and size";
  report.add("transport.rtt_small_us", "us", tr_s, "median, " + n_rung);
  report.add("transport.rtt_large_us", "us", tr_l, "median, " + n_rung);
  report.add("mpi.rtt_small_us", "us", mpi_s, "median mpi::send/recv");
  report.add("mpi.rtt_large_us", "us", mpi_l, "median mpi::send/recv");
  report.add("motor.rtt_small_us", "us", mo_s, "median MPDirect::send/recv");
  report.add("motor.rtt_large_us", "us", mo_l, "median MPDirect::send/recv");
  report.add("mpi.self_small_us", "us", mpi_s - tr_s, "mpi rung - transport rung");
  report.add("mpi.self_large_us", "us", mpi_l - tr_l, "mpi rung - transport rung");
  report.add("motor.self_small_us", "us", mo_s - mpi_s, "motor rung - mpi rung");
  report.add("motor.self_large_us", "us", mo_l - mpi_l, "motor rung - mpi rung");
  report.add("pingpong.loop_self_us", "us",
             median(t.self_us("pingpong.round_trip")),
             "median self time of the benchmark's own round-trip span");

  double fast = 0, skip = 0, pinned = 0, direct = 0, staged = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    const RankCounters& a = s.after[i];
    const RankCounters& b = s.before[i];
    fast += static_cast<double>(a.pins.blocking_fast_path - b.pins.blocking_fast_path);
    skip += static_cast<double>(a.pins.blocking_elder_skip - b.pins.blocking_elder_skip);
    pinned += static_cast<double>(a.pins.blocking_pinned - b.pins.blocking_pinned);
    direct += static_cast<double>(a.bytes_direct - b.bytes_direct);
    staged += static_cast<double>(a.bytes_staged - b.bytes_staged);
  }
  const double calls = fast + skip + pinned;
  report.add("motor.fast_path_frac", "fraction", calls > 0 ? fast / calls : 0,
             "blocking_fast_path / blocking calls = " + ratio_note(fast, calls));
  report.add("motor.pins_per_op", "count", calls > 0 ? pinned / calls : 0,
             "blocking_pinned / blocking calls = " + ratio_note(pinned, calls));
  char direct_note[128];
  std::snprintf(direct_note, sizeof direct_note,
                "bytes_direct / (direct + staged); direct %.0f, staged %.0f",
                direct, staged);
  report.add("mpi.bytes_direct_frac", "fraction",
             direct + staged > 0 ? direct / (direct + staged) : 0, direct_note);

  const auto& small_t = s.traced.rtt_us[kSmall];
  const auto& large_t = s.traced.rtt_us[kLarge];
  report.add("trace_overhead.rtt_p50_us", "us", median(small_t) - median(small_u),
             "traced - untraced pass");
  report.add("trace_overhead.rtt_p90_us", "us",
             quantile(small_t, 0.9) - quantile(small_u, 0.9),
             "traced - untraced pass");
  report.add("trace_overhead.goodput_MBps", "MB/s",
             large_bytes / median(large_t) - large_bytes / median(large_u),
             "traced - untraced pass");
  const std::string path = write_trace(opt, {&s.tracer});
  std::printf("# pingpong trace: %s (%zu spans)\n",
              path.empty() ? "not written" : path.c_str(), t.spans().size());
}

}  // namespace perfbench
