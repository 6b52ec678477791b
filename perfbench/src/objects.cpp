// objects: two ranks run object-graph round trips — rank 0 sends a graph,
// rank 1 receives it and sends it straight back. Each operation draws
// its shape from the seed:
//   * a linked list of 16-1024 LinkedArray nodes carrying 4 KiB of bytes
//     in total (the Figure 10 shape; OSend/ORecv, hashed visited set);
//   * an array of 64-4096 all-primitive Cell records (OSend/ORecv, the
//     wire-plan path);
//   * the same records as a native span through motor::typed.
// Graphs are built untimed and die young in the default 1 MiB nursery;
// the time goes to serialize/deserialize, the visited set, plans and
// young collections, with few wire bytes. The oracle re-serializes every
// returned graph and compares it with the bytes of the graph sent.
//
// The traced run adds direct MotorSerializer / typed calls on freshly
// built graphs of the same shapes (ns per object per direction).
#include <array>
#include <cmath>
#include <cstring>

#include "common/prng.hpp"
#include "harness.hpp"
#include "motor/mp_direct.hpp"
#include "motor/typed/typed.hpp"
#include "mpi/collectives.hpp"
#include "mpi/device.hpp"
#include "mpi/packet.hpp"
#include "mpi/pt2pt.hpp"
#include "pal/clock.hpp"
#include "vm/handles.hpp"

namespace perfbench {

/// Native twin of the managed Cell class: x/y/z at 0/8/16, id/flags at
/// 24/28, so the typed codec and the reflective serializer produce the
/// same bytes.
struct Cell {
  double x;
  double y;
  double z;
  std::int32_t id;
  std::int32_t flags;
};

}  // namespace perfbench

MOTOR_TYPED_STRUCT_NAMED(perfbench::Cell, "Cell", x, y, z, id, flags);

namespace perfbench {
namespace {

using namespace motor;

enum Kind : std::uint64_t { kList = 1, kRecords = 2, kTyped = 3 };
constexpr int kTag = 41;
constexpr int kTagCtl = 42;
constexpr std::size_t kListPayload = 4096;
constexpr int kWarmupOps = 300;

const char* kind_name(std::uint64_t k) {
  return k == kList ? "list" : k == kRecords ? "records" : "typed";
}

/// Per-rank types and serializers.
struct ObjRank {
  mp::MotorContext& ctx;
  mp::MPDirect& d;
  vm::ManagedHeap& heap;
  const vm::MethodTable* bytes_mt;
  const vm::MethodTable* node_mt;
  const vm::MethodTable* cell_mt;
  const vm::MethodTable* cells_mt;  // Cell[]: both ranks must know it
  mp::MotorSerializer verifier;  // oracle only, never timed
  int me;

  explicit ObjRank(mp::MotorContext& c)
      : ctx(c), d(c.mp().direct()), heap(c.vm().heap()),
        bytes_mt(c.vm().types().primitive_array(vm::ElementKind::kUInt8)),
        node_mt(c.vm()
                    .types()
                    .define_class("LinkedArray")
                    .transportable()
                    .ref_field("array", bytes_mt, true)
                    .ref_field("next", c.vm().types().object_type(), true)
                    .build()),
        cell_mt(typed::register_managed_twin<Cell>(c.vm().types())),
        cells_mt(c.vm().types().ref_array(cell_mt)),
        verifier(c.vm()),
        me(c.rank()) {}
};

/// One operation's shape, drawn from the seeded generator.
struct Shape {
  std::uint64_t kind = kList;
  int count = 0;  // list nodes or records
  std::uint64_t fill = 0;

  /// Managed objects in the graph: node + byte array per list element;
  /// the array plus its records otherwise.
  [[nodiscard]] double objects() const {
    return kind == kList ? 2.0 * count : count + 1.0;
  }
};

int log_uniform(Prng& rng, int lo, int hi) {
  const double a = std::log(static_cast<double>(lo));
  const double b = std::log(static_cast<double>(hi));
  return static_cast<int>(std::lround(std::exp(a + (b - a) * rng.next_double())));
}

Shape draw(Prng& rng) {
  Shape s;
  s.kind = 1 + rng.next_below(3);
  s.count = s.kind == kList ? log_uniform(rng, 16, 1024) : log_uniform(rng, 64, 4096);
  s.fill = rng.next_u64();
  return s;
}

vm::Obj make_list(ObjRank& r, const Shape& s) {
  vm::ManagedThread& t = r.ctx.thread();
  const auto per = static_cast<std::int64_t>(
      std::max<std::size_t>(1, kListPayload / static_cast<std::size_t>(s.count)));
  const std::uint32_t array_off = r.node_mt->field_named("array")->offset();
  const std::uint32_t next_off = r.node_mt->field_named("next")->offset();
  vm::GcRoot head(t, nullptr);
  for (int i = 0; i < s.count; ++i) {
    vm::GcRoot arr(t, r.heap.alloc_array(r.bytes_mt, per));
    fill_pattern(vm::array_data(arr.get()), static_cast<std::size_t>(per),
                 s.fill, static_cast<std::uint64_t>(i));
    vm::Obj n = r.heap.alloc_object(r.node_mt);
    vm::set_ref_field(n, array_off, arr.get());
    vm::set_ref_field(n, next_off, head.get());
    head.set(n);
  }
  return head.get();
}

Cell make_cell(const Shape& s, int i) {
  const double base = static_cast<double>(s.fill % 1000);
  return Cell{base + i * 0.5, base - i * 1.5, i * 2.5, i,
              static_cast<std::int32_t>(s.fill >> 40) ^ i};
}

vm::Obj make_records(ObjRank& r, const Shape& s) {
  vm::ManagedThread& t = r.ctx.thread();
  vm::GcRoot arr(t, r.heap.alloc_array(r.cells_mt, s.count));
  for (int i = 0; i < s.count; ++i) {
    const Cell c = make_cell(s, i);
    vm::Obj obj = r.heap.alloc_object(r.cell_mt);
    std::memcpy(vm::obj_data(obj), &c, sizeof c);
    vm::set_ref_element(arr.get(), i, obj);
  }
  return arr.get();
}

std::vector<Cell> make_span(const Shape& s) {
  std::vector<Cell> v(static_cast<std::size_t>(s.count));
  for (int i = 0; i < s.count; ++i) v[static_cast<std::size_t>(i)] = make_cell(s, i);
  return v;
}

bool same_buffer(const ByteBuffer& a, const ByteBuffer& b) {
  return a.size() == b.size() && same_bytes(a.data(), b.data(), a.size());
}

struct Samples {
  std::vector<double> rtt_us;
  double objects = 0;  // delivered, both directions
  double bytes = 0;    // serialized graph bytes delivered, both directions
  double busy_us = 0;  // sum of timed round trips
  std::vector<double> pause_ms;
  Samples() {  // reserved so peak RSS does not follow the sample count
    rtt_us.reserve(1 << 19);
    pause_ms.reserve(1 << 16);
  }
};

/// Per-phase totals rank 0 keeps for the per-layer ratios.
struct Tally {
  double graphs = 0, class_records = 0;
  double payload_bytes = 0;  // size messages + serialized streams + control
  double ctl_msgs = 0;
};

/// The oracle: the returned graph (or span) must re-serialize to `want`,
/// the bytes of the graph sent.
void check_echo(ObjRank& r, std::uint64_t kind, vm::Obj back,
                const std::vector<Cell>& span_back, const ByteBuffer& want,
                Ledger& led) {
  ByteBuffer got;
  if (kind == kTyped) {
    typed::serialize_span(std::span<const Cell>(span_back), got);
  } else {
    led.ok(r.verifier.serialize(back, got), "verifier serialize");
  }
  if (!same_buffer(got, want)) {
    led.fail(std::string("objects: returned ") + kind_name(kind) +
             " graph re-serializes to different bytes");
  }
}

void send_ctl(ObjRank& r, std::uint64_t v, Ledger& led, Tally& tally) {
  led.ok(Status(mpi::send(r.d.comm(), &v, sizeof v, 1, kTagCtl)), "control send");
  tally.ctl_msgs += 1;
  tally.payload_bytes += sizeof v;
}

/// Build the graph (or span) of shape `s` and the bytes its echo must
/// re-serialize to.
void build(ObjRank& r, const Shape& s, vm::GcRoot& g, std::vector<Cell>& span_in,
           ByteBuffer& want, Ledger& led) {
  if (s.kind == kTyped) {
    span_in = make_span(s);
    typed::serialize_span(std::span<const Cell>(span_in), want);
  } else {
    g.set(s.kind == kList ? make_list(r, s) : make_records(r, s));
    led.ok(r.verifier.serialize(g.get(), want), "verifier serialize");
  }
}

/// Rank 0's side of one round trip: send the graph (or span) to rank 1
/// and receive its echo into `back` (or `span_back`).
Status round_trip(ObjRank& r, std::uint64_t kind, vm::Obj graph,
                  const std::vector<Cell>& span_in, vm::GcRoot& back,
                  std::vector<Cell>& span_back, Tracer* tr, std::uint32_t op) {
  Scope root(tr, "objects.round_trip", op);
  Status st;
  if (kind == kTyped) {
    {
      Scope sc(tr, "motor.typed::send_span", op);
      st = typed::send_span<Cell>(r.d, span_in, 1, kTag);
    }
    if (st.is_ok()) {
      Scope sc(tr, "motor.typed::recv_span", op);
      st = typed::recv_span<Cell>(r.d, span_back, 1, kTag);
    }
    return st;
  }
  {
    Scope sc(tr, "motor.MPDirect::osend", op);
    st = r.d.osend(graph, 1, kTag);
  }
  if (st.is_ok()) {
    Scope sc(tr, "motor.MPDirect::orecv", op);
    vm::Obj got = nullptr;
    st = r.d.orecv(1, kTag, &got);
    back.set(got);
  }
  return st;
}

/// Negative check, run by rank 0 after its timed loop while rank 1 still
/// echoes: one round trip per kind, whose echo must pass the oracle as
/// received and then fail it once after one byte of its data changes —
/// the first list node's payload, the first record's id, the first span
/// element's id.
bool corrupted_echoes_caught(ObjRank& r, Prng& rng, Tally& tally,
                             Ledger& led) {
  vm::ManagedThread& t = r.ctx.thread();
  const std::uint32_t array_off = r.node_mt->field_named("array")->offset();
  for (const std::uint64_t kind : {kList, kRecords, kTyped}) {
    const Shape s{kind, 64, rng.next_u64()};
    send_ctl(r, kind, led, tally);
    vm::GcRoot g(t, nullptr);
    std::vector<Cell> span_in;
    ByteBuffer want;
    build(r, s, g, span_in, want, led);
    led.attempt();
    vm::GcRoot back(t, nullptr);
    std::vector<Cell> span_back;
    if (!led.ok(round_trip(r, kind, g.get(), span_in, back, span_back, nullptr, 0),
                "object round trip")) {
      return false;
    }
    Ledger probe;
    check_echo(r, kind, back.get(), span_back, want, probe);
    std::byte* p =
        kind == kList ? vm::array_data(vm::get_ref_field(back.get(), array_off))
        : kind == kRecords
            ? vm::obj_data(vm::get_ref_element(back.get(), 0)) + offsetof(Cell, id)
            : reinterpret_cast<std::byte*>(&span_back[0].id);
    *p ^= std::byte{0x01};
    check_echo(r, kind, back.get(), span_back, want, probe);
    if (probe.failed() != 1) return false;
  }
  return true;
}

/// Rank 0: round trips until `seconds` elapse or `max_ops` complete.
void drive(ObjRank& r, Prng& rng, PauseRecorder& pauses, double seconds,
           int max_ops, Tracer* tr, Samples* out, Tally& tally,
           bool* negative_caught, Ledger& led, std::uint32_t& op) {
  const std::uint64_t deadline =
      pal::monotonic_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  vm::ManagedThread& t = r.ctx.thread();
  for (int done = 0; done < max_ops && pal::monotonic_ns() < deadline; ++done) {
    const Shape s = draw(rng);
    send_ctl(r, s.kind, led, tally);
    // Untimed: build the graph and the bytes the echo must reproduce.
    vm::GcRoot g(t, nullptr);
    std::vector<Cell> span_in;
    ByteBuffer want;
    build(r, s, g, span_in, want, led);
    led.attempt();
    vm::GcRoot back(t, nullptr);
    std::vector<Cell> span_back;
    pauses.sync();
    const std::uint64_t t0 = pal::monotonic_ns();
    const Status st =
        round_trip(r, s.kind, g.get(), span_in, back, span_back, tr, op);
    const std::uint64_t t1 = pal::monotonic_ns();
    pauses.record();
    // Untimed oracle: the returned graph re-serializes to the sent bytes.
    if (led.ok(st, "object round trip")) {
      check_echo(r, s.kind, back.get(), span_back, want, led);
    }
    tally.graphs += 1;
    tally.payload_bytes += 2.0 * (8.0 + static_cast<double>(want.size()));
    if (s.kind != kTyped) tally.class_records += s.count;
    if (out != nullptr) {
      const double us = static_cast<double>(t1 - t0) / 1e3;
      out->rtt_us.push_back(us);
      out->busy_us += us;
      out->objects += 2.0 * s.objects();
      out->bytes += 2.0 * static_cast<double>(want.size());
    }
    ++op;
  }
  if (negative_caught != nullptr) {
    *negative_caught = corrupted_echoes_caught(r, rng, tally, led);
  }
  send_ctl(r, 0, led, tally);
}

/// Rank 1: echo graphs until the stop control message.
void serve(ObjRank& r, PauseRecorder& pauses, Ledger& led) {
  vm::ManagedThread& t = r.ctx.thread();
  for (;;) {
    std::uint64_t kind = 0;
    if (!led.ok(Status(mpi::recv(r.d.comm(), &kind, sizeof kind, 0, kTagCtl)),
                "control recv") ||
        kind == 0) {
      return;
    }
    pauses.sync();
    Status st;
    if (kind == kTyped) {
      std::vector<Cell> v;
      st = typed::recv_span<Cell>(r.d, v, 0, kTag);
      if (st.is_ok()) st = typed::send_span<Cell>(r.d, v, 0, kTag);
    } else {
      vm::Obj got = nullptr;
      st = r.d.orecv(0, kTag, &got);
      vm::GcRoot g(t, got);
      if (st.is_ok()) st = r.d.osend(g.get(), 0, kTag);
    }
    pauses.record();
    if (!led.ok(st, "object echo")) {
      // Answer anyway (an 8-byte non-graph), so rank 0 records a failed
      // round trip instead of waiting for an echo that never comes.
      const std::uint64_t size = 8;
      const std::uint64_t junk = 0;
      (void)mpi::send(r.d.comm(), &size, sizeof size, 0, kTag);
      (void)mpi::send(r.d.comm(), &junk, sizeof junk, 0, kTag);
    }
  }
}

struct RankCounters {
  mp::SerializerStats ser;
  std::uint64_t bytes_sent = 0;
  std::uint64_t collections = 0;
  std::uint64_t promoted_bytes = 0;
};

RankCounters read_counters(ObjRank& r) {
  return {r.d.serializer().stats(), r.ctx.rank_ctx().device().bytes_sent(),
          r.heap.stats().collections, r.heap.stats().promoted_bytes};
}

/// Direct serializer / codec timings on rank 0, ns per object.
struct Probe {
  std::vector<double> ser_list, ser_records, deser_list, deser_records, typed_enc;
};

void probe(ObjRank& r, Prng& rng, double seconds, Tracer& tr, Probe& out,
           Ledger& led) {
  mp::MotorSerializer ser(r.ctx.vm());
  vm::ManagedThread& t = r.ctx.thread();
  const std::uint64_t deadline =
      pal::monotonic_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::uint32_t op = 0; pal::monotonic_ns() < deadline; ++op) {
    const Shape s = draw(rng);
    ByteBuffer buf;
    auto ns_per_obj = [&](std::uint64_t t0) {
      return static_cast<double>(pal::monotonic_ns() - t0) / s.objects();
    };
    if (s.kind == kTyped) {
      const std::vector<Cell> v = make_span(s);
      const std::uint64_t t0 = pal::monotonic_ns();
      {
        Scope sc(&tr, "motor.typed::serialize_span", op);
        typed::serialize_span(std::span<const Cell>(v), buf);
      }
      out.typed_enc.push_back(ns_per_obj(t0));
      continue;
    }
    vm::GcRoot g(t, s.kind == kList ? make_list(r, s) : make_records(r, s));
    std::uint64_t t0 = pal::monotonic_ns();
    Status st;
    {
      Scope sc(&tr, "motor.MotorSerializer::serialize", op);
      st = ser.serialize(g.get(), buf);
    }
    (s.kind == kList ? out.ser_list : out.ser_records).push_back(ns_per_obj(t0));
    if (!led.ok(st, "probe serialize")) continue;
    vm::GcRoot copy(t, nullptr);
    t0 = pal::monotonic_ns();
    {
      Scope sc(&tr, "motor.MotorSerializer::deserialize", op);
      vm::Obj o = nullptr;
      st = ser.deserialize(buf, t, &o);
      copy.set(o);
    }
    (s.kind == kList ? out.deser_list : out.deser_records).push_back(ns_per_obj(t0));
    led.ok(st, "probe deserialize");
  }
}

struct Session {
  Samples untraced, traced;
  Tally tally;
  std::array<RankCounters, 2> before{}, after{};
  Probe probe;
  Tracer tracer{0};
  std::mutex mu;  // guards pause_ms merges
  bool negative_caught = false;
};

double session(const Options& opt, bool measure, Session& out, Ledger& led) {
  const mp::MotorWorldConfig wc = base_world();
  const double e2e_s = opt.trace ? opt.seconds * 0.35 : opt.seconds;
  const std::uint64_t t0 = pal::monotonic_ns();
  double setup_s = 0.0;
  mp::run_motor_world(wc, [&](mp::MotorContext& ctx) {
    assert_unmodelled(ctx, wc);
    pin_rank_thread(ctx.rank());
    ObjRank r(ctx);
    Prng rng(opt.seed);
    PauseRecorder pauses(r.heap);
    std::uint32_t op = 0;
    Tally warm;
    auto phase = [&](double seconds, int max_ops, Tracer* tr, Samples* s,
                     Tally& tally, bool* negative_caught) {
      pauses.ms.clear();
      if (r.me == 0) {
        drive(r, rng, pauses, seconds, max_ops, tr, s, tally, negative_caught,
              led, op);
      } else {
        serve(r, pauses, led);
      }
      if (s != nullptr) {
        std::lock_guard<std::mutex> lk(out.mu);
        s->pause_ms.insert(s->pause_ms.end(), pauses.ms.begin(), pauses.ms.end());
      }
    };
    // Warm-up builds the wire plans and the buffer pool: part of set-up.
    phase(1e9, kWarmupOps, nullptr, nullptr, warm, nullptr);
    led.ok(Status(mpi::barrier(r.d.comm())), "barrier");
    if (r.me == 0) setup_s = seconds_since(t0);
    if (!measure) return;

    phase(e2e_s, INT32_MAX, nullptr, &out.untraced, warm, &out.negative_caught);
    if (!opt.trace) return;

    led.ok(Status(mpi::barrier(r.d.comm())), "barrier");
    const auto me = static_cast<std::size_t>(r.me);
    out.before[me] = read_counters(r);
    phase(e2e_s, INT32_MAX, r.me == 0 ? &out.tracer : nullptr, &out.traced,
          out.tally, nullptr);
    out.after[me] = read_counters(r);
    if (r.me == 0) probe(r, rng, opt.seconds * 0.30, out.tracer, out.probe, led);
    led.ok(Status(mpi::barrier(r.d.comm())), "barrier");
  });
  return setup_s;
}

}  // namespace

void run_objects(const Options& opt, Report& report) {
  Session s;
  timed_setups(opt, report, [&](bool measure) {
    return session(opt, measure, s, report.ledger);
  });
  report.negative_check_caught = s.negative_caught;
  auto goodput = [](const Samples& x) { return x.bytes / x.busy_us; };
  if (!opt.trace) {
    const Samples& x = s.untraced;
    const std::string graphs = count_note(x.rtt_us.size()) + " graph round trips";
    report.add("rtt_p50_us", "us", quantile(x.rtt_us, 0.5), graphs);
    report.add("rtt_p90_us", "us", quantile(x.rtt_us, 0.9), graphs);
    report.add("goodput_MBps", "MB/s", goodput(x),
               "serialized graph bytes both directions / summed round-trip time");
    // Unlisted: every workload's result line carries the same metrics,
    // and pingpong allocates nothing, so it has no objects or pauses.
    const char* unlisted = "; unlisted, see README";
    report.add("objects_per_s", "1/s", x.objects / (x.busy_us / 1e6),
               std::string("objects both directions / summed round-trip time") +
                   unlisted, false);
    report.add("graph_rtt_p99_us", "us", quantile(x.rtt_us, 0.99),
               graphs + unlisted, false);
    const std::string pauses =
        count_note(x.pause_ms.size()) + " pauses, both ranks" + unlisted;
    report.add("gc_pause_p50_ms", "ms", quantile(x.pause_ms, 0.5), pauses, false);
    report.add("gc_pause_p90_ms", "ms", quantile(x.pause_ms, 0.9), pauses, false);
    return;
  }

  const Probe& p = s.probe;
  report.add("motor.serialize_list_ns_per_obj", "ns", median(p.ser_list),
             "direct MotorSerializer::serialize, " + count_note(p.ser_list.size()));
  report.add("motor.serialize_records_ns_per_obj", "ns", median(p.ser_records),
             "direct MotorSerializer::serialize, " + count_note(p.ser_records.size()));
  report.add("motor.deserialize_list_ns_per_obj", "ns", median(p.deser_list),
             "direct MotorSerializer::deserialize, " + count_note(p.deser_list.size()));
  report.add("motor.deserialize_records_ns_per_obj", "ns", median(p.deser_records),
             "direct MotorSerializer::deserialize, " +
                 count_note(p.deser_records.size()));
  report.add("motor.typed_encode_ns_per_obj", "ns", median(p.typed_enc),
             "typed::serialize_span, " + count_note(p.typed_enc.size()));

  double plan_hits = 0, lookups = 0, serialized = 0, sent = 0, gcs = 0, promoted = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    const RankCounters& a = s.after[i];
    const RankCounters& b = s.before[i];
    plan_hits += static_cast<double>(a.ser.plan_hits - b.ser.plan_hits);
    lookups += static_cast<double>(a.ser.visited_lookups - b.ser.visited_lookups);
    serialized +=
        static_cast<double>(a.ser.objects_serialized - b.ser.objects_serialized);
    sent += static_cast<double>(a.bytes_sent - b.bytes_sent);
    gcs += static_cast<double>(a.collections - b.collections);
    promoted += static_cast<double>(a.promoted_bytes - b.promoted_bytes);
  }
  const Tally& t = s.tally;
  // Each managed round trip runs every class record through the
  // serializer four times: serialize and deserialize on each rank.
  const double records = 4.0 * t.class_records;
  report.add("motor.plan_hit_frac", "fraction", records > 0 ? plan_hits / records : 0,
             "plan_hits / class records = " + ratio_note(plan_hits, records));
  report.add("motor.visited_lookups_per_obj", "count",
             serialized > 0 ? lookups / serialized : 0,
             "visited_lookups / objects_serialized = " + ratio_note(lookups, serialized));
  const double packets =
      (sent - t.payload_bytes) / static_cast<double>(mpi::kPacketHeaderBytes) -
      t.ctl_msgs;
  report.add("mpi.msgs_per_graph", "count", t.graphs > 0 ? packets / t.graphs : 0,
             "computed: (bytes_sent - payload) / header size, less control "
             "messages, per graph = " + ratio_note(packets, t.graphs));
  report.add("vm.young_collections", "count", gcs, "traced pass, both ranks");
  report.add("vm.promoted_bytes_per_graph", "B",
             t.graphs > 0 ? promoted / t.graphs : 0,
             "promoted_bytes / graphs = " + ratio_note(promoted, t.graphs));

  const Samples& u = s.untraced;
  const Samples& tr = s.traced;
  auto over = [&](const char* name, const char* unit, double traced, double untraced) {
    report.add(std::string("trace_overhead.") + name, unit, traced - untraced,
               "traced - untraced pass");
  };
  over("rtt_p50_us", "us", quantile(tr.rtt_us, 0.5), quantile(u.rtt_us, 0.5));
  over("rtt_p90_us", "us", quantile(tr.rtt_us, 0.9), quantile(u.rtt_us, 0.9));
  over("goodput_MBps", "MB/s", goodput(tr), goodput(u));
  const std::string path = write_trace(opt, {&s.tracer});
  std::printf("# objects trace: %s (%zu spans)\n",
              path.empty() ? "not written" : path.c_str(), s.tracer.spans().size());
}

}  // namespace perfbench
