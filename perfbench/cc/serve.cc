// serve3d_k16: guidance-as-a-service on a 16^3 mesh with 3% uniform
// initial faults. One writer applies a seeded churn timeline through
// serve::SnapshotStoreT::apply open-loop, one event every kEventInterval,
// for the whole timed phase; kReaders reader threads run closed-loop passes
// over their seeded pair lists: view(), feasible(), and for every other
// pair a route with the Flood router (policy=model's 3-D router). The
// benchmark times each query itself (steady_clock, ns) and keeps fixed-size
// uniform samples of latencies and answers, so its own memory does not grow
// with the program's speed. After the timed phase every sampled answer and
// every undelivered route is checked against the fault set of the epoch it
// was read at, rebuilt by replaying the timeline.
//
// Every pass also asks the recorded reproducers of the program's two known
// faults (README.md, "Known faults"), each on a store of its own. They fail
// on every pass until the faults are mended and count in `failed`.
//
// With --trace 1 the run is two phases on fresh stores: half the time
// untraced, half with the obs profiler installed and the benchmark's
// writer/reader spans around the calls into the serve layer.
#include <algorithm>
#include <array>
#include <atomic>
#include <thread>

#include "checks.h"
#include "common.h"
#include "layers.h"
#include "mesh/fault_injection.h"
#include "obs/obs.h"
#include "runtime/timeline.h"
#include "serve/snapshot_store.h"

namespace perfbench {

namespace {

namespace obs = mcc::obs;
using mcc::core::FeasibilityBasis;
using mcc::mesh::Coord3;
using Store = mcc::serve::SnapshotStore3D;

constexpr int kK = 16;
constexpr double kFaultRate = 0.03;
constexpr int kReaders = 3;
// About twice a measured apply() (README.md, "Writer pacing"): the writer
// is busy about half the time, so reads overlap writes all run long.
constexpr auto kEventInterval = std::chrono::microseconds(100);
constexpr size_t kPairsPerReader = 4096;     // one pass
constexpr size_t kLatencySamples = 1 << 16;  // per reader
constexpr size_t kAnswerSamples = 4096;      // per reader
constexpr size_t kMaxUndelivered = 4096;     // per reader
constexpr int kSetupReps = 15;

enum : uint64_t { kTagFaults = 11, kTagTimeline, kTagPairs, kTagSample };

struct Pair {
  Coord3 s, d;
  uint64_t route_seed = 0;
};

/// Everything generated from the seed.
struct Inputs {
  mcc::mesh::Mesh3D mesh{kK, kK, kK};
  mcc::mesh::FaultSet3D initial{mesh};
  mcc::runtime::FaultTimeline3D timeline;
  std::vector<std::vector<Pair>> pairs;
};

Inputs make_inputs(uint64_t seed) {
  Inputs in;
  mcc::util::Rng frng(derive_seed(seed, kTagFaults));
  in.initial = mcc::mesh::inject_uniform(in.mesh, kFaultRate, frng);
  // E13's churn schedule (configs/e13_serve3d.cfg: churn = 20 strikes per
  // 1000 cycles, repairs 20-200 cycles later), about 2048 strikes long.
  // Every strike hits a live node and is repaired, so the timeline ends on
  // the initial fault set and the writer replays it in a loop.
  mcc::util::ChurnParams churn;
  churn.rate = 0.02;
  churn.horizon = 2048 * 50;
  churn.repair_min = 20;
  churn.repair_max = 200;
  mcc::util::Rng trng(derive_seed(seed, kTagTimeline));
  in.timeline = mcc::runtime::FaultTimeline3D::sample(in.mesh, in.initial,
                                                      trng, churn);
  // Query pairs between distinct initially-live nodes.
  std::vector<Coord3> live;
  for (size_t i = 0; i < in.mesh.node_count(); ++i)
    if (!in.initial.is_faulty(in.mesh.coord(i)))
      live.push_back(in.mesh.coord(i));
  mcc::util::Rng prng(derive_seed(seed, kTagPairs));
  in.pairs.resize(kReaders);
  for (auto& list : in.pairs)
    while (list.size() < kPairsPerReader) {
      const Pair p{live[prng.pick(live.size())], live[prng.pick(live.size())],
                   prng.fork()};
      if (!(p.s == p.d)) list.push_back(p);
    }
  return in;
}

Pt pt(const Coord3 c) { return {c.x, c.y, c.z}; }

/// One query's answer, kept for checking (path as node indices).
struct Answer {
  uint64_t epoch = 0;
  uint32_t pair = 0;
  uint8_t reader = 0;
  bool feasible = false;
  bool routed = false;
  bool delivered = false;
  bool stuck = false;  // the router gave up with "no admissible direction"
  FeasibilityBasis basis{};
  uint8_t path_len = 0;
  std::array<uint16_t, 3 * kK> path{};
};

Answer make_answer(const mcc::mesh::Mesh3D& mesh, uint64_t epoch,
                   const mcc::core::FeasibilityResult& fr, bool routed,
                   const mcc::core::RouteResult3D& route) {
  Answer a;
  a.epoch = epoch;
  a.feasible = fr.feasible;
  a.basis = fr.basis;
  a.routed = routed;
  a.delivered = routed && route.delivered;
  a.stuck = routed && route.failure == "no admissible direction";
  a.path_len =
      static_cast<uint8_t>(std::min(route.path.size(), a.path.size()));
  for (size_t i = 0; i < a.path_len; ++i)
    a.path[i] = static_cast<uint16_t>(mesh.index(route.path[i]));
  return a;
}

/// What the checkers make of one answer.
enum class Verdict {
  Ok,
  Conservative,  // "infeasible", yet the oracle finds a minimal path
  KnownDetect,   // known fault 1: "feasible" for a walled-off two-layer box
  KnownFlood,    // known fault 2: Flood stuck on a pair the oracle routes
  Wrong,
};

Verdict judge(const FaultGrid& grid, const mcc::mesh::Mesh3D& mesh,
              const Coord3 s, const Coord3 d, const Answer& a,
              std::string& why) {
  const bool path = minimal_path_exists(grid, pt(s), pt(d));
  if (!a.feasible) return path ? Verdict::Conservative : Verdict::Ok;
  if (!path) {
    if (two_layer_box(pt(s), pt(d)) &&
        a.basis == FeasibilityBasis::ModelDetect)
      return Verdict::KnownDetect;
    why = "\"feasible\" answer refuted by the oracle";
    return Verdict::Wrong;
  }
  if (!a.routed) return Verdict::Ok;
  if (!a.delivered) {
    if (a.stuck) return Verdict::KnownFlood;
    why = "feasible pair not delivered";
    return Verdict::Wrong;
  }
  std::vector<Pt> hops;
  for (size_t i = 0; i < a.path_len; ++i)
    hops.push_back(pt(mesh.coord(a.path[i])));
  why = check_minimal_route(grid, pt(s), pt(d), hops);
  return why.empty() ? Verdict::Ok : Verdict::Wrong;
}

bool known(Verdict v) {
  return v == Verdict::KnownDetect || v == Verdict::KnownFlood;
}

/// A recorded reproducer of a known fault: a fixed fault set (not from
/// --seed), a pair and a route seed, on a store of its own.
struct Probe {
  mcc::mesh::Mesh3D mesh{kK, kK, kK};
  FaultGrid grid{kK, kK, kK};
  std::unique_ptr<Store> store;
  Coord3 s, d;
  uint64_t route_seed;

  Probe(double rate, uint64_t fault_seed, Coord3 src, Coord3 dst,
        uint64_t rseed)
      : s(src), d(dst), route_seed(rseed) {
    mcc::util::Rng rng(fault_seed);
    const auto faults = mcc::mesh::inject_uniform(mesh, rate, rng);
    for (const Coord3 c : faults.faulty_nodes()) grid.set(pt(c), true);
    store = std::make_unique<Store>(mesh, faults, 2);  // never written
  }

  /// Asks the pair like a reader does; the verdict of the checkers.
  Verdict ask() const {
    const Store::View v = store->view();
    const auto fr = v.snap->feasible(s, d);
    mcc::core::RouteResult3D route;
    if (fr.feasible)
      route = v.snap->route(s, d, mcc::core::RouterKind::Flood,
                            mcc::core::RoutePolicy::Random, route_seed);
    std::string why;
    return judge(grid, mesh, s, d,
                 make_answer(mesh, v.snap->epoch(), fr, fr.feasible, route),
                 why);
  }
};

using Probes = std::vector<std::unique_ptr<Probe>>;

/// The reproducers recorded in CHANGES.md / README.md.
Probes make_probes() {
  Probes probes;
  probes.push_back(
      std::make_unique<Probe>(0.04, 1, Coord3{1, 4, 4}, Coord3{13, 3, 6}, 0));
  probes.push_back(std::make_unique<Probe>(0.03, 2, Coord3{13, 8, 9},
                                           Coord3{11, 2, 13}, 35));
  return probes;
}

struct ReaderOut {
  std::vector<uint32_t> latency_ns;  // reservoir of query latencies
  std::vector<uint32_t> view_ns;     // traced phase: view() alone
  std::vector<Answer> answers;       // reservoir of answers
  std::vector<Answer> undelivered;   // every feasible route not delivered
  uint64_t queries = 0;
  uint64_t passes = 0;
  uint64_t undelivered_total = 0;
  uint64_t probe_known = 0;  // probe answers showing a known fault
  uint64_t probe_wrong = 0;  // probe answers wrong in another way
  uint64_t hops = 0;
  double wall_s = 0;
};

struct PhaseOut {
  std::vector<ReaderOut> readers;
  uint64_t applied = 0;  // writer events applied, in timeline order, cycled
  std::string epoch_error;
  std::vector<double> apply_us;  // traced phase only
  double late_us_max = 0;
  uint64_t buffers_grown = 0;
};

/// Keeps a uniform sample of at most `cap` items of a stream (reservoir):
/// returns the slot the n-th item (0-based) goes to, or -1.
long reservoir_slot(uint64_t n, size_t cap, mcc::util::Rng& rng) {
  if (n < cap) return static_cast<long>(n);
  const uint64_t j = rng.engine()() % (n + 1);
  return j < cap ? static_cast<long>(j) : -1;
}

uint32_t ns_since(Clock::time_point t0, Clock::time_point t1) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  return static_cast<uint32_t>(std::min<long long>(ns, UINT32_MAX));
}

PhaseOut run_phase(const Inputs& in, const Probes& probes, Store& store,
                   double seconds, bool traced, uint64_t seed) {
  PhaseOut out;
  out.readers.resize(kReaders);
  for (ReaderOut& r : out.readers) {
    r.latency_ns.assign(kLatencySamples, 0);  // touched up front: fixed RSS
    if (traced) r.view_ns.assign(kLatencySamples, 0);
    r.answers.resize(kAnswerSamples);
  }
  if (traced)
    out.apply_us.reserve(static_cast<size_t>(
        seconds / std::chrono::duration<double>(kEventInterval).count() + 2));

  std::atomic<bool> stop{false};
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(seconds);

  std::thread writer([&] {
    const auto& events = in.timeline.events();
    uint64_t i = 0;
    for (; !stop.load(std::memory_order_relaxed); ++i) {
      const auto due = t0 + i * kEventInterval;
      std::this_thread::sleep_until(due);
      const auto a0 = Clock::now();
      out.late_us_max = std::max(
          out.late_us_max, std::chrono::duration<double, std::micro>(a0 - due)
                               .count());
      const auto& e = events[i % events.size()];
      Store::ApplyResult res;
      {
        obs::ProfScope prof(obs::Phase::ServeWriterApply);
        res = store.apply(e.node, e.repair);
      }
      if (traced)
        out.apply_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - a0)
                .count());
      // Every event changes the fault set, so event i publishes epoch i + 2.
      if (res.report.epoch != i + 2 && out.epoch_error.empty())
        out.epoch_error = "event " + std::to_string(i) + " published epoch " +
                          std::to_string(res.report.epoch) + ", not " +
                          std::to_string(i + 2);
    }
    out.applied = i;
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r)
    readers.emplace_back([&, r] {
      ReaderOut& me = out.readers[static_cast<size_t>(r)];
      const std::vector<Pair>& pairs = in.pairs[static_cast<size_t>(r)];
      mcc::util::Rng rng(
          derive_seed(seed, kTagSample + static_cast<uint64_t>(r)));
      mcc::util::Rng ans_rng(rng.fork());
      auto now = Clock::now();
      while (true) {
        for (size_t i = 0; i < pairs.size(); ++i) {
          const Pair& p = pairs[i];
          const bool want_route = (i & 1) != 0;
          const auto q0 = now;
          Store::View v;
          mcc::core::FeasibilityResult fr;
          mcc::core::RouteResult3D route;
          {
            obs::ProfScope prof(obs::Phase::ServeReaderQuery);
            v = store.view();
            if (traced) {
              const long slot =
                  reservoir_slot(me.queries, kLatencySamples, rng);
              if (slot >= 0)
                me.view_ns[static_cast<size_t>(slot)] =
                    ns_since(q0, Clock::now());
            }
            fr = v.snap->feasible(p.s, p.d);
            if (fr.feasible && want_route)
              route = v.snap->route(p.s, p.d, mcc::core::RouterKind::Flood,
                                    mcc::core::RoutePolicy::Random,
                                    p.route_seed);
          }
          now = Clock::now();
          const uint64_t q = me.queries++;
          const long slot = reservoir_slot(q, kLatencySamples, rng);
          if (slot >= 0)
            me.latency_ns[static_cast<size_t>(slot)] = ns_since(q0, now);
          const bool routed = fr.feasible && want_route;
          const long aslot = reservoir_slot(q, kAnswerSamples, ans_rng);
          if (!routed && aslot < 0) continue;
          Answer a = make_answer(in.mesh, v.snap->epoch(), fr, routed, route);
          a.pair = static_cast<uint32_t>(i);
          a.reader = static_cast<uint8_t>(r);
          if (routed && route.delivered)
            me.hops += static_cast<uint64_t>(route.hops());
          if (routed && !route.delivered &&
              me.undelivered_total++ < kMaxUndelivered)
            me.undelivered.push_back(a);
          if (aslot >= 0) me.answers[static_cast<size_t>(aslot)] = a;
        }
        me.wall_s = std::chrono::duration<double>(now - t0).count();
        ++me.passes;
        for (const auto& probe : probes) {
          const Verdict v = probe->ask();
          me.probe_known += known(v) ? 1 : 0;
          me.probe_wrong += v == Verdict::Wrong ? 1 : 0;
        }
        now = Clock::now();
        if (now >= deadline) break;
      }
      const size_t kept = std::min<uint64_t>(me.queries, kLatencySamples);
      me.latency_ns.resize(kept);
      if (traced) me.view_ns.resize(kept);
      me.answers.resize(std::min<uint64_t>(me.queries, kAnswerSamples));
    });
  for (std::thread& t : readers) t.join();
  stop.store(true);
  writer.join();
  out.buffers_grown = store.buffers_grown();
  return out;
}

struct PhaseVerdicts {
  uint64_t conservative = 0;  // "infeasible" answers the oracle can route
  uint64_t known = 0;         // answers showing one of the known faults
};

/// Counts the phase's operations and checks every kept answer against the
/// fault set of its epoch. Each query is one operation, and so is each
/// probe question; a probe showing a known fault is a failed operation
/// that leaves the run correct. Kept answers showing a known fault are
/// counted apart: whether a seeded pair list meets one depends on the seed.
PhaseVerdicts check_phase(const Inputs& in, const PhaseOut& ph, size_t probes,
                          Report& out) {
  out.check(ph.epoch_error.empty(), "writer: " + ph.epoch_error);
  std::vector<const Answer*> answers;
  uint64_t queries = 0, passes = 0, probe_known = 0, probe_wrong = 0,
           unchecked = 0;
  for (const ReaderOut& r : ph.readers) {
    for (const Answer& a : r.answers)  // undelivered ones are listed below
      if (!a.routed || a.delivered) answers.push_back(&a);
    for (const Answer& a : r.undelivered) answers.push_back(&a);
    queries += r.queries;
    passes += r.passes;
    probe_known += r.probe_known;
    probe_wrong += r.probe_wrong;
    unchecked += r.undelivered_total - r.undelivered.size();
  }
  out.ops(queries, 0, "reader query");
  out.known_fault(passes * probes, probe_known,
                  "reproducer question showing a known program fault "
                  "(README.md, \"Known faults\")");
  out.ops(0, probe_wrong, "reproducer question answered wrong in a new way");
  out.ops(0, unchecked, "undelivered routes beyond the checked " +
                            std::to_string(kMaxUndelivered) + " per reader");
  std::stable_sort(answers.begin(), answers.end(),
                   [](const Answer* a, const Answer* b) {
                     return a->epoch < b->epoch;
                   });

  const auto& events = in.timeline.events();
  FaultGrid grid(kK, kK, kK);
  for (const Coord3 c : in.initial.faulty_nodes()) grid.set(pt(c), true);
  uint64_t epoch = 1, applied = 0, wrong = 0;
  PhaseVerdicts verdicts;
  std::string first_wrong;
  for (const Answer* a : answers) {
    while (epoch < a->epoch && applied < ph.applied) {
      const auto& e = events[applied++ % events.size()];
      out.check(grid.dead(pt(e.node)) == e.repair,
                "timeline event does not change the fault set");
      grid.set(pt(e.node), !e.repair);
      ++epoch;
    }
    const Pair& p = in.pairs[a->reader][a->pair];
    std::string why;
    const Verdict v =
        epoch != a->epoch
            ? (why = "read at an epoch the writer never published",
               Verdict::Wrong)
            : judge(grid, in.mesh, p.s, p.d, *a, why);
    verdicts.conservative += v == Verdict::Conservative ? 1 : 0;
    verdicts.known += known(v) ? 1 : 0;
    if (v != Verdict::Wrong || wrong++ != 0) continue;
    const auto str = [](const Coord3 c) {
      return "(" + std::to_string(c.x) + "," + std::to_string(c.y) + "," +
             std::to_string(c.z) + ")";
    };
    first_wrong = why + ": " + str(p.s) + "->" + str(p.d) + " at epoch " +
                  std::to_string(a->epoch) + ", basis " +
                  std::to_string(static_cast<int>(a->basis));
  }
  // The checked answers are a subset of the queries counted above.
  out.ops(0, wrong, "checked query answers wrong (first: " + first_wrong + ")");
  if (verdicts.known != 0)
    out.note(std::to_string(verdicts.known) +
             " checked answers show a known program fault (README.md, "
             "\"Known faults\")");
  return verdicts;
}

struct PhaseFigures {
  double queries = 0;
  double reader_s = 0;
  double hops = 0;
  std::vector<double> latency_us;
};

PhaseFigures figures(const PhaseOut& ph) {
  PhaseFigures f;
  for (const ReaderOut& r : ph.readers) {
    f.queries += static_cast<double>(r.queries);
    f.hops += static_cast<double>(r.hops);
    f.reader_s = std::max(f.reader_s, r.wall_s);
    for (const uint32_t ns : r.latency_ns) f.latency_us.push_back(ns / 1e3);
  }
  return f;
}

}  // namespace

void run_serve3d(const Options& opt, Report& out) {
  LayerSamples ls;
  std::vector<double> setup_s;
  std::unique_ptr<Inputs> in;
  std::unique_ptr<Store> store;
  const auto setup = [&] {
    store.reset();
    const auto t0 = Clock::now();
    in = std::make_unique<Inputs>(make_inputs(opt.seed));
    store = std::make_unique<Store>(in->mesh, in->initial);
    setup_s.push_back(seconds_since(t0));
  };
  const auto probes = make_probes();

  if (!opt.trace) {
    for (int i = 0; i < kSetupReps; ++i) setup();
    const PhaseOut ph =
        run_phase(*in, probes, *store, opt.seconds, false, opt.seed);
    // Read before the post-processing below allocates its own copies.
    const double rss_mb = peak_rss_mb();
    store.reset();
    check_phase(*in, ph, probes.size(), out);
    const PhaseFigures f = figures(ph);
    out.metric("setup_s", "s", setup_s);
    out.metric("router_cycles_per_s", "1/s", f.hops / f.reader_s);
    out.metric("queries_per_s", "1/s", f.queries / f.reader_s);
    out.metric("query_p50_us", "us", percentile(f.latency_us, 0.50));
    out.metric("query_p99_us", "us", percentile(f.latency_us, 0.99));
    out.metric("peak_rss_mb", "MB", rss_mb);
    return;
  }

  // Traced run: an untraced half, then a profiled half, each on a fresh
  // store; the per-layer split comes from the second.
  setup();
  const PhaseOut plain =
      run_phase(*in, probes, *store, opt.seconds / 2, false, opt.seed);
  check_phase(*in, plain, probes.size(), out);
  setup();
  {
    const auto t0 = Clock::now();
    const mcc::runtime::DynamicModel3D model(in->mesh, in->initial);
    ls["runtime.model_build_ms"].push_back(seconds_since(t0) * 1e3);
  }
  obs::RunObs run_obs;
  run_obs.profile_on = true;
  run_obs.metrics_on = true;
  PhaseOut traced;
  {
    obs::ScopedRunObs scope(run_obs);
    traced = run_phase(*in, probes, *store, opt.seconds / 2, true, opt.seed);
  }
  const PhaseVerdicts verdicts =
      check_phase(*in, traced, probes.size(), out);
  ls["runtime.cache_hit_rate"].push_back(
      store->snapshot()->cache().stats().hit_rate());
  store.reset();

  const PhaseFigures fp = figures(plain), ft = figures(traced);
  add_kernel_samples(run_obs.prof, ft.queries, ls);
  const auto counters = run_obs.registry.counters();
  const auto relabels = counters.find("runtime.full_relabels");
  ls["runtime.full_relabels"].push_back(
      relabels == counters.end() ? 0 : static_cast<double>(relabels->second));
  ls["core.conservative_answers"].push_back(
      static_cast<double>(verdicts.conservative));
  ls["core.known_fault_answers"].push_back(static_cast<double>(verdicts.known));
  ls["serve.apply_us_p50"].push_back(percentile(traced.apply_us, 0.5));
  std::vector<double> view_ns;
  for (const ReaderOut& r : traced.readers)
    for (const uint32_t ns : r.view_ns) view_ns.push_back(ns);
  ls["serve.snapshot_ns_p50"].push_back(percentile(view_ns, 0.5));
  ls["serve.buffers_grown"].push_back(
      static_cast<double>(traced.buffers_grown));
  ls["serve.writer_late_us_max"].push_back(traced.late_us_max);
  ls["trace_overhead_pct"].push_back(
      ((fp.queries / fp.reader_s) / (ft.queries / ft.reader_s) - 1) * 100);
  emit_layer_metrics(ls, out);
}

}  // namespace perfbench
