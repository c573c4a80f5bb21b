// The two wormhole workloads: wh2d_k32_t1 (fault-free 32x32 E11 point
// through sim::wh::run_load_point2d) and churn3d_k12 (the E12 churn point
// at 12^3 through sim::wh::run_churn_load_point3d over a
// runtime::DynamicModel3D).
//
// One run = a census repetition (untimed, threads=1, profiler installed:
// it yields the simulated cycle count and the reference statistics every
// later repetition must reproduce field for field; with --trace 1 it also
// records the flit trace the trace checker reads), then timed threads=1
// repetitions until --seconds have passed. Each repetition sets its inputs
// up afresh from the seed, so every repetition does identical work. With
// --trace 1 the timed repetitions alternate untraced / profiled, which
// gives the per-layer split and the tracing overhead from the same run.
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <unistd.h>

#include "checks.h"
#include "common.h"
#include "core/model.h"
#include "layers.h"
#include "mesh/fault_injection.h"
#include "obs/obs.h"
#include "runtime/dynamic_model.h"
#include "runtime/timeline.h"
#include "sim/wormhole/driver.h"
#include "sim/wormhole/dynamic_routing.h"
#include "sim/wormhole/routing.h"

namespace perfbench {

namespace {

namespace wh = mcc::sim::wh;
namespace obs = mcc::obs;
using mcc::mesh::Coord3;
using obs::Phase;

constexpr int kSetupSamples = 50;

// Input-stream tags for derive_seed().
enum : uint64_t { kTagFaults = 1, kTagTimeline, kTagTraffic, kTagPairs };

constexpr std::pair<Phase, const char*> kTickPhases[] = {
    {Phase::TickWires, "wh.wires_ns_per_cycle"},
    {Phase::TickHeads, "wh.heads_ns_per_cycle"},
    {Phase::TickAlloc, "wh.alloc_ns_per_cycle"},
    {Phase::TickTraverse, "wh.traverse_ns_per_cycle"},
    {Phase::TickCommit, "wh.commit_ns_per_cycle"},
};

/// Field-for-field equality of the simulated statistics. The pool's spin
/// and park counts are host scheduling, not simulation, and are left out.
bool same_sim(const wh::SimResult& a, const wh::SimResult& b) {
  return a.offered_flits == b.offered_flits &&
         a.accepted_flits == b.accepted_flits &&
         a.avg_latency == b.avg_latency && a.p99_latency == b.p99_latency &&
         a.max_latency == b.max_latency &&
         a.delivered_packets == b.delivered_packets &&
         a.filtered == b.filtered &&
         a.wedged_head_cycles == b.wedged_head_cycles &&
         a.violations == b.violations && a.drained == b.drained &&
         a.deadlocked == b.deadlocked && a.saturated == b.saturated &&
         a.warmup_cycles_used == b.warmup_cycles_used &&
         a.warmup_converged == b.warmup_converged && a.samples == b.samples &&
         a.accepted_ci95 == b.accepted_ci95 &&
         a.latency_ci95 == b.latency_ci95 &&
         a.route_computes == b.route_computes &&
         a.arena_high_water == b.arena_high_water;
}

/// What every wormhole load point must satisfy: it drains, without
/// deadlock or broken invariants, and its mean latency is at least the
/// zero-load bound.
std::string load_point_problem(const wh::SimResult& r, double latency_bound) {
  if (r.violations != 0) return "simulator invariant violations";
  if (r.deadlocked) return "deadlock";
  if (!r.drained) return "did not drain";
  if (r.delivered_packets == 0) return "no packet delivered";
  if (!(r.avg_latency >= latency_bound))
    return "mean latency " + std::to_string(r.avg_latency) +
           " below the zero-load bound " + std::to_string(latency_bound);
  return {};
}

// ---------------------------------------------------------------------------
// The two workload cases. Each supplies set-up, one load-point call, the
// outcome comparison and the checks of its final state.

struct Wh2dCase {
  static constexpr int kK = 32;
  wh::Config cfg;
  wh::LoadPoint load;
  uint64_t traffic_seed = 0;
  double mean_dist = 0;  // over ordered pairs of distinct nodes
  double sd_dist = 0;

  struct Prepared {
    mcc::mesh::Mesh2D mesh{kK, kK};
    mcc::mesh::FaultSet2D faults{mesh};
    std::unique_ptr<wh::MccRouting2D> routing;
  };
  struct Outcome {
    wh::SimResult sim;
    double cache_hit_rate = 0;
    const wh::SimResult& stats() const { return sim; }
  };

  Wh2dCase(uint64_t seed) : traffic_seed(derive_seed(seed, kTagTraffic)) {
    cfg.vcs_per_class = 2;
    cfg.buffer_depth = 4;
    cfg.packet_size = 4;
    load.rate = 0.02;
    load.warmup = 200;
    load.measure = 1000;
    load.drain = 20000;
    load.stall = 1000;
    double sum = 0, sum2 = 0, pairs = 0;
    for (int a = 0; a < kK * kK; ++a)
      for (int b = 0; b < kK * kK; ++b) {
        if (a == b) continue;
        const double d = std::abs(a % kK - b % kK) + std::abs(a / kK - b / kK);
        sum += d;
        sum2 += d * d;
        pairs += 1;
      }
    mean_dist = sum / pairs;
    sd_dist = std::sqrt(sum2 / pairs - mean_dist * mean_dist);
  }

  double live_routers() const { return kK * kK; }

  std::unique_ptr<Prepared> setup(LayerSamples&) {
    auto p = std::make_unique<Prepared>();
    p->routing = std::make_unique<wh::MccRouting2D>(
        p->mesh, p->faults, wh::GuidanceMode::Model, true);
    return p;
  }

  Outcome run(Prepared& p, int threads) {
    wh::Config c = cfg;
    c.threads = threads;
    Outcome o;
    o.sim = wh::run_load_point2d(p.mesh, p.faults, *p.routing,
                                 wh::Pattern::Uniform, c,
                                 mcc::core::RoutePolicy::Random, load,
                                 traffic_seed);
    o.cache_hit_rate = p.routing->cache().stats().hit_rate();
    return o;
  }

  static bool same(const Outcome& a, const Outcome& b) {
    return same_sim(a.sim, b.sim);
  }

  /// Zero-load bound for uniform traffic between distinct nodes of the
  /// fault-free mesh: mean Manhattan distance + flits - 1, less six
  /// standard errors of the sampled mean distance.
  std::string problem(const Outcome& o) const {
    const double n = static_cast<double>(std::max<uint64_t>(
        o.sim.delivered_packets, 1));
    const double bound =
        mean_dist + cfg.packet_size - 1 - 6 * sd_dist / std::sqrt(n);
    std::string why = load_point_problem(o.sim, bound);
    if (why.empty() && o.sim.wedged_head_cycles != 0)
      why = "wedged heads on a fault-free mesh";
    return why;
  }

  void check_final(Prepared&, const Outcome&, uint64_t, Report&,
                   LayerSamples&) {}

  void add_layer_samples(const Outcome& o, LayerSamples& ls) const {
    ls["runtime.cache_hit_rate"].push_back(o.cache_hit_rate);
  }
};

struct Churn3dCase {
  static constexpr int kK = 12;
  uint64_t seed;
  wh::Config cfg;
  wh::LoadPoint load;
  mcc::util::ChurnParams churn;

  struct Prepared {
    mcc::mesh::Mesh3D mesh{kK, kK, kK};
    std::optional<mcc::mesh::FaultSet3D> initial;
    mcc::runtime::FaultTimeline3D timeline;
    std::unique_ptr<mcc::runtime::DynamicModel3D> model;
    std::unique_ptr<wh::DynamicMccRouting3D> routing;
  };
  struct Outcome {
    wh::ChurnResult r;
    const wh::SimResult& stats() const { return r.sim; }
  };

  explicit Churn3dCase(uint64_t s) : seed(s) {
    cfg.vcs_per_class = 2;
    cfg.buffer_depth = 4;
    cfg.packet_size = 4;
    load.rate = 0.01;
    load.warmup = 500;
    load.measure = 2000;
    load.drain = 30000;
    load.stall = 1000;
    churn.rate = 10.0 / 1000.0;  // strikes per cycle
    churn.horizon = static_cast<uint64_t>(load.warmup + load.measure +
                                          load.drain / 4);
    churn.repair_min = 100;
    churn.repair_max = 1000;
  }

  double live_routers_ = 0;
  double live_routers() const { return live_routers_; }

  std::unique_ptr<Prepared> setup(LayerSamples& ls) {
    auto p = std::make_unique<Prepared>();
    mcc::util::Rng frng(derive_seed(seed, kTagFaults));
    p->initial = mcc::mesh::inject_uniform(p->mesh, 0.02, frng);
    mcc::util::Rng trng(derive_seed(seed, kTagTimeline));
    p->timeline = mcc::runtime::FaultTimeline3D::sample(p->mesh, *p->initial,
                                                        trng, churn);
    const auto t0 = Clock::now();
    p->model = std::make_unique<mcc::runtime::DynamicModel3D>(p->mesh,
                                                              *p->initial);
    ls["runtime.model_build_ms"].push_back(seconds_since(t0) * 1e3);
    p->routing = std::make_unique<wh::DynamicMccRouting3D>(*p->model);
    live_routers_ = static_cast<double>(p->mesh.node_count()) -
                    static_cast<double>(p->initial->count());
    return p;
  }

  Outcome run(Prepared& p, int threads) {
    wh::Config c = cfg;
    c.threads = threads;
    return {wh::run_churn_load_point3d(
        *p.model, *p.routing, wh::Pattern::Uniform, c,
        mcc::core::RoutePolicy::Random, load, p.timeline,
        derive_seed(seed, kTagTraffic))};
  }

  static bool same(const Outcome& a, const Outcome& b) {
    return same_sim(a.r.sim, b.r.sim) &&
           a.r.fault_events == b.r.fault_events &&
           a.r.repair_events == b.r.repair_events &&
           a.r.dropped_packets == b.r.dropped_packets &&
           a.r.dropped_flits == b.r.dropped_flits &&
           a.r.cache.hits == b.r.cache.hits &&
           a.r.cache.misses == b.r.cache.misses &&
           a.r.cache.evictions == b.r.cache.evictions;
  }

  /// Under churn the pair mix is filtered and drops remove packets, so
  /// the only sound mean bound is the one-hop packet's: flits cycles. The
  /// traced run checks every packet against its own distance.
  std::string problem(const Outcome& o) const {
    return load_point_problem(o.r.sim, cfg.packet_size);
  }

  /// After the census repetition: the model's final fault set must be the
  /// initial set plus the timeline events that fired (replayed here
  /// independently), and the incrementally maintained DynamicModel3D must
  /// answer a seeded pair sample exactly like a fresh core::MccModel3D
  /// over that set, with every "feasible" answer confirmed by the oracle.
  /// A refuted answer on a two-layer box is known fault 1 (README.md,
  /// "Known faults"): counted and noted, not failed, since whether the
  /// sample meets it depends on the seed.
  void check_final(Prepared& p, const Outcome&, uint64_t cycles, Report& out,
                   LayerSamples& ls) {
    FaultGrid grid(kK, kK, kK);
    for (const Coord3 c : p.initial->faulty_nodes())
      grid.set({c.x, c.y, c.z}, true);
    for (const auto& e : p.timeline.events())
      if (e.cycle < cycles)
        grid.set({e.node.x, e.node.y, e.node.z}, !e.repair);
    FaultGrid model_grid(kK, kK, kK);
    for (const Coord3 c : p.model->faults().faulty_nodes())
      model_grid.set({c.x, c.y, c.z}, true);
    out.check(grid == model_grid,
              "final DynamicModel3D fault set differs from the replayed "
              "timeline");

    const mcc::core::MccModel3D fresh(p.mesh, p.model->faults());
    mcc::util::Rng rng(derive_seed(seed, kTagPairs));
    int conservative = 0, known = 0;
    for (int i = 0; i < 2000; ++i) {
      const Coord3 s = p.mesh.coord(rng.pick(p.mesh.node_count()));
      const Coord3 d = p.mesh.coord(rng.pick(p.mesh.node_count()));
      const uint64_t route_seed = rng.fork();
      const Pt ps{s.x, s.y, s.z}, pd{d.x, d.y, d.z};
      if (s == d) continue;
      const auto a = p.model->feasible(s, d);
      const auto b = fresh.feasible(s, d);
      if (a.feasible != b.feasible || a.basis != b.basis) {
        out.check(false, "DynamicModel3D and a fresh MccModel3D disagree "
                         "on feasibility");
        return;
      }
      const bool path = minimal_path_exists(grid, ps, pd);
      if (!a.feasible) {
        conservative += path ? 1 : 0;
        continue;
      }
      if (!path && two_layer_box(ps, pd) &&
          a.basis == mcc::core::FeasibilityBasis::ModelDetect) {
        ++known;
        continue;
      }
      if (!path) {
        out.check(false, "\"feasible\" answer refuted by the oracle");
        return;
      }
      const auto ra = p.model->route(s, d, mcc::core::RouterKind::Oracle,
                                     mcc::core::RoutePolicy::Random,
                                     route_seed);
      const auto rb = fresh.route(s, d, mcc::core::RouterKind::Oracle,
                                  mcc::core::RoutePolicy::Random, route_seed);
      if (ra.delivered != rb.delivered || ra.path != rb.path) {
        out.check(false, "DynamicModel3D and a fresh MccModel3D route "
                         "differently");
        return;
      }
      std::vector<Pt> hops;
      for (const Coord3 c : ra.path) hops.push_back({c.x, c.y, c.z});
      const std::string bad =
          ra.delivered ? check_minimal_route(grid, ps, pd, hops)
                       : "feasible pair not delivered";
      if (!bad.empty()) {
        out.check(false, "final-model route: " + bad);
        return;
      }
    }
    ls["core.conservative_answers"].push_back(conservative);
    ls["core.known_fault_answers"].push_back(known);
    if (known != 0)
      out.note(std::to_string(known) +
               " final-model answers show a known program fault (README.md, "
               "\"Known faults\")");
  }

  void add_layer_samples(const Outcome& o, LayerSamples& ls) const {
    ls["runtime.cache_hit_rate"].push_back(o.r.cache.hit_rate());
  }
};

/// Writes the census repetition's flit trace to the checkout's build
/// directory, checks it and removes it.
void check_flit_trace_file(const obs::FlitTrace& ft, const std::string& tag,
                           int dims, Report& out, LayerSamples& ls,
                           double route_computes) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(".bench_build") / "perfbench-traces";
  std::error_code ec;
  fs::create_directories(dir, ec);
  const fs::path file =
      dir / (tag + "-" + std::to_string(::getpid()) + ".ndjson");
  if (!ft.write(file.string())) {
    out.check(false, "could not write the flit trace to " + file.string());
    return;
  }
  FlitTraceCheck c;
  {
    std::ifstream in(file);
    c = check_flit_trace(in, dims);
  }
  fs::remove(file, ec);
  out.check(c.error.empty(), c.error);
  out.check(c.injected > 0, "flit trace holds no packet");
  std::printf("# flit trace: %llu injected, %llu delivered, %llu dropped, "
              "%llu hops\n",
              static_cast<unsigned long long>(c.injected),
              static_cast<unsigned long long>(c.delivered),
              static_cast<unsigned long long>(c.dropped),
              static_cast<unsigned long long>(c.hops));
  ls["wh.route_computes_per_packet"].push_back(
      c.injected ? route_computes / static_cast<double>(c.injected) : 0);
  ls["wh.dropped_packets"] = {static_cast<double>(c.dropped)};
}

/// The timed repetitions run at threads=1. `check_threads` > 1 adds one
/// untimed repetition at that lane count, which must reproduce the census
/// field for field and supplies the thread pool's counters.
template <class Case>
void run_wormhole(const Options& opt, Case& c, int check_threads, int dims,
                  Report& out) {
  LayerSamples ls;
  std::vector<double> setup_s;
  const auto timed_setup = [&] {
    const auto t0 = Clock::now();
    auto p = c.setup(ls);
    setup_s.push_back(seconds_since(t0));
    return p;
  };

  // Set-up is short next to a load point, so it is sampled on its own
  // first; every repetition's set-up adds one more sample.
  for (int i = 0; i < kSetupSamples; ++i) timed_setup();

  // Census: threads=1 reference, simulated cycle count, flit trace.
  uint64_t cycles = 0;
  typename Case::Outcome ref;
  {
    auto p = timed_setup();
    obs::RunObs census;
    census.profile_on = true;
    census.metrics_on = opt.trace;
    if (opt.trace) census.flit = std::make_unique<obs::FlitTrace>(50000000);
    {
      obs::ScopedRunObs scope(census);
      ref = c.run(*p, 1);
    }
    cycles = census.prof.total_calls(Phase::TickWires);
    out.check(cycles > 0, "census repetition simulated no cycle");
    const std::string why = c.problem(ref);
    out.check(why.empty(), "census repetition: " + why);
    c.check_final(*p, ref, cycles, out, ls);
    if (opt.trace)
      check_flit_trace_file(*census.flit, opt.workload, dims, out, ls,
                            static_cast<double>(ref.stats().route_computes));
  }

  if (check_threads > 1) {
    auto p = timed_setup();
    const typename Case::Outcome o = c.run(*p, check_threads);
    out.check(Case::same(o, ref),
              "threads=" + std::to_string(check_threads) +
                  " statistics differ from the threads=1 census");
    const double n = static_cast<double>(cycles);
    ls["pool.spin_iters_per_cycle"].push_back(
        static_cast<double>(o.stats().pool_spin_iters) / n);
    ls["pool.parks_per_cycle"].push_back(
        static_cast<double>(o.stats().pool_parks) / n);
  }

  // Timed repetitions.
  std::vector<double> call_s, traced_s;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(opt.seconds);
  bool traced_turn = false;
  while (Clock::now() < deadline || call_s.empty() ||
         (opt.trace && traced_s.empty())) {
    auto p = timed_setup();
    typename Case::Outcome o;
    if (traced_turn) {
      obs::RunObs run_obs;
      run_obs.profile_on = true;
      run_obs.metrics_on = true;
      {
        obs::ScopedRunObs scope(run_obs);
        const auto t0 = Clock::now();
        o = c.run(*p, 1);
        traced_s.push_back(seconds_since(t0));
      }
      const obs::Profiler& prof = run_obs.prof;
      for (const auto& [phase, name] : kTickPhases)
        ls[name].push_back(static_cast<double>(prof.total_ns(phase)) /
                           static_cast<double>(cycles));
      add_kernel_samples(prof, 1, ls);
      add_cache_build_sample(prof, ls);
      const auto counters = run_obs.registry.counters();
      const auto relabels = counters.find("runtime.full_relabels");
      ls["runtime.full_relabels"].push_back(
          relabels == counters.end() ? 0
                                     : static_cast<double>(relabels->second));
      c.add_layer_samples(o, ls);
    } else {
      const auto t0 = Clock::now();
      o = c.run(*p, 1);
      call_s.push_back(seconds_since(t0));
      std::fprintf(stderr, "# load point %zu: %.6f s\n", call_s.size(),
                   call_s.back());
    }
    std::string why = c.problem(o);
    if (why.empty() && !Case::same(o, ref))
      why = "statistics differ from the threads=1 census repetition";
    out.op(why.empty(), "load point: " + why);
    if (opt.trace) traced_turn = !traced_turn;
  }

  if (!opt.trace) {
    std::vector<double> rate, call_us;
    double total = 0;
    for (const double s : call_s) {
      rate.push_back(c.live_routers() * static_cast<double>(cycles) / s);
      call_us.push_back(s * 1e6);
      total += s;
    }
    out.metric("setup_s", "s", setup_s);
    out.metric("router_cycles_per_s", "1/s", rate);
    out.metric("queries_per_s", "1/s",
               static_cast<double>(call_s.size()) / total);
    out.metric("query_p50_us", "us", call_us);
    out.metric("query_p99_us", "us", percentile(call_us, 0.99));
    out.metric("peak_rss_mb", "MB", peak_rss_mb());
    return;
  }
  ls["wh.sim_cycles"] = {static_cast<double>(cycles)};
  ls["wh.arena_high_water"] = {
      static_cast<double>(ref.stats().arena_high_water)};
  ls["trace_overhead_pct"] = {
      (summarize(traced_s).median / summarize(call_s).median - 1) * 100};
  emit_layer_metrics(ls, out);
}

}  // namespace

void run_wh2d(const Options& opt, Report& out) {
  Wh2dCase c(opt.seed);
  // The serial workload also proves the parallel tick bit-identical and
  // measures the thread pool, in one untimed threads=4 repetition.
  run_wormhole(opt, c, 4, 2, out);
}

void run_churn3d(const Options& opt, Report& out) {
  Churn3dCase c(opt.seed);
  run_wormhole(opt, c, 0, 3, out);
}

}  // namespace perfbench
