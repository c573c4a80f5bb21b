#include "layers.h"

namespace perfbench {

namespace {

using mcc::obs::Phase;

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Grouped by module; README.md lists which end-to-end metric each should
// move and on which workload it should not.
constexpr LayerMetric kLayerMetrics[] = {
    // sim/wormhole
    {"wh.wires_ns_per_cycle", "ns"},
    {"wh.heads_ns_per_cycle", "ns"},
    {"wh.alloc_ns_per_cycle", "ns"},
    {"wh.traverse_ns_per_cycle", "ns"},
    {"wh.commit_ns_per_cycle", "ns"},
    {"wh.route_computes_per_packet", "1/packet"},
    {"wh.arena_high_water", "flits"},
    {"wh.sim_cycles", "cycles"},
    {"wh.dropped_packets", "packets"},
    // util (thread pool)
    {"pool.spin_iters_per_cycle", "1/cycle"},
    {"pool.parks_per_cycle", "1/cycle"},
    // runtime
    {"runtime.cache_hit_rate", "ratio"},
    {"runtime.cache_build_ns_per_miss", "ns"},
    {"runtime.model_build_ms", "ms"},
    {"runtime.full_relabels", "count"},
    // core
    {"core.safe_reach_calls_per_query", "1/query"},
    {"core.flood_calls_per_query", "1/query"},
    {"core.label_fixpoint_calls_per_query", "1/query"},
    {"core.safe_reach_ns_per_call", "ns"},
    {"core.flood_ns_per_call", "ns"},
    {"core.label_fixpoint_ns_per_call", "ns"},
    {"core.conservative_answers", "count"},
    {"core.known_fault_answers", "count"},
    // serve
    {"serve.apply_us_p50", "us"},
    {"serve.snapshot_ns_p50", "ns"},
    {"serve.buffers_grown", "count"},
    {"serve.writer_late_us_max", "us"},
    // the cost of tracing itself
    {"trace_overhead_pct", "%"},
};

struct Kernel {
  Phase phase;
  const char* calls_name;
  const char* ns_name;
};

constexpr Kernel kKernels[] = {
    {Phase::KernelSafeReach, "core.safe_reach_calls_per_query",
     "core.safe_reach_ns_per_call"},
    {Phase::KernelFlood, "core.flood_calls_per_query",
     "core.flood_ns_per_call"},
    {Phase::KernelLabelFixpoint, "core.label_fixpoint_calls_per_query",
     "core.label_fixpoint_ns_per_call"},
};

}  // namespace

void emit_layer_metrics(const LayerSamples& samples, Report& out) {
  for (const auto& [name, values] : samples) {
    bool known = false;
    for (const LayerMetric& m : kLayerMetrics) known |= name == m.name;
    out.check(known, "benchmark bug: unlisted per-layer metric " + name);
  }
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = samples.find(m.name);
    out.metric(m.name, m.unit,
               it == samples.end() || it->second.empty()
                   ? std::vector<double>{0.0}
                   : it->second);
  }
}

void add_kernel_samples(const mcc::obs::Profiler& prof, double queries,
                        LayerSamples& samples) {
  const int writer = static_cast<int>(Phase::ServeWriterApply);
  for (const Kernel& k : kKernels) {
    const double calls = static_cast<double>(prof.total_calls(k.phase) -
                                             prof.edge_calls(writer, k.phase));
    const double ns = static_cast<double>(prof.total_ns(k.phase) -
                                          prof.edge_ns(writer, k.phase));
    samples[k.calls_name].push_back(queries > 0 ? calls / queries : 0);
    samples[k.ns_name].push_back(calls > 0 ? ns / calls : 0);
  }
}

void add_cache_build_sample(const mcc::obs::Profiler& prof,
                            LayerSamples& samples) {
  const Phase build = prof.total_calls(Phase::KernelCacheBuild) > 0
                          ? Phase::KernelCacheBuild
                          : Phase::KernelFlood;
  const double calls = static_cast<double>(prof.total_calls(build));
  samples["runtime.cache_build_ns_per_miss"].push_back(
      calls > 0 ? static_cast<double>(prof.total_ns(build)) / calls : 0);
}

}  // namespace perfbench
