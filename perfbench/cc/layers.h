// The per-layer metric set of a traced run, named by module. Every
// workload reports the whole set, so the columns line up across
// workloads; a layer a workload does not exercise reads 0 there.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "obs/profiler.h"

namespace perfbench {

/// Samples per metric name, one per traced repetition (or one value).
using LayerSamples = std::map<std::string, std::vector<double>>;

/// Adds the whole per-layer set to `out` in its fixed order; names missing
/// from `samples` read 0, names `samples` has that the set lacks are an
/// error in the benchmark.
void emit_layer_metrics(const LayerSamples& samples, Report& out);

/// The core kernels' calls per query and ns per call, from one traced
/// repetition's profiler. Calls made inside the serve writer's apply span
/// are not query work and are left out.
void add_kernel_samples(const mcc::obs::Profiler& prof, double queries,
                        LayerSamples& samples);

/// runtime.cache_build_ns_per_miss from one traced wormhole repetition:
/// the mean guidance-field build on a cache miss. MccRouting2D wraps each
/// build in a cache-build span; DynamicModel3D's cache runs the flood
/// kernel directly, so there the flood spans are the builds.
void add_cache_build_sample(const mcc::obs::Profiler& prof,
                            LayerSamples& samples);

}  // namespace perfbench
