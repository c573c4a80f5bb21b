// mcc_perfbench: one benchmark for the MCC system (see ../README.md).
//
//   mcc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints the build provenance, one line per metric (median and quartiles
// over the run's repetitions), the attempted/failed operation counts and
// the correctness verdict, then — as the last line of stdout — one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones from untraced runs; with --trace 1 they
// are the per-layer split from runs with the obs profiler installed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "checks.h"
#include "common.h"
#include "obs/obs.h"

namespace perfbench {

namespace obs = mcc::obs;

uint64_t derive_seed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  s.median = n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  if (n == 1) {
    s.q1 = s.q3 = v[0];
    return s;
  }
  const auto quartile = [&](int i) {  // statistics.quantiles, exclusive
    const long m = static_cast<long>(n) + 1;
    long j = i * m / 4;
    j = std::clamp<long>(j, 1, static_cast<long>(n) - 1);
    const double delta = static_cast<double>(i * m - j * 4);
    return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  const size_t k = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return v[k];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void Report::metric(const std::string& name, const std::string& unit,
                    std::vector<double> samples) {
  for (const double x : samples)
    check(std::isfinite(x), "metric " + name + " is not a finite number");
  metrics_.push_back({name, unit, std::move(samples)});
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) errors_.push_back(what);
}

void Report::op(bool ok, const std::string& what) { ops(1, ok ? 0 : 1, what); }

void Report::ops(uint64_t attempted, uint64_t failed,
                 const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  check(failed == 0, std::to_string(failed) + " x " + what);
}

void Report::known_fault(uint64_t attempted, uint64_t failed,
                         const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed != 0) note(std::to_string(failed) + " x " + what);
}

namespace {

constexpr const char* kWorkloads[] = {"wh2d_k32_t1", "churn3d_k12",
                                      "serve3d_k16"};

int usage(const char* why) {
  std::fprintf(stderr,
               "mcc_perfbench: %s\n"
               "usage: mcc_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n"
               "workloads: wh2d_k32_t1 churn3d_k12 serve3d_k16\n",
               why);
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print(const Report& r) {
  const obs::BuildProvenance& b = obs::build_provenance();
  std::printf("# build compiler=\"%s\" build_type=%s hw_lanes=%u git=%s\n",
              b.compiler.c_str(), b.build_type.c_str(), b.hw_lanes,
              b.git_hash.c_str());
  if (b.build_type != "Release")
    std::printf("# WARNING: build_type=%s is not Release; its timings are "
                "not comparable with Release figures\n",
                b.build_type.c_str());
  for (const Metric& m : r.metrics()) {
    const Summary s = summarize(m.samples);
    const double spread = s.median != 0 ? (s.q3 - s.q1) / s.median : 0;
    std::printf("metric %s %s %s median=%.6g q1=%.6g q3=%.6g spread=%.4f "
                "n=%zu\n",
                r.workload().c_str(), m.name.c_str(), m.unit.c_str(),
                s.median, s.q1, s.q3, spread, s.n);
  }
  std::printf("ops %s attempted=%llu failed=%llu\n", r.workload().c_str(),
              static_cast<unsigned long long>(r.attempted()),
              static_cast<unsigned long long>(r.failed()));
  for (const std::string& n : r.notes())
    std::printf("note %s: %s\n", r.workload().c_str(), n.c_str());
  for (const std::string& e : r.errors())
    std::printf("check %s FAIL: %s\n", r.workload().c_str(), e.c_str());
  if (r.errors().empty()) std::printf("check %s ok\n", r.workload().c_str());

  std::string json = "{\"correct\": ";
  json += r.errors().empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted());
  json += ", \"failed\": " + std::to_string(r.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics()) {
    json += first ? "" : ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " +
            json_number(summarize(m.samples).median) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage("help"), 0;
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val, &end, 0);
      if (*end != '\0') return usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(opt.seconds > 0) || opt.seconds > 600)
        return usage("--seconds takes a number in (0, 600]");
    } else if (arg == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0)
        return usage("--trace takes 0 or 1");
      opt.trace = val[0] == '1';
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                   [&](const char* w) { return opt.workload == w; }) ==
      std::end(kWorkloads))
    return usage(("unknown workload " + opt.workload).c_str());

  Report report(opt.workload);
  // Every run first proves its checkers can fail.
  for (const std::string& e : checker_self_tests())
    report.check(false, "checker self-test: " + e);

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  if (opt.workload == "wh2d_k32_t1")
    run_wh2d(opt, report);
  else if (opt.workload == "churn3d_k12")
    run_churn3d(opt, report);
  else
    run_serve3d(opt, report);
  print(report);
  return 0;
}
