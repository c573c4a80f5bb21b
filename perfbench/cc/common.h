// Shared plumbing of the MCC benchmark: options, seeds, timing, the
// per-workload report (metrics with their repetition samples, attempted and
// failed operation counts, correctness verdict) and the workload entry
// points. Everything here is the benchmark's own code; it reaches the
// program only through the public headers of its layers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// splitmix64 over (seed, tag): one independent stream per generated input
/// (fault set, churn timeline, traffic, query pairs), all from --seed.
uint64_t derive_seed(uint64_t seed, uint64_t tag);

/// Median and quartiles as Python's statistics.quantiles(n=4) computes
/// them (the "exclusive" method); a single sample is its own quartiles.
struct Summary {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  size_t n = 0;
};
Summary summarize(std::vector<double> samples);

/// Nearest-rank percentile (p in (0, 1]) of an unsorted sample.
double percentile(std::vector<double> samples, double p);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> samples;  // one per repetition (or a single value)
};

class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void metric(const std::string& name, const std::string& unit,
              std::vector<double> samples);
  void metric(const std::string& name, const std::string& unit,
              double value) {
    metric(name, unit, std::vector<double>{value});
  }

  /// Records a failed correctness check (the run stays correct=false).
  void check(bool ok, const std::string& what);
  /// Counts one timed operation; a failed one is also a failed check.
  void op(bool ok, const std::string& what);
  /// Counts `attempted` operations of which `failed` failed.
  void ops(uint64_t attempted, uint64_t failed, const std::string& what);
  /// Counts `attempted` operations of which `failed` failed because of a
  /// known program fault (README.md, "Known faults"): they count in
  /// `failed`, and the run stays correct.
  void known_fault(uint64_t attempted, uint64_t failed,
                   const std::string& what);
  /// A line printed with the checks that does not fail the run.
  void note(const std::string& what) { notes_.push_back(what); }

  const std::string& workload() const { return workload_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& errors() const { return errors_; }
  const std::vector<std::string>& notes() const { return notes_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  std::string workload_;
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Workload entry points (wormhole.cc, serve.cc). Each generates its inputs
// from opt.seed, runs for opt.seconds, checks the program's outputs and
// fills `out` with the end-to-end metrics (opt.trace == false) or the
// per-layer split from a traced run (opt.trace == true).
void run_wh2d(const Options& opt, Report& out);
void run_churn3d(const Options& opt, Report& out);
void run_serve3d(const Options& opt, Report& out);

}  // namespace perfbench
