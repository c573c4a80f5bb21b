// Correctness checkers that share no code with the program: a brute-force
// minimal-path oracle, a route checker and an mcc.flit/1 trace checker.
// They work on the benchmark's own fault bitmap and plain coordinates, so
// a bug in the program's labels, regions or simulator cannot hide itself
// by also bending the check. checker_self_tests() proves each one can
// fail by feeding it a hand-built bad case.
#pragma once

#include <array>
#include <cstdint>
#include <istream>
#include <string>
#include <vector>

namespace perfbench {

using Pt = std::array<int, 3>;  // 2-D meshes use z = 0 and nz = 1

int manhattan(const Pt& a, const Pt& b);

/// True when the pair's bounding box is exactly two layers thick along
/// some axis (|s - d| == 1 there). On such pairs core::mcc_feasible3d can
/// answer "feasible" for a walled-off pair (README.md, "Known faults").
bool two_layer_box(const Pt& s, const Pt& d);

/// Fault bitmap of an nx x ny x nz mesh.
class FaultGrid {
 public:
  FaultGrid(int nx, int ny, int nz)
      : nx_(nx), ny_(ny), nz_(nz),
        dead_(static_cast<size_t>(nx) * ny * nz, 0) {}

  bool contains(const Pt& p) const {
    return p[0] >= 0 && p[0] < nx_ && p[1] >= 0 && p[1] < ny_ &&
           p[2] >= 0 && p[2] < nz_;
  }
  bool dead(const Pt& p) const { return dead_[index(p)] != 0; }
  void set(const Pt& p, bool faulty) { dead_[index(p)] = faulty ? 1 : 0; }
  bool operator==(const FaultGrid& o) const = default;

 private:
  size_t index(const Pt& p) const {
    return (static_cast<size_t>(p[2]) * ny_ + p[1]) * nx_ + p[0];
  }
  int nx_, ny_, nz_;
  std::vector<uint8_t> dead_;
};

/// Brute force: does a minimal path s -> d exist over the non-faulty nodes
/// of the pair's bounding box? (Monotone reachability sweep of the box.)
bool minimal_path_exists(const FaultGrid& g, const Pt& s, const Pt& d);

/// Empty when `path` is a delivered minimal route s -> d: it starts at s,
/// ends at d, every step is one unit move toward d, and no node on it is
/// faulty. Otherwise the reason it is not.
std::string check_minimal_route(const FaultGrid& g, const Pt& s, const Pt& d,
                                const std::vector<Pt>& path);

/// Result of checking one mcc.flit/1 trace.
struct FlitTraceCheck {
  uint64_t injected = 0;
  uint64_t delivered = 0;
  uint64_t dropped = 0;
  uint64_t hops = 0;  // route events over all packets
  std::string error;  // empty = every property held
};

/// Checks a flit trace of a `dims`-dimensional mesh: every injected packet
/// is delivered or dropped exactly once; every hop of every packet is a
/// unit move toward its destination (so a delivered packet makes exactly
/// its Manhattan distance in hops); every delivered packet's latency is at
/// least its distance + flits - 1.
FlitTraceCheck check_flit_trace(std::istream& in, int dims);

/// Hand-built bad cases (a walled-off pair, a route through a fault, a
/// trace with a detour hop, a trace with a lost packet) and their good
/// twins. Returns one line per checker that failed to tell them apart.
std::vector<std::string> checker_self_tests();

}  // namespace perfbench
