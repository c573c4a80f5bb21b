#include "checks.h"

#include <cstdlib>
#include <sstream>
#include <unordered_map>

namespace perfbench {

int manhattan(const Pt& a, const Pt& b) {
  return std::abs(a[0] - b[0]) + std::abs(a[1] - b[1]) + std::abs(a[2] - b[2]);
}

bool two_layer_box(const Pt& s, const Pt& d) {
  for (int a = 0; a < 3; ++a)
    if (std::abs(s[a] - d[a]) == 1) return true;
  return false;
}

bool minimal_path_exists(const FaultGrid& g, const Pt& s, const Pt& d) {
  if (!g.contains(s) || !g.contains(d) || g.dead(s) || g.dead(d)) return false;
  Pt len{}, dir{};
  for (int a = 0; a < 3; ++a) {
    len[a] = std::abs(d[a] - s[a]) + 1;
    dir[a] = d[a] >= s[a] ? 1 : -1;
  }
  // reach[o] = some monotone path from s reaches offset o of the box.
  std::vector<uint8_t> reach(static_cast<size_t>(len[0]) * len[1] * len[2], 0);
  const auto at = [&](int ox, int oy, int oz) -> uint8_t& {
    return reach[(static_cast<size_t>(oz) * len[1] + oy) * len[0] + ox];
  };
  for (int oz = 0; oz < len[2]; ++oz)
    for (int oy = 0; oy < len[1]; ++oy)
      for (int ox = 0; ox < len[0]; ++ox) {
        const Pt c{s[0] + dir[0] * ox, s[1] + dir[1] * oy, s[2] + dir[2] * oz};
        if (g.dead(c)) continue;
        at(ox, oy, oz) = (ox == 0 && oy == 0 && oz == 0) ||
                         (ox > 0 && at(ox - 1, oy, oz)) ||
                         (oy > 0 && at(ox, oy - 1, oz)) ||
                         (oz > 0 && at(ox, oy, oz - 1));
      }
  return at(len[0] - 1, len[1] - 1, len[2] - 1) != 0;
}

std::string check_minimal_route(const FaultGrid& g, const Pt& s, const Pt& d,
                                const std::vector<Pt>& path) {
  if (path.empty() || path.front() != s) return "route does not start at s";
  if (path.back() != d) return "route does not end at d";
  if (static_cast<int>(path.size()) - 1 != manhattan(s, d))
    return "route is not minimal";
  for (size_t i = 0; i < path.size(); ++i) {
    if (!g.contains(path[i])) return "route leaves the mesh";
    if (g.dead(path[i])) return "route crosses a faulty node";
    if (i > 0 && (manhattan(path[i - 1], path[i]) != 1 ||
                  manhattan(path[i], d) + 1 != manhattan(path[i - 1], d)))
      return "route step is not a unit move toward d";
  }
  return {};
}

namespace {

// Field readers for the flat mcc.flit/1 objects. They return false when
// the key is absent or malformed.
bool read_u64(const std::string& line, const char* key, uint64_t& out) {
  const std::string k = std::string("\"") + key + "\":";
  const size_t at = line.find(k);
  if (at == std::string::npos) return false;
  char* end = nullptr;
  out = std::strtoull(line.c_str() + at + k.size(), &end, 10);
  return end != line.c_str() + at + k.size();
}

bool read_str(const std::string& line, const char* key, std::string& out) {
  const std::string k = std::string("\"") + key + "\":\"";
  const size_t at = line.find(k);
  if (at == std::string::npos) return false;
  const size_t end = line.find('"', at + k.size());
  if (end == std::string::npos) return false;
  out = line.substr(at + k.size(), end - at - k.size());
  return true;
}

bool read_pt(const std::string& line, const char* key, int dims, Pt& out) {
  const std::string k = std::string("\"") + key + "\":[";
  const size_t at = line.find(k);
  if (at == std::string::npos) return false;
  out = {0, 0, 0};
  const char* p = line.c_str() + at + k.size();
  for (int a = 0; a < dims; ++a) {
    char* end = nullptr;
    out[a] = static_cast<int>(std::strtol(p, &end, 10));
    if (end == p) return false;
    p = end;
    if (*p != (a + 1 == dims ? ']' : ',')) return false;
    ++p;
  }
  return true;
}

}  // namespace

FlitTraceCheck check_flit_trace(std::istream& in, int dims) {
  enum class State : uint8_t { InFlight, Delivered, Dropped };
  struct Packet {
    Pt src{}, dst{}, pos{};
    uint64_t flits = 0;
    State state = State::InFlight;
  };
  std::unordered_map<uint64_t, Packet> packets;
  FlitTraceCheck out;
  const auto fail = [&](uint64_t n, const std::string& why) {
    out.error = "flit trace line " + std::to_string(n) + ": " + why;
    return out;
  };

  std::string line, ev;
  uint64_t n = 0;
  while (std::getline(in, line)) {
    ++n;
    uint64_t pkt = 0;
    if (!read_str(line, "ev", ev)) return fail(n, "no event kind");
    if (ev == "truncated") return fail(n, "trace truncated (buffer full)");
    if (!read_u64(line, "pkt", pkt)) return fail(n, "no packet id");
    if (ev == "inject") {
      Packet p;
      if (!read_pt(line, "src", dims, p.src) ||
          !read_pt(line, "dst", dims, p.dst) ||
          !read_u64(line, "flits", p.flits))
        return fail(n, "malformed inject");
      p.pos = p.src;
      if (!packets.emplace(pkt, p).second)
        return fail(n, "packet " + std::to_string(pkt) + " injected twice");
      ++out.injected;
      continue;
    }
    const auto it = packets.find(pkt);
    if (it == packets.end())
      return fail(n, ev + " of packet " + std::to_string(pkt) +
                         " that was never injected");
    Packet& p = it->second;
    if (p.state != State::InFlight)
      return fail(n, ev + " of packet " + std::to_string(pkt) +
                         " after it was delivered or dropped");
    if (ev == "route") {
      uint64_t port = 0;
      if (!read_u64(line, "port", port) || port >= 2u * dims)
        return fail(n, "malformed route");
      const int axis = static_cast<int>(port / 2);
      const Pt before = p.pos;
      p.pos[axis] += port % 2 == 0 ? 1 : -1;
      if (manhattan(p.pos, p.dst) + 1 != manhattan(before, p.dst))
        return fail(n, "packet " + std::to_string(pkt) +
                           " made a non-minimal (detour) hop");
      ++out.hops;
    } else if (ev == "deliver") {
      uint64_t latency = 0;
      if (!read_u64(line, "latency", latency))
        return fail(n, "malformed deliver");
      if (p.pos != p.dst)
        return fail(n, "packet " + std::to_string(pkt) +
                           " delivered away from its destination");
      const uint64_t bound =
          static_cast<uint64_t>(manhattan(p.src, p.dst)) + p.flits - 1;
      if (latency < bound)
        return fail(n, "packet " + std::to_string(pkt) + " latency " +
                           std::to_string(latency) + " below the bound " +
                           std::to_string(bound));
      p.state = State::Delivered;
      ++out.delivered;
    } else if (ev == "drop") {
      p.state = State::Dropped;
      ++out.dropped;
    } else {
      return fail(n, "unknown event '" + ev + "'");
    }
  }
  for (const auto& [id, p] : packets)
    if (p.state == State::InFlight)
      return fail(n, "packet " + std::to_string(id) +
                         " was injected but never delivered or dropped");
  return out;
}

std::vector<std::string> checker_self_tests() {
  std::vector<std::string> bad;

  // Oracle: a wall across the whole box walls the pair off; one hole in
  // it on a monotone path opens it again. Same in 3-D with a plate.
  FaultGrid wall(5, 5, 1);
  for (int y = 0; y < 5; ++y) wall.set({2, y, 0}, true);
  if (minimal_path_exists(wall, {0, 0, 0}, {4, 4, 0}))
    bad.push_back("oracle found a path through a wall");
  wall.set({2, 4, 0}, false);
  if (!minimal_path_exists(wall, {0, 0, 0}, {4, 4, 0}))
    bad.push_back("oracle missed the path through the hole");
  FaultGrid plate(4, 4, 4);
  for (int x = 0; x < 4; ++x)
    for (int y = 0; y < 4; ++y) plate.set({x, y, 2}, true);
  if (minimal_path_exists(plate, {3, 0, 0}, {0, 3, 3}))
    bad.push_back("oracle found a path through a plate");
  if (!minimal_path_exists(plate, {3, 0, 0}, {0, 3, 1}))
    bad.push_back("oracle missed a path below the plate");

  // Route checker: minimal good route vs a detour and a route through a
  // fault.
  FaultGrid g(3, 3, 1);
  g.set({1, 1, 0}, true);
  const Pt s{0, 0, 0}, d{2, 1, 0};
  if (!check_minimal_route(g, s, d, {s, {1, 0, 0}, {2, 0, 0}, d}).empty())
    bad.push_back("route checker rejected a good route");
  if (check_minimal_route(g, s, d, {s, {1, 0, 0}, {1, 1, 0}, d}).empty())
    bad.push_back("route checker accepted a route through a fault");
  if (check_minimal_route(g, s, d,
                          {s, {0, 1, 0}, {0, 2, 0}, {1, 2, 0}, {2, 2, 0}, d})
          .empty())
    bad.push_back("route checker accepted a detour");

  // Flit-trace checker.
  const std::string inject =
      "{\"schema\":\"mcc.flit/1\",\"cycle\":0,\"ev\":\"inject\",\"pkt\":1,"
      "\"src\":[0,0],\"dst\":[2,0],\"flits\":2}\n";
  const auto hop = [](int port) {
    return "{\"schema\":\"mcc.flit/1\",\"cycle\":1,\"ev\":\"route\","
           "\"pkt\":1,\"port\":" +
           std::to_string(port) + ",\"vc\":0}\n";
  };
  const auto deliver = [](int latency) {
    return "{\"schema\":\"mcc.flit/1\",\"cycle\":5,\"ev\":\"deliver\","
           "\"pkt\":1,\"latency\":" +
           std::to_string(latency) + "}\n";
  };
  const auto verdict = [](const std::string& trace) {
    std::istringstream in(trace);
    return check_flit_trace(in, 2).error;
  };
  if (!verdict(inject + hop(0) + hop(0) + deliver(3)).empty())
    bad.push_back("flit checker rejected a good trace");
  if (verdict(inject + hop(0) + hop(2) + hop(0) + deliver(4)).empty())
    bad.push_back("flit checker accepted a detour hop");
  if (verdict(inject + hop(0) + hop(0)).empty())
    bad.push_back("flit checker accepted a lost packet");
  if (verdict(inject + hop(0) + hop(0) + deliver(2)).empty())
    bad.push_back("flit checker accepted a latency below the bound");
  if (verdict(inject + hop(0) + hop(0) + deliver(3) + deliver(3)).empty())
    bad.push_back("flit checker accepted a double delivery");
  return bad;
}

}  // namespace perfbench
