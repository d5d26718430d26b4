#include "inputs.hpp"

#include <cmath>

#include "net/generator.hpp"
#include "net/netlist_io.hpp"
#include "net/solution.hpp"
#include "rc/buffered_chain.hpp"
#include "util/rng.hpp"

namespace perfbench {

using rip::Rng;

rip::net::Net paper_net(const rip::tech::Technology& tech, int segments,
                        int length_quintile, Rng& rng, const std::string& name) {
  // Quintile edges of a standard normal: the sum of k uniform segment
  // lengths is close enough to normal for k >= 4.
  constexpr double kEdges[] = {-1e300, -0.8416, -0.2533, 0.2533, 0.8416, 1e300};
  rip::net::RandomNetConfig config;
  const double lo = config.min_segment_length_um;
  const double hi = config.max_segment_length_um;
  config.min_segments = config.max_segments = segments;
  const double mean = segments * (lo + hi) / 2;
  const double sd = std::sqrt(segments * (hi - lo) * (hi - lo) / 12);
  while (true) {
    rip::net::Net net = rip::net::random_net(tech, config, rng, name);
    const double z = (net.total_length_um() - mean) / sd;
    if (z >= kEdges[length_quintile] && z < kEdges[length_quintile + 1]) {
      return net;
    }
  }
}

namespace {

rip::net::Net small_net(Rng& rng, std::uint64_t index) {
  const int segment_count = rng.uniform_int(2, 4);
  std::vector<rip::net::Segment> segments;
  double total_um = 0;
  for (int s = 0; s < segment_count; ++s) {
    rip::net::Segment seg;
    seg.length_um = rng.uniform(200.0, 700.0);
    seg.r_ohm_per_um = rng.uniform(0.08, 0.12);
    seg.c_ff_per_um = rng.uniform(0.18, 0.25);
    seg.layer = rng.bernoulli(0.5) ? "metal4" : "metal5";
    total_um += seg.length_um;
    segments.push_back(std::move(seg));
  }
  std::vector<rip::net::ForbiddenZone> zones;
  if (rng.bernoulli(0.2)) {
    const double start = rng.uniform(0.1, 0.6) * total_um;
    zones.push_back(rip::net::ForbiddenZone{start, start + 0.15 * total_um});
  }
  const double driver_u = rng.uniform(80.0, 160.0);
  const double receiver_u = rng.uniform(40.0, 80.0);
  std::string name = "s";  // not "s" + to_string(): GCC 12 -Wrestrict false positive
  name += std::to_string(index);
  return rip::net::Net(std::move(name), driver_u, receiver_u,
                       std::move(segments), std::move(zones));
}

}  // namespace

void write_small_netlist(const rip::tech::Technology& tech,
                         const std::string& path, std::uint64_t count,
                         std::uint64_t seed) {
  Rng rng(seed);
  rip::net::NetlistWriter writer(path, rip::net::NetlistFormat::kBinary);
  for (std::uint64_t i = 0; i < count; ++i) {
    const rip::net::Net n = small_net(rng, i);
    writer.add(n, 3.0 * rip::rc::elmore_delay_fs(n, rip::net::RepeaterSolution{},
                                                 tech.device()));
  }
  writer.close();
}

void write_netlist(const std::string& path,
                   const std::vector<rip::net::Net>& nets,
                   const std::vector<std::vector<double>>& targets_fs) {
  rip::net::NetlistWriter writer(path, rip::net::NetlistFormat::kBinary);
  for (std::size_t i = 0; i < nets.size(); ++i) {
    for (double t : targets_fs[i]) writer.add(nets[i], t);
  }
  writer.close();
}

}  // namespace perfbench
