#pragma once

/// @file inputs.hpp
/// Workload inputs, made from the seed by the benchmark. The library
/// under test only ever sees the resulting nets and netlist files.

#include <cstdint>
#include <string>
#include <vector>

#include "net/net.hpp"
#include "tech/technology.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// One Section 6 net (net::random_net's default population) from a
/// stratum: `segments` segments (4..10) and a total length in quintile
/// `length_quintile` (0..4) of that segment count's length distribution.
/// Drawn by rejection, so it is still a draw from the population.
/// Stratified sampling gives every seed the same mix of short and long
/// nets, which keeps the work per run comparable across seeds.
rip::net::Net paper_net(const rip::tech::Technology& tech, int segments,
                        int length_quintile, rip::Rng& rng,
                        const std::string& name);

/// An RNLB netlist of `count` small nets (2-4 segments of 200-700 um,
/// one zone on a fifth of them) with stored targets at 3x the net's
/// unbuffered Elmore delay — the bench_stream population.
void write_small_netlist(const rip::tech::Technology& tech,
                         const std::string& path, std::uint64_t count,
                         std::uint64_t seed);

/// An RNLB netlist holding, net after net, one record per target.
void write_netlist(const std::string& path,
                   const std::vector<rip::net::Net>& nets,
                   const std::vector<std::vector<double>>& targets_fs);

}  // namespace perfbench
