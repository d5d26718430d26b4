#pragma once

/// @file workloads.hpp
/// The benchmark's workloads. Each builds its inputs from the seed,
/// times its phase for `seconds`, checks every answer and returns the
/// end-to-end metrics (untraced run) or the per-layer ones (traced run).

#include "bench.hpp"

namespace perfbench {

Outcome run_paper_sweep(const RunConfig& cfg);
Outcome run_stream_small(const RunConfig& cfg);
Outcome run_stream_paper_cached(const RunConfig& cfg);

}  // namespace perfbench
