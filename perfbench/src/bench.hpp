#pragma once

/// @file bench.hpp
/// Shared pieces of the repo benchmark: clocks, order statistics, the
/// metric list every workload returns, the in-memory span trace, the
/// solver-counter tally and the independent solution check.
///
/// Everything here sits outside the library: spans are recorded around
/// calls into the public API, and counters are read from the result
/// structs those calls already return.

#include <cstdint>
#include <string>
#include <vector>

#include "core/rip.hpp"
#include "dp/chain_dp.hpp"
#include "net/net.hpp"
#include "net/solution.hpp"
#include "tech/technology.hpp"

namespace perfbench {

// ------------------------------------------------------------------ clocks

std::int64_t now_ns();
std::int64_t thread_cpu_ns();  ///< CLOCK_THREAD_CPUTIME_ID
inline double ns_to_ms(double ns) { return ns / 1e6; }

/// Heap allocations made by the calling thread (counting allocator in
/// alloc_count.cpp).
std::uint64_t thread_allocs();

// ------------------------------------------------------------- statistics

double mean(const std::vector<double>& v);
double median(std::vector<double> v);
/// Nearest-rank quantile, p in (0, 1].
double quantile(std::vector<double> v, double p);

// ----------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Workload parameters from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 2005;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;   ///< scratch files (netlists, CSVs, trace)
  std::string source_id = "unknown";  ///< commit or source digest
};

// -------------------------------------------------------------------- trace

/// The layers the benchmark times. Each is a call (or part of a call)
/// into the library's public API, except kCase, which groups one case.
enum class Layer : std::uint8_t {
  kCase,        // one (net, target) case of the closed loop
  kRead,        // net::NetlistReader::next
  kSubmit,      // eval::EvalService::submit_fn (blocks on backpressure)
  kQueue,       // submitted -> picked up by a service thread
  kRun,         // the submitted thunk on a service thread
  kWait,        // client blocked on the oldest future
  kRip,         // core::rip_insert (self = work outside the three stages)
  kCoarse,      // RipResult::coarse_s
  kRefine,      // RipResult::refine_s
  kFine,        // RipResult::final_s
  kBaseline,    // core::run_baseline
  kCount
};
const char* layer_name(Layer layer);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = -1;  ///< thread CPU time, when measured
  std::int32_t parent = -1;  ///< index in the same trace, -1 = root
  std::uint32_t case_id = 0;
  Layer layer = Layer::kCase;
  std::uint8_t thread = 0;   ///< 0 = client thread, 1 = service thread
};

/// Spans kept in memory and written out once, at the end of the run.
class Trace {
 public:
  int open(Layer layer, std::uint32_t case_id, int parent,
           std::uint8_t thread = 0);
  void close(int index) { spans_[static_cast<std::size_t>(index)].end_ns = now_ns(); }
  int add(const Span& span);
  Span& span(int index) { return spans_[static_cast<std::size_t>(index)]; }
  /// Append spans recorded elsewhere (a service thread), whose parent
  /// indices are relative to `local`.
  void append(const std::vector<Span>& local);

  /// The RIP stage timers of `rip` as child spans of `rip_span`, laid
  /// end to end from the span's start.
  void add_rip_stages(int rip_span, const rip::core::RipResult& rip);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus its children's.
  std::vector<std::int64_t> self_ns() const;

  /// Write one tab-separated line per span.
  void write(const std::string& path, const std::string& header) const;

 private:
  std::vector<Span> spans_;
};

/// What one workload run hands back to main().
struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;  ///< cases the timed phase ran
  std::uint64_t failed = 0;     ///< cases that failed a check or threw
  std::vector<std::string> errors;  ///< first few failure descriptions
  int jobs = 1;            ///< service threads (provenance)
  std::size_t window = 0;  ///< service queue bound; 0 = no service
  Trace trace;             ///< the traced run's spans

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(const std::string& what);
};

/// Per-layer aggregate over a trace.
struct LayerSummary {
  std::uint64_t count = 0;
  std::int64_t self_ns = 0;
  std::vector<double> dur_ms;  ///< span durations
  std::vector<double> cpu_ms;  ///< thread CPU, when measured
};
std::vector<LayerSummary> summarize(const Trace& trace);

/// Sum of self time over the spans that belong to a library layer
/// (everything but kCase) recorded on `thread`.
std::int64_t layer_self_ns(const Trace& trace, std::uint8_t thread);

// -------------------------------------------------------- solver counters

/// Exact counters read from the results rip_insert and run_baseline
/// return. Merged across threads by the client.
struct SolveTally {
  std::uint64_t rip_solves = 0;
  std::uint64_t rip_fallbacks = 0;  ///< RipResult::used_fallback
  std::uint64_t stage3_runs = 0;    ///< stage 3 ran (REFINE succeeded)
  std::uint64_t refine_runs = 0;
  std::uint64_t refine_fails = 0;   ///< width solve did not converge
  std::uint64_t refine_iterations = 0;
  std::uint64_t rip_allocs = 0;
  double coarse_s = 0, refine_s = 0, fine_s = 0;
  std::uint64_t coarse_created = 0, coarse_pruned = 0;
  std::uint64_t fine_created = 0, fine_pruned = 0, fine_peak = 0;
  std::uint64_t baseline_solves = 0;
  std::uint64_t baseline_created = 0, baseline_pruned = 0;

  void add_rip(const rip::core::RipResult& rip, std::uint64_t allocs);
  void add_baseline(const rip::dp::ChainDpResult& dp);
  void merge(const SolveTally& other);
};

// ------------------------------------------------------------------- checks

/// Independent re-check of a returned solution: legal placement (inside
/// the net, outside forbidden zones), the reported width sum, and the
/// rc::elmore_delay_fs delay against the target. Empty when it holds.
std::string check_solution(const rip::net::Net& net,
                           const rip::tech::RepeaterDevice& device,
                           double tau_t_fs,
                           const rip::net::RepeaterSolution& solution,
                           double reported_width_u);

/// rip_power_pct: RIP's total repeater width as a share of the
/// baseline's, averaged over cases where both are feasible. A case where
/// both insert nothing counts as 100%; one where only RIP inserts
/// repeaters cannot arise (a repeaterless answer is optimal for both).
struct PowerRatio {
  double sum = 0;
  std::uint64_t cases = 0;
  void add(double rip_u, double dp_u);
  double pct() const { return cases ? sum / static_cast<double>(cases) : 0; }
};

/// The end-to-end metrics every untraced run reports, in order.
void add_end_to_end(Outcome& out, double cases_per_s,
                    const std::vector<double>& rip_case_ms,
                    const PowerRatio& power, double setup_s);

/// Per-layer metrics shared by every workload, computed from a trace
/// and a tally. Layers a workload does not run report 0.
struct LayerInputs {
  const Trace* trace = nullptr;
  SolveTally tally;
  double traced_wall_ns = 0;      ///< wall clock of the traced phase
  double traced_cases_per_s = 0;
  double untraced_cases_per_s = 0;
  double min_delay_ms = 0;        ///< mean dp::min_delay solve in set-up
  int service_jobs = 0;           ///< 0 = no service in this workload
  double cache_hits = 0, cache_misses = 0, cache_bytes = 0;  ///< per pass
};
void add_layer_metrics(const LayerInputs& in, Outcome& out);

/// Peak resident set of this process [MiB].
double peak_rss_mib();

}  // namespace perfbench
