// paper-sweep: the experiment of the paper's Section 6 as a single-client
// closed loop on one thread, with no cache, no service and no I/O. Each
// step solves one (net, target) case with core::rip_insert and then
// core::run_baseline (Table 1's g=10u library: size 10, 200 um pitch).
//
// Each net is designed at one of the ten Section 6 targets (1.05 ..
// 2.05 tau_min). The 350 cases cross 7 segment counts, 5 length
// quintiles and 10 targets once each, so every seed runs the same mix.
// They run in five blocks of 70 that each hold every (segment count,
// target) pair; cases_per_s is the median over blocks, so a burst of
// machine noise that slows one block does not move it.
//
// rip_p50_ms / rip_p95_ms are taken over 1050 latency cases: each step
// also calls rip_insert on two more nets, drawn from the same strata,
// that have no baseline. More distinct nets, rather than repeats of
// fewer, keep the percentiles steady from seed to seed. A case run again
// in a later pass reports its median.

#include <cstdint>
#include <optional>

#include "core/baseline.hpp"
#include "core/rip.hpp"
#include "dp/min_delay.hpp"
#include "dp/workspace.hpp"
#include "eval/workload.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kTargets = 10;              // 1.05 .. 2.05 tau_min
constexpr int kBlock = 7 * kTargets;      // segment counts x targets
constexpr int kCases = 5 * kBlock;        // x length quintiles
constexpr int kPerStep = 3;               // rip_insert calls per step
constexpr int kSetupRepeats = 3;

struct Stratum {
  int segments;
  int quintile;
  int target;
};

/// Case i's stratum. Block b = i / 70 holds each (segment count, target)
/// pair once; across the five blocks each pair meets each quintile once.
Stratum stratum(int i) {
  const int b = i / kBlock;
  const int j = i % kBlock;
  return {4 + j / kTargets, (j + b) % 5, j % kTargets};
}

/// What one timed phase leaves behind.
struct Sweep {
  std::uint64_t steps = 0;
  double wall_ns = 0;
  std::vector<double> block_rate;            ///< cases/s of each block
  /// Per latency case (net c; c < kCases are the closed-loop cases),
  /// every sample and the first answer.
  std::vector<std::vector<double>> rip_ms;
  std::vector<std::optional<rip::core::RipResult>> rip;
  std::vector<std::optional<rip::dp::ChainDpResult>> baseline;
  SolveTally tally;              ///< the first pass's own solves
  std::uint64_t mismatches = 0;  ///< later calls that changed an answer
};

/// Run whole blocks of steps, round the cases, until at least
/// `min_steps` are done and `seconds` have gone by, or `max_steps` are.
Sweep sweep(const std::vector<rip::net::Net>& nets,
            const std::vector<double>& targets_fs,
            const rip::tech::Technology& tech,
            const rip::core::BaselineOptions& baseline,
            std::uint64_t min_steps, std::uint64_t max_steps, double seconds,
            Trace* trace) {
  const rip::core::RipOptions rip_options;
  const auto& device = tech.device();
  rip::dp::Workspace& ws = rip::dp::Workspace::local();
  const std::size_t n = kCases;
  Sweep out;
  out.rip_ms.resize(nets.size());
  out.rip.resize(nets.size());
  out.baseline.resize(n);
  const std::int64_t t0 = now_ns();
  std::int64_t block_start = t0;
  while (out.steps % kBlock != 0 ||
         !((out.steps >= min_steps && out.wall_ns >= seconds * 1e9) ||
           out.steps >= max_steps)) {
    const std::size_t i = out.steps % n;
    const bool first_pass = out.steps < n;
    const auto id = static_cast<std::uint32_t>(i);
    const int case_span = trace ? trace->open(Layer::kCase, id, -1) : -1;
    for (std::size_t s = 0; s < kPerStep; ++s) {  // s = 0: the step's case
      const std::size_t c = i + s * n;
      const int span = trace ? trace->open(Layer::kRip, id, case_span) : -1;
      const std::uint64_t allocs = thread_allocs();
      const std::int64_t start = now_ns();
      rip::core::RipResult res = rip::core::rip_insert(
          nets[c], device, targets_fs[c], rip_options, ws);
      const std::int64_t end = now_ns();
      const std::uint64_t allocated = thread_allocs() - allocs;
      if (trace) {
        trace->close(span);
        trace->add_rip_stages(span, res);
      }
      out.rip_ms[c].push_back(ns_to_ms(static_cast<double>(end - start)));
      if (first_pass && s == 0) out.tally.add_rip(res, allocated);
      if (!out.rip[c]) {
        out.rip[c] = std::move(res);
      } else if (res.status != out.rip[c]->status ||
                 res.total_width_u != out.rip[c]->total_width_u) {
        ++out.mismatches;
      }
    }
    const int span = trace ? trace->open(Layer::kBaseline, id, case_span) : -1;
    rip::dp::ChainDpResult dp =
        rip::core::run_baseline(nets[i], device, targets_fs[i], baseline, ws);
    if (trace) {
      trace->close(span);
      trace->close(case_span);
    }
    if (first_pass) out.tally.add_baseline(dp);
    if (!out.baseline[i]) {
      out.baseline[i] = std::move(dp);
    } else if (dp.total_width_u != out.baseline[i]->total_width_u) {
      ++out.mismatches;
    }
    ++out.steps;
    const std::int64_t now = now_ns();
    out.wall_ns = static_cast<double>(now - t0);
    if (out.steps % kBlock == 0) {
      out.block_rate.push_back(kBlock / (static_cast<double>(now - block_start) / 1e9));
      block_start = now;
    }
  }
  return out;
}

}  // namespace

Outcome run_paper_sweep(const RunConfig& cfg) {
  // Inputs: the nets only. Targets come from the program's tau_min.
  std::vector<rip::net::Net> nets;
  {
    const rip::tech::Technology tech = rip::tech::make_tech180();
    rip::Rng master(cfg.seed);
    for (int c = 0; c < kPerStep * kCases; ++c) {
      rip::Rng rng = master.split();
      const Stratum s = stratum(c % kCases);
      nets.push_back(paper_net(tech, s.segments, s.quintile, rng,
                               "net_" + std::to_string(c + 1)));
    }
  }

  // Set-up a user pays before the sweep: the tech kit, the baseline
  // library and one tau_min solve per net. Repeated; the median counts.
  std::optional<rip::tech::Technology> tech;
  std::optional<rip::core::BaselineOptions> baseline;
  std::vector<double> targets_fs, setup_s, min_delay_ms;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::int64_t t0 = now_ns();
    tech.emplace(rip::tech::make_tech180());
    baseline = rip::core::BaselineOptions::uniform_library(10.0, 10.0, 10, 200.0);
    targets_fs.clear();
    for (std::size_t c = 0; c < nets.size(); ++c) {
      const std::int64_t m0 = now_ns();
      const auto md = rip::dp::min_delay(nets[c], tech->device(),
                                         {10.0, 400.0, 10.0, 200.0});
      min_delay_ms.push_back(ns_to_ms(static_cast<double>(now_ns() - m0)));
      const int target = stratum(static_cast<int>(c % kCases)).target;
      targets_fs.push_back(rip::eval::timing_targets_fs(
          md.tau_min_fs, kTargets)[static_cast<std::size_t>(target)]);
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // Untraced: at least one whole pass, for at least `seconds`. Traced:
  // an untraced reference of up to one pass for seconds/2, then one
  // traced pass, which the checks and counters use.
  Outcome out;
  const std::uint64_t pass = kCases;
  const Sweep run =
      cfg.trace ? sweep(nets, targets_fs, *tech, *baseline, kBlock, pass,
                        cfg.seconds / 2, nullptr)
                : sweep(nets, targets_fs, *tech, *baseline, pass, UINT64_MAX,
                        cfg.seconds, nullptr);
  Trace trace;
  std::optional<Sweep> traced;
  if (cfg.trace) {
    traced = sweep(nets, targets_fs, *tech, *baseline, pass, pass, 0, &trace);
  }
  const Sweep& checked = traced ? *traced : run;
  out.attempted = run.steps + (traced ? traced->steps : 0);
  for (std::uint64_t m = 0; m < run.mismatches + (traced ? traced->mismatches : 0); ++m) {
    out.fail("a repeated solve returned a different answer");
  }

  // Independent re-check of every answer: each RIP solve, and the
  // baseline of each closed-loop case.
  PowerRatio power;
  for (std::size_t c = 0; c < nets.size(); ++c) {
    const double tau = targets_fs[c];
    const auto& r = *checked.rip[c];
    std::string why;
    if (r.status != rip::dp::Status::kOptimal) {
      why = "RIP infeasible";
    } else {
      why = check_solution(nets[c], tech->device(), tau, r.solution, r.total_width_u);
    }
    if (why.empty() && c < kCases && checked.baseline[c]->status == rip::dp::Status::kOptimal) {
      const auto& b = *checked.baseline[c];
      why = check_solution(nets[c], tech->device(), tau, b.solution, b.total_width_u);
      if (!why.empty()) why = "baseline: " + why;
      if (why.empty()) power.add(r.total_width_u, b.total_width_u);
    }
    if (!why.empty()) out.fail(nets[c].name() + " @ " + std::to_string(tau) + " fs: " + why);
  }

  if (!cfg.trace) {
    std::vector<double> case_ms;
    for (const auto& samples : run.rip_ms) case_ms.push_back(median(samples));
    add_end_to_end(out, median(run.block_rate), case_ms, power, median(setup_s));
    return out;
  }

  // Tracing overhead over the steps the untraced reference ran.
  const std::uint64_t k = run.steps;
  std::int64_t first_start = 0, last_end = 0;
  for (const Span& s : trace.spans()) {
    if (s.layer != Layer::kCase) continue;
    if (s.case_id == 0) first_start = s.start_ns;
    if (s.case_id == k - 1) last_end = s.end_ns;
  }
  LayerInputs in;
  in.trace = &trace;
  in.tally = traced->tally;
  in.traced_wall_ns = traced->wall_ns;
  in.traced_cases_per_s =
      static_cast<double>(k) / (static_cast<double>(last_end - first_start) / 1e9);
  in.untraced_cases_per_s = static_cast<double>(k) / (run.wall_ns / 1e9);
  in.min_delay_ms = mean(min_delay_ms);
  add_layer_metrics(in, out);
  out.trace = std::move(trace);
  return out;
}

}  // namespace perfbench
