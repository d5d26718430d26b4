#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "rc/buffered_chain.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void Outcome::fail(const std::string& what) {
  ++failed;
  if (errors.size() < 10) errors.push_back(what);
}

// -------------------------------------------------------------------- trace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kCase: return "case";
    case Layer::kRead: return "net.read";
    case Layer::kSubmit: return "service.submit";
    case Layer::kQueue: return "service.queue";
    case Layer::kRun: return "service.run";
    case Layer::kWait: return "service.wait";
    case Layer::kRip: return "rip";
    case Layer::kCoarse: return "rip.coarse";
    case Layer::kRefine: return "rip.refine";
    case Layer::kFine: return "rip.fine";
    case Layer::kBaseline: return "baseline";
    case Layer::kCount: break;
  }
  return "?";
}

int Trace::open(Layer layer, std::uint32_t case_id, int parent,
                std::uint8_t thread) {
  Span s;
  s.layer = layer;
  s.case_id = case_id;
  s.parent = parent;
  s.thread = thread;
  s.start_ns = now_ns();
  return add(s);
}

int Trace::add(const Span& span) {
  spans_.push_back(span);
  return static_cast<int>(spans_.size() - 1);
}

void Trace::append(const std::vector<Span>& local) {
  const auto offset = static_cast<std::int32_t>(spans_.size());
  for (Span s : local) {
    if (s.parent >= 0) s.parent += offset;
    spans_.push_back(s);
  }
}

void Trace::add_rip_stages(int rip_span, const rip::core::RipResult& rip) {
  const Span parent = spans_[static_cast<std::size_t>(rip_span)];
  std::int64_t t = parent.start_ns;
  const std::pair<Layer, double> stages[] = {{Layer::kCoarse, rip.coarse_s},
                                             {Layer::kRefine, rip.refine_s},
                                             {Layer::kFine, rip.final_s}};
  for (const auto& [layer, seconds] : stages) {
    if (seconds <= 0) continue;
    Span s = parent;
    s.layer = layer;
    s.parent = rip_span;
    s.cpu_ns = -1;
    s.start_ns = t;
    s.end_ns = t + static_cast<std::int64_t>(seconds * 1e9);
    t = s.end_ns;
    add(s);
  }
}

std::vector<std::int64_t> Trace::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  for (auto& v : self) v = std::max<std::int64_t>(v, 0);
  return self;
}

void Trace::write(const std::string& path, const std::string& header) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "# " << header << "\n";
  out << "layer\tcase\tparent\tthread\tstart_ns\tend_ns\tcpu_ns\n";
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    out << layer_name(s.layer) << '\t' << s.case_id << '\t' << s.parent
        << '\t' << int{s.thread} << '\t' << s.start_ns - t0 << '\t'
        << s.end_ns - t0 << '\t' << s.cpu_ns << '\n';
  }
}

std::vector<LayerSummary> summarize(const Trace& trace) {
  std::vector<LayerSummary> out(static_cast<std::size_t>(Layer::kCount));
  const auto self = trace.self_ns();
  const auto& spans = trace.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerSummary& l = out[static_cast<std::size_t>(spans[i].layer)];
    ++l.count;
    l.self_ns += self[i];
    l.dur_ms.push_back(ns_to_ms(static_cast<double>(spans[i].end_ns - spans[i].start_ns)));
    if (spans[i].cpu_ns >= 0) l.cpu_ms.push_back(ns_to_ms(static_cast<double>(spans[i].cpu_ns)));
  }
  return out;
}

std::int64_t layer_self_ns(const Trace& trace, std::uint8_t thread) {
  const auto self = trace.self_ns();
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < self.size(); ++i) {
    const Span& s = trace.spans()[i];
    if (s.thread == thread && s.layer != Layer::kCase) sum += self[i];
  }
  return sum;
}

// -------------------------------------------------------- solver counters

void SolveTally::add_rip(const rip::core::RipResult& rip, std::uint64_t allocs) {
  ++rip_solves;
  rip_allocs += allocs;
  if (rip.used_fallback) ++rip_fallbacks;
  coarse_s += rip.coarse_s;
  refine_s += rip.refine_s;
  fine_s += rip.final_s;
  coarse_created += rip.coarse.stats.labels_created;
  coarse_pruned += rip.coarse.stats.labels_pruned;
  const bool refine_ran = rip.coarse.status == rip::dp::Status::kOptimal &&
                          !rip.coarse.solution.empty();
  if (refine_ran) {
    ++refine_runs;
    refine_iterations += static_cast<std::uint64_t>(rip.refined.iterations);
    if (!rip.refined.width_solve_ok) ++refine_fails;
  }
  if (refine_ran && rip.refined.width_solve_ok) {
    ++stage3_runs;
    fine_created += rip.final_dp.stats.labels_created;
    fine_pruned += rip.final_dp.stats.labels_pruned;
    fine_peak += rip.final_dp.stats.labels_peak;
  }
}

void SolveTally::add_baseline(const rip::dp::ChainDpResult& dp) {
  ++baseline_solves;
  baseline_created += dp.stats.labels_created;
  baseline_pruned += dp.stats.labels_pruned;
}

void SolveTally::merge(const SolveTally& o) {
  rip_solves += o.rip_solves;
  rip_fallbacks += o.rip_fallbacks;
  stage3_runs += o.stage3_runs;
  refine_runs += o.refine_runs;
  refine_fails += o.refine_fails;
  refine_iterations += o.refine_iterations;
  rip_allocs += o.rip_allocs;
  coarse_s += o.coarse_s;
  refine_s += o.refine_s;
  fine_s += o.fine_s;
  coarse_created += o.coarse_created;
  coarse_pruned += o.coarse_pruned;
  fine_created += o.fine_created;
  fine_pruned += o.fine_pruned;
  fine_peak += o.fine_peak;
  baseline_solves += o.baseline_solves;
  baseline_created += o.baseline_created;
  baseline_pruned += o.baseline_pruned;
}

// ------------------------------------------------------------------- checks

std::string check_solution(const rip::net::Net& net,
                           const rip::tech::RepeaterDevice& device,
                           double tau_t_fs,
                           const rip::net::RepeaterSolution& solution,
                           double reported_width_u) {
  if (!solution.legal_for(net)) {
    return "repeater outside the net or inside a forbidden zone";
  }
  double width = 0;
  for (const auto& r : solution.repeaters()) width += r.width_u;
  if (std::abs(width - reported_width_u) > 1e-6 * std::max(1.0, width)) {
    return "reported width " + std::to_string(reported_width_u) +
           " != recomputed " + std::to_string(width);
  }
  const double delay = rip::rc::elmore_delay_fs(net, solution, device);
  if (delay > tau_t_fs * (1.0 + 1e-9) + 1.0) {
    return "Elmore delay " + std::to_string(delay) + " fs > target " +
           std::to_string(tau_t_fs) + " fs";
  }
  return {};
}

// ------------------------------------------------------ end-to-end metrics

void PowerRatio::add(double rip_u, double dp_u) {
  sum += dp_u > 0 ? rip_u / dp_u * 100.0 : 100.0;
  ++cases;
}

void add_end_to_end(Outcome& out, double cases_per_s,
                    const std::vector<double>& rip_case_ms,
                    const PowerRatio& power, double setup_s) {
  out.add("cases_per_s", cases_per_s, "1/s");
  out.add("rip_p50_ms", quantile(rip_case_ms, 0.50), "ms");
  out.add("rip_p95_ms", quantile(rip_case_ms, 0.95), "ms");
  out.add("rip_power_pct", power.pct(), "%");
  out.add("ok_frac", 1.0 - static_cast<double>(out.failed) /
                               static_cast<double>(std::max<std::uint64_t>(out.attempted, 1)),
          "frac");
  out.add("setup_s", setup_s, "s");
  out.add("peak_rss_mib", peak_rss_mib(), "MiB");
}

// ------------------------------------------------------- per-layer metrics

namespace {
double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
}  // namespace

void add_layer_metrics(const LayerInputs& in, Outcome& out) {
  const auto layers = summarize(*in.trace);
  const auto& L = [&](Layer l) -> const LayerSummary& {
    return layers[static_cast<std::size_t>(l)];
  };
  const SolveTally& t = in.tally;
  const double rips = static_cast<double>(t.rip_solves);

  out.add("net.read_us", ratio(static_cast<double>(L(Layer::kRead).self_ns) / 1e3,
                               static_cast<double>(L(Layer::kRead).count)), "us");
  out.add("service.queue_ms_p50", quantile(L(Layer::kQueue).dur_ms, 0.50), "ms");
  out.add("service.queue_ms_p95", quantile(L(Layer::kQueue).dur_ms, 0.95), "ms");
  out.add("service.run_ms_p50", quantile(L(Layer::kRun).dur_ms, 0.50), "ms");
  out.add("service.run_ms_p95", quantile(L(Layer::kRun).dur_ms, 0.95), "ms");
  out.add("service.run_cpu_ms_p50", quantile(L(Layer::kRun).cpu_ms, 0.50), "ms");
  out.add("service.run_cpu_ms_p95", quantile(L(Layer::kRun).cpu_ms, 0.95), "ms");
  double run_ms = 0;
  for (double d : L(Layer::kRun).dur_ms) run_ms += d;
  out.add("service.busy_frac",
          ratio(run_ms * 1e6, in.traced_wall_ns * in.service_jobs), "frac");

  out.add("cache.hits", in.cache_hits, "count");
  out.add("cache.misses", in.cache_misses, "count");
  out.add("cache.hit_rate", ratio(in.cache_hits, in.cache_hits + in.cache_misses), "frac");
  out.add("cache.bytes", in.cache_bytes, "B");

  out.add("rip.coarse_ms", ratio(t.coarse_s * 1e3, rips), "ms");
  out.add("rip.refine_ms", ratio(t.refine_s * 1e3, rips), "ms");
  out.add("rip.fine_ms", ratio(t.fine_s * 1e3, rips), "ms");
  out.add("rip.fallback_frac", ratio(static_cast<double>(t.rip_fallbacks), rips), "frac");
  out.add("rip.stage3_frac", ratio(static_cast<double>(t.stage3_runs), rips), "frac");
  out.add("rip.allocs_per_solve", ratio(static_cast<double>(t.rip_allocs), rips), "count");

  const double refines = static_cast<double>(t.refine_runs);
  out.add("refine.iterations", ratio(static_cast<double>(t.refine_iterations), refines), "count");
  out.add("refine.fail_frac", ratio(static_cast<double>(t.refine_fails), refines), "frac");

  const double fines = static_cast<double>(t.stage3_runs);
  const double baselines = static_cast<double>(t.baseline_solves);
  out.add("dp.coarse_labels", ratio(static_cast<double>(t.coarse_created), rips), "count");
  out.add("dp.fine_labels", ratio(static_cast<double>(t.fine_created), fines), "count");
  out.add("dp.baseline_labels", ratio(static_cast<double>(t.baseline_created), baselines), "count");
  out.add("dp.coarse_prune", ratio(static_cast<double>(t.coarse_pruned),
                                   static_cast<double>(t.coarse_created)), "frac");
  out.add("dp.fine_prune", ratio(static_cast<double>(t.fine_pruned),
                                 static_cast<double>(t.fine_created)), "frac");
  out.add("dp.baseline_prune", ratio(static_cast<double>(t.baseline_pruned),
                                     static_cast<double>(t.baseline_created)), "frac");
  out.add("dp.fine_peak", ratio(static_cast<double>(t.fine_peak), fines), "count");
  out.add("dp.min_delay_ms", in.min_delay_ms, "ms");

  // Per-case baseline time: wall on the single-threaded workload, thread
  // CPU where the baseline runs on a service thread beside another one.
  const LayerSummary& b = L(Layer::kBaseline);
  const auto& baseline_ms = b.cpu_ms.empty() ? b.dur_ms : b.cpu_ms;
  out.add("baseline.p50_ms", quantile(baseline_ms, 0.50), "ms");
  out.add("baseline.p95_ms", quantile(baseline_ms, 0.95), "ms");

  out.add("trace.overhead_pct",
          ratio(in.untraced_cases_per_s - in.traced_cases_per_s,
                in.untraced_cases_per_s) * 100.0, "%");
  out.add("trace.other_frac",
          1.0 - ratio(static_cast<double>(layer_self_ns(*in.trace, 0)),
                      in.traced_wall_ns), "frac");
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
