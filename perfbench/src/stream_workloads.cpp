// stream-small and stream-paper-cached: eval::run_stream over RNLB
// netlists, at jobs 1: one service thread solves while the client reads,
// submits and writes. (At jobs 2 the four busy threads drew up to 25%
// steal time on a contended 4-vCPU host and throughput swung by 40%
// from run to run; at jobs 1 the same runs repeat within a few percent.)
//
// The timed phase runs whole run_stream passes over the input files in
// turn and counts rows per wall second. The traced run re-drives the
// same records through the same public calls run_stream makes
// (NetlistReader::next, EvalService::submit_fn with the same
// ServiceOptions and window, then rip_insert and run_baseline on the
// service thread) with spans around each, and checks that every row it
// forms equals run_stream's row.
//
// rip_p50_ms / rip_p95_ms come from a serial probe between passes:
// rip_insert on a fixed sample of the file's records, on the client
// thread with no solver running beside it. The probe also re-checks
// each sampled answer.

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <optional>

#include "core/baseline.hpp"
#include "core/rip.hpp"
#include "dp/min_delay.hpp"
#include "dp/workspace.hpp"
#include "eval/experiments.hpp"
#include "eval/service.hpp"
#include "eval/solve_cache.hpp"
#include "eval/stream.hpp"
#include "eval/workload.hpp"
#include "inputs.hpp"
#include "net/netlist_io.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using rip::eval::CaseResult;

constexpr int kJobs = 1;  // service threads

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::vector<std::string> split_csv(const std::string& row) {
  std::vector<std::string> cells(1);
  for (char c : row) {
    if (c == ',') {
      cells.emplace_back();
    } else {
      cells.back() += c;
    }
  }
  return cells;
}

/// run_case's improvement rule on a (RIP, baseline) pair.
CaseResult case_result(double tau, const rip::core::RipResult& rip,
                       const rip::dp::ChainDpResult& dp) {
  CaseResult r;
  r.tau_t_fs = tau;
  r.rip_feasible = rip.status == rip::dp::Status::kOptimal;
  r.rip_width_u = rip.total_width_u;
  r.dp_feasible = dp.status == rip::dp::Status::kOptimal;
  r.dp_width_u = dp.total_width_u;
  if (r.rip_feasible && r.dp_feasible && r.dp_width_u > 0) {
    r.improvement_pct = (r.dp_width_u - r.rip_width_u) / r.dp_width_u * 100.0;
  }
  return r;
}

/// The row run_stream writes for a case (its documented CSV format).
std::string format_row(std::uint64_t index, const std::string& name,
                       const CaseResult& r) {
  using rip::fmt_f;
  return std::to_string(index) + ',' + name + ',' +
         fmt_f(rip::units::fs_to_ns(r.tau_t_fs), 3) + ',' +
         (r.rip_feasible ? fmt_f(r.rip_width_u, 0) : "VIOL") + ',' +
         (r.dp_feasible ? fmt_f(r.dp_width_u, 0) : "VIOL") + ',' +
         (r.rip_feasible && r.dp_feasible ? fmt_f(r.improvement_pct, 2) : "-");
}

// ----------------------------------------------------------- the re-drive

/// One record in flight: owned by the client, solved on a service
/// thread, which fills `trace` and `tally`; read back after the future
/// is ready.
struct Work {
  Work(std::uint64_t i, rip::net::NetlistRecord&& record)
      : index(i), net(std::move(record.net)), tau_t_fs(record.tau_t_fs) {}

  std::uint64_t index = 0;
  rip::net::Net net;
  double tau_t_fs = 0;
  std::int64_t submitted_ns = 0;
  Trace trace;
  SolveTally tally;
};

/// The service thread's half of a case: run_case's two calls, timed.
CaseResult solve(const rip::tech::Technology& tech,
                 const rip::eval::StreamOptions& opts, Work& w) {
  const auto id = static_cast<std::uint32_t>(w.index);
  const std::int64_t cpu0 = thread_cpu_ns();
  Trace& t = w.trace;
  Span queue;
  queue.layer = Layer::kQueue;
  queue.case_id = id;
  queue.thread = 1;
  queue.start_ns = w.submitted_ns;
  queue.end_ns = now_ns();
  t.add(queue);
  const int run = t.open(Layer::kRun, id, -1, 1);
  rip::dp::Workspace& ws = rip::dp::Workspace::local();
  const auto& ctx = opts.context;

  const int rs = t.open(Layer::kRip, id, run, 1);
  const std::uint64_t allocs = thread_allocs();
  const rip::core::RipResult rip = rip::core::rip_insert(
      w.net, tech.device(), w.tau_t_fs, opts.rip, ws, ctx.cache, ctx.backend);
  w.tally.add_rip(rip, thread_allocs() - allocs);
  t.close(rs);
  t.add_rip_stages(rs, rip);

  const int bs = t.open(Layer::kBaseline, id, run, 1);
  const std::int64_t bcpu = thread_cpu_ns();
  const rip::dp::ChainDpResult dp = rip::core::run_baseline(
      w.net, tech.device(), w.tau_t_fs, opts.baseline, ws, ctx.cache,
      ctx.backend);
  t.span(bs).cpu_ns = thread_cpu_ns() - bcpu;
  t.close(bs);
  w.tally.add_baseline(dp);

  t.close(run);
  t.span(run).cpu_ns = thread_cpu_ns() - cpu0;
  return case_result(w.tau_t_fs, rip, dp);
}

struct Redrive {
  std::uint64_t rows = 0;
  double wall_ns = 0;
  SolveTally tally;
  rip::eval::ServiceStats service;
};

/// Re-drive every record of `input` the way run_stream does, with spans
/// around each call, and compare each row with `golden` (run_stream's
/// CSV lines, header first).
Redrive redrive(const rip::tech::Technology& tech, const std::string& input,
                const rip::eval::StreamOptions& opts,
                const std::vector<std::string>& golden, Trace& trace,
                Outcome& out) {
  struct InFlight {
    std::shared_ptr<Work> work;
    std::future<CaseResult> future;
  };
  rip::eval::ServiceOptions so;
  so.jobs = opts.jobs;
  so.max_pending = opts.max_pending;
  so.retry = opts.retry;
  so.context = opts.context;
  const std::size_t window_cap = std::max<std::size_t>(2 * opts.max_pending, 16);

  Redrive r;
  const std::int64_t t0 = now_ns();
  {
    rip::net::NetlistReader reader(input);
    rip::eval::EvalService service(tech, so);
    std::deque<InFlight> window;
    bool eof = false;
    while (true) {
      while (!eof && window.size() < window_cap) {
        const std::uint64_t index = reader.index();
        const auto id = static_cast<std::uint32_t>(index);
        const int read = trace.open(Layer::kRead, id, -1);
        std::optional<rip::net::NetlistRecord> record = reader.next();
        trace.close(read);
        if (!record) {
          eof = true;
          break;
        }
        auto work = std::make_shared<Work>(index, std::move(*record));
        const int submit = trace.open(Layer::kSubmit, id, -1);
        work->submitted_ns = now_ns();
        std::future<CaseResult> future = service.submit_fn(
            [&tech, &opts, work] { return solve(tech, opts, *work); });
        trace.close(submit);
        window.push_back({std::move(work), std::move(future)});
      }
      if (window.empty()) break;
      InFlight front = std::move(window.front());
      window.pop_front();
      const int wait = trace.open(Layer::kWait,
                                  static_cast<std::uint32_t>(front.work->index), -1);
      const CaseResult result = front.future.get();
      trace.close(wait);
      trace.append(front.work->trace.spans());
      r.tally.merge(front.work->tally);
      const std::size_t line = static_cast<std::size_t>(front.work->index) + 1;
      const std::string row = format_row(front.work->index, front.work->net.name(), result);
      if (line >= golden.size() || golden[line] != row) {
        out.fail("re-driven row differs from run_stream's: " + row);
      }
      ++r.rows;
    }
    r.service = service.stats();
  }
  r.wall_ns = static_cast<double>(now_ns() - t0);
  return r;
}

// --------------------------------------------------------------- the probe

/// One rip_insert call on every `stride`-th record of `input`, serially
/// on the client thread with no solver running beside it, against the
/// cache the pass just filled; appends each call's latency to `ms` (one
/// list per probed record). With `out`, each answer is also re-checked
/// independently and against the RIP column of run_stream's row.
void probe(const rip::tech::Technology& tech, const std::string& input,
           const rip::eval::StreamOptions& opts, std::uint64_t stride,
           const std::vector<std::string>& golden,
           std::vector<std::vector<double>>& ms, Outcome* out) {
  rip::net::NetlistReader reader(input);
  rip::dp::Workspace& ws = rip::dp::Workspace::local();
  const auto& ctx = opts.context;
  const auto& device = tech.device();
  for (std::size_t k = 0;;) {
    const std::uint64_t index = reader.index();
    std::optional<rip::net::NetlistRecord> record = reader.next();
    if (!record) break;
    if (index % stride != 0) continue;
    const rip::net::Net& net = record->net;
    const double tau = record->tau_t_fs;
    const std::int64_t start = now_ns();
    const rip::core::RipResult rip = rip::core::rip_insert(
        net, device, tau, opts.rip, ws, ctx.cache, ctx.backend);
    if (ms.size() <= k) ms.resize(k + 1);
    ms[k++].push_back(ns_to_ms(static_cast<double>(now_ns() - start)));
    if (out == nullptr) continue;
    std::string why;
    if (rip.status == rip::dp::Status::kOptimal) {
      why = check_solution(net, device, tau, rip.solution, rip.total_width_u);
    }
    const std::string cell = rip.status == rip::dp::Status::kOptimal
                                 ? rip::fmt_f(rip.total_width_u, 0)
                                 : "VIOL";
    const auto cells = index + 1 < golden.size()
                           ? split_csv(golden[index + 1])
                           : std::vector<std::string>{};
    if (why.empty() && (cells.size() != 6 || cells[3] != cell)) {
      why = "RIP width " + cell + " differs from run_stream's row";
    }
    if (!why.empty()) out->fail(net.name() + ": " + why);
  }
}

// ------------------------------------------------------------ the workload

void remove_outputs(const std::string& csv, const std::string& ckpt) {
  for (const std::string& p : {csv, ckpt, ckpt + ".prev", ckpt + ".tmp"}) {
    fs::remove(p);
  }
}

/// Check one file's rows: one per record, in input order, RIP feasible.
void check_rows(const std::string& input, const std::vector<std::string>& rows,
                PowerRatio& power, Outcome& out) {
  rip::net::NetlistReader reader(input);
  std::uint64_t records = 0;
  while (reader.next()) ++records;
  if (rows.size() != records + 1) {
    out.fail(std::to_string(rows.size()) + " lines for " + std::to_string(records) +
             " records in " + input);
  }
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const auto cells = split_csv(rows[i]);
    if (cells.size() != 6 || cells[0] != std::to_string(i - 1)) {
      out.fail("malformed or out-of-order row: " + rows[i]);
    } else if (cells[3] == "VIOL") {
      out.fail("RIP infeasible: " + rows[i]);
    } else if (cells[4] != "VIOL") {
      power.add(std::stod(cells[3]), std::stod(cells[4]));
    }
  }
}

/// A stream workload: its knobs and its inputs.
struct Spec {
  std::size_t max_pending = 64;
  std::uint64_t checkpoint_every = 0;
  bool cache = false;
  std::uint64_t probe_stride = 1;  ///< probe every stride-th record
  int setup_repeats = 7;
  int files = 1;                   ///< input files, streamed in turn
  /// Nets whose tau_min the set-up solves (targets derive from it).
  std::vector<rip::net::Net> nets;
  /// Write file f of the input, given the set-up's tau_min per net.
  std::function<void(const rip::tech::Technology&, const std::vector<double>&,
                     int, const std::string&)>
      write_input;
};

Outcome run(const RunConfig& cfg, const Spec& spec) {
  const std::string dir = cfg.work_dir + "/" + cfg.workload;
  fs::create_directories(dir);
  const std::string empty = dir + "/empty.rnlb";
  const std::string csv = dir + "/rows.csv";
  const std::string ckpt = dir + "/rows.ckpt";
  write_netlist(empty, {}, {});

  rip::eval::StreamOptions opts;
  opts.jobs = kJobs;
  opts.max_pending = spec.max_pending;

  // Set-up a user pays before the stream: the tech kit, tau_min per net
  // where targets derive from it, the cache, and run_stream's own fixed
  // cost (reader, service, output), measured on an empty netlist. Timed
  // several times; the median counts. (Not between passes: the writeback
  // of a pass's output slows the file creation that follows it.)
  std::vector<double> setup_s, min_delay_ms, tau_min;
  for (int rep = 0; rep < spec.setup_repeats; ++rep) {
    const std::int64_t t0 = now_ns();
    const rip::tech::Technology kit = rip::tech::make_tech180();
    tau_min.clear();
    for (const auto& net : spec.nets) {
      const std::int64_t m0 = now_ns();
      tau_min.push_back(rip::dp::min_delay(net, kit.device(), {10.0, 400.0, 10.0, 200.0})
                            .tau_min_fs);
      min_delay_ms.push_back(ns_to_ms(static_cast<double>(now_ns() - m0)));
    }
    std::optional<rip::eval::SolveCache> kit_cache;
    rip::eval::StreamOptions kit_opts = opts;
    if (spec.cache) kit_opts.context.cache = &kit_cache.emplace();
    rip::eval::run_stream(kit, empty, csv, kit_opts);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  const rip::tech::Technology tech = rip::tech::make_tech180();
  std::optional<rip::eval::SolveCache> cache;
  const auto fresh_cache = [&] {
    if (!spec.cache) return;
    cache.emplace();
    opts.context.cache = &*cache;
  };
  std::vector<std::string> inputs;
  for (int f = 0; f < spec.files; ++f) {
    inputs.push_back(dir + "/input" + std::to_string(f) + ".rnlb");
    spec.write_input(tech, tau_min, f, inputs.back());
  }
  opts.checkpoint_every = spec.checkpoint_every;
  if (spec.checkpoint_every > 0) opts.checkpoint_path = ckpt;

  // Timed phase: run_stream passes over the files in turn, each with a
  // fresh cache, until every file has run and `seconds` have gone by.
  // The rate takes each file's median pass time, so a burst of machine
  // noise that slows one pass does not move it. After each untraced
  // pass, outside its timing, the file's sampled records are probed for
  // rip_insert latency; a record's latency is the median over passes.
  Outcome out;
  out.jobs = kJobs;
  out.window = spec.max_pending;
  const std::size_t files = inputs.size();
  const double limit_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  std::vector<std::vector<std::string>> golden(files);
  std::vector<std::vector<double>> pass_s(files);
  std::vector<std::vector<std::vector<double>>> probe_ms(files);
  double wall_s = 0;
  for (std::size_t p = 0; p < files || wall_s < limit_s; ++p) {
    const std::size_t f = p % files;
    remove_outputs(csv, ckpt);
    fresh_cache();
    const std::int64_t t0 = now_ns();
    const rip::eval::StreamResult res = rip::eval::run_stream(tech, inputs[f], csv, opts);
    const double s = static_cast<double>(now_ns() - t0) / 1e9;
    pass_s[f].push_back(s);
    wall_s += s;
    out.attempted += res.rows_written;
    if (res.rows_quarantined != 0 || !res.finished) out.fail("stream did not finish cleanly");
    std::vector<std::string> lines = read_lines(csv);
    if (p < files) {
      golden[f] = std::move(lines);
    } else if (lines != golden[f]) {
      out.fail("pass " + std::to_string(p) + " wrote different rows");
    }
    if (!cfg.trace) {
      probe(tech, inputs[f], opts, spec.probe_stride, golden[f], probe_ms[f],
            p < files ? &out : nullptr);
    }
  }
  PowerRatio power;
  double rows = 0, median_s = 0;
  for (std::size_t f = 0; f < files; ++f) {
    check_rows(inputs[f], golden[f], power, out);
    rows += static_cast<double>(golden[f].size() - 1);
    median_s += median(pass_s[f]);
  }
  const double cases_per_s = rows / median_s;

  if (!cfg.trace) {
    std::vector<double> case_ms;
    for (const auto& file : probe_ms) {
      for (const auto& samples : file) case_ms.push_back(median(samples));
    }
    fs::remove_all(dir);
    add_end_to_end(out, cases_per_s, case_ms, power, median(setup_s));
    return out;
  }

  // Traced phase: re-drives over the files in turn, each with a fresh
  // cache, until every file has run and seconds/2 have gone by; the
  // counters come from the first pass over each file.
  Trace trace;
  LayerInputs in;
  double traced_rows = 0, passes = 0;
  for (std::size_t p = 0; p < files || in.traced_wall_ns < cfg.seconds / 2 * 1e9; ++p) {
    const std::size_t f = p % files;
    fresh_cache();
    const Redrive r = redrive(tech, inputs[f], opts, golden[f], trace, out);
    if (r.rows + 1 != golden[f].size() || r.service.cases_evaluated != r.rows) {
      out.fail("re-drive saw " + std::to_string(r.rows) + " rows");
    }
    if (p < files) in.tally.merge(r.tally);
    in.traced_wall_ns += r.wall_ns;
    traced_rows += static_cast<double>(r.rows);
    in.cache_hits += static_cast<double>(r.service.cache.hits);
    in.cache_misses += static_cast<double>(r.service.cache.misses);
    in.cache_bytes += static_cast<double>(r.service.cache.bytes);
    out.attempted += r.rows;
    passes += 1;
  }
  fs::remove_all(dir);
  in.cache_hits /= passes;
  in.cache_misses /= passes;
  in.cache_bytes /= passes;
  in.trace = &trace;
  in.traced_cases_per_s = traced_rows / (in.traced_wall_ns / 1e9);
  in.untraced_cases_per_s = cases_per_s;
  in.min_delay_ms = mean(min_delay_ms);
  in.service_jobs = kJobs;
  add_layer_metrics(in, out);
  out.trace = std::move(trace);
  return out;
}

}  // namespace

Outcome run_stream_small(const RunConfig& cfg) {
  Spec spec;
  spec.max_pending = 8;
  spec.checkpoint_every = 5000;
  spec.probe_stride = 10;
  spec.setup_repeats = 101;  // each is ~0.2 ms of thread and file set-up
  spec.write_input = [&](const rip::tech::Technology& tech,
                         const std::vector<double>&, int,
                         const std::string& path) {
    write_small_netlist(tech, path, 20000, cfg.seed);
  };
  return run(cfg, spec);
}

Outcome run_stream_paper_cached(const RunConfig& cfg) {
  // Six files of 35 nets, each net one per (segment count, length
  // quintile) stratum, with ten consecutive records per net at targets
  // 1.05 .. 2.05 tau_min (rip_cli compare's order).
  constexpr int kFiles = 6;
  constexpr int kNetsPerFile = 35;
  constexpr int kTargets = 10;
  Spec spec;
  spec.max_pending = 64;
  spec.cache = true;
  spec.probe_stride = 2;
  spec.files = kFiles;
  {
    const rip::tech::Technology tech = rip::tech::make_tech180();
    rip::Rng master(cfg.seed);
    for (int i = 0; i < kFiles * kNetsPerFile; ++i) {
      rip::Rng rng = master.split();
      spec.nets.push_back(paper_net(tech, 4 + i % 7, (i / 7) % 5, rng,
                                    "net_" + std::to_string(i + 1)));
    }
  }
  spec.write_input = [&](const rip::tech::Technology&,
                         const std::vector<double>& tau_min, int f,
                         const std::string& path) {
    const auto first = static_cast<std::size_t>(f * kNetsPerFile);
    std::vector<rip::net::Net> nets;
    std::vector<std::vector<double>> targets;
    for (std::size_t i = first; i < first + kNetsPerFile; ++i) {
      nets.push_back(spec.nets[i]);
      targets.push_back(rip::eval::timing_targets_fs(tau_min[i], kTargets));
    }
    write_netlist(path, nets, targets);
  };
  return run(cfg, spec);
}

}  // namespace perfbench
