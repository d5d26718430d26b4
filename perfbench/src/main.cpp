// The repo benchmark's measuring program. Usage:
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--work-dir DIR] [--source-id ID]
//
// Workloads: paper-sweep, stream-small, stream-paper-cached. The last
// line of stdout is one JSON object: correct, attempted, failed and the
// metrics (end-to-end with --trace 0, per-layer with --trace 1). The line
// before it records the run's provenance. Exit 0 only when every check
// passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string provenance(const RunConfig& cfg, const Outcome& out) {
  std::ostringstream p;
  p << "{\"workload\": " << json_string(cfg.workload)
    << ", \"seed\": " << cfg.seed
    << ", \"seconds\": " << json_number(cfg.seconds)
    << ", \"trace\": " << (cfg.trace ? 1 : 0)
    << ", \"source\": " << json_string(cfg.source_id)
    << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
    << ", \"flags\": " << json_string(PERFBENCH_FLAGS)
    << ", \"cpu\": " << json_string(cpu_model())
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"jobs\": " << out.jobs << ", \"window\": " << out.window << "}";
  return p.str();
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload paper-sweep|stream-small|"
               "stream-paper-cached [--seed N] [--seconds S] [--trace 0|1] "
               "[--work-dir DIR] [--source-id ID]\n";
  std::exit(2);
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  cfg.work_dir = ".bench_build/work";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") cfg.workload = value;
      else if (flag == "--seed") cfg.seed = std::stoull(value);
      else if (flag == "--seconds") cfg.seconds = std::stod(value);
      else if (flag == "--trace") cfg.trace = std::stoi(value) != 0;
      else if (flag == "--work-dir") cfg.work_dir = value;
      else if (flag == "--source-id") cfg.source_id = value;
      else usage("unknown option " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(cfg.seconds > 0)) usage("--seconds must be positive");

  Outcome (*run)(const RunConfig&) = nullptr;
  if (cfg.workload == "paper-sweep") run = run_paper_sweep;
  else if (cfg.workload == "stream-small") run = run_stream_small;
  else if (cfg.workload == "stream-paper-cached") run = run_stream_paper_cached;
  else usage("unknown workload '" + cfg.workload + "'");

  Outcome out;
  try {
    std::filesystem::create_directories(cfg.work_dir);
    out = run(cfg);
    if (cfg.trace) {
      const std::string path = cfg.work_dir + "/trace-" + cfg.workload + "-" +
                               std::to_string(cfg.seed) + ".tsv";
      out.trace.write(path, provenance(cfg, out));
      std::cerr << "perfbench: " << out.trace.spans().size()
                << " spans written to " << path << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << cfg.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  for (const auto& e : out.errors) std::cerr << "perfbench: check failed: " << e << "\n";
  for (const auto& m : out.metrics) {
    if (!std::isfinite(m.value)) out.fail("metric " + m.name + " is not finite");
  }

  std::cout << "{\"provenance\": " << provenance(cfg, out) << "}\n";
  std::cout << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::cout << (i ? ", " : "") << json_string(m.name) << ": {\"value\": "
              << (std::isfinite(m.value) ? json_number(m.value) : "0")
              << ", \"unit\": " << json_string(m.unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return out.failed == 0 && out.attempted > 0 ? 0 : 1;
}
