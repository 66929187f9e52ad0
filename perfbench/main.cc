// The repo benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-dir <dir>]
//
// --trace 0 prints every end-to-end metric; --trace 1 runs the traced
// breakdown and prints every per-layer metric, and with --spans-dir also
// writes its spans to <dir>/<workload>-seed<n>.jsonl. The last line of
// standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when any output
// check failed, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-dir <dir>]\nworkloads:");
  for (const std::string& w : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool ParseArgs(int argc, char** argv, perfbench::Options* opt,
               std::string* spans_dir) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt->workload = value;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt->trace = value == "1";
    } else if (key == "--spans-dir") {
      *spans_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt->workload.empty() && opt->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string spans_dir;
  if (!ParseArgs(argc, argv, &opt, &spans_dir)) {
    Usage();
    return 2;
  }
  perfbench::Outcome out;
  if (!perfbench::Run(opt, &out)) {
    Usage();
    return 2;
  }
  const perfbench::Checks& checks = out.checks;
  if (opt.trace && !spans_dir.empty()) {
    const std::filesystem::path path =
        std::filesystem::path(spans_dir) /
        (opt.workload + "-seed" + std::to_string(opt.seed) + ".jsonl");
    std::error_code ec;
    std::filesystem::create_directories(spans_dir, ec);
    std::ofstream f(path);
    f << out.spans;
    f.close();
    if (f) {
      out.notes.push_back("spans written to " + path.string());
    } else {
      std::fprintf(stderr, "perfbench: could not write %s\n",
                   path.string().c_str());
    }
  }
  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());
  for (const std::string& m : checks.messages()) {
    std::printf("# CHECK FAILED: %s\n", m.c_str());
  }
  const auto& defs = opt.trace ? perfbench::kPerLayer : perfbench::kEndToEnd;
  std::printf("# %-32s %16s  %s\n", "metric", "value", "unit");
  for (const perfbench::MetricDef& d : defs) {
    std::printf("# %-32s %16.6g  %s\n", d.name, out.metrics[d.name], d.unit);
  }
  std::printf("# %-32s %16llu\n# %-32s %16llu\n", "ops_attempted",
              static_cast<unsigned long long>(checks.attempted()),
              "ops_failed", static_cast<unsigned long long>(checks.failed()));

  bool finite = true;
  for (const perfbench::MetricDef& d : defs) {
    finite = finite && std::isfinite(out.metrics[d.name]);
  }
  if (!finite) std::printf("# CHECK FAILED: a metric is not finite\n");
  const bool correct = checks.correct() && finite;

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted());
  json += ", \"failed\": " + std::to_string(checks.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); ++i) {
    const double v = out.metrics[defs[i].name];
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : -1.0);
    json += (i ? ", \"" : "\"") + std::string(defs[i].name) +
            "\": {\"value\": " + buf + ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
