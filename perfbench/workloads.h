// The benchmark's workloads. Each one builds its inputs from the workload
// seed, drives the library through its public API, checks the outputs and
// reports either the end-to-end metrics (untraced run) or the per-layer
// breakdown (traced run).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by every untraced run (BENCHMARK.json
/// "end_to_end" lists the same names and units).
extern const std::vector<MetricDef> kEndToEnd;
/// Per-layer metrics, printed by every traced run (BENCHMARK.json
/// "per_layer"). Layers a workload does not exercise report 0.
extern const std::vector<MetricDef> kPerLayer;

/// Counts operations (one measured epoch, or one trial-epoch) and the
/// output checks that failed for them.
class Checks {
 public:
  /// Records `ok` against the current operation; returns it.
  bool Expect(bool ok, const std::string& what);
  /// Closes the current operation: it failed if any Expect since the last
  /// EndOp was false.
  void EndOp();
  /// A whole-run check (exact contract, topology invariant): a failure
  /// marks the run incorrect without belonging to one operation.
  void ExpectRun(bool ok, const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && run_ok_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  void Note(const std::string& what);

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool op_ok_ = true;
  bool run_ok_ = true;
  std::vector<std::string> messages_;
};

struct Outcome {
  std::map<std::string, double> metrics;
  /// Human-readable lines printed before the result (sample counts,
  /// workload parameters, the output digest).
  std::vector<std::string> notes;
  Checks checks;
  /// Traced run only: the recorded spans, one JSON object per line.
  std::string spans;
};

/// Names of the workloads Run accepts.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload; returns false for an unknown name.
bool Run(const Options& options, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
