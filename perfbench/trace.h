// In-memory span tracer and a counting loss-model wrapper for the traced
// benchmark run. Spans sit around calls into the library's public API, so
// the breakdown needs no hooks inside the program; they are kept in memory
// and summarised once the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/loss_model.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int parent;  // index into the span list; -1 for a root span
  uint32_t run_id;
};

/// Records nested spans on one thread. A null Tracer* disables every
/// SpanScope, so untraced runs read no clocks for spans at all.
class Tracer {
 public:
  explicit Tracer(uint32_t run_id);

  int Begin(const char* name);
  void End(int index);

  /// Every span as one JSON object per line, in start order.
  std::string ToJsonl() const;

  /// Summed duration of every span with `name`, in seconds.
  double Total(const std::string& name) const;
  /// Summed self time (duration minus the part covered by child spans) of
  /// every span with `name`, in seconds.
  double Self(const std::string& name) const;

 private:
  int64_t Now() const;

  uint32_t run_id_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  int index() const { return index_; }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Forwards every LossRate call to `inner`, counting calls and timing one
/// call in kSampleEvery (scaled up to an estimate of the total time, after
/// subtracting the calibrated cost of reading the clock). It sees only the
/// LossModel call: the random draw that follows it inside the network is
/// part of the engine sweep. The rates it returns are the inner model's, so
/// a run through the wrapper draws exactly the same random stream as one
/// without it. Safe to share across RunTrials worker threads: tallies are
/// per thread and summed on read.
class CountingLoss : public td::LossModel {
 public:
  static constexpr uint64_t kSampleEvery = 64;

  explicit CountingLoss(std::shared_ptr<td::LossModel> inner);
  double LossRate(td::NodeId src, td::NodeId dst,
                  uint32_t epoch) const override;

  /// Read these once the run is over (RunTrials has joined its workers).
  uint64_t calls() const;
  /// Estimated seconds spent inside LossRate, summed over threads.
  double seconds() const;

 private:
  struct Tally {
    uint64_t calls = 0;
    uint64_t samples = 0;
    uint64_t sampled_ns = 0;
  };
  Tally& Local() const;

  std::shared_ptr<td::LossModel> inner_;
  double clock_ns_;  // mean cost of an empty timed interval
  mutable std::mutex mu_;
  mutable std::vector<std::unique_ptr<Tally>> tallies_;
  uint64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
