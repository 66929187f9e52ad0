#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

Tracer::Tracer(uint32_t run_id) : run_id_(run_id), epoch_(Clock::now()) {
  spans_.reserve(4096);
}

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int Tracer::Begin(const char* name) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, Now(), 0, parent, run_id_});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int index) {
  spans_[static_cast<size_t>(index)].end_ns = Now();
  open_.pop_back();
}

double Tracer::Total(const std::string& name) const {
  int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

double Tracer::Self(const std::string& name) const {
  // Spans nest on one thread, so children never overlap each other.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  int64_t ns = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      ns += spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

std::string Tracer::ToJsonl() const {
  std::string out;
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"run_id\": %u, \"id\": %zu, \"parent\": %d, "
                  "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                  s.run_id, i, s.parent, s.name,
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns));
    out += buf;
  }
  return out;
}

namespace {
std::atomic<uint64_t> next_wrapper_id{1};

struct LocalSlot {
  uint64_t owner = 0;
  void* tally = nullptr;
};
thread_local LocalSlot local_slot;

double ClockOverheadNs() {
  constexpr int kReps = 20000;
  int64_t ns = 0;
  for (int i = 0; i < kReps; ++i) {
    const Clock::time_point start = Clock::now();
    ns += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               start)
              .count();
  }
  return static_cast<double>(ns) / kReps;
}
}  // namespace

CountingLoss::CountingLoss(std::shared_ptr<td::LossModel> inner)
    : inner_(std::move(inner)),
      clock_ns_(ClockOverheadNs()),
      id_(next_wrapper_id.fetch_add(1)) {}

CountingLoss::Tally& CountingLoss::Local() const {
  if (local_slot.owner != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    tallies_.push_back(std::make_unique<Tally>());
    local_slot = LocalSlot{id_, tallies_.back().get()};
  }
  return *static_cast<Tally*>(local_slot.tally);
}

double CountingLoss::LossRate(td::NodeId src, td::NodeId dst,
                              uint32_t epoch) const {
  Tally& t = Local();
  if (t.calls++ % kSampleEvery != 0) return inner_->LossRate(src, dst, epoch);
  const Clock::time_point start = Clock::now();
  const double rate = inner_->LossRate(src, dst, epoch);
  ++t.samples;
  t.sampled_ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
  return rate;
}

uint64_t CountingLoss::calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& t : tallies_) n += t->calls;
  return n;
}

double CountingLoss::seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  double ns = 0.0;
  for (const auto& t : tallies_) {
    ns += static_cast<double>(t->sampled_ns) -
          clock_ns_ * static_cast<double>(t->samples);
  }
  return std::max(ns, 0.0) * static_cast<double>(kSampleEvery) * 1e-9;
}

}  // namespace perfbench
