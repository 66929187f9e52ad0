#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "api/experiment.h"
#include "fed/federated_experiment.h"
#include "net/connectivity.h"
#include "topology/rings.h"
#include "topology/tree_builder.h"
#include "trace.h"
#include "util/rng.h"
#include "workload/scenario.h"
#include "workload/synthetic.h"

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"total_s", "s"},
    {"epoch_ms_p50", "ms"},
    {"epoch_ms_p90", "ms"},
    {"node_epochs_per_s", "1/s"},
    {"answer_rms", "ratio"},
    {"radio_bytes_per_epoch", "bytes"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"workload.deployment_s", "s"},
    {"net.connectivity_s", "s"},
    {"net.adjacency_entries", "count"},
    {"topology.rings_s", "s"},
    {"topology.ring_levels", "count"},
    {"topology.tree_opt_s", "s"},
    {"topology.tree_tag_s", "s"},
    {"api.build_s", "s"},
    {"api.step_s", "s"},
    {"api.run_trials_s", "s"},
    {"core.sweep_s", "s"},
    {"agg.sweep_s", "s"},
    {"td.adapt_s", "s"},
    {"sketch.rle_encode_s", "s"},
    {"core.nodes_reprocessed_frac", "ratio"},
    {"net.delivery_draws_per_epoch", "count"},
    {"net.loss_rate_s", "s"},
    {"net.transmissions_per_epoch", "count"},
    {"net.attempts_per_epoch", "count"},
    {"net.unicast_delivery_ratio", "ratio"},
    {"td.decisions", "count"},
    {"td.expansions", "count"},
    {"td.shrinks", "count"},
    {"td.final_delta_size", "count"},
    {"window.combine_s", "s"},
    {"window.state_merges_per_epoch", "count"},
    {"fed.merge_s", "s"},
    {"fed.merges_per_epoch", "count"},
    {"fed.merged_bytes_per_epoch", "bytes"},
    {"fed.merge_chains_per_epoch", "count"},
    {"fed.groups", "count"},
    {"fed.deliveries_per_epoch", "count"},
    {"quant.rank_error", "ratio"},
    {"api.trial_pool_speedup", "x"},
    {"unattributed_frac", "ratio"},
    {"obs.tracing_overhead_frac", "ratio"},
};

// ------------------------------------------------------------------ checks

bool Checks::Expect(bool ok, const std::string& what) {
  if (!ok) {
    op_ok_ = false;
    Note(what);
  }
  return ok;
}

void Checks::EndOp() {
  ++attempted_;
  if (!op_ok_) ++failed_;
  op_ok_ = true;
}

void Checks::ExpectRun(bool ok, const std::string& what) {
  if (!ok) {
    run_ok_ = false;
    Note(what);
  }
}

void Checks::Note(const std::string& what) {
  if (messages_.size() < 20) messages_.push_back(what);
}

namespace {

using td::AggregateKind;
using td::EngineCore;
using td::NodeId;
using td::Strategy;

// Paper density: 600 sensors per 20x20 area, radio range 3 (Section 7.1).
constexpr double kRadioRange = 3.0;
constexpr double kLoss = 0.2;

double PaperWidth(size_t sensors) {
  return 20.0 * std::sqrt(static_cast<double>(sensors) / 600.0);
}

unsigned PoolThreads() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Every input a workload uses derives from the workload seed; workloads that
// average over several deployments draw deployment k's inputs from
// (seed, k).
struct Seeds {
  uint64_t scenario;
  uint64_t network;
  uint64_t readings;
  explicit Seeds(uint64_t seed, uint64_t deployment = 0) {
    const uint64_t base = Mix(seed) ^ Mix(deployment ^ 0xde9107ULL);
    scenario = Mix(base ^ 0x5ce0a410ULL) % 1000003;
    network = Mix(base ^ 0x4e7a0b5dULL);
    readings = Mix(base ^ 0x4ead1265ULL);
  }
};

/// FNV-1a over the bit patterns of a run's outputs.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(double v) { Add(std::bit_cast<uint64_t>(v)); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated percentile (p in [0, 1]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double RelativeRms(const std::vector<double>& est,
                   const std::vector<double>& truth) {
  double acc = 0.0;
  double mean_truth = 0.0;
  for (size_t i = 0; i < est.size(); ++i) {
    acc += (est[i] - truth[i]) * (est[i] - truth[i]);
    mean_truth += truth[i];
  }
  mean_truth /= static_cast<double>(truth.size());
  return std::sqrt(acc / static_cast<double>(est.size())) /
         std::abs(mean_truth);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string Format(const char* fmt, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

std::string DigestNote(const std::vector<uint64_t>& digests) {
  Digest d;
  for (uint64_t x : digests) d.Add(x);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "output digest: %016llx",
                static_cast<unsigned long long>(d.value()));
  return buf;
}

/// Runs pass(cycle, k) for every deployment k, in whole cycles, while the
/// next cycle is expected to end within `seconds` of `start` (always at
/// least one cycle). Returns the number of cycles run.
template <typename Pass>
int RunCycles(uint32_t deployments, Clock::time_point start, double seconds,
              Pass&& pass) {
  int cycles = 0;
  double cycle_s = 0.0;
  do {
    const Clock::time_point t = Clock::now();
    for (uint32_t k = 0; k < deployments; ++k) pass(cycles, k);
    cycle_s = SecondsSince(t);
    ++cycles;
  } while (SecondsSince(start) + cycle_s <= seconds);
  return cycles;
}

std::vector<NodeId> InTreeSensors(const td::Scenario& sc) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < sc.deployment.size(); ++v) {
    if (v != sc.base() && sc.tree.InTree(v)) out.push_back(v);
  }
  return out;
}

void CheckRetryStats(const td::RetryStats& r, Checks* checks) {
  uint64_t unicasts = 0;
  uint64_t attempts = 0;
  for (size_t k = 0; k < r.by_attempts.size(); ++k) {
    unicasts += r.by_attempts[k];
    attempts += (k + 1) * r.by_attempts[k];
  }
  checks->Expect(unicasts == r.unicasts, "sum(by_attempts) != unicasts");
  checks->Expect(attempts == r.attempts,
                 "sum((k+1)*by_attempts[k]) != attempts");
  checks->Expect(r.delivered <= r.unicasts, "delivered > unicasts");
}

td::obs::TelemetryConfig TracedTelemetry() {
  td::obs::TelemetryConfig config;
  config.trace = false;  // counters and phases only; no event ring
  return config;
}

// ------------------------------------------------------------- topology

/// Builds the paper's Synthetic scenario exactly as MakeSyntheticScenario
/// does, one public call per span, so a traced run can split set-up time by
/// layer.
td::Scenario BuildScenarioInPieces(uint64_t seed, size_t sensors,
                                   Tracer* tracer) {
  const double width = PaperWidth(sensors);
  td::Rng rng(seed);
  td::Deployment deployment = [&] {
    SpanScope s(tracer, "workload.deployment");
    return td::MakeSyntheticDeployment(&rng, sensors, width, width);
  }();
  td::Connectivity connectivity = [&] {
    SpanScope s(tracer, "net.connectivity");
    return td::Connectivity::FromRadioRange(deployment, kRadioRange);
  }();
  td::Rings rings = [&] {
    SpanScope s(tracer, "topology.rings");
    return td::Rings::Build(connectivity, deployment.base());
  }();
  td::Tree tree = [&] {
    SpanScope s(tracer, "topology.tree_opt");
    td::Rng tree_rng(seed ^ 0x7ee5ULL);
    return td::BuildOptimizedTree(connectivity, rings, &tree_rng);
  }();
  td::Tree tag_tree = [&] {
    SpanScope s(tracer, "topology.tree_tag");
    td::Rng tag_rng(seed ^ 0x7a9ULL);
    return td::BuildTagTree(connectivity, rings, &tag_rng);
  }();
  return td::Scenario{std::move(deployment), std::move(connectivity),
                      std::move(rings), std::move(tree), std::move(tag_tree)};
}

td::Scenario BuildScenario(uint64_t seed, size_t sensors) {
  const double width = PaperWidth(sensors);
  return td::MakeSyntheticScenario(seed, sensors, width, width, kRadioRange);
}

size_t AdjacencyEntries(const td::Connectivity& c) {
  size_t n = 0;
  for (NodeId v = 0; v < c.num_nodes(); ++v) n += c.Neighbors(v).size();
  return n;
}

/// Bitwise equality of the topology two scenarios carry.
bool SameTopology(const td::Scenario& a, const td::Scenario& b) {
  if (a.deployment.size() != b.deployment.size()) return false;
  for (NodeId v = 0; v < a.deployment.size(); ++v) {
    if (a.rings.level(v) != b.rings.level(v) ||
        a.tree.parent(v) != b.tree.parent(v) ||
        a.tag_tree.parent(v) != b.tag_tree.parent(v) ||
        a.connectivity.Neighbors(v) != b.connectivity.Neighbors(v)) {
      return false;
    }
  }
  return true;
}

/// Section 4.1: every parent of the optimized (TD) tree is a neighbor
/// exactly one ring closer to the base; the TAG tree, which may pick a
/// same-ring parent (Section 6.1.3), never picks one farther out. Every
/// ring-reachable node is in both trees.
void CheckTopology(const td::Scenario& sc, Checks* checks) {
  size_t bad_opt = 0;
  size_t bad_tag = 0;
  size_t missing = 0;
  for (NodeId v = 0; v < sc.deployment.size(); ++v) {
    if (v == sc.base()) continue;
    const int level = sc.rings.level(v);
    for (const td::Tree* t : {&sc.tree, &sc.tag_tree}) {
      if (!t->InTree(v)) {
        if (level != td::Rings::kUnreachable) ++missing;
        continue;
      }
      const NodeId p = t->parent(v);
      const bool neighbor = sc.connectivity.AreNeighbors(v, p);
      const int parent_level = sc.rings.level(p);
      if (t == &sc.tree && (!neighbor || parent_level != level - 1)) ++bad_opt;
      if (t == &sc.tag_tree &&
          (!neighbor || parent_level < 0 || parent_level > level)) {
        ++bad_tag;
      }
    }
  }
  checks->ExpectRun(bad_opt == 0,
                    "TD tree parent not a neighbor one ring closer (4.1)");
  checks->ExpectRun(bad_tag == 0, "TAG tree parent farther from the base");
  checks->ExpectRun(missing == 0, "ring-reachable node missing from a tree");
}

/// Set-up layers from the traced spans; graph sizes are means over the
/// traced scenarios.
void AddSetupLayers(const Tracer& tracer,
                    const std::vector<const td::Scenario*>& scenarios,
                    Outcome* out) {
  auto& m = out->metrics;
  m["workload.deployment_s"] = tracer.Self("workload.deployment");
  m["net.connectivity_s"] = tracer.Self("net.connectivity");
  m["topology.rings_s"] = tracer.Self("topology.rings");
  m["topology.tree_opt_s"] = tracer.Self("topology.tree_opt");
  m["topology.tree_tag_s"] = tracer.Self("topology.tree_tag");
  double entries = 0.0;
  double levels = 0.0;
  for (const td::Scenario* sc : scenarios) {
    entries += static_cast<double>(AdjacencyEntries(sc->connectivity));
    levels += static_cast<double>(sc->rings.max_level());
  }
  m["net.adjacency_entries"] = entries / static_cast<double>(scenarios.size());
  m["topology.ring_levels"] = levels / static_cast<double>(scenarios.size());
}

/// Epoch-layer times from the library's Telemetry() phase profile; the
/// engine sweep lands under `sweep_metric` (core.* for SoA, agg.* for the
/// object engines).
void AddPhases(const td::obs::TelemetrySummary& t, const char* sweep_metric,
               Outcome* out) {
  auto& m = out->metrics;
  for (const td::obs::PhaseRow& row : t.phases) {
    const double s = static_cast<double>(row.ns) * 1e-9;
    if (row.name == "sweep") m[sweep_metric] += s;
    if (row.name == "adapt") m["td.adapt_s"] += s;
    if (row.name == "rle_encode") m["sketch.rle_encode_s"] += s;
    if (row.name == "window_combine") m["window.combine_s"] += s;
    if (row.name == "fed_merge") m["fed.merge_s"] += s;
  }
}

void AddEpochSummary(std::vector<double> epoch_ms, Outcome* out) {
  out->metrics["epoch_ms_p50"] = Percentile(epoch_ms, 0.5);
  out->metrics["epoch_ms_p90"] = Percentile(epoch_ms, 0.9);
  out->notes.push_back(Format("epoch latency samples: %.0f", epoch_ms.size()));
  if (epoch_ms.size() < 100) {
    out->notes.push_back("WARNING: fewer than 100 epoch samples; p90 has "
                         "fewer than 10 samples beyond it");
  }
}

// ============================================================ paper-600

// The paper's Synthetic scenario under Global(0.2), the four schemes as
// Monte Carlo sweeps: the path every figure bench takes. A run cycles
// through kPaperDeployments deployments drawn from the seed, so its figures
// average over topologies instead of resting on one.
constexpr size_t kPaperSensors = 600;
constexpr uint32_t kPaperDeployments = 16;
constexpr uint32_t kPaperTrials = 4;
constexpr uint32_t kPaperWarmup = 60;
constexpr uint32_t kPaperEpochs = 40;
constexpr int kPaperSetupCycles = 2;
constexpr uint32_t kPaperSpeedupDeployments = 4;
constexpr Strategy kPaperSchemes[] = {Strategy::kTag,
                                      Strategy::kSynopsisDiffusion,
                                      Strategy::kTdCoarse,
                                      Strategy::kTributaryDelta};

struct PaperPass {
  std::unique_ptr<td::Scenario> scenario;
  std::vector<td::SweepResult> sweeps;  // one per scheme
  double truth = 0.0;                   // exact Count
  double sweep_s = 0.0;                 // wall time of the four sweeps
  double setup_s = 0.0;
  double total_s = 0.0;
};

PaperPass RunPaperPass(const Seeds& seeds, unsigned threads, Tracer* tracer,
                       const std::shared_ptr<td::LossModel>& loss) {
  PaperPass pass;
  const Clock::time_point t0 = Clock::now();
  {
    SpanScope root(tracer, "pass");
    pass.scenario = std::make_unique<td::Scenario>(
        tracer ? BuildScenarioInPieces(seeds.scenario, kPaperSensors, tracer)
               : BuildScenario(seeds.scenario, kPaperSensors));
    pass.setup_s = SecondsSince(t0);
    const Clock::time_point t1 = Clock::now();
    for (Strategy s : kPaperSchemes) {
      SpanScope span(tracer, "api.run_trials");
      td::Experiment::Builder b;
      b.Scenario(pass.scenario.get())
          .Aggregate(AggregateKind::kCount)
          .Strategy(s)
          .NetworkSeed(seeds.network)
          .Warmup(kPaperWarmup)
          .Epochs(kPaperEpochs)
          .Trials(kPaperTrials)
          .Threads(threads);
      if (loss) {
        b.LossModel(loss).Telemetry(TracedTelemetry());
      } else {
        b.GlobalLossRate(kLoss);
      }
      pass.sweeps.push_back(b.RunTrials());
    }
    pass.sweep_s = SecondsSince(t1);
  }
  pass.total_s = SecondsSince(t0);
  pass.truth = static_cast<double>(InTreeSensors(*pass.scenario).size());
  return pass;
}

uint64_t DigestSweeps(const std::vector<td::SweepResult>& sweeps) {
  Digest d;
  for (const td::SweepResult& sw : sweeps) {
    for (const td::RunResult& r : sw.trials) {
      for (const td::EpochResult& e : r.epochs) d.Add(e.value);
      d.Add(r.energy.bytes);
      d.Add(r.energy.transmissions);
      d.Add(static_cast<uint64_t>(r.final_delta_size));
    }
  }
  return d.value();
}

/// Per trial-epoch output checks; returns the pass's answer_rms (mean over
/// schemes of the mean per-trial relative RMS error against exact truth).
double CheckPaperPass(const PaperPass& pass, Checks* checks) {
  double rms_sum = 0.0;
  for (size_t s = 0; s < pass.sweeps.size(); ++s) {
    const bool tag = kPaperSchemes[s] == Strategy::kTag;
    double scheme_rms = 0.0;
    for (const td::RunResult& r : pass.sweeps[s].trials) {
      // Retry accounting identities, from the run's histogram (RunResult
      // carries the ratio and per-epoch attempts, not the raw tallies).
      uint64_t attempts = 0;
      for (size_t k = 0; k < r.retry_histogram.size(); ++k) {
        attempts += (k + 1) * r.retry_histogram[k];
      }
      const double measured = static_cast<double>(r.epochs.size());
      const bool retry_ok =
          std::abs(static_cast<double>(attempts) -
                   r.attempts_per_epoch * measured) <
              1e-6 * (1.0 + static_cast<double>(attempts)) &&
          r.delivery_ratio >= 0.0 && r.delivery_ratio <= 1.0;
      std::vector<double> est;
      for (const td::EpochResult& e : r.epochs) {
        checks->Expect(std::isfinite(e.value), "non-finite estimate");
        if (tag) {
          checks->Expect(e.value <= static_cast<double>(kPaperSensors),
                         "TAG Count exceeds the number of sensors");
        }
        checks->Expect(r.truths.empty() || r.truths.front() == pass.truth,
                       "library truth differs from generated truth");
        checks->Expect(retry_ok, "retry accounting identity violated");
        checks->EndOp();
        est.push_back(e.value);
      }
      scheme_rms +=
          RelativeRms(est, std::vector<double>(est.size(), pass.truth));
    }
    rms_sum += scheme_rms / static_cast<double>(pass.sweeps[s].trials.size());
  }
  return rms_sum / static_cast<double>(pass.sweeps.size());
}

/// Steps one TD experiment over the scenario on the calling thread, for
/// per-epoch latency; returns the measured epochs' latencies in ms.
std::vector<double> PaperLatencyProbe(const td::Scenario& sc,
                                      const Seeds& seeds, double truth,
                                      Tracer* tracer, Checks* checks) {
  td::Experiment exp = [&] {
    SpanScope s(tracer, "api.build");
    return td::Experiment::Builder()
        .Scenario(&sc)
        .Aggregate(AggregateKind::kCount)
        .Strategy(Strategy::kTributaryDelta)
        .GlobalLossRate(kLoss)
        .NetworkSeed(seeds.network)
        .Build();
  }();
  std::vector<double> ms;
  for (uint32_t e = 0; e < kPaperWarmup + kPaperEpochs; ++e) {
    if (e == kPaperWarmup) exp.network().ResetEnergy();
    const Clock::time_point t = Clock::now();
    td::EpochResult r;
    {
      SpanScope s(tracer, "api.step");
      r = exp.StepEpoch(e);
    }
    if (e < kPaperWarmup) continue;
    ms.push_back(SecondsSince(t) * 1e3);
    checks->Expect(std::isfinite(r.value), "non-finite estimate");
    checks->Expect(r.value >= 0.0 && r.value < 4.0 * truth,
                   "TD estimate out of range");
    checks->EndOp();
  }
  CheckRetryStats(exp.network().retry_stats(), checks);
  checks->EndOp();
  return ms;
}

void RunPaper(const Options& opt, Outcome* out) {
  const Clock::time_point start = Clock::now();
  const unsigned threads = PoolThreads();
  Checks& checks = out->checks;
  out->notes.push_back(Format(
      "paper-600: %.0f deployments of 600 sensors (20x20, range 3), Count, "
      "Global(0.2); TAG/SD/TD-Coarse/TD x %.0f trials, threads=%.0f",
      kPaperDeployments, kPaperTrials, threads));
  auto seeds_of = [&](uint32_t k) { return Seeds(opt.seed, k); };

  if (!opt.trace) {
    std::vector<double> setup_s;
    for (int c = 0; c < kPaperSetupCycles; ++c) {
      for (uint32_t k = 0; k < kPaperDeployments; ++k) {
        const Clock::time_point t = Clock::now();
        const td::Scenario sc =
            BuildScenario(seeds_of(k).scenario, kPaperSensors);
        setup_s.push_back(SecondsSince(t));
      }
    }
    std::vector<double> total_s;
    std::vector<double> epoch_ms;
    double sweep_s = 0.0;
    double node_epochs = 0.0;
    double rms_sum = 0.0;
    double bytes_sum = 0.0;
    std::vector<uint64_t> digests(kPaperDeployments);
    const int cycles = RunCycles(
        kPaperDeployments, start, opt.seconds, [&](int cycle, uint32_t k) {
          const Seeds seeds = seeds_of(k);
          PaperPass pass = RunPaperPass(seeds, threads, nullptr, nullptr);
          setup_s.push_back(pass.setup_s);
          total_s.push_back(pass.total_s);
          sweep_s += pass.sweep_s;
          node_epochs += static_cast<double>(kPaperSensors) *
                         (kPaperWarmup + kPaperEpochs) * kPaperTrials *
                         static_cast<double>(pass.sweeps.size());
          const double rms = CheckPaperPass(pass, &checks);
          const uint64_t d = DigestSweeps(pass.sweeps);
          if (cycle == 0) {
            rms_sum += rms;
            if (k + 1 == kPaperDeployments) {
              out->metrics["peak_rss_mb"] = PeakRssMb();
            }
            for (const td::SweepResult& sw : pass.sweeps) {
              bytes_sum += sw.bytes_per_epoch.mean();
            }
            digests[k] = d;
          }
          checks.ExpectRun(d == digests[k], "same-seed passes differ");
          const std::vector<double> ms = PaperLatencyProbe(
              *pass.scenario, seeds, pass.truth, nullptr, &checks);
          epoch_ms.insert(epoch_ms.end(), ms.begin(), ms.end());
        });
    out->metrics["setup_s"] = Median(setup_s);
    out->metrics["total_s"] = Median(total_s);
    AddEpochSummary(epoch_ms, out);
    out->metrics["node_epochs_per_s"] = node_epochs / sweep_s;
    out->metrics["answer_rms"] = rms_sum / kPaperDeployments;
    // Summed over the four schemes: the radio bill of one epoch of each.
    out->metrics["radio_bytes_per_epoch"] = bytes_sum / kPaperDeployments;
    out->notes.push_back(Format("cycles: %.0f, setups: %.0f", cycles,
                                setup_s.size()));
    out->notes.push_back(DigestNote(digests));
    return;
  }

  // Traced run: a warm-up pass (thread start-up, cold caches), then per
  // deployment the untraced reference and the traced pass; the first
  // kPaperSpeedupDeployments also run at Threads(1).
  Tracer tracer(static_cast<uint32_t>(opt.seed));
  auto loss = std::make_shared<CountingLoss>(
      std::make_shared<td::GlobalLoss>(kLoss));
  double ref_total = 0.0, traced_total = 0.0;
  double pool_sweep = 0.0, single_sweep = 0.0;
  std::vector<PaperPass> traced;
  RunPaperPass(seeds_of(0), threads, nullptr, nullptr);
  for (uint32_t k = 0; k < kPaperDeployments; ++k) {
    const Seeds seeds = seeds_of(k);
    const PaperPass ref = RunPaperPass(seeds, threads, nullptr, nullptr);
    CheckPaperPass(ref, &checks);
    ref_total += ref.total_s;
    PaperPass t = RunPaperPass(seeds, threads, &tracer, loss);
    CheckPaperPass(t, &checks);
    traced_total += t.total_s;
    checks.ExpectRun(DigestSweeps(t.sweeps) == DigestSweeps(ref.sweeps),
                     "traced sweep differs from untraced sweep");
    if (k < kPaperSpeedupDeployments) {
      const PaperPass single = RunPaperPass(seeds, 1, nullptr, nullptr);
      pool_sweep += ref.sweep_s;
      single_sweep += single.sweep_s;
      checks.ExpectRun(DigestSweeps(single.sweeps) == DigestSweeps(ref.sweeps),
                       "Threads(1) sweep differs from Threads(N) sweep");
    }
    checks.ExpectRun(SameTopology(*t.scenario, *ref.scenario),
                     "piecewise scenario differs from MakeSyntheticScenario");
    CheckTopology(*t.scenario, &checks);
    PaperLatencyProbe(*t.scenario, seeds, t.truth, &tracer, &checks);
    traced.push_back(std::move(t));
  }

  auto& m = out->metrics;
  std::vector<const td::Scenario*> scenarios;
  for (const PaperPass& p : traced) scenarios.push_back(p.scenario.get());
  AddSetupLayers(tracer, scenarios, out);
  m["api.build_s"] = tracer.Total("api.build");
  m["api.step_s"] = tracer.Total("api.step");
  m["api.run_trials_s"] = tracer.Total("api.run_trials");
  td::obs::TelemetrySummary merged;
  double trial_epochs = 0.0;
  double measured_trial_epochs = 0.0;
  double transmissions = 0.0;
  double attempts = 0.0;
  const double td_trials = kPaperDeployments * kPaperTrials;
  for (const PaperPass& p : traced) {
    for (size_t s = 0; s < p.sweeps.size(); ++s) {
      merged.Merge(p.sweeps[s].telemetry);
      for (const td::RunResult& r : p.sweeps[s].trials) {
        trial_epochs += kPaperWarmup + kPaperEpochs;
        measured_trial_epochs += static_cast<double>(r.epochs.size());
        transmissions += static_cast<double>(r.energy.transmissions);
        attempts += r.attempts_per_epoch * static_cast<double>(r.epochs.size());
        if (kPaperSchemes[s] == Strategy::kTributaryDelta) {
          m["td.decisions"] +=
              static_cast<double>(r.stats.decisions) / td_trials;
          m["td.expansions"] +=
              static_cast<double>(r.stats.expansions) / td_trials;
          m["td.shrinks"] += static_cast<double>(r.stats.shrinks) / td_trials;
          m["td.final_delta_size"] +=
              static_cast<double>(r.final_delta_size) / td_trials;
        }
      }
    }
  }
  AddPhases(merged, "agg.sweep_s", out);
  m["net.delivery_draws_per_epoch"] =
      static_cast<double>(loss->calls()) / trial_epochs;
  m["net.loss_rate_s"] = loss->seconds();
  m["net.transmissions_per_epoch"] = transmissions / measured_trial_epochs;
  m["net.attempts_per_epoch"] = attempts / measured_trial_epochs;
  const double unicasts = merged.metric("net.unicast.count");
  m["net.unicast_delivery_ratio"] =
      unicasts > 0 ? merged.metric("net.unicast.delivered") / unicasts : 0.0;
  m["api.trial_pool_speedup"] = single_sweep / pool_sweep;
  m["unattributed_frac"] = tracer.Self("pass") / tracer.Total("pass");
  m["obs.tracing_overhead_frac"] = traced_total / ref_total - 1.0;
  out->spans = tracer.ToJsonl();
  out->notes.push_back("sweep, adapt and rle_encode phases and the loss-model "
                       "time are summed over trial threads (CPU seconds)");
}

// =============================================================== sd-50k

// One large deployment at paper density under synopsis diffusion on the
// SoA core, stepped. The deployment is drawn once for every seed and the
// seed varies the loss stream: SD's Count error is dominated by one
// deployment's sketch bias, which would otherwise swamp answer_rms.
constexpr size_t kSdSensors = 50000;
constexpr uint32_t kSdWarmup = 2;
constexpr uint32_t kSdMeasured = 60;
constexpr int kSdMinSetups = 5;
constexpr uint64_t kSdDeploymentSeed = 600;

struct SdPass {
  std::unique_ptr<td::Scenario> scenario;
  std::vector<double> estimates;  // measured epochs
  std::vector<double> epoch_ms;   // measured epochs
  double setup_s = 0.0;
  double total_s = 0.0;
  double bytes = 0.0;          // measured epochs
  double transmissions = 0.0;  // measured epochs
  td::RetryStats retry;        // measured epochs
  uint64_t nodes_reprocessed = 0;
  size_t sweep_nodes = 0;
  td::obs::TelemetrySummary telemetry;
  uint64_t digest = 0;
};

/// The SD experiment over `sc`; a non-null `loss` (the traced run's
/// counting wrapper) also turns on Telemetry().
td::Experiment BuildSd(const Seeds& seeds, const td::Scenario* sc,
                       const std::shared_ptr<td::LossModel>& loss) {
  td::Experiment::Builder b;
  b.Scenario(sc)
      .Aggregate(AggregateKind::kCount)
      .Strategy(Strategy::kSynopsisDiffusion)
      .Core(EngineCore::kSoa)
      .NetworkSeed(seeds.network);
  if (loss) {
    b.LossModel(loss).Telemetry(TracedTelemetry());
  } else {
    b.GlobalLossRate(kLoss);
  }
  return b.Build();
}

SdPass RunSdPass(const Seeds& seeds, Tracer* tracer,
                 const std::shared_ptr<td::LossModel>& loss) {
  SdPass pass;
  const Clock::time_point t0 = Clock::now();
  std::optional<SpanScope> root;
  root.emplace(tracer, "pass");
  pass.scenario = std::make_unique<td::Scenario>(
      tracer ? BuildScenarioInPieces(seeds.scenario, kSdSensors, tracer)
             : BuildScenario(seeds.scenario, kSdSensors));
  td::Experiment exp = [&] {
    SpanScope s(tracer, "api.build");
    return BuildSd(seeds, pass.scenario.get(), loss);
  }();
  pass.setup_s = SecondsSince(t0);
  for (uint32_t e = 0; e < kSdWarmup + kSdMeasured; ++e) {
    if (e == kSdWarmup) exp.network().ResetEnergy();
    const Clock::time_point t = Clock::now();
    td::EpochResult r;
    {
      SpanScope s(tracer, "api.step");
      r = exp.StepEpoch(e);
    }
    if (e < kSdWarmup) continue;
    pass.epoch_ms.push_back(SecondsSince(t) * 1e3);
    pass.estimates.push_back(r.value);
  }
  root.reset();
  pass.total_s = SecondsSince(t0);
  pass.bytes = static_cast<double>(exp.network().total_energy().bytes);
  pass.transmissions =
      static_cast<double>(exp.network().total_energy().transmissions);
  pass.retry = exp.network().retry_stats();
  pass.nodes_reprocessed = exp.engine().nodes_reprocessed();
  pass.sweep_nodes = pass.scenario->rings.num_reachable();
  if (exp.telemetry() != nullptr) pass.telemetry = exp.telemetry()->Summarize();
  Digest d;
  for (double v : pass.estimates) d.Add(v);
  d.Add(pass.bytes);
  d.Add(pass.transmissions);
  d.Add(pass.retry.attempts);
  pass.digest = d.value();
  return pass;
}

/// Per measured-epoch checks; returns the pass's answer_rms.
double CheckSdPass(const SdPass& pass, Checks* checks) {
  const double truth =
      static_cast<double>(InTreeSensors(*pass.scenario).size());
  for (double v : pass.estimates) {
    checks->Expect(std::isfinite(v), "non-finite estimate");
    checks->EndOp();
  }
  CheckRetryStats(pass.retry, checks);
  checks->EndOp();
  return RelativeRms(pass.estimates,
                     std::vector<double>(pass.estimates.size(), truth));
}

void RunSd(const Options& opt, Outcome* out) {
  Seeds seeds(opt.seed);
  seeds.scenario = kSdDeploymentSeed;
  Checks& checks = out->checks;
  out->notes.push_back(Format(
      "sd-50k: %.0f sensors at paper density (width %.1f, one deployment "
      "for every seed), range 3, SD, Count, Global(0.2), SoA core",
      kSdSensors, PaperWidth(kSdSensors)));
  out->notes.push_back(Format("warmup %.0f + measured %.0f stepped epochs",
                              kSdWarmup, kSdMeasured));
  const double epochs = kSdWarmup + kSdMeasured;

  if (!opt.trace) {
    const Clock::time_point start = Clock::now();
    std::vector<double> setup_s;
    std::vector<double> total_s;
    std::vector<double> epoch_ms;
    double step_s = 0.0;
    double answer_rms = 0.0;
    double bytes_per_epoch = 0.0;
    uint64_t digest = 0;
    const int passes = RunCycles(1, start, opt.seconds, [&](int, uint32_t) {
      SdPass pass = RunSdPass(seeds, nullptr, nullptr);
      setup_s.push_back(pass.setup_s);
      total_s.push_back(pass.total_s);
      step_s += pass.total_s - pass.setup_s;
      epoch_ms.insert(epoch_ms.end(), pass.epoch_ms.begin(),
                      pass.epoch_ms.end());
      const double rms = CheckSdPass(pass, &checks);
      if (total_s.size() == 1) {
        out->metrics["peak_rss_mb"] = PeakRssMb();
        answer_rms = rms;
        digest = pass.digest;
        bytes_per_epoch = pass.bytes / kSdMeasured;
      }
      checks.ExpectRun(pass.digest == digest, "same-seed passes differ");
    });
    // Set-up alone, repeated until the median rests on kSdMinSetups samples.
    while (static_cast<int>(setup_s.size()) < kSdMinSetups) {
      const Clock::time_point t = Clock::now();
      const td::Scenario sc = BuildScenario(seeds.scenario, kSdSensors);
      const td::Experiment exp = BuildSd(seeds, &sc, nullptr);
      setup_s.push_back(SecondsSince(t));
    }
    out->metrics["setup_s"] = Median(setup_s);
    out->metrics["total_s"] = Median(total_s);
    AddEpochSummary(epoch_ms, out);
    out->metrics["node_epochs_per_s"] =
        static_cast<double>(kSdSensors) * epochs *
        static_cast<double>(total_s.size()) / step_s;
    out->metrics["answer_rms"] = answer_rms;
    out->metrics["radio_bytes_per_epoch"] = bytes_per_epoch;
    out->notes.push_back(Format("passes: %.0f, setups: %.0f", passes,
                                setup_s.size()));
    out->notes.push_back(DigestNote({digest}));
    return;
  }

  SdPass ref = RunSdPass(seeds, nullptr, nullptr);
  CheckSdPass(ref, &checks);

  Tracer tracer(static_cast<uint32_t>(opt.seed));
  auto loss = std::make_shared<CountingLoss>(
      std::make_shared<td::GlobalLoss>(kLoss));
  SdPass traced = RunSdPass(seeds, &tracer, loss);
  CheckSdPass(traced, &checks);
  checks.ExpectRun(traced.digest == ref.digest,
                   "traced run differs from untraced run");
  // The timed pieces assemble the same program MakeSyntheticScenario runs.
  checks.ExpectRun(SameTopology(*traced.scenario, *ref.scenario),
                   "piecewise scenario differs from MakeSyntheticScenario");
  CheckTopology(*traced.scenario, &checks);

  auto& m = out->metrics;
  AddSetupLayers(tracer, {traced.scenario.get()}, out);
  m["api.build_s"] = tracer.Total("api.build");
  m["api.step_s"] = tracer.Total("api.step");
  AddPhases(traced.telemetry, "core.sweep_s", out);
  m["core.nodes_reprocessed_frac"] =
      static_cast<double>(traced.nodes_reprocessed) /
      (static_cast<double>(traced.sweep_nodes) * epochs);
  m["net.delivery_draws_per_epoch"] =
      static_cast<double>(loss->calls()) / epochs;
  m["net.loss_rate_s"] = loss->seconds();
  m["net.transmissions_per_epoch"] = traced.transmissions / kSdMeasured;
  m["net.attempts_per_epoch"] =
      static_cast<double>(traced.retry.attempts) / kSdMeasured;
  m["net.unicast_delivery_ratio"] = traced.retry.delivery_ratio();
  m["unattributed_frac"] = tracer.Self("pass") / tracer.Total("pass");
  m["obs.tracing_overhead_frac"] = traced.total_s / ref.total_s - 1.0;
  out->spans = tracer.ToJsonl();
  out->notes.push_back("byte sizing inside the sweep has no outside seam; "
                       "it is part of core.sweep_s");
}

// ======================================================== fed-dashboard

constexpr size_t kFedSensors = 600;
constexpr uint32_t kFedDeployments = 16;
constexpr uint32_t kFedWarmup = 16;
constexpr uint32_t kFedEpochs = 48;
constexpr int kFedSetupCycles = 2;
constexpr int kDigestBits = 10;
constexpr int kDigestK = 32;
constexpr double kQuantileP = 0.95;
constexpr size_t kDashboards = 1000;
constexpr uint32_t kDashboardWidth = 24;
constexpr uint32_t kDistinctWidths = 32;  // per windowed query: 64 in all
constexpr uint32_t kTumblingWidth = 8;

enum FedQuery : size_t { kQCount = 0, kQP95 = 1, kQAvg = 2 };

struct FedGateway {
  Strategy strategy;
  double loss;
};
constexpr FedGateway kFedGateways[] = {
    {Strategy::kTributaryDelta, 0.05},
    {Strategy::kTag, 0.05},
    {Strategy::kSynopsisDiffusion, 0.15},
    {Strategy::kTdCoarse, 0.10},
};

// Readings in the q-digest domain [0, 2^10), a pure function of the seed.
struct FedReadings {
  uint64_t seed;
  uint64_t operator()(NodeId v, uint32_t e) const {
    return Mix(seed ^ (static_cast<uint64_t>(v) << 20) ^ e) %
           (1u << kDigestBits);
  }
};

/// Subscription classes: (subscription, subscriber count).
std::vector<std::pair<td::Subscription, size_t>> FedSubscriptions() {
  std::vector<std::pair<td::Subscription, size_t>> subs;
  subs.push_back({{.query = kQP95,
                   .window = td::WindowSpec::Sliding(kDashboardWidth)},
                  kDashboards});
  for (uint32_t w = 0; w < kDistinctWidths; ++w) {
    for (size_t q : {kQAvg, kQP95}) {
      subs.push_back(
          {{.query = q, .window = td::WindowSpec::Sliding(25 + w)}, 1});
    }
  }
  for (size_t g = 0; g < std::size(kFedGateways); ++g) {
    subs.push_back({{.query = kQCount,
                     .window = td::WindowSpec::Tumbling(kTumblingWidth),
                     .gateways = {g}},
                    1});
  }
  return subs;
}

/// Exact per-epoch truths of the generated readings over the sensors the
/// federation covers.
struct FedTruth {
  double count = 0.0;
  std::vector<double> sum;  // per epoch
  std::vector<std::vector<uint64_t>> sorted;  // per epoch readings

  FedTruth(const td::Scenario& sc, const FedReadings& readings,
           uint32_t epochs) {
    const std::vector<NodeId> sensors = InTreeSensors(sc);
    count = static_cast<double>(sensors.size());
    for (uint32_t e = 0; e < epochs; ++e) {
      std::vector<uint64_t> r;
      double s = 0.0;
      for (NodeId v : sensors) {
        r.push_back(readings(v, e));
        s += static_cast<double>(r.back());
      }
      std::sort(r.begin(), r.end());
      sum.push_back(s);
      sorted.push_back(std::move(r));
    }
  }

  /// Distance of `value`'s rank range from the target rank p*n, over n.
  double RankError(uint32_t e, double value) const {
    const std::vector<uint64_t>& r = sorted[e];
    const double lo = static_cast<double>(
        std::lower_bound(r.begin(), r.end(), value) - r.begin());
    const double hi = static_cast<double>(
        std::upper_bound(r.begin(), r.end(), value) - r.begin());
    const double target = kQuantileP * static_cast<double>(r.size());
    const double err =
        target < lo ? lo - target : (target > hi ? target - hi : 0.0);
    return err / static_cast<double>(r.size());
  }

  /// Exact p95 of the pooled readings of epochs (e - width, e].
  double WindowP95(uint32_t e, uint32_t width) const {
    const uint32_t first = e + 1 >= width ? e + 1 - width : 0;
    std::vector<uint64_t> pooled;
    for (uint32_t i = first; i <= e; ++i) {
      pooled.insert(pooled.end(), sorted[i].begin(), sorted[i].end());
    }
    std::sort(pooled.begin(), pooled.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(kQuantileP * static_cast<double>(pooled.size())));
    return static_cast<double>(pooled[std::max<size_t>(rank, 1) - 1]);
  }
};

struct FedPass {
  std::unique_ptr<td::Scenario> scenario;
  std::vector<td::FedEpochResult> epochs;  // measured
  std::vector<double> dashboard;           // measured dashboard values
  std::vector<double> epoch_ms;            // measured
  std::vector<td::SubscriptionBroker::GroupInfo> groups;
  double setup_s = 0.0;
  double total_s = 0.0;
  double bytes = 0.0;  // measured epochs, all gateways
  std::vector<td::RetryStats> retry;
  size_t merges = 0;
  size_t merged_bytes = 0;
  size_t deliveries = 0;
  td::EngineStats td_stats;  // the TD gateway
  size_t td_delta_size = 0;
  td::obs::TelemetrySummary telemetry;
  uint64_t digest = 0;
};

td::FederatedExperiment BuildFed(
    const td::Scenario* sc, const Seeds& seeds,
    const std::vector<std::shared_ptr<td::LossModel>>& losses,
    bool telemetry) {
  td::FederatedExperiment::Builder b;
  b.Scenario(sc);
  for (size_t g = 0; g < std::size(kFedGateways); ++g) {
    b.AddGateway({.strategy = kFedGateways[g].strategy, .loss = losses[g]});
  }
  b.AddQuery({.kind = AggregateKind::kCount, .name = "count"})
      .AddQuery({.kind = AggregateKind::kQuantileQd,
                 .name = "p95",
                 .quantile_p = kQuantileP,
                 .digest_bits = kDigestBits,
                 .digest_k = kDigestK})
      .AddQuery({.kind = AggregateKind::kAvg, .name = "avg"})
      .Reading(FedReadings{seeds.readings})
      .NetworkSeed(seeds.network)
      .Epochs(kFedWarmup + kFedEpochs);
  for (const auto& [sub, count] : FedSubscriptions()) b.Subscribe(sub, count);
  if (telemetry) b.Telemetry(TracedTelemetry());
  return b.Build();
}

std::vector<std::shared_ptr<td::LossModel>> FedLosses(bool counting) {
  std::vector<std::shared_ptr<td::LossModel>> out;
  for (const FedGateway& g : kFedGateways) {
    std::shared_ptr<td::LossModel> l = std::make_shared<td::GlobalLoss>(g.loss);
    if (counting) l = std::make_shared<CountingLoss>(std::move(l));
    out.push_back(std::move(l));
  }
  return out;
}

FedPass RunFedPass(const Seeds& seeds, Tracer* tracer,
                   const std::vector<std::shared_ptr<td::LossModel>>& losses) {
  FedPass pass;
  const Clock::time_point t0 = Clock::now();
  std::optional<SpanScope> root;
  root.emplace(tracer, "pass");
  pass.scenario = std::make_unique<td::Scenario>(
      tracer ? BuildScenarioInPieces(seeds.scenario, kFedSensors, tracer)
             : BuildScenario(seeds.scenario, kFedSensors));
  td::FederatedExperiment fed = [&] {
    SpanScope s(tracer, "api.build");
    return BuildFed(pass.scenario.get(), seeds, losses, tracer != nullptr);
  }();
  pass.setup_s = SecondsSince(t0);
  const size_t dashboard_group = 0;  // subscribed first
  for (uint32_t e = 0; e < kFedWarmup + kFedEpochs; ++e) {
    if (e == kFedWarmup) {
      for (size_t g = 0; g < fed.num_gateways(); ++g) {
        fed.gateway_engine(g).network().ResetEnergy();
      }
    }
    const Clock::time_point t = Clock::now();
    td::FedEpochResult r;
    {
      SpanScope s(tracer, "api.step");
      r = fed.StepEpoch(e);
    }
    if (e < kFedWarmup) continue;
    pass.epoch_ms.push_back(SecondsSince(t) * 1e3);
    pass.epochs.push_back(std::move(r));
  }
  root.reset();
  pass.total_s = SecondsSince(t0);
  pass.groups = fed.broker().groups();
  const std::vector<double>& dash = pass.groups[dashboard_group].values;
  pass.dashboard.assign(dash.end() - kFedEpochs, dash.end());
  for (size_t g = 0; g < fed.num_gateways(); ++g) {
    const td::Network& net = fed.gateway_engine(g).network();
    pass.bytes += static_cast<double>(net.total_energy().bytes);
    pass.retry.push_back(net.retry_stats());
    if (kFedGateways[g].strategy == Strategy::kTributaryDelta) {
      pass.td_stats = fed.gateway_engine(g).stats();
      pass.td_delta_size = fed.gateway_engine(g).delta_size();
    }
  }
  pass.merges = fed.coordinator().merges();
  pass.merged_bytes = fed.coordinator().merged_bytes();
  pass.deliveries = fed.broker().total_deliveries();
  if (fed.telemetry() != nullptr) pass.telemetry = fed.telemetry()->Summarize();
  Digest d;
  for (const td::FedEpochResult& r : pass.epochs) {
    for (double v : r.global_values) d.Add(v);
    for (const std::vector<double>& gv : r.gateway_values) {
      for (double v : gv) d.Add(v);
    }
  }
  for (const auto& g : pass.groups) {
    for (double v : g.values) d.Add(v);
  }
  d.Add(pass.bytes);
  pass.digest = d.value();
  return pass;
}

struct FedScore {
  double answer_rms = 0.0;
  double max_rank_error = 0.0;
};

FedScore CheckFedPass(const FedPass& pass, const Seeds& seeds,
                      Checks* checks) {
  const FedTruth truth(*pass.scenario, FedReadings{seeds.readings},
                       kFedWarmup + kFedEpochs);
  const double n = truth.count;
  const double rank_bound =
      kDigestBits * std::floor(n / kDigestK) / n;  // q-digest guarantee
  FedScore score;
  std::vector<double> count_est, avg_est, avg_truth, p95_est, p95_truth,
      dashboard_truth;
  const size_t tag = 1;  // kFedGateways[1] runs TAG
  for (size_t i = 0; i < pass.epochs.size(); ++i) {
    const uint32_t e = kFedWarmup + static_cast<uint32_t>(i);
    const td::FedEpochResult& r = pass.epochs[i];
    bool finite = std::isfinite(pass.dashboard[i]);
    for (double v : r.global_values) finite = finite && std::isfinite(v);
    for (const auto& gv : r.gateway_values) {
      for (double v : gv) finite = finite && std::isfinite(v);
    }
    checks->Expect(finite, "non-finite estimate");
    checks->Expect(r.gateway_values[tag][kQCount] <= n,
                   "TAG Count exceeds the number of sensors");
    const double rank_error = truth.RankError(e, r.global_values[kQP95]);
    checks->Expect(rank_error <= rank_bound,
                   "q-digest rank error above bits*floor(n/k)/n");
    score.max_rank_error = std::max(score.max_rank_error, rank_error);
    checks->EndOp();
    count_est.push_back(r.global_values[kQCount]);
    avg_est.push_back(r.global_values[kQAvg]);
    avg_truth.push_back(truth.sum[e] / n);
    p95_est.push_back(r.global_values[kQP95]);
    p95_truth.push_back(truth.WindowP95(e, 1));
    dashboard_truth.push_back(truth.WindowP95(e, kDashboardWidth));
  }
  for (const td::RetryStats& r : pass.retry) CheckRetryStats(r, checks);
  // Dedup: each subscription class is exactly one broker group.
  const auto classes = FedSubscriptions();
  bool groups_ok = pass.groups.size() == classes.size();
  for (size_t i = 0; groups_ok && i < classes.size(); ++i) {
    groups_ok = pass.groups[i].subscribers == classes[i].second;
  }
  checks->Expect(groups_ok, "subscription class is not exactly one group");
  checks->EndOp();
  score.answer_rms =
      (RelativeRms(count_est, std::vector<double>(count_est.size(), n)) +
       RelativeRms(avg_est, avg_truth) + RelativeRms(p95_est, p95_truth) +
       RelativeRms(pass.dashboard, dashboard_truth)) /
      4.0;
  return score;
}

void RunFed(const Options& opt, Outcome* out) {
  const Clock::time_point start = Clock::now();
  Checks& checks = out->checks;
  out->notes.push_back(Format(
      "fed-dashboard: %.0f deployments of 600 sensors; gateways TD@5%% "
      "TAG@5%% SD@15%% TD-Coarse@10%%; Count, q-digest p95 (bits 10, k 32), "
      "Avg; 1000 dashboards + 64 distinct sliding + 4 scoped tumbling "
      "subscriptions",
      kFedDeployments));
  auto seeds_of = [&](uint32_t k) { return Seeds(opt.seed, k); };
  const double epochs = kFedWarmup + kFedEpochs;

  if (!opt.trace) {
    std::vector<double> setup_s;
    for (int c = 0; c < kFedSetupCycles; ++c) {
      for (uint32_t k = 0; k < kFedDeployments; ++k) {
        const Seeds seeds = seeds_of(k);
        const Clock::time_point t = Clock::now();
        const td::Scenario sc = BuildScenario(seeds.scenario, kFedSensors);
        td::FederatedExperiment fed =
            BuildFed(&sc, seeds, FedLosses(false), false);
        setup_s.push_back(SecondsSince(t));
      }
    }
    std::vector<double> total_s;
    std::vector<double> epoch_ms;
    double step_s = 0.0;
    double rms_sum = 0.0;
    double bytes_sum = 0.0;
    std::vector<uint64_t> digests(kFedDeployments);
    const int cycles = RunCycles(
        kFedDeployments, start, opt.seconds, [&](int cycle, uint32_t k) {
          const Seeds seeds = seeds_of(k);
          FedPass pass = RunFedPass(seeds, nullptr, FedLosses(false));
          setup_s.push_back(pass.setup_s);
          total_s.push_back(pass.total_s);
          step_s += pass.total_s - pass.setup_s;
          epoch_ms.insert(epoch_ms.end(), pass.epoch_ms.begin(),
                          pass.epoch_ms.end());
          const FedScore score = CheckFedPass(pass, seeds, &checks);
          if (cycle == 0) {
            rms_sum += score.answer_rms;
            if (k + 1 == kFedDeployments) {
              out->metrics["peak_rss_mb"] = PeakRssMb();
            }
            bytes_sum += pass.bytes / kFedEpochs;
            digests[k] = pass.digest;
          }
          checks.ExpectRun(pass.digest == digests[k],
                           "same-seed passes differ");
        });
    out->metrics["setup_s"] = Median(setup_s);
    out->metrics["total_s"] = Median(total_s);
    AddEpochSummary(epoch_ms, out);
    out->metrics["node_epochs_per_s"] =
        static_cast<double>(kFedSensors) * epochs *
        static_cast<double>(total_s.size()) / step_s;
    out->metrics["answer_rms"] = rms_sum / kFedDeployments;
    out->metrics["radio_bytes_per_epoch"] = bytes_sum / kFedDeployments;
    out->notes.push_back(Format("cycles: %.0f, setups: %.0f", cycles,
                                setup_s.size()));
    out->notes.push_back(DigestNote(digests));
    return;
  }

  // Traced run: a warm-up pass, then per deployment the untraced reference
  // and the traced pass.
  Tracer tracer(static_cast<uint32_t>(opt.seed));
  RunFedPass(seeds_of(0), nullptr, FedLosses(false));
  double ref_total = 0.0, traced_total = 0.0, loss_s = 0.0, rank_error = 0.0;
  uint64_t draws = 0, unicasts = 0, delivered = 0, attempts = 0;
  size_t window_merges = 0, merges = 0, merged_bytes = 0, deliveries = 0;
  size_t groups = 0;
  td::obs::TelemetrySummary merged;
  td::EngineStats td_stats;
  size_t td_delta_size = 0;
  std::vector<std::unique_ptr<td::Scenario>> scenarios;
  for (uint32_t k = 0; k < kFedDeployments; ++k) {
    const Seeds seeds = seeds_of(k);
    const FedPass ref = RunFedPass(seeds, nullptr, FedLosses(false));
    CheckFedPass(ref, seeds, &checks);
    const std::vector<std::shared_ptr<td::LossModel>> losses = FedLosses(true);
    FedPass t = RunFedPass(seeds, &tracer, losses);
    const FedScore score = CheckFedPass(t, seeds, &checks);
    checks.ExpectRun(t.digest == ref.digest,
                     "traced run differs from untraced run");
    checks.ExpectRun(SameTopology(*t.scenario, *ref.scenario),
                     "piecewise scenario differs from MakeSyntheticScenario");
    CheckTopology(*t.scenario, &checks);
    ref_total += ref.total_s;
    traced_total += t.total_s;
    rank_error = std::max(rank_error, score.max_rank_error);
    for (const auto& l : losses) {
      draws += static_cast<const CountingLoss&>(*l).calls();
      loss_s += static_cast<const CountingLoss&>(*l).seconds();
    }
    for (const td::RetryStats& r : t.retry) {
      unicasts += r.unicasts;
      delivered += r.delivered;
      attempts += r.attempts;
    }
    for (const auto& g : t.groups) window_merges += g.window_merges;
    merges += t.merges;
    merged_bytes += t.merged_bytes;
    deliveries += t.deliveries;
    groups = t.groups.size();
    merged.Merge(t.telemetry);
    td_stats.decisions += t.td_stats.decisions;
    td_stats.expansions += t.td_stats.expansions;
    td_stats.shrinks += t.td_stats.shrinks;
    td_delta_size += t.td_delta_size;
    scenarios.push_back(std::move(t.scenario));
  }

  auto& m = out->metrics;
  const double runs = kFedDeployments;
  std::vector<const td::Scenario*> views;
  for (const auto& sc : scenarios) views.push_back(sc.get());
  AddSetupLayers(tracer, views, out);
  m["api.build_s"] = tracer.Total("api.build");
  m["api.step_s"] = tracer.Total("api.step");
  AddPhases(merged, "agg.sweep_s", out);
  m["net.delivery_draws_per_epoch"] =
      static_cast<double>(draws) / (runs * epochs);
  m["net.loss_rate_s"] = loss_s;
  m["net.transmissions_per_epoch"] =
      merged.metric("net.tx.transmissions") / (runs * epochs);
  m["net.attempts_per_epoch"] =
      static_cast<double>(attempts) / (runs * kFedEpochs);
  m["net.unicast_delivery_ratio"] =
      unicasts > 0
          ? static_cast<double>(delivered) / static_cast<double>(unicasts)
          : 0.0;
  m["td.decisions"] = static_cast<double>(td_stats.decisions) / runs;
  m["td.expansions"] = static_cast<double>(td_stats.expansions) / runs;
  m["td.shrinks"] = static_cast<double>(td_stats.shrinks) / runs;
  m["td.final_delta_size"] = static_cast<double>(td_delta_size) / runs;
  m["window.state_merges_per_epoch"] =
      static_cast<double>(window_merges) / (runs * epochs);
  m["fed.merges_per_epoch"] = static_cast<double>(merges) / (runs * epochs);
  m["fed.merged_bytes_per_epoch"] =
      static_cast<double>(merged_bytes) / (runs * epochs);
  m["fed.merge_chains_per_epoch"] =
      merged.metric("broker.merge_chains") / (runs * epochs);
  m["fed.groups"] = static_cast<double>(groups);
  m["fed.deliveries_per_epoch"] =
      static_cast<double>(deliveries) / (runs * epochs);
  m["quant.rank_error"] = rank_error;
  m["unattributed_frac"] = tracer.Self("pass") / tracer.Total("pass");
  m["obs.tracing_overhead_frac"] = traced_total / ref_total - 1.0;
  out->spans = tracer.ToJsonl();
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"paper-600", "sd-50k",
                                                 "fed-dashboard"};
  return names;
}

bool Run(const Options& options, Outcome* out) {
  if (options.workload == "paper-600") {
    RunPaper(options, out);
  } else if (options.workload == "sd-50k") {
    RunSd(options, out);
  } else if (options.workload == "fed-dashboard") {
    RunFed(options, out);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
