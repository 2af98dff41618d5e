// Full-stack tap-to-verdict benchmark.
//
// Runs the whole Figure 3 stack on a seeded open-loop load: RAN sim ->
// MobiFlow agent -> E2 -> near-RT RIC -> SDL -> MobiWatch with a trained
// autoencoder -> LLM analyzer -> mitigation -> E2 Control back to the gNB.
//
//   xsec_perfbench --workload fleet|attack|collect --seed N --seconds S
//                  --trace 0|1 [--spans FILE]
//
// --trace 0 measures the end-to-end metrics on untraced repetitions of the
// scenario. --trace 1 measures the per-layer metrics: untraced and traced
// repetitions (wall-clock spans around calls into each layer's public
// seams), then a replay of captured records through the remaining layers'
// public functions in isolation. Human-readable lines go to stdout; the
// last line is one JSON object that perfbench/run.py checks and reduces to
// the benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "attacks/attack.hpp"
#include "common/hash.hpp"
#include "common/log.hpp"
#include "core/datasets.hpp"
#include "core/evaluation.hpp"
#include "core/pipeline.hpp"
#include "detect/features.hpp"
#include "mitigate/policy.hpp"
#include "obs/export.hpp"
#include "oran/e2ap.hpp"
#include "oran/e2sm.hpp"
#include "oran/sdl.hpp"
#include "sim/profiles.hpp"
#include "transport/channel.hpp"

// Heap allocations made anywhere in the process; allocs_per_record is the
// difference across the timed part of a repetition.
static std::atomic<std::uint64_t> g_heap_allocs{0};

// GCC pairs our malloc-backed operator new with the default delete at
// some call sites and warns; the pairing here is in fact consistent.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

using namespace xsec;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- workloads

struct Workload {
  std::string_view name;
  /// Seed whose export digest is pinned below.
  std::uint64_t default_seed;
  /// Digest of the deterministic exports (PipelineStats::to_text() plus
  /// the Prometheus render) that default_seed must reproduce.
  std::string_view digest;
  std::size_t cells;
  /// Sessions (and attacks) arrive during [0, load); the run then drains
  /// for kDrain so every session completes before finalize().
  SimDuration load;
  bool detector;
  bool attacks;
  std::string_view transport;
};

// Why each workload exists:
//   fleet   - the headline 16-cell deployment: inference dominates, and the
//             detector's false-alarm incidents still drive the closed loop,
//             so an inference or batching change shows here. Not in the
//             gated set (BENCHMARK.json): its p99 slice time is the least
//             steady figure on a shared host, and attack covers its layers.
//   attack  - all five attacks in rotation on cell 0, with benign
//             background on four cells: incident assembly, LLM analysis,
//             mitigation policy and the E2 Control path do far more of the
//             work here than in fleet. (One cell leaves the median 10 ms
//             slice at ~30 us of work, too little to time steadily.)
//   collect - fleet's load with no detector (training-phase collection) on
//             the uds backend: the per-record path (sim, agent, codec, real
//             socket syscalls, RIC, SDL) is the whole cost, and a change to
//             the dl layer must show no movement.
constexpr Workload kWorkloads[] = {
    {"fleet", 11, "eb53645caaf28420", 16, SimDuration{10'000'000}, true,
     false, "inproc"},
    {"attack", 12, "56b961167895e575", 4, SimDuration{30'000'000}, true, true,
     "inproc"},
    {"collect", 13, "5a09b6c3958f60cb", 16, SimDuration{10'000'000}, false,
     false, "uds"},
};

/// MobiWatch's E2SM report period: a slice longer than this in wall time is
/// one in which the edge falls behind a live RAN.
constexpr SimDuration kSliceLength{10'000};
constexpr SimDuration kDrain{2'000'000};
/// Slices run after finalize() at most, waiting for in-flight Controls.
constexpr int kSettleSlices = 200;
/// Poisson session arrivals per cell: ~10 sessions/s, the one-attach-at-a-
/// time regime the detector is trained on.
constexpr double kArrivalMeanUs = 100'000.0;
constexpr std::size_t kSubscribersPerCell = 40;
constexpr SimDuration kAttackPeriod{500'000};
/// Detector training is fixed per process; only the live load follows the
/// command-line seed.
constexpr std::uint64_t kTrainSeed = 2024;
constexpr int kTrainSessions = 60;
constexpr int kTrainEpochs = 4;
constexpr int kSetupReps = 3;

// ------------------------------------------------------------ seeded load

/// Open-loop session arrivals on every cell plus (attack workload) the
/// rotating attack schedule, all derived from one seed. Owns the attacks,
/// whose interceptors the testbed's radio cells hold: destroy it after the
/// testbed.
class LoadGenerator {
 public:
  LoadGenerator(sim::Testbed& testbed, const Workload& w, std::uint64_t seed)
      : testbed_(testbed) {
    const auto& profiles = sim::standard_profiles();
    subscribers_.resize(w.cells);
    for (std::size_t cell = 0; cell < w.cells; ++cell) {
      Rng rng(hash_combine(seed, cell));
      for (std::size_t i = 0; i < kSubscribersPerCell; ++i)
        subscribers_[cell].push_back(
            {rng.uniform_u64(0, profiles.size() - 1), {}, nullptr});
      const std::uint64_t base_msin =
          2089900000ULL + static_cast<std::uint64_t>(cell) * 1000;
      for (SimTime t = SimTime::from_ms(1); t < SimTime{0} + w.load;
           t = t + SimDuration::from_us(static_cast<std::int64_t>(
                       rng.exponential(kArrivalMeanUs)))) {
        const std::size_t index = rng.uniform_u64(0, kSubscribersPerCell - 1);
        const auto& profile = profiles[subscribers_[cell][index].profile];
        ran::Supi supi{ran::Plmn::test_network(), base_msin + index};
        ran::UeConfig config = sim::make_session_config(profile, supi, rng);
        const bool reuse_guti = rng.chance(profile.guti_reuse_probability);
        schedule_session(t, cell, index, std::move(config), reuse_guti);
        ++sessions_;
      }
    }
    if (!w.attacks) return;
    Rng rng(hash_combine(seed, 0xA77AC4ULL));
    std::uint64_t kind = rng.uniform_u64(0, 4);
    for (SimTime t = SimTime{0} + kAttackPeriod; t < SimTime{0} + w.load;
         t = t + kAttackPeriod) {
      auto attack = make_attack(kind++ % 5);
      attack->launch(testbed_,
                     t + SimDuration::from_us(static_cast<std::int64_t>(
                             rng.uniform_u64(0, 100'000))));
      attacks_.push_back(std::move(attack));
    }
  }

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  std::size_t sessions() const { return sessions_; }
  const std::vector<std::unique_ptr<attacks::Attack>>& attacks() const {
    return attacks_;
  }

 private:
  struct Subscriber {
    std::size_t profile = 0;
    std::optional<ran::Guti> last_guti;
    ran::Ue* last_session = nullptr;  // owned by the testbed
  };

  static std::unique_ptr<attacks::Attack> make_attack(std::uint64_t kind) {
    switch (kind) {
      case 0: return attacks::make_bts_dos();
      case 1: return attacks::make_blind_dos();
      case 2: return attacks::make_uplink_id_extraction();
      case 3: return attacks::make_downlink_id_extraction();
      default: return attacks::make_null_cipher();
    }
  }

  // Mirrors sim::BenignTrafficGenerator (which only drives cell 0): the UE
  // is built at its start time so a returning subscriber can present the
  // GUTI its previous session was given.
  void schedule_session(SimTime t, std::size_t cell, std::size_t index,
                        ran::UeConfig config, bool reuse_guti) {
    testbed_.queue().schedule_at(
        t, [this, cell, index, config = std::move(config),
            reuse_guti]() mutable {
          Subscriber& s = subscribers_[cell][index];
          if (s.last_session) {
            if (auto guti = s.last_session->guti()) s.last_guti = guti;
          }
          if (reuse_guti && s.last_guti) config.stored_guti = s.last_guti;
          if (config.establishment_cause ==
              ran::EstablishmentCause::kMtAccess)
            testbed_.amf().page(config.supi);
          s.last_session = testbed_.add_ue(
              std::move(config), testbed_.now() + SimDuration::from_ms(20),
              cell);
        });
  }

  sim::Testbed& testbed_;
  std::vector<std::vector<Subscriber>> subscribers_;
  std::vector<std::unique_ptr<attacks::Attack>> attacks_;
  std::size_t sessions_ = 0;
};

// ----------------------------------------------------------------- tracing

enum Layer : std::uint8_t { kSlice, kFinalize, kTap, kDl, kLlm, kLayerCount };
constexpr const char* kLayerNames[] = {"slice", "finalize", "tap", "dl",
                                       "llm"};
constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

/// In-memory wall-clock spans. A span's parent is the innermost span open
/// when it began (a slice, or a layer call that re-entered another layer);
/// self time is its duration minus its children's.
class SpanLog {
 public:
  struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t child_ns = 0;
    std::uint32_t parent = kNoParent;
    Layer layer = kSlice;
  };

  SpanLog() { spans_.reserve(1 << 19); }

  void begin(Layer layer) {
    const auto index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({now_ns(), 0, 0,
                      stack_.empty() ? kNoParent : stack_.back(), layer});
    stack_.push_back(index);
  }
  /// Ends the innermost span; returns its duration.
  std::int64_t end() {
    Span& s = spans_[stack_.back()];
    stack_.pop_back();
    s.end_ns = now_ns();
    const std::int64_t duration = s.end_ns - s.start_ns;
    self_ns_[s.layer] += duration - s.child_ns;
    if (s.parent == kNoParent)
      root_ns_ += duration;
    else
      spans_[s.parent].child_ns += duration;
    if (s.layer == kLlm) {
      llm_us_.push_back(static_cast<double>(duration) / 1e3);
      llm_ns_ += duration;
    }
    return duration;
  }

  /// Drops the stored spans (the totals stay); the last repetition's spans
  /// are the ones written out.
  void clear_spans() { spans_.clear(); }
  const std::vector<Span>& spans() const { return spans_; }
  std::int64_t self_ns(Layer layer) const { return self_ns_[layer]; }
  /// Wall time of all root spans (slices + finalize).
  std::int64_t root_ns() const { return root_ns_; }
  std::int64_t llm_ns() const { return llm_ns_; }
  const std::vector<double>& llm_us() const { return llm_us_; }

  std::uint64_t dl_calls = 0;
  std::uint64_t dl_windows = 0;

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::int64_t self_ns_[kLayerCount] = {};
  std::int64_t root_ns_ = 0;
  std::int64_t llm_ns_ = 0;
  std::vector<double> llm_us_;
};

/// Times every inference call of the installed detector.
class TracedDetector final : public detect::AnomalyDetector {
 public:
  TracedDetector(std::unique_ptr<AnomalyDetector> inner, SpanLog* log)
      : inner_(std::move(inner)), log_(log) {
    set_threshold(inner_->threshold());
  }

  std::string name() const override { return inner_->name(); }
  void fit(const detect::WindowDataset& benign) override {
    inner_->fit(benign);
    set_threshold(inner_->threshold());
  }
  std::vector<double> score(const detect::WindowDataset& data) override {
    return inner_->score(data);
  }
  std::vector<bool> labels(const detect::WindowDataset& data) const override {
    return inner_->labels(data);
  }
  using AnomalyDetector::score_window;
  double score_window(const float* rows, std::size_t n_rows) override {
    log_->begin(kDl);
    const double score = inner_->score_window(rows, n_rows);
    log_->end();
    ++log_->dl_calls;
    ++log_->dl_windows;
    return score;
  }
  void score_windows(const float* rows, std::size_t row_dim,
                     std::size_t rows_per_window, std::size_t n_windows,
                     double* scores) override {
    log_->begin(kDl);
    inner_->score_windows(rows, row_dim, rows_per_window, n_windows, scores);
    log_->end();
    ++log_->dl_calls;
    log_->dl_windows += n_windows;
  }
  std::size_t rows_needed(std::size_t window_size) const override {
    return inner_->rows_needed(window_size);
  }
  std::unique_ptr<AnomalyDetector> clone_for_inference() override {
    auto replica = inner_->clone_for_inference();
    if (!replica) return nullptr;
    auto traced = std::make_unique<TracedDetector>(std::move(replica), log_);
    traced->set_threshold(threshold());
    return traced;
  }
  Bytes save_state() override { return inner_->save_state(); }
  bool fine_tune(const float* windows, std::size_t n_windows,
                 std::size_t n_rows,
                 const detect::FineTuneConfig& tune) override {
    return inner_->fine_tune(windows, n_windows, n_rows, tune);
  }

 private:
  std::unique_ptr<AnomalyDetector> inner_;
  SpanLog* log_;
};

/// Times every LLM query the analyzer makes (inside the resilience
/// wrapper, so retries show as separate spans).
class TracedLlm final : public llm::LlmClient {
 public:
  TracedLlm(std::shared_ptr<llm::LlmClient> inner, SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}

  Result<llm::LlmResponse> query(const llm::LlmRequest& request) override {
    log_->begin(kLlm);
    auto response = inner_->query(request);
    log_->end();
    return response;
  }

 private:
  std::shared_ptr<llm::LlmClient> inner_;
  SpanLog* log_;
};

// ------------------------------------------------------------ repetitions

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Records and verdicts captured from one untimed repetition for replay.
struct Capture {
  std::vector<std::vector<mobiflow::Record>> records;  // per cell
  std::vector<Bytes> verdicts;  // serialized llm::IncidentVerdict
};

/// One scenario instance: a fresh pipeline with the load scheduled on it.
struct Rep {
  std::unique_ptr<LoadGenerator> load;  // outlives the pipeline (attacks)
  std::unique_ptr<core::Pipeline> pipeline;
  SimTime end;
  // Verdict -> Control probe state (see make_rep()).
  std::int64_t last_score_ns = 0;
  std::int64_t llm_ns_at_score = 0;
  bool in_slice = false;
  std::vector<double> loop_us;
  std::int64_t loop_ns = 0;
  std::int64_t loop_llm_ns = 0;
  std::vector<Bytes> incidents;  // serialized detect::AnomalyReport
};

struct Trained {
  std::shared_ptr<detect::AnomalyDetector> detector;
  detect::FeatureEncoder encoder;
};

Trained train() {
  core::ScenarioConfig scenario;
  scenario.testbed.seed = kTrainSeed;
  scenario.traffic.seed = kTrainSeed;
  scenario.traffic.num_sessions = kTrainSessions;
  scenario.run_time =
      SimDuration::from_us(static_cast<std::int64_t>(kTrainSessions *
                                                     kArrivalMeanUs)) +
      kDrain;
  const mobiflow::Trace benign = core::collect_benign(scenario);
  core::EvalConfig eval;
  eval.detector.epochs = kTrainEpochs;
  eval.detector.seed = kTrainSeed;
  Trained out{core::train_detector(core::ModelKind::kAutoencoder, benign,
                                   eval),
              detect::FeatureEncoder(eval.features)};
  return out;
}

/// Builds a repetition: pipeline, detector replica, probes, load.
std::unique_ptr<Rep> make_rep(const Workload& w, std::uint64_t seed,
                              const Trained& trained, SpanLog* log,
                              Capture* capture) {
  auto rep = std::make_unique<Rep>();
  core::PipelineConfig config;
  config.testbed.num_cells = w.cells;
  config.testbed.seed = seed;
  // Pinned so neither the environment nor a default can change the
  // measured program: one shard (no worker threads), the workload's
  // backend, the polled pump, the default channel capacity.
  config.ric_shards = 1;
  config.e2_transport = std::string(w.transport);
  config.e2_pump = "polled";
  config.e2_link_capacity = transport::kDefaultChannelCapacity;
  config.mitigation.enabled = true;
  config.analyzer.auto_remediate = true;
  if (log)
    config.llm_client =
        std::make_shared<TracedLlm>(std::make_shared<llm::SimLlmClient>(), log);
  rep->pipeline = std::make_unique<core::Pipeline>(std::move(config));
  core::Pipeline& p = *rep->pipeline;

  if (w.detector) {
    // A fresh replica per repetition: the closed loop re-tunes the
    // installed detector's threshold over A1.
    std::unique_ptr<detect::AnomalyDetector> replica =
        trained.detector->clone_for_inference();
    if (log)
      replica = std::make_unique<TracedDetector>(std::move(replica), log);
    p.install_detector(std::shared_ptr<detect::AnomalyDetector>(
                           std::move(replica)),
                       trained.encoder);
  }
  if (log) {
    for (std::size_t c = 0; c < p.testbed().cell_count(); ++c) {
      ran::InterfaceTaps& taps = p.testbed().taps(c);
      for (auto& tap : taps.f1_taps) {
        auto inner = std::move(tap);
        tap = [inner = std::move(inner), log](SimTime t, const Bytes& wire) {
          log->begin(kTap);
          inner(t, wire);
          log->end();
        };
      }
      for (auto& tap : taps.ng_taps) {
        auto inner = std::move(tap);
        tap = [inner = std::move(inner), log](SimTime t, const Bytes& wire) {
          log->begin(kTap);
          inner(t, wire);
          log->end();
        };
      }
    }
  }
  if (capture) {
    capture->records.assign(w.cells, {});
    for (std::size_t c = 0; c < p.agent_count(); ++c)
      p.agent(c).set_record_sink([capture, c](const mobiflow::Record& r) {
        capture->records[c].push_back(r);
      });
    p.ric().router().subscribe(
        oran::kMtIncidentVerdict, [capture](const oran::RoutedMessage& m) {
          capture->verdicts.push_back(m.payload);
        });
  }

  // Verdict -> executed-Control probe: stamped when MobiWatch scores a
  // window, read by a router subscriber registered after every xApp, so it
  // runs once the fast-path mitigation, the LLM analysis, the verdict and
  // the E2 Control (delivered synchronously to the gNB) have all returned.
  Rep* r = rep.get();
  p.mobiwatch().set_score_observer(
      [r, log](const detect::SourceKey&, const float*, std::size_t,
               std::size_t, double, bool) {
        r->last_score_ns = now_ns();
        if (log) r->llm_ns_at_score = log->llm_ns();
      });
  p.ric().router().subscribe(
      oran::kMtAnomalyWindow, [r, log](const oran::RoutedMessage& m) {
        const std::int64_t end = now_ns();
        const std::uint64_t allocs_before =
            g_heap_allocs.load(std::memory_order_relaxed);
        if (r->in_slice) {
          const std::int64_t loop = end - r->last_score_ns;
          r->loop_us.push_back(static_cast<double>(loop) / 1e3);
          r->loop_ns += loop;
          if (log) r->loop_llm_ns += log->llm_ns() - r->llm_ns_at_score;
        }
        r->incidents.push_back(m.payload);
        // The probe's own bookkeeping is not the pipeline's allocation.
        g_heap_allocs.fetch_sub(
            g_heap_allocs.load(std::memory_order_relaxed) - allocs_before,
            std::memory_order_relaxed);
      });

  rep->load = std::make_unique<LoadGenerator>(p.testbed(), w, seed);
  rep->end = SimTime{0} + w.load + kDrain;
  return rep;
}

/// What one timed repetition measured.
struct RepResult {
  double wall_s = 0;  // slices + finalize
  std::vector<double> slice_ms;
  double finalize_ms = 0;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  std::size_t sessions = 0;
  core::PipelineStats stats;
  std::uint64_t transport_bytes = 0;
  std::uint64_t sdl_sets = 0;
  std::size_t sdl_rows = 0;
  std::string digest;
  std::vector<double> loop_us;
  std::int64_t loop_ns = 0;
  std::int64_t loop_llm_ns = 0;
  std::size_t incidents = 0;
  std::size_t false_alarms = 0;
  std::size_t attacks = 0;
  std::size_t attacks_detected = 0;

  double records_per_s() const {
    return static_cast<double>(stats.records_collected) / wall_s;
  }
};

std::uint64_t counter_value(core::Pipeline& p, std::string_view name) {
  const obs::Counter* c = p.metrics().find_counter(name);
  return c ? c->value() : 0;
}

bool settled(const core::PipelineStats& s) {
  return s.records_seen == s.records_collected &&
         s.control_acks + s.controls_lost == s.controls_sent;
}

RepResult run_rep(Rep& rep, SpanLog* log) {
  core::Pipeline& p = *rep.pipeline;
  sim::EventQueue& queue = p.testbed().queue();
  RepResult out;
  out.slice_ms.reserve(static_cast<std::size_t>(
      (rep.end - queue.now()).us / kSliceLength.us + 1));
  rep.loop_us.reserve(4096);
  rep.incidents.reserve(4096);

  const std::uint64_t allocs0 = g_heap_allocs.load(std::memory_order_relaxed);
  const std::int64_t t0 = now_ns();
  while (queue.now() < rep.end) {
    const SimTime until = std::min(rep.end, queue.now() + kSliceLength);
    rep.in_slice = true;
    const std::int64_t s0 = now_ns();
    if (log) log->begin(kSlice);
    out.events += queue.run_until(until);
    const std::int64_t d = log ? log->end() : now_ns() - s0;
    rep.in_slice = false;
    out.slice_ms.push_back(static_cast<double>(d) / 1e6);
  }
  const std::int64_t f0 = now_ns();
  if (log) log->begin(kFinalize);
  p.finalize();
  // A Control issued while finalize() closed the last incidents still has
  // its ack (and any records the action caused) in flight: let the sim
  // settle before the conservation checks.
  for (int i = 0; i < kSettleSlices && !settled(p.stats()); ++i) {
    out.events += queue.run_until(queue.now() + kSliceLength);
    p.finalize();
  }
  if (log) log->end();
  out.finalize_ms = static_cast<double>(now_ns() - f0) / 1e6;
  out.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  out.allocs = g_heap_allocs.load(std::memory_order_relaxed) - allocs0;

  out.stats = p.stats();
  out.sessions = rep.load->sessions();
  out.transport_bytes = counter_value(p, "transport.bytes_tx");
  out.sdl_sets = counter_value(p, "sdl.sets");
  out.sdl_rows = p.ric().sdl().size(p.mobiwatch().config().sdl_namespace);
  out.digest = hex64(fnv1a64(out.stats.to_text() +
                             obs::render_prometheus(p.metrics())));
  out.loop_us = std::move(rep.loop_us);
  out.loop_ns = rep.loop_ns;
  out.loop_llm_ns = rep.loop_llm_ns;

  // Ground truth is valid once the simulation ran: an attack is detected
  // when one of its records is in a reported incident window.
  const auto& attack_list = rep.load->attacks();
  std::vector<bool> detected(attack_list.size(), false);
  for (const Bytes& payload : rep.incidents) {
    auto report = detect::AnomalyReport::deserialize(payload);
    if (!report) continue;
    ++out.incidents;
    bool malicious = false;
    for (const auto& entry : report.value().window.entries())
      for (std::size_t a = 0; a < attack_list.size(); ++a)
        if (attack_list[a]->is_malicious(entry.record)) {
          detected[a] = true;
          malicious = true;
        }
    if (!malicious) ++out.false_alarms;
  }
  // Recall counts attacks that put at least one record on the wire (a
  // Blind DoS with nothing to sniff aborts without sending anything).
  std::vector<bool> launched(attack_list.size(), false);
  if (!attack_list.empty()) {
    oran::Sdl& sdl = p.ric().sdl();
    const std::string& ns = p.mobiwatch().config().sdl_namespace;
    for (const std::string& key : sdl.keys(ns)) {
      auto record = mobiflow::Record::from_kv_bytes(*sdl.get(ns, key));
      if (!record) continue;
      for (std::size_t a = 0; a < attack_list.size(); ++a)
        if (!launched[a] && attack_list[a]->is_malicious(record.value()))
          launched[a] = true;
    }
  }
  for (std::size_t a = 0; a < attack_list.size(); ++a)
    detected[a] = detected[a] && launched[a];
  out.attacks = static_cast<std::size_t>(
      std::count(launched.begin(), launched.end(), true));
  out.attacks_detected = static_cast<std::size_t>(
      std::count(detected.begin(), detected.end(), true));
  return out;
}

// ----------------------------------------------------------------- stats

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Runs repetitions (the first one already built during set-up) until
/// `seconds` of timed wall time have accumulated.
std::vector<RepResult> run_pass(const Workload& w, std::uint64_t seed,
                                const Trained& trained, double seconds,
                                std::unique_ptr<Rep> first, SpanLog* log) {
  std::vector<RepResult> results;
  double timed = 0;
  while (results.empty() || timed < seconds) {
    if (log) log->clear_spans();
    std::unique_ptr<Rep> rep =
        first ? std::move(first) : make_rep(w, seed, trained, log, nullptr);
    results.push_back(run_rep(*rep, log));
    timed += results.back().wall_s;
  }
  return results;
}

/// The best time of each slice (and of finalize) over a pass. Every
/// repetition runs the same slices, and the host's speed drifts by up to 2x
/// over seconds while CPU time stays equal to wall time: interference only
/// ever adds time, so the best time is the program's own cost.
struct BestOf {
  std::vector<double> slice_ms;
  double finalize_ms = 0;
  double records_per_s = 0;
};

BestOf best_of(const std::vector<RepResult>& reps) {
  BestOf best{reps.front().slice_ms, reps.front().finalize_ms, 0};
  for (const auto& r : reps) {
    for (std::size_t i = 0; i < r.slice_ms.size() && i < best.slice_ms.size();
         ++i)
      best.slice_ms[i] = std::min(best.slice_ms[i], r.slice_ms[i]);
    best.finalize_ms = std::min(best.finalize_ms, r.finalize_ms);
  }
  double total_ms = best.finalize_ms;
  for (double ms : best.slice_ms) total_ms += ms;
  best.records_per_s =
      static_cast<double>(reps.front().stats.records_collected) /
      (total_ms / 1e3);
  return best;
}

// ------------------------------------------------------------------ replay

/// Median per-item ns of `reps` timed runs of `body` over `items` items.
template <typename Body>
double time_per_item(std::size_t items, int reps, Body&& body) {
  if (items == 0) return 0.0;
  std::vector<double> per;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    body();
    per.push_back(static_cast<double>(now_ns() - t0) /
                  static_cast<double>(items));
  }
  return median(per);
}

struct Replay {
  double sim_ns_per_record = 0;
  double kv_ns_per_record = 0;
  double e2_encode_ns_per_record = 0;
  double e2_decode_ns_per_record = 0;
  double transport_ns_per_frame = 0;
  double transport_syscalls_per_frame = 0;
  double transport_ns_per_record = 0;
  double sdl_set_ns_per_record = 0;
  double features_ns_per_record = 0;
  double policy_ns_per_verdict = 0;
};

Replay replay(const Workload& w, std::uint64_t seed, const Capture& capture,
              std::size_t live_records, double rows_per_indication) {
  Replay out;
  constexpr int kReps = 3;

  // The same load on a bare testbed: no agent, no RIC.
  {
    std::vector<double> per;
    for (int i = 0; i < kReps; ++i) {
      sim::TestbedConfig config;
      config.num_cells = w.cells;
      config.seed = seed;
      auto testbed = std::make_unique<sim::Testbed>(config);
      LoadGenerator load(*testbed, w, seed);
      const std::int64_t t0 = now_ns();
      testbed->run_until(SimTime{0} + w.load + kDrain);
      per.push_back(
          static_cast<double>(now_ns() - t0) /
          static_cast<double>(std::max<std::size_t>(live_records, 1)));
      testbed.reset();  // before `load`: the cells hold its interceptors
    }
    out.sim_ns_per_record = median(per);
  }

  std::vector<const mobiflow::Record*> records;
  for (const auto& cell : capture.records)
    for (const auto& r : cell) records.push_back(&r);
  const std::size_t n = records.size();

  out.kv_ns_per_record = time_per_item(n, kReps, [&] {
    for (const mobiflow::Record* r : records) {
      Bytes wire = r->to_kv_bytes();
      auto back = mobiflow::Record::from_kv_bytes(wire);
      if (!back) std::abort();
    }
  });

  // Indications at the live rows-per-indication, per cell.
  const std::size_t batch = std::max<std::size_t>(
      1, static_cast<std::size_t>(rows_per_indication + 0.5));
  std::vector<oran::e2sm::IndicationMessage> messages;
  for (const auto& cell : capture.records)
    for (std::size_t i = 0; i < cell.size(); i += batch) {
      oran::e2sm::IndicationMessage m;
      for (std::size_t j = i; j < std::min(cell.size(), i + batch); ++j)
        m.rows.push_back(cell[j].to_kv_bytes());
      messages.push_back(std::move(m));
    }
  const Bytes header =
      oran::e2sm::encode_indication_header(oran::e2sm::IndicationHeader{});
  std::vector<Bytes> pdus(messages.size());
  out.e2_encode_ns_per_record = time_per_item(n, kReps, [&] {
    std::uint32_t seq = 0;
    for (std::size_t i = 0; i < messages.size(); ++i) {
      oran::RicIndication ind;
      ind.ran_function_id = oran::e2sm::kMobiFlowFunctionId;
      ind.sequence_number = ++seq;
      ind.header = header;
      ind.message = oran::e2sm::encode_indication_message(messages[i]);
      pdus[i] = oran::encode_e2ap(ind);
    }
  });
  std::size_t decoded_rows = 0;
  out.e2_decode_ns_per_record = time_per_item(n, kReps, [&] {
    decoded_rows = 0;
    for (const Bytes& pdu : pdus) {
      auto view = oran::decode_indication_view(pdu);
      if (!view) std::abort();
      oran::e2sm::RowCursor cursor(view.value().message);
      while (cursor.next()) ++decoded_rows;
    }
  });
  if (decoded_rows != n) {
    std::cerr << "replay: decoded " << decoded_rows << " rows of " << n
              << "\n";
    std::exit(3);
  }

  // Frames as the pipeline's links carry them: [u64 node id][E2AP PDU].
  {
    std::vector<Bytes> frames;
    for (const Bytes& pdu : pdus) {
      Bytes frame(8, 0);
      frame.insert(frame.end(), pdu.begin(), pdu.end());
      frames.push_back(std::move(frame));
    }
    std::vector<double> per;
    std::uint64_t syscalls = 0;
    for (int i = 0; i < kReps; ++i) {
      auto channel = transport::make_channel(
          transport::BackendKind::kUds, transport::kDefaultChannelCapacity);
      std::size_t delivered = 0;
      channel->set_sink([&delivered](std::span<const std::uint8_t>) {
        ++delivered;
      });
      const std::int64_t t0 = now_ns();
      for (const Bytes& f : frames) {
        while (!channel->send(f)) channel->pump();
        channel->pump();
      }
      channel->pump();
      per.push_back(
          static_cast<double>(now_ns() - t0) /
          static_cast<double>(std::max<std::size_t>(frames.size(), 1)));
      if (delivered != frames.size()) {
        std::cerr << "replay: transport delivered " << delivered << " of "
                  << frames.size() << " frames\n";
        std::exit(3);
      }
      syscalls = channel->io_syscalls();
    }
    out.transport_ns_per_frame = median(per);
    out.transport_syscalls_per_frame = ratio(
        static_cast<double>(syscalls), static_cast<double>(frames.size()));
    out.transport_ns_per_record = out.transport_ns_per_frame *
                                  ratio(static_cast<double>(frames.size()),
                                        static_cast<double>(n));
  }

  {
    std::vector<Bytes> rows;
    rows.reserve(n);
    for (const mobiflow::Record* r : records) rows.push_back(r->to_kv_bytes());
    std::vector<double> per;
    for (int i = 0; i < kReps; ++i) {
      oran::Sdl sdl;
      const std::int64_t t0 = now_ns();
      for (std::size_t k = 0; k < n; ++k)
        sdl.set("mobiflow", oran::Sdl::seq_key(k + 1), rows[k]);
      per.push_back(static_cast<double>(now_ns() - t0) /
                    static_cast<double>(std::max<std::size_t>(n, 1)));
    }
    out.sdl_set_ns_per_record = median(per);
  }

  {
    detect::FeatureEncoder encoder;
    std::vector<float> row(encoder.dim());
    out.features_ns_per_record = time_per_item(n, kReps, [&] {
      for (const auto& cell : capture.records) {
        detect::EncodeContext ctx;
        for (const auto& r : cell) encoder.encode_into(r, ctx, row.data());
      }
    });
  }

  {
    std::vector<llm::IncidentVerdict> verdicts;
    for (const Bytes& wire : capture.verdicts)
      if (auto v = llm::IncidentVerdict::deserialize(wire))
        verdicts.push_back(std::move(v.value()));
    const auto policy = mitigate::MitigationPolicy::default_policy();
    const std::vector<std::string> none;
    constexpr int kRounds = 200;
    std::size_t matched = 0;
    out.policy_ns_per_verdict =
        time_per_item(verdicts.size() * kRounds, kReps, [&] {
          for (int round = 0; round < kRounds; ++round)
            for (const auto& v : verdicts) {
              const double score_ratio = ratio(v.score, v.threshold);
              matched += policy.match(mitigate::RuleStage::kDetector, none,
                                      score_ratio, 1.0) != nullptr;
              matched += policy.match(mitigate::RuleStage::kClassified,
                                      v.candidate_attacks, score_ratio,
                                      1.0) != nullptr;
            }
        });
    if (matched == static_cast<std::size_t>(-1)) std::abort();  // keep live
  }
  return out;
}

// ------------------------------------------------------------------ output

class JsonObject {
 public:
  JsonObject& num(std::string_view key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonObject& str(std::string_view key, std::string_view v) {
    return raw(key, "\"" + std::string(v) + "\"");
  }
  JsonObject& raw(std::string_view key, const std::string& v) {
    body_ += body_.empty() ? "" : ", ";
    body_ += "\"" + std::string(key) + "\": " + v;
    return *this;
  }
  std::string render() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Adds {"value": v, "unit": u} and prints a human-readable line.
void metric(JsonObject& out, std::string_view name, double v,
            std::string_view unit, const std::string& note = "") {
  std::printf("  %-34s %14.6g %-16s%s\n", std::string(name).c_str(), v,
              std::string(unit).c_str(), note.c_str());
  out.raw(name, JsonObject().num("value", v).str("unit", unit).render());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "xsec_perfbench: " << why
            << "\nusage: xsec_perfbench --workload fleet|attack|collect "
               "--seed N --seconds S --trace 0|1 [--spans FILE]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end) usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end || !(a.seconds > 0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace");
      a.trace = value == "1";
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else {
      usage("unknown flag " + std::string(flag));
    }
  }
  if (a.workload.empty() || a.seconds <= 0 || a.trace < 0)
    usage("--workload, --seed, --seconds and --trace are required");
  return a;
}

void write_spans(const std::string& path, const SpanLog& log) {
  std::ofstream f(path);
  f << "layer\tparent\tstart_ns\tend_ns\n";
  for (const auto& s : log.spans())
    f << kLayerNames[s.layer] << '\t'
      << (s.parent == kNoParent ? -1 : static_cast<std::int64_t>(s.parent))
      << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  if (!f) {
    std::cerr << "cannot write spans to " << path << "\n";
    std::exit(3);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Log::set_level(LogLevel::kError);
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads)
    if (w.name == args.workload) found = &w;
  if (!found) usage("unknown workload " + args.workload);
  const Workload& w = *found;

  // The measured program must not depend on the environment.
  for (const char* var : {"XSEC_RIC_SHARDS", "XSEC_E2_TRANSPORT",
                          "XSEC_E2_PUMP", "XSEC_E2_CAPACITY"})
    if (std::getenv(var)) {
      std::cerr << "xsec_perfbench: refusing to run with " << var
                << " set\n";
      return 2;
    }

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);

  // Set-up: benign capture + training + pipeline construction + load
  // scheduling, repeated; the last repetition's pipeline is timed first.
  std::vector<double> setup_s;
  Trained trained;
  std::unique_ptr<Rep> first;
  for (int i = 0; i < kSetupReps; ++i) {
    first.reset();
    const std::int64_t t0 = now_ns();
    trained = train();
    first = make_rep(w, args.seed, trained, nullptr, nullptr);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<RepResult> untraced =
      run_pass(w, args.seed, trained, untraced_seconds, std::move(first),
               nullptr);

  // Correctness: conservation in every repetition, one digest for all,
  // and the pinned digest for the default seed.
  std::vector<std::string> problems;
  const std::string& digest = untraced.front().digest;
  if (args.seed == w.default_seed && digest != w.digest)
    problems.push_back("export digest " + digest + " != pinned " +
                       std::string(w.digest) + " for seed " +
                       std::to_string(args.seed));
  auto check_rep = [&](const RepResult& r, const char* pass) {
    const auto& s = r.stats;
    if (s.records_seen != s.records_collected)
      problems.push_back(std::string(pass) + ": records_seen " +
                         std::to_string(s.records_seen) +
                         " != records_collected " +
                         std::to_string(s.records_collected));
    if (s.control_acks + s.controls_lost != s.controls_sent)
      problems.push_back(std::string(pass) +
                         ": control_acks + controls_lost != controls_sent");
    if (r.sdl_rows != s.records_collected)
      problems.push_back(std::string(pass) + ": SDL rows != records");
    if (r.digest != digest)
      problems.push_back(std::string(pass) + ": digest " + r.digest +
                         " != " + digest);
  };
  for (const auto& r : untraced) check_rep(r, "untraced");

  const RepResult& r0 = untraced.front();
  const auto& s0 = r0.stats;
  const double records = static_cast<double>(s0.records_collected);

  std::vector<double> rps;
  std::size_t slices = 0;
  std::vector<double> loops;
  for (const auto& r : untraced) {
    rps.push_back(r.records_per_s());
    slices += r.slice_ms.size();
    loops.insert(loops.end(), r.loop_us.begin(), r.loop_us.end());
  }
  const BestOf best = best_of(untraced);
  std::printf("records_per_s by repetition:");
  for (double v : rps) std::printf(" %.0f", v);
  std::printf("  (median %.0f)\n", median(rps));

  // Failed operations: records never seen by MobiWatch, controls never
  // acked, incidents the analyzer dropped.
  const auto sub = [](std::size_t a, std::size_t b) {
    return a > b ? a - b : 0;
  };
  const std::size_t attempted =
      s0.records_collected + s0.controls_sent + s0.anomalies_flagged;
  const std::size_t failed = sub(s0.records_collected, s0.records_seen) +
                             sub(s0.controls_sent, s0.control_acks) +
                             s0.incidents_dropped;

  JsonObject metrics;
  JsonObject report;  // end-to-end figures not gated on every workload
  std::printf("end-to-end (%zu repetitions, %zu records each, %zu slices)\n",
              untraced.size(), s0.records_collected, slices);
  if (!args.trace) {
    metric(metrics, "records_per_s", best.records_per_s, "1/s");
    metric(metrics, "slice_ms_p50", quantile(best.slice_ms, 0.5), "ms");
    metric(metrics, "slice_ms_p99", quantile(best.slice_ms, 0.99), "ms",
           "  (10 ms report period)");
    metric(metrics, "setup_s",
           *std::min_element(setup_s.begin(), setup_s.end()), "s");
    metric(metrics, "peak_rss_mb", peak_rss_mb(), "MiB");
  }
  const std::string samples = "  (n=" + std::to_string(loops.size()) + ")";
  metric(report, "loop_us_p50", quantile(loops, 0.5), "us", samples);
  metric(report, "loop_us_p90", quantile(loops, 0.9), "us", samples);
  metric(report, "fail_frac", ratio(failed, attempted), "ratio",
         "  (" + std::to_string(failed) + "/" + std::to_string(attempted) +
             ")");
  metric(report, "attack_recall",
         ratio(r0.attacks_detected, r0.attacks), "ratio",
         "  (" + std::to_string(r0.attacks_detected) + "/" +
             std::to_string(r0.attacks) + " attacks)");
  metric(report, "false_alarm_per_ksession",
         1000.0 * ratio(r0.false_alarms, r0.sessions), "1/1000sessions",
         "  (" + std::to_string(r0.false_alarms) + " of " +
             std::to_string(r0.incidents) + " incidents, " +
             std::to_string(r0.sessions) + " sessions)");

  if (args.trace) {
    SpanLog log;
    std::vector<RepResult> traced =
        run_pass(w, args.seed, trained, args.seconds / 2,
                 make_rep(w, args.seed, trained, &log, nullptr), &log);
    for (const auto& r : traced) check_rep(r, "traced");
    if (!args.spans_path.empty()) write_spans(args.spans_path, log);

    double traced_records = 0;
    std::int64_t loop_ns = 0;
    std::int64_t loop_llm_ns = 0;
    for (const auto& r : traced) {
      traced_records += static_cast<double>(r.stats.records_collected);
      loop_ns += r.loop_ns;
      loop_llm_ns += r.loop_llm_ns;
    }
    const auto self = [&](Layer l) {
      return static_cast<double>(log.self_ns(l));
    };
    const double total = static_cast<double>(log.root_ns());
    const double rest = self(kSlice) + self(kFinalize);
    const double sum = self(kTap) + self(kDl) + self(kLlm) + rest;
    if (sum != total)
      problems.push_back("span self times sum to " + std::to_string(sum) +
                         " ns, traced total is " + std::to_string(total));

    Capture capture;
    {
      auto rep = make_rep(w, args.seed, trained, nullptr, &capture);
      run_rep(*rep, nullptr);
    }
    const double rows_per_indication =
        ratio(s0.records_collected, s0.indications_sent);
    const Replay rp = replay(w, args.seed, capture, s0.records_collected,
                             rows_per_indication);

    std::printf("per-layer (%zu traced repetitions)\n", traced.size());
    metric(metrics, "agent.tap_ns_per_record", self(kTap) / traced_records,
           "ns");
    metric(metrics, "dl.score_ns_per_window",
           ratio(self(kDl), static_cast<double>(log.dl_windows)), "ns");
    metric(metrics, "dl.windows_per_call",
           ratio(static_cast<double>(log.dl_windows),
                 static_cast<double>(log.dl_calls)),
           "count");
    metric(metrics, "dl.self_share", ratio(self(kDl), total), "ratio");
    metric(metrics, "llm.query_us_p50", quantile(log.llm_us(), 0.5), "us",
           "  (n=" + std::to_string(log.llm_us().size()) + ")");
    metric(metrics, "llm.query_us_p90", quantile(log.llm_us(), 0.9), "us");
    metric(metrics, "loop.llm_share",
           ratio(static_cast<double>(loop_llm_ns),
                 static_cast<double>(loop_ns)),
           "ratio");
    const double rest_per_record = rest / traced_records;
    metric(metrics, "rest_ns_per_record", rest_per_record, "ns");
    metric(metrics, "allocs_per_record",
           ratio(static_cast<double>(r0.allocs), records), "count");
    metric(metrics, "sim.events_per_record",
           ratio(static_cast<double>(r0.events), records), "count");
    metric(metrics, "e2.rows_per_indication", rows_per_indication, "count");
    metric(metrics, "transport.bytes_per_record",
           ratio(static_cast<double>(r0.transport_bytes), records), "count");
    metric(metrics, "sdl.sets_per_record",
           ratio(static_cast<double>(r0.sdl_sets), records), "count");
    metric(metrics, "mitigate.controls_per_incident",
           ratio(s0.controls_sent, s0.anomalies_flagged), "count");
    metric(metrics, "mitigate.control_ack_frac",
           ratio(s0.control_acks, s0.controls_sent), "ratio");
    metric(metrics, "sim.ns_per_record", rp.sim_ns_per_record, "ns");
    metric(metrics, "mobiflow.kv_ns_per_record", rp.kv_ns_per_record, "ns");
    metric(metrics, "e2.encode_ns_per_record", rp.e2_encode_ns_per_record,
           "ns");
    metric(metrics, "e2.decode_ns_per_record", rp.e2_decode_ns_per_record,
           "ns");
    metric(metrics, "transport.ns_per_frame", rp.transport_ns_per_frame, "ns");
    metric(metrics, "transport.syscalls_per_frame",
           rp.transport_syscalls_per_frame, "count");
    metric(metrics, "sdl.set_ns_per_record", rp.sdl_set_ns_per_record, "ns");
    metric(metrics, "features.encode_ns_per_record",
           rp.features_ns_per_record, "ns");
    metric(metrics, "mitigate.policy_ns_per_verdict",
           rp.policy_ns_per_verdict, "ns",
           "  (" + std::to_string(capture.verdicts.size()) + " verdicts)");
    metric(metrics, "trace_overhead_frac",
           1.0 - best_of(traced).records_per_s / best.records_per_s,
           "ratio");

    // Reconciliation: the layers' self times add up to the traced total,
    // and the replayed per-record path is set against the slices' rest.
    std::printf("reconciliation (traced total %.3f s)\n", total / 1e9);
    for (Layer l : {kTap, kDl, kLlm})
      std::printf("  %-8s self %12.3f ms  %6.2f%%\n", kLayerNames[l],
                  self(l) / 1e6, 100.0 * ratio(self(l), total));
    std::printf("  %-8s self %12.3f ms  %6.2f%%\n", "rest", rest / 1e6,
                100.0 * ratio(rest, total));
    std::printf("  sum      %12.3f ms  (traced total %.3f ms)\n", sum / 1e6,
                total / 1e6);
    const double replay_sum =
        rp.sim_ns_per_record + rp.kv_ns_per_record +
        rp.e2_encode_ns_per_record + rp.e2_decode_ns_per_record +
        rp.transport_ns_per_record + rp.sdl_set_ns_per_record +
        rp.features_ns_per_record;
    std::printf(
        "  replay sim+kv+e2+transport+sdl+features %.1f ns/record vs rest "
        "%.1f ns/record (ratio %.3f)\n",
        replay_sum, rest_per_record, ratio(replay_sum, rest_per_record));
  }

  for (const auto& p : problems) std::printf("CHECK FAILED: %s\n", p.c_str());

  std::cout << JsonObject()
                   .str("workload", w.name)
                   .num("seed", static_cast<double>(args.seed))
                   .str("digest", digest)
                   .raw("correct", problems.empty() ? "true" : "false")
                   .num("attempted", static_cast<double>(attempted))
                   .num("failed", static_cast<double>(failed))
                   .raw("metrics", metrics.render())
                   .raw("report", report.render())
                   .render()
            << std::endl;
  return 0;
}
