#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "util/table.h"
#include "util/thread_annotations.h"

/// Compile-time switch for the observability layer's recording hot paths.
/// 1 (default) compiles them in; 0 turns every record call into a no-op
/// expression (the registry, export and summary APIs stay available so
/// callers need no #ifdefs). The build system sets this from the
/// V6MON_METRICS CMake option.
#ifndef V6MON_OBS_LEVEL
#define V6MON_OBS_LEVEL 1
#endif

namespace v6mon::obs {

/// What an export was made from, written first as its top-level
/// "manifest" object: (key, value) pairs in this order, each value
/// already JSON text (a number, `null`, or a `json_quote`d string).
using ExportManifest = std::vector<std::pair<std::string, std::string>>;

/// `s` as a JSON string literal.
[[nodiscard]] std::string json_quote(std::string_view s);

/// The build type (CMake configuration) and git revision this library was
/// configured with; the revision is "unknown" outside a git checkout.
[[nodiscard]] const char* build_type();
[[nodiscard]] const char* git_revision();

/// The pipeline stages a campaign spends its time in (ISSUE 4 /
/// DESIGN.md §11). TraceSpan records wall time per stage; the stage set
/// is fixed so per-stage slots can live in flat arrays on the hot path.
enum class Stage : std::uint8_t {
  kDnsResolve,       ///< A + AAAA resolution for one site.
  kIdentityFetch,    ///< Initial per-family page fetches + 6% check.
  kRepeatDownloads,  ///< One family's repeat-until-CI download loop.
  kRibBuild,         ///< BGP convergence + RIB insertion (world build).
  kIngestFlush,      ///< Round-boundary sink flush into the results store.
  kAnalysis,         ///< The Fig. 4 analysis pass over a finalized store.
  kSiteResolve,      ///< Resolved-site rows: the coordinator's resolution
                     ///< pass before each fan-out (Monitor::resolve_sites).
  kWorkList,         ///< A round's work list: candidate walk + shuffle.
  kCatalogBuild,     ///< Site catalog generation (world build).
  kEpochAdvance,     ///< WorldTimeline::advance_to applying due epochs.
};
inline constexpr std::size_t kNumStages = 10;

[[nodiscard]] constexpr const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kDnsResolve: return "dns_resolve";
    case Stage::kIdentityFetch: return "identity_fetch";
    case Stage::kRepeatDownloads: return "repeat_downloads";
    case Stage::kRibBuild: return "rib_build";
    case Stage::kIngestFlush: return "ingest_flush";
    case Stage::kAnalysis: return "analysis";
    case Stage::kSiteResolve: return "site_resolve";
    case Stage::kWorkList: return "work_list";
    case Stage::kCatalogBuild: return "catalog_build";
    case Stage::kEpochAdvance: return "epoch_advance";
  }
  return "?";
}

/// Dense handle into a MetricsRegistry; obtained once (cold, mutexed)
/// and used on the hot path (lock-free).
using MetricId = std::uint32_t;

/// Low-overhead metrics store: named counters, gauges, and fixed-bin
/// latency histograms, plus per-stage wall-time accumulators.
///
/// Sharding discipline: every recording
/// thread owns a private shard — counter/histogram cells are relaxed
/// atomics on cachelines only that thread writes, so the record hot path
/// takes no lock and contends on nothing. `merge_shards()` folds the
/// shards into the registry totals; since every fold is a sum of
/// non-negative integers, the merged totals are independent of shard
/// count, merge order, and thread scheduling — counters recorded from a
/// deterministic computation come out byte-identical at any thread
/// count. Campaign merges at round boundaries; exports merge first.
///
/// Determinism contract for exports:
///  * `counters` (and per-stage `calls`) are pure functions of the
///    recorded workload — comparable byte-for-byte across runs.
///  * `gauges`, stage `*_ns` totals and latency histograms carry wall
///    time or environment facts and are NOT comparable.
///
/// Cost when disabled (the default): every record call is one relaxed
/// atomic load of the enabled flag. Compile with V6MON_OBS_LEVEL=0 to
/// remove even that.
class MetricsRegistry {
 public:
  /// Generous fixed capacities: shards allocate their cell arrays once
  /// at creation, so registration never resizes memory another thread
  /// is reading. Exceeding them is a configuration error.
  static constexpr std::size_t kMaxCounters = 256;
  static constexpr std::size_t kMaxHistograms = 64;
  /// Latency histograms are log10-spaced fixed bins over
  /// [10^kHistLogLo, 10^kHistLogHi) seconds: 100 ns .. 100 s.
  static constexpr int kHistLogLo = -7;
  static constexpr int kHistLogHi = 2;
  static constexpr std::size_t kHistBins =
      static_cast<std::size_t>(kHistLogHi - kHistLogLo) * 4;  // quarter decades

  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;
  ~MetricsRegistry();

  // --- Control ---------------------------------------------------------
  [[nodiscard]] bool enabled() const {
#if V6MON_OBS_LEVEL >= 1
    return enabled_.load(std::memory_order_relaxed);
#else
    return false;
#endif
  }
  void set_enabled(bool on);
  /// Zero all recorded values (registrations survive). Coordinator-only:
  /// no recording traffic may be in flight.
  void reset();
  /// Fold every thread shard into the registry totals and zero the
  /// shards. Safe to call concurrently with recording (cells are
  /// atomic); called by Campaign at round boundaries and by every
  /// export.
  void merge_shards();

  // --- Registration (cold; mutexed; idempotent by name) ---------------
  [[nodiscard]] MetricId counter(std::string_view name);
  [[nodiscard]] MetricId histogram(std::string_view name);
  /// Gauges are coordinator-set facts (world size, thread count): set
  /// directly under the registry mutex, no shard involved.
  void set_gauge(std::string_view name, double value);

  // --- Hot path --------------------------------------------------------
  void add(MetricId id, std::uint64_t delta = 1) {
    if (!enabled()) return;
    add_slow(id, delta);
  }
  /// Record one latency sample (seconds) into a histogram.
  void observe(MetricId hist, double seconds) {
    if (!enabled()) return;
    observe_slow(hist, seconds);
  }
  /// Record one completed stage span of `ns` nanoseconds.
  void record_span(Stage stage, std::uint64_t ns) {
    if (!enabled()) return;
    record_span_slow(stage, ns);
  }

  // --- Inspection / export (all merge first) ---------------------------
  [[nodiscard]] std::uint64_t counter_value(std::string_view name);
  /// Merged per-bin totals of a named histogram (empty vector when the
  /// name was never registered). Bin *counts* of simulated-value
  /// histograms (e.g. conn.handshake_seconds) are deterministic across
  /// threads and merge order — the determinism tests pin them; wall-time
  /// histograms are not.
  [[nodiscard]] std::vector<std::uint64_t> histogram_bins(std::string_view name);
  struct StageTotals {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
  };
  [[nodiscard]] StageTotals stage_totals(Stage stage);

  /// Full export: {"counters":{...},"gauges":{...},"stages":{...}} with
  /// every object's keys sorted (deterministic layout; see the class
  /// comment for which *values* are comparable), led by a "manifest"
  /// object when `manifest` is not empty. Flushes and checks the
  /// stream, throwing v6mon::IoError on failure (truncated metrics are
  /// worse than none).
  void write_json(std::ostream& out, const ExportManifest& manifest = {});
  [[nodiscard]] std::string to_json(const ExportManifest& manifest = {});
  /// The deterministic subset only: counters + per-stage call counts,
  /// sorted by name — byte-comparable across runs of the same workload.
  [[nodiscard]] std::string counters_json();

  /// Human-readable stage table + top counters (uses util::TextTable and
  /// util::Histogram::render for the latency sparklines).
  [[nodiscard]] std::string summary();

  /// Number of shards materialized so far (tests).
  [[nodiscard]] std::size_t shard_count() const;

 private:
  struct StageCells {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> total_ns{0};
    std::array<std::atomic<std::uint64_t>, kHistBins> bins{};
  };
  /// One thread's private cells. Fixed-size: no allocation, no resize,
  /// no pointer chase past the shard lookup. `dirty` lets merges skip
  /// quiescent shards entirely: shards of dead pool threads pile up over
  /// a process's campaigns (a thread-local cache can't be reclaimed),
  /// and walking their ~2.8k cells each would make merge cost grow with
  /// process age instead of active-thread count.
  struct alignas(64) Shard {
    explicit Shard(std::thread::id o) : owner(o) {}

    /// The thread that records into this shard: a miss in the
    /// thread-local shard cache finds the shard again by it instead of
    /// minting another.
    const std::thread::id owner;
    std::atomic<std::uint64_t> dirty{0};
    std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
    std::array<std::array<std::atomic<std::uint64_t>, kHistBins>, kMaxHistograms>
        hists{};
    std::array<StageCells, kNumStages> stages{};
  };
  /// Merged totals (guarded by mu_).
  struct Totals {
    std::array<std::uint64_t, kMaxCounters> counters{};
    std::array<std::array<std::uint64_t, kHistBins>, kMaxHistograms> hists{};
    std::array<std::uint64_t, kNumStages> stage_calls{};
    std::array<std::uint64_t, kNumStages> stage_ns{};
    std::array<std::array<std::uint64_t, kHistBins>, kNumStages> stage_bins{};
  };

  void add_slow(MetricId id, std::uint64_t delta);
  void observe_slow(MetricId hist, double seconds);
  void record_span_slow(Stage stage, std::uint64_t ns);
  Shard& shard_for_this_thread() V6MON_EXCLUDES(mu_);
  [[nodiscard]] static std::size_t bin_of_seconds(double seconds);
  void merge_shards_locked() V6MON_REQUIRES(mu_);

#if V6MON_OBS_LEVEL >= 1
  std::atomic<bool> enabled_{false};
#endif
  const std::uint64_t id_;  ///< Process-unique; keys the thread-local shard cache.
  mutable util::Mutex mu_;  ///< Guards names, gauges, totals, shard creation.
  std::vector<std::string> counter_names_ V6MON_GUARDED_BY(mu_);
  std::vector<std::string> hist_names_ V6MON_GUARDED_BY(mu_);
  std::vector<std::pair<std::string, double>> gauges_
      V6MON_GUARDED_BY(mu_);  ///< Sorted on export.
  /// Guards the shard *container*; each Shard's cells are relaxed
  /// atomics written lock-free by their owning thread and drained by
  /// merge_shards_locked() under mu_.
  std::deque<Shard> shards_ V6MON_GUARDED_BY(mu_);
  Totals totals_ V6MON_GUARDED_BY(mu_);
};

/// The process-wide registry every instrumented module records into.
/// Disabled by default; `full_study --metrics`, the bench harness and
/// the metrics tests switch it on around a campaign.
[[nodiscard]] MetricsRegistry& metrics();

/// Steady-clock nanoseconds (monotonic; only differences are meaningful).
[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// RAII per-stage wall-time span recording into the global registry.
/// When metrics are disabled the constructor is a single relaxed load
/// and the clock is never read.
class TraceSpan {
 public:
  explicit TraceSpan(Stage stage) : stage_(stage) {
    if (metrics().enabled()) start_ns_ = now_ns();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (start_ns_ != 0) metrics().record_span(stage_, now_ns() - start_ns_);
  }

 private:
  Stage stage_;
  std::uint64_t start_ns_ = 0;  ///< 0 = metrics were off at construction.
};

}  // namespace v6mon::obs
