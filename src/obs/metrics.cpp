#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "util/contracts.h"
#include "util/error.h"
#include "util/histogram.h"

namespace v6mon::obs {

namespace {

/// Per-thread shard lookup, keyed by a process-unique registry id (never
/// by pointer — a destroyed registry's address can be reused).
struct ShardSlot {
  std::uint64_t registry_id = 0;  ///< 0 = empty (ids start at 1).
  void* shard = nullptr;
};
constexpr std::size_t kShardCacheSize = 8;
// V6MON_LINT_ALLOW(D004): per-thread shard-lookup memo keyed by process-unique
// registry id; pure cache — merge order is fixed by shard index, not lookup
thread_local ShardSlot tl_shards[kShardCacheSize];
// V6MON_LINT_ALLOW(D004): eviction cursor for the cache above; same argument
thread_local std::size_t tl_shard_evict = 0;

std::uint64_t next_registry_id() {
  // V6MON_LINT_ALLOW(D004): monotonic id source; ids key caches, never output
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Canonical counter names, pre-registered so every export lists the
/// same sorted key set whether or not a stage ever ran (a counter that
/// stays 0 is data; a counter that appears only in some runs is noise).
constexpr const char* kCounterNames[] = {
    "campaign.fast_path_coin_sites",
    "campaign.fast_path_sites",
    "campaign.sites_monitored",
    "conn.attempts",
    "conn.established",
    "conn.fallbacks",
    "conn.noroute",
    "conn.resets",
    "conn.timeouts",
    "dns.queries",
    "dns.timeouts",
    "ingest.flushes",
    "ingest.rows",
    "mem.catalog_bytes",
    "mem.resolved_slots_bytes",
    "mem.results_bytes",
    "mem.rib_bytes",
    "mem.work_list_bytes",
    "monitor.ci_exhausted",
    "monitor.resolved_rows",
    "monitor.resolved_slots",
    "monitor.row_fills",
    "monitor.rows_invalidated",
    "monitor.status.dns-failed",
    "monitor.status.different-content",
    "monitor.status.measured",
    "monitor.status.v4-download-failed",
    "monitor.status.v4-only",
    "monitor.status.v6-download-failed",
    "monitor.status.v6-only",
    "rib.dest_tables",
    "rib.routes",
    "rib.scope_ases",
    "transport.download_failures",
    "transport.downloads",
};

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          // Other control characters are not allowed raw in a JSON string.
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
        break;
    }
  }
  out += '"';
}

std::string format_double(double v) {
  std::ostringstream o;
  o.precision(6);
  o << v;
  return o.str();
}

}  // namespace

std::string json_quote(std::string_view s) {
  std::string out;
  append_json_string(out, s);
  return out;
}

const char* build_type() { return V6MON_BUILD_TYPE; }

const char* git_revision() { return V6MON_GIT_REVISION; }

MetricsRegistry::MetricsRegistry() : id_(next_registry_id()) {
  for (const char* name : kCounterNames) (void)counter(name);
}

MetricsRegistry::~MetricsRegistry() = default;

void MetricsRegistry::set_enabled(bool on) {
#if V6MON_OBS_LEVEL >= 1
  enabled_.store(on, std::memory_order_relaxed);
#else
  (void)on;
#endif
}

MetricId MetricsRegistry::counter(std::string_view name) {
  util::LockGuard lock(mu_);
  const auto it = std::find(counter_names_.begin(), counter_names_.end(), name);
  if (it != counter_names_.end()) {
    return static_cast<MetricId>(it - counter_names_.begin());
  }
  if (counter_names_.size() >= kMaxCounters) {
    throw ConfigError("metrics registry counter capacity exhausted");
  }
  counter_names_.emplace_back(name);
  return static_cast<MetricId>(counter_names_.size() - 1);
}

MetricId MetricsRegistry::histogram(std::string_view name) {
  util::LockGuard lock(mu_);
  const auto it = std::find(hist_names_.begin(), hist_names_.end(), name);
  if (it != hist_names_.end()) {
    return static_cast<MetricId>(it - hist_names_.begin());
  }
  if (hist_names_.size() >= kMaxHistograms) {
    throw ConfigError("metrics registry histogram capacity exhausted");
  }
  hist_names_.emplace_back(name);
  return static_cast<MetricId>(hist_names_.size() - 1);
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
  util::LockGuard lock(mu_);
  for (auto& [n, v] : gauges_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  gauges_.emplace_back(std::string(name), value);
}

MetricsRegistry::Shard& MetricsRegistry::shard_for_this_thread() {
  for (ShardSlot& slot : tl_shards) {
    if (slot.registry_id == id_) return *static_cast<Shard*>(slot.shard);
  }
  Shard* shard = nullptr;
  {
    const std::thread::id self = std::this_thread::get_id();
    util::LockGuard lock(mu_);
    // A thread that records into more registries than the cache holds
    // misses here again after an eviction: it must get its own shard back.
    for (Shard& s : shards_) {
      if (s.owner == self) {
        shard = &s;
        break;
      }
    }
    if (shard == nullptr) shard = &shards_.emplace_back(self);
  }
  ShardSlot& victim = tl_shards[tl_shard_evict];
  tl_shard_evict = (tl_shard_evict + 1) % kShardCacheSize;
  victim = {id_, shard};
  return *shard;
}

void MetricsRegistry::add_slow(MetricId id, std::uint64_t delta) {
  V6MON_ASSERT(id < kMaxCounters, "counter id out of range");
  Shard& s = shard_for_this_thread();
  s.dirty.store(1, std::memory_order_relaxed);
  s.counters[id].fetch_add(delta, std::memory_order_relaxed);
}

std::size_t MetricsRegistry::bin_of_seconds(double seconds) {
  if (!(seconds > 0.0) || !std::isfinite(seconds)) return 0;  // incl. NaN
  const double pos = (std::log10(seconds) - kHistLogLo) *
                     (static_cast<double>(kHistBins) / (kHistLogHi - kHistLogLo));
  if (pos <= 0.0) return 0;
  if (pos >= static_cast<double>(kHistBins - 1)) return kHistBins - 1;
  return static_cast<std::size_t>(pos);
}

void MetricsRegistry::observe_slow(MetricId hist, double seconds) {
  V6MON_ASSERT(hist < kMaxHistograms, "histogram id out of range");
  Shard& s = shard_for_this_thread();
  s.dirty.store(1, std::memory_order_relaxed);
  s.hists[hist][bin_of_seconds(seconds)].fetch_add(1, std::memory_order_relaxed);
}

void MetricsRegistry::record_span_slow(Stage stage, std::uint64_t ns) {
  Shard& s = shard_for_this_thread();
  s.dirty.store(1, std::memory_order_relaxed);
  StageCells& cells = s.stages[static_cast<std::size_t>(stage)];
  cells.calls.fetch_add(1, std::memory_order_relaxed);
  cells.total_ns.fetch_add(ns, std::memory_order_relaxed);
  cells.bins[bin_of_seconds(static_cast<double>(ns) * 1e-9)].fetch_add(
      1, std::memory_order_relaxed);
}

void MetricsRegistry::merge_shards_locked() {
  for (Shard& s : shards_) {
    // A recording thread sets `dirty` before touching any cell, so a
    // clean shard has nothing to collect; whatever races in after this
    // exchange re-marks it and is collected by the next merge. Cheap
    // skip = merge cost tracks *active* threads, not shard history.
    if (s.dirty.exchange(0, std::memory_order_relaxed) == 0) continue;
    // Cells past the registered prefix were never handed out as ids and
    // are provably zero — folding only the registered prefix keeps the
    // per-shard merge at ~hundreds of cells instead of kMax* capacity.
    for (std::size_t i = 0; i < counter_names_.size(); ++i) {
      totals_.counters[i] += s.counters[i].exchange(0, std::memory_order_relaxed);
    }
    for (std::size_t h = 0; h < hist_names_.size(); ++h) {
      for (std::size_t b = 0; b < kHistBins; ++b) {
        totals_.hists[h][b] += s.hists[h][b].exchange(0, std::memory_order_relaxed);
      }
    }
    for (std::size_t st = 0; st < kNumStages; ++st) {
      StageCells& cells = s.stages[st];
      totals_.stage_calls[st] += cells.calls.exchange(0, std::memory_order_relaxed);
      totals_.stage_ns[st] += cells.total_ns.exchange(0, std::memory_order_relaxed);
      for (std::size_t b = 0; b < kHistBins; ++b) {
        totals_.stage_bins[st][b] +=
            cells.bins[b].exchange(0, std::memory_order_relaxed);
      }
    }
  }
}

void MetricsRegistry::merge_shards() {
  util::LockGuard lock(mu_);
  merge_shards_locked();
}

void MetricsRegistry::reset() {
  util::LockGuard lock(mu_);
  merge_shards_locked();  // zeroes the shards
  totals_ = Totals{};
  gauges_.clear();
}

std::size_t MetricsRegistry::shard_count() const {
  util::LockGuard lock(mu_);
  return shards_.size();
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) {
  util::LockGuard lock(mu_);
  merge_shards_locked();
  const auto it = std::find(counter_names_.begin(), counter_names_.end(), name);
  if (it == counter_names_.end()) return 0;
  return totals_.counters[static_cast<std::size_t>(it - counter_names_.begin())];
}

std::vector<std::uint64_t> MetricsRegistry::histogram_bins(std::string_view name) {
  util::LockGuard lock(mu_);
  merge_shards_locked();
  const auto it = std::find(hist_names_.begin(), hist_names_.end(), name);
  if (it == hist_names_.end()) return {};
  const auto& bins = totals_.hists[static_cast<std::size_t>(it - hist_names_.begin())];
  return std::vector<std::uint64_t>(bins.begin(), bins.end());
}

MetricsRegistry::StageTotals MetricsRegistry::stage_totals(Stage stage) {
  util::LockGuard lock(mu_);
  merge_shards_locked();
  const auto i = static_cast<std::size_t>(stage);
  return {totals_.stage_calls[i], totals_.stage_ns[i]};
}

std::string MetricsRegistry::counters_json() {
  util::LockGuard lock(mu_);
  merge_shards_locked();
  std::vector<std::pair<std::string, std::uint64_t>> named;
  named.reserve(counter_names_.size() + kNumStages);
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    named.emplace_back(counter_names_[i], totals_.counters[i]);
  }
  for (std::size_t st = 0; st < kNumStages; ++st) {
    named.emplace_back(
        std::string("stage.") + stage_name(static_cast<Stage>(st)) + ".calls",
        totals_.stage_calls[st]);
  }
  std::sort(named.begin(), named.end());
  std::string out = "{\"counters\":{";
  for (std::size_t i = 0; i < named.size(); ++i) {
    if (i) out += ',';
    append_json_string(out, named[i].first);
    out += ':';
    out += std::to_string(named[i].second);
  }
  out += "}}";
  return out;
}

std::string MetricsRegistry::to_json(const ExportManifest& manifest) {
  util::LockGuard lock(mu_);
  merge_shards_locked();

  std::vector<std::pair<std::string, std::uint64_t>> counters;
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    counters.emplace_back(counter_names_[i], totals_.counters[i]);
  }
  std::sort(counters.begin(), counters.end());
  std::vector<std::pair<std::string, double>> gauges = gauges_;
  std::sort(gauges.begin(), gauges.end());

  std::string out = "{\n";
  if (!manifest.empty()) {
    out += "  \"manifest\": {";
    for (std::size_t i = 0; i < manifest.size(); ++i) {
      out += i ? ",\n    " : "\n    ";
      append_json_string(out, manifest[i].first);
      out += ": ";
      out += manifest[i].second;
    }
    out += "\n  },\n";
  }
  out += "  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out += i ? ",\n    " : "\n    ";
    append_json_string(out, counters[i].first);
    out += ": ";
    out += std::to_string(counters[i].second);
  }
  out += "\n  },\n  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out += i ? ",\n    " : "\n    ";
    append_json_string(out, gauges[i].first);
    out += ": ";
    out += format_double(gauges[i].second);
  }
  out += "\n  },\n  \"stages\": {";
  std::array<std::size_t, kNumStages> order;
  for (std::size_t i = 0; i < kNumStages; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [](std::size_t a, std::size_t b) {
    return std::string_view(stage_name(static_cast<Stage>(a))) <
           std::string_view(stage_name(static_cast<Stage>(b)));
  });
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const std::size_t st = order[i];
    out += i ? ",\n    " : "\n    ";
    append_json_string(out, stage_name(static_cast<Stage>(st)));
    out += ": {\"calls\": " + std::to_string(totals_.stage_calls[st]);
    out += ", \"total_ms\": " +
           format_double(static_cast<double>(totals_.stage_ns[st]) * 1e-6);
    const double mean_us =
        totals_.stage_calls[st] == 0
            ? 0.0
            : static_cast<double>(totals_.stage_ns[st]) * 1e-3 /
                  static_cast<double>(totals_.stage_calls[st]);
    out += ", \"mean_us\": " + format_double(mean_us);
    out += ", \"latency_bins\": [";
    for (std::size_t b = 0; b < kHistBins; ++b) {
      if (b) out += ',';
      out += std::to_string(totals_.stage_bins[st][b]);
    }
    out += "]}";
  }
  // Named histograms ride along only when any were registered.
  if (!hist_names_.empty()) {
    out += "\n  },\n  \"histograms\": {";
    std::vector<std::pair<std::string, std::size_t>> hists;
    for (std::size_t h = 0; h < hist_names_.size(); ++h) {
      hists.emplace_back(hist_names_[h], h);
    }
    std::sort(hists.begin(), hists.end());
    for (std::size_t i = 0; i < hists.size(); ++i) {
      out += i ? ",\n    " : "\n    ";
      append_json_string(out, hists[i].first);
      out += ": [";
      for (std::size_t b = 0; b < kHistBins; ++b) {
        if (b) out += ',';
        out += std::to_string(totals_.hists[hists[i].second][b]);
      }
      out += ']';
    }
  }
  out += "\n  }\n}\n";
  return out;
}

void MetricsRegistry::write_json(std::ostream& out, const ExportManifest& manifest) {
  out << to_json(manifest);
  out.flush();
  if (out.fail()) {
    throw IoError("metrics export failed: output stream entered a failed state");
  }
}

std::string MetricsRegistry::summary() {
  // Snapshot the merged state first (to_json-style accessors merge and
  // lock internally; do the same once here).
  util::LockGuard lock(mu_);
  merge_shards_locked();

  util::TextTable stages({"stage", "calls", "total ms", "mean us",
                          "latency 100ns..100s (log bins)"});
  for (std::size_t st = 0; st < kNumStages; ++st) {
    util::Histogram render(static_cast<double>(kHistLogLo),
                           static_cast<double>(kHistLogHi), kHistBins);
    for (std::size_t b = 0; b < kHistBins; ++b) {
      render.add_to_bin(b, totals_.stage_bins[st][b]);
    }
    const std::uint64_t calls = totals_.stage_calls[st];
    const double total_ms = static_cast<double>(totals_.stage_ns[st]) * 1e-6;
    const double mean_us =
        calls == 0 ? 0.0
                   : static_cast<double>(totals_.stage_ns[st]) * 1e-3 /
                         static_cast<double>(calls);
    stages.add_row({stage_name(static_cast<Stage>(st)),
                    util::TextTable::count(calls), util::TextTable::num(total_ms, 2),
                    util::TextTable::num(mean_us, 2), render.render()});
  }

  util::TextTable counters({"counter", "value"});
  std::vector<std::pair<std::string, std::uint64_t>> named;
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    if (totals_.counters[i] != 0) {
      named.emplace_back(counter_names_[i], totals_.counters[i]);
    }
  }
  std::sort(named.begin(), named.end());
  for (const auto& [name, value] : named) {
    counters.add_row({name, util::TextTable::count(value)});
  }

  std::string out = "-- pipeline stages --\n" + stages.render();
  out += "\n-- counters (non-zero) --\n" + counters.render();
  if (!gauges_.empty()) {
    util::TextTable gauges({"gauge", "value"});
    std::vector<std::pair<std::string, double>> sorted = gauges_;
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [name, value] : sorted) {
      gauges.add_row({name, util::TextTable::num(value, 2)});
    }
    out += "\n-- gauges --\n" + gauges.render();
  }
  return out;
}

MetricsRegistry& metrics() {
  // V6MON_LINT_ALLOW(D004): the process-wide registry singleton; disabled by
  // default, and only its non-deterministic export carries recorded state
  static MetricsRegistry registry;
  return registry;
}

}  // namespace v6mon::obs
