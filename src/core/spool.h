#pragma once

#include <cstdint>
#include <fstream>
#include <istream>
#include <span>
#include <string>

#include "core/results.h"

namespace v6mon::core {

/// Binary observation spool — the out-of-core campaign store. Instead of
/// holding millions of rows in memory, a campaign streams them to disk
/// and the analysis replays the file into a ResultsDb afterwards (the
/// replayed view is indistinguishable from an in-memory run).
///
/// Format (version 1, little-endian, fixed-width):
///   8-byte magic "V6SPOOL1", then tagged records:
///     0x01 PathDef   u32 hop count, then hop x u32 ASNs. Defines the
///                    next sequential spool path id (0, 1, 2, ...); the
///                    writer's spool ids are its registry's path ids.
///     0x02 Obs       u32 site, u32 round, u8 status, u32 v4 speed bits,
///                    u32 v6 speed bits (IEEE-754 binary32), u16/u16
///                    sample counts, u32/u32 spool path ids (0xffffffff
///                    = none), u32/u32 origin ASNs.
///     0x03 Counters  u32 round, 8 x u64 deltas (listed, v4_only,
///                    v6_only, dual, dns_failed, measured,
///                    different_content, download_failed).
///     0x04 End       u64 observation count (truncation check; nothing
///                    may follow).
/// PathDef records always precede the first Obs that references them.
/// In memory an observation holds one route-pair id; the writer expands
/// it into each family's (path id, origin) fields, and replay re-interns
/// them as a pair of routes of the database registry. Counters are u32
/// in memory (RoundCounters); the format keeps u64 fields. SpoolSink
/// writes one Counters record per ingest, and rows in work-list order, so
/// a spool's bytes do not depend on the thread count.
class SpoolWriter {
 public:
  /// Creates/truncates `path` and writes the header. Throws
  /// v6mon::Error when the file cannot be opened.
  explicit SpoolWriter(const std::string& path);
  ~SpoolWriter();

  SpoolWriter(const SpoolWriter&) = delete;
  SpoolWriter& operator=(const SpoolWriter&) = delete;

  /// Define the next sequential spool path id.
  void path_def(std::span<const topo::Asn> path);
  /// Append one observation. Its pair id is `routes`' id, and the pair's
  /// path ids are spool ids already defined.
  void observation(const Observation& obs, const PathRegistry& routes);
  /// Append a per-round counter delta.
  void counters(std::uint32_t round, const RoundCounters& delta);

  /// Write the end record, flush and close. Idempotent; the destructor
  /// calls it. Throws nothing: a failed flush or close shows in ok().
  void close();
  /// False after any stream failure (disk full, closed device),
  /// including one in close().
  [[nodiscard]] bool ok() const { return out_.good(); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);

  const std::string path_;
  std::ofstream out_;
  std::uint64_t observations_ = 0;
  bool closed_ = false;
};

/// Out-of-core store of one vantage point's rounds: each ingest streams
/// its batch to disk behind PathDef records for the registry paths no
/// earlier batch defined, then writes the batch's one Counters record.
/// Nothing but the writer's buffer stays in memory. Coordinator-only:
/// the campaign ingests one batch at a time per store.
class SpoolSink {
 public:
  /// `routes`: the registry the ingested rows' pair ids belong to (the
  /// vantage point's); spool path ids are its path ids. It only grows,
  /// so a path defined once keeps its id.
  SpoolSink(const std::string& path, const PathRegistry& routes)
      : routes_(&routes), writer_(path) {}

  /// Append one batch: `rows`, then `delta` as `round`'s Counters record
  /// (written even when all-zero, so a replay counts the round as the
  /// in-memory store does).
  void ingest(std::uint32_t round, std::span<const Observation> rows,
              const RoundCounters& delta);
  /// Close the file. Throws IoError naming the file when any write to it
  /// failed.
  void finish();

  [[nodiscard]] bool ok() const { return writer_.ok(); }
  [[nodiscard]] const std::string& path() const { return writer_.path(); }

 private:
  const PathRegistry* routes_;
  std::size_t defined_paths_ = 0;  ///< routes_ paths with a PathDef written.
  SpoolWriter writer_;
};

/// Replay a spool stream into `db` (observations, counters and the full
/// path set; spool ids are re-interned into the database registry). The
/// caller finalizes the database afterwards. Throws v6mon::Error on a
/// malformed or truncated spool.
///
/// This is an untrusted-byte boundary (tests/fuzz/fuzz_spool.cpp):
/// arbitrary input must either replay or throw — never crash, and never
/// allocate out of proportion to the input (site/round/path-length
/// fields are sanity-capped; the round cap bounds ResultsDb's
/// round-counter table). An Obs round must fit Observation::round
/// (below 65,536), and a round's counters must fit RoundCounters' 32
/// bits once merged.
void replay_spool(std::istream& in, ResultsDb& db);

/// Convenience: open `path` and replay it. Throws v6mon::Error when the
/// file cannot be opened.
void replay_spool_file(const std::string& path, ResultsDb& db);

}  // namespace v6mon::core
