// Crash-safe persistence for the schedule cache: an append-only,
// CRC-framed journal (`cache.tgsj`) of committed cache entries.
//
// Durability contract: an entry is *committed* once append() returns --
// the framed record has been written and (per the fsync policy) synced,
// and the daemon only sends the client its response after that. A
// `kill -9` at any instant therefore loses at most the record being
// written; every response a client ever saw is replayable after restart.
//
// File format (all integers little-endian, fixed width):
//
//   header   8 bytes  "TGSJRNL1"
//   record   u32 payload_len | u32 crc32(payload) | payload
//   payload  u32 key_len | key bytes
//            i64 makespan | u64 nsl (IEEE-754 bit pattern)
//            i32 procs_used | u64 num_messages
//            u32 text_len | tgssched1 text bytes
//
// Recovery replays the longest valid prefix: records are accepted only
// with an intact frame, a matching CRC and an exactly-consumed payload;
// the first violation marks the torn tail, which is truncated in place
// (ftruncate) so appends resume from a clean end. Corruption is NEVER
// fatal -- a garbage file, a bad header, a half record all degrade to
// "fewer entries replayed", with the damage reported in the recovery
// counters (surfaced by the `stats` op).
//
// The journal is append-only, so evicted/overwritten cache entries
// accumulate as dead records; compact() rewrites the live set (atomic
// tmp-file + rename) and the server triggers it every N appends.
//
// The nsl double travels as its bit pattern, not decimal text: recovered
// entries are byte-identical to what was cached, which is what lets the
// chaos test assert bit-equal schedules across a crash.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "tgs/serve/cache.h"

namespace tgs {

/// CRC-32 (IEEE 802.3, the zlib polynomial) over `n` bytes.
std::uint32_t crc32_ieee(const void* data, std::size_t n);

/// What open() found in an existing journal file.
struct JournalRecovery {
  std::vector<std::pair<std::string, CachedSchedule>> entries;  // append order
  std::uint64_t replayed = 0;         // == entries.size()
  std::uint64_t truncated_bytes = 0;  // torn/corrupt tail dropped
  bool tail_truncated = false;        // any tail was cut (incl. bad header)
};

/// The append-only cache journal. All methods are thread-safe; append()
/// serializes concurrent workers internally.
class Journal {
 public:
  Journal() = default;
  ~Journal() { close(); }
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Open (creating if absent), recover the valid prefix, truncate any
  /// torn tail, and position for appends. `fsync_every` = sync the file
  /// after every Nth append (1 = every append, 0 = never -- the OS
  /// decides). Throws std::runtime_error only when the file itself
  /// cannot be opened/created; corruption inside it never throws.
  void open(const std::string& path, int fsync_every);

  bool is_open() const;

  /// Recovery outcome of the last open().
  const JournalRecovery& recovery() const { return recovery_; }

  /// Append one committed cache entry. No-op after a torn-write fault
  /// sealed the journal (simulating the process dying mid-write).
  void append(const std::string& key, const CachedSchedule& value);

  /// Atomically rewrite the journal to exactly `live` (oldest first, so
  /// replay reproduces the cache's recency order): write to `path.tmp`,
  /// fsync, rename over, reopen. Errors are swallowed -- a failed
  /// compaction leaves the previous journal intact.
  void compact(
      const std::vector<std::pair<std::string, CachedSchedule>>& live);

  std::uint64_t appends() const;
  std::uint64_t appends_since_compact() const;
  std::uint64_t compactions() const;

  void close();

 private:
  void write_all_locked(const char* data, std::size_t n);

  mutable std::mutex mu_;
  std::string path_;
  int fd_ = -1;
  int fsync_every_ = 1;
  bool sealed_ = false;  // torn-write fault fired: behave as if crashed
  std::uint64_t appends_ = 0;
  std::uint64_t appends_since_compact_ = 0;
  std::uint64_t compactions_ = 0;
  JournalRecovery recovery_;
};

}  // namespace tgs
