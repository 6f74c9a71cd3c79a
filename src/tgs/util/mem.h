// Process-memory probes for the giant-graph tier: schedule quality gates
// on time AND memory, so every giant_sweep / tgs_perf row carries peak RSS
// and allocation counts next to seconds.
//
// Two complementary signals:
//  * peak_rss_bytes() -- the kernel's high-water mark (getrusage ru_maxrss).
//    Monotonic for the process lifetime: right for "did this tier fit in
//    the ceiling", useless for per-algorithm deltas once the peak is set.
//  * AllocCounter -- heap traffic counted by the global operator new/delete
//    replacements in mem.cpp (relaxed atomics, a few ns per allocation).
//    Deltas between two snapshots attribute allocation count and bytes to
//    one region of code, which is the per-algorithm metric the giant tier
//    reports (a zero-allocation steady state stays visibly zero).
#pragma once

#include <cstddef>
#include <cstdint>

namespace tgs {

/// Peak resident set size of this process, in bytes (0 if unavailable).
std::size_t peak_rss_bytes();

/// Current resident set size, parsed from /proc/self/statm (0 if
/// unavailable -- non-Linux fallback).
std::size_t current_rss_bytes();

/// Snapshot of the process-wide allocation counters.
struct AllocStats {
  std::uint64_t count = 0;  // operator new calls since process start
  std::uint64_t bytes = 0;  // bytes requested since process start
};

/// Current totals (monotonic). Subtract two snapshots to attribute heap
/// traffic to a region: `auto a = alloc_stats(); work(); auto b =
/// alloc_stats(); b.count - a.count`.
AllocStats alloc_stats();

/// Convenience delta-meter.
class AllocMeter {
 public:
  AllocMeter() : start_(alloc_stats()) {}
  std::uint64_t count() const { return alloc_stats().count - start_.count; }
  std::uint64_t bytes() const { return alloc_stats().bytes - start_.bytes; }

 private:
  AllocStats start_;
};

}  // namespace tgs
