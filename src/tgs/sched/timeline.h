// A single resource timeline: an ordered set of non-overlapping busy
// intervals. Used for processors (task execution) and network links
// (message transmission).
//
// The central query is earliest_fit(): the earliest start >= ready of a
// duration-long block, either appended after the last interval
// (non-insertion list scheduling) or placed into the first sufficiently
// large idle gap (insertion-based scheduling, paper §3 "ISH/MCP style").
//
// Storage is gap-indexed: intervals live in bounded sorted chunks, each
// summarized by its largest internal idle gap, with a max segment tree
// over the per-chunk summaries. An insertion-mode fit therefore descends
// the tree to the first chunk that can hold the block instead of scanning
// the interval list -- APN link timelines accumulate thousands of message
// reservations and every (node, processor) probe queries them. The tree's
// root is the largest gap between any two consecutive intervals, so a
// block longer than it that does not fit before the first interval gets
// the end of the timeline in O(1), without a search. Occupying or
// releasing an interval takes one search for its slot and touches one
// chunk (bounded memmove) plus a segment-tree path, not the whole list;
// the chunk's largest gap is rescanned only when the gap the interval
// splits or merges was that largest one. Queries are exact: the chunked
// store answers every call bit-identically to a flat sorted vector
// (tests/test_timeline.cpp churns both against each other).
#pragma once

#include <cstdint>
#include <vector>

#include "tgs/util/types.h"

namespace tgs {

/// Occupancy interval [start, end) owned by a task or message id.
struct Interval {
  Time start;
  Time end;
  std::int64_t owner;

  friend bool operator==(const Interval&, const Interval&) = default;
};

class Timeline {
 public:
  /// Earliest t >= ready such that [t, t+dur) fits.
  /// insertion=false: returns max(ready, end-of-last-interval).
  /// insertion=true : first gap (including before the first interval and
  /// after the last) that can hold dur starting no earlier than ready.
  /// dur == 0 fits anywhere >= ready.
  Time earliest_fit(Time ready, Cost dur, bool insertion) const;

  /// True if [start, start+dur) does not overlap any existing interval.
  bool fits(Time start, Cost dur) const;

  /// Insert an interval; throws std::logic_error if it overlaps. Equal
  /// start times order by end (zero-width intervals first, so interval
  /// ends stay globally non-decreasing); identical (start, end) pairs
  /// keep insertion-before-existing order.
  void occupy(std::int64_t owner, Time start, Cost dur);

  /// Remove the interval with this owner; returns false if absent.
  /// O(n) scan -- prefer the hinted overload when the start is known.
  bool release(std::int64_t owner);

  /// Remove the interval with this owner whose start time is known to the
  /// caller (schedulers track where they placed things): binary-searches
  /// the chunked interval store instead of scanning it, falling back to
  /// the linear scan if no interval with this owner sits at `start_hint`.
  bool release(std::int64_t owner, Time start_hint);

  /// Become a copy of `src` holding only the intervals whose owner
  /// satisfies keep(owner), in src's order: one pass that packs them into
  /// fresh chunks (no fits, no searches), reusing this timeline's chunk
  /// capacity. Queries on the result are bit-identical to a timeline that
  /// occupied just those intervals, because removing intervals never
  /// reorders the survivors. `src` must not be this timeline.
  template <class Keep>
  void assign_filtered(const Timeline& src, Keep keep) {
    std::size_t used = 0;
    size_ = 0;
    for (const Chunk& c : src.chunks_)
      for (const Interval& iv : c.ivs)
        if (keep(iv.owner)) push_packed(used, iv);
    seal_packed(used);
  }

  /// End of the last interval (0 when empty).
  Time end_time() const { return end_time_; }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Intervals sorted by start time, flattened out of the chunked store.
  std::vector<Interval> intervals() const;

 private:
  // Chunk capacity: split at > kSplit into two halves. Bounds the in-chunk
  // scan of every query and the memmove of every occupy/release.
  static constexpr std::size_t kSplit = 48;
  // Chunk size assign_filtered packs to: mid-way between the halves a
  // split leaves and kSplit, so neither a split nor a tiny chunk follows.
  static constexpr std::size_t kPack = kSplit * 3 / 4;

  struct Chunk {
    std::vector<Interval> ivs;  // sorted by start, non-overlapping
    Time max_gap = 0;           // largest idle gap BETWEEN consecutive ivs

    Time first_start() const { return ivs.front().start; }
    Time last_end() const { return ivs.back().end; }
  };

  /// Index of the first chunk whose last interval ends after `t`
  /// (chunks_.size() when none). Interval ends are globally
  /// non-decreasing, so this is a binary search over chunk tails.
  std::size_t chunk_by_end(Time t) const;

  /// Index of the chunk that owns the sorted position of the (start, end)
  /// key (first chunk whose last interval's key is not below it; the last
  /// chunk when the key exceeds every interval's). Intervals are ordered
  /// lexicographically by (start, end) -- with disjointness this keeps
  /// interval ends globally non-decreasing, which chunk_by_end and the
  /// in-chunk end searches rely on. Pass end = kTimeNegInf to locate the
  /// first interval with this start.
  std::size_t chunk_by_start(Time start, Time end) const;

  /// Gap between chunk c and its predecessor (0 for chunk 0: the gap
  /// before the first interval is handled by the query's ready cursor).
  Time gap_before(std::size_t c) const;

  /// Segment-tree leaf value of chunk c: the largest idle gap reachable by
  /// entering this chunk from the previous one.
  Time leaf_key(std::size_t c) const;

  void update_leaf(std::size_t c);           // one O(log C) path
  void rebuild_tree();                       // chunk count changed
  void split_chunk(std::size_t c);           // kSplit overflow
  void erase_interval(std::size_t c, std::size_t pos);

  // assign_filtered's two steps: append `iv` to chunk used - 1 (opening
  // chunk `used` when that one holds kPack), then drop the chunks past
  // `used` and rebuild the gap index.
  void push_packed(std::size_t& used, const Interval& iv);
  void seal_packed(std::size_t used);

  /// First chunk index >= lo whose leaf key can hold `dur`; -1 if none.
  int first_chunk_with_gap(std::size_t lo, Cost dur) const;
  int tree_query(std::size_t node, std::size_t l, std::size_t r,
                 std::size_t lo, Cost dur) const;

  std::vector<Chunk> chunks_;  // non-empty, ordered
  std::vector<Time> tree_;     // max segment tree over leaf_key(c)
  std::size_t tree_base_ = 0;  // leaf offset (power of two >= chunk count)
  std::size_t size_ = 0;       // total interval count
  Time end_time_ = 0;          // end of the last interval
  // Empty buffer of the last chunk erased, reused by the next occupy of
  // an empty timeline: branch and bound empties and refills a processor
  // on every backtrack over it.
  std::vector<Interval> spare_;
};

}  // namespace tgs
