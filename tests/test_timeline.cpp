// Unit tests for sched/timeline.h: insertion-slot queries, occupancy
// invariants, release, and the gap-indexed chunked store's equivalence to
// a flat sorted interval list under adversarial churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "reference_timeline.h"
#include "tgs/sched/timeline.h"
#include "tgs/util/rng.h"

namespace tgs {
namespace {

using reference::FlatTimeline;

TEST(Timeline, EmptyFitsAnywhere) {
  Timeline tl;
  EXPECT_EQ(tl.earliest_fit(0, 5, false), 0);
  EXPECT_EQ(tl.earliest_fit(7, 5, true), 7);
  EXPECT_TRUE(tl.fits(100, 50));
  EXPECT_EQ(tl.end_time(), 0);
}

TEST(Timeline, AppendModeIgnoresGaps) {
  Timeline tl;
  tl.occupy(1, 0, 10);
  tl.occupy(2, 50, 10);
  // Non-insertion: after the last interval, even though [10,50) is idle.
  EXPECT_EQ(tl.earliest_fit(0, 5, false), 60);
  EXPECT_EQ(tl.earliest_fit(70, 5, false), 70);
}

TEST(Timeline, InsertionFindsFirstGap) {
  Timeline tl;
  tl.occupy(1, 0, 10);
  tl.occupy(2, 50, 10);
  EXPECT_EQ(tl.earliest_fit(0, 5, true), 10);
  EXPECT_EQ(tl.earliest_fit(0, 40, true), 10);
  EXPECT_EQ(tl.earliest_fit(0, 41, true), 60);  // gap too small
  EXPECT_EQ(tl.earliest_fit(20, 5, true), 20);
  EXPECT_EQ(tl.earliest_fit(48, 5, true), 60);  // would collide with [50,60)
}

TEST(Timeline, InsertionBeforeFirstInterval) {
  Timeline tl;
  tl.occupy(1, 20, 10);
  EXPECT_EQ(tl.earliest_fit(0, 10, true), 0);
  EXPECT_EQ(tl.earliest_fit(0, 21, true), 30);
  EXPECT_EQ(tl.earliest_fit(5, 15, true), 5);   // [5, 20) touches the block
  EXPECT_EQ(tl.earliest_fit(6, 15, true), 30);  // [6, 21) would collide
}

TEST(Timeline, ZeroDurationFits) {
  Timeline tl;
  tl.occupy(1, 0, 10);
  EXPECT_EQ(tl.earliest_fit(3, 0, true), 3);
}

TEST(Timeline, OccupyRejectsOverlap) {
  Timeline tl;
  tl.occupy(1, 10, 10);
  EXPECT_THROW(tl.occupy(2, 15, 1), std::logic_error);
  EXPECT_THROW(tl.occupy(2, 5, 6), std::logic_error);
  EXPECT_NO_THROW(tl.occupy(3, 20, 5));  // touching is fine
  EXPECT_NO_THROW(tl.occupy(4, 5, 5));
}

TEST(Timeline, FitsBoundaryConditions) {
  Timeline tl;
  tl.occupy(1, 10, 10);
  EXPECT_TRUE(tl.fits(0, 10));
  EXPECT_TRUE(tl.fits(20, 10));
  EXPECT_FALSE(tl.fits(19, 2));
  EXPECT_FALSE(tl.fits(9, 2));
}

TEST(Timeline, ReleaseRemovesInterval) {
  Timeline tl;
  tl.occupy(7, 0, 10);
  tl.occupy(8, 10, 10);
  EXPECT_TRUE(tl.release(7));
  EXPECT_FALSE(tl.release(7));
  EXPECT_TRUE(tl.fits(0, 10));
  EXPECT_EQ(tl.size(), 1u);
}

TEST(Timeline, IntervalsSortedAfterMixedInserts) {
  Timeline tl;
  tl.occupy(1, 50, 5);
  tl.occupy(2, 0, 5);
  tl.occupy(3, 20, 5);
  const auto& ivs = tl.intervals();
  ASSERT_EQ(ivs.size(), 3u);
  EXPECT_EQ(ivs[0].start, 0);
  EXPECT_EQ(ivs[1].start, 20);
  EXPECT_EQ(ivs[2].start, 50);
  Time busy = 0;
  for (const Interval& iv : ivs) busy += iv.end - iv.start;
  EXPECT_EQ(busy, 15);
  EXPECT_EQ(tl.end_time(), 55);
}

TEST(Timeline, EarliestFitAfterManyIntervals) {
  Timeline tl;
  for (int i = 0; i < 100; ++i) tl.occupy(i, i * 10, 8);  // gaps of 2
  EXPECT_EQ(tl.earliest_fit(0, 2, true), 8);
  EXPECT_EQ(tl.earliest_fit(503, 2, true), 508);
  EXPECT_EQ(tl.earliest_fit(0, 3, true), 998);  // no gap of 3 until the end
}

TEST(Timeline, OccupySinglePassMatchesFitsVerdict) {
  // The one-binary-search occupy must accept and reject exactly what
  // fits() reports, including touching boundaries.
  Timeline tl;
  tl.occupy(1, 10, 10);
  tl.occupy(2, 30, 10);
  EXPECT_THROW(tl.occupy(3, 9, 2), std::logic_error);    // tail overlap
  EXPECT_THROW(tl.occupy(3, 19, 2), std::logic_error);   // head overlap
  EXPECT_THROW(tl.occupy(3, 12, 30), std::logic_error);  // spans both
  EXPECT_NO_THROW(tl.occupy(3, 20, 10));                 // exact gap
  EXPECT_NO_THROW(tl.occupy(4, 0, 10));                  // before first
  EXPECT_NO_THROW(tl.occupy(5, 40, 1));                  // after last
  const auto& ivs = tl.intervals();
  ASSERT_EQ(ivs.size(), 5u);
  for (std::size_t i = 1; i < ivs.size(); ++i)
    EXPECT_LE(ivs[i - 1].end, ivs[i].start);  // sorted and disjoint
}

TEST(Timeline, ReleaseWithHintRemovesTheRightInterval) {
  Timeline tl;
  tl.occupy(7, 0, 10);
  tl.occupy(8, 10, 10);
  tl.occupy(9, 30, 10);
  EXPECT_TRUE(tl.release(8, 10));
  EXPECT_FALSE(tl.release(8, 10));
  ASSERT_EQ(tl.size(), 2u);
  EXPECT_EQ(tl.intervals()[0].owner, 7);
  EXPECT_EQ(tl.intervals()[1].owner, 9);
}

TEST(Timeline, ReleaseWithWrongHintFallsBackToLinearScan) {
  Timeline tl;
  tl.occupy(7, 0, 10);
  tl.occupy(8, 10, 10);
  EXPECT_TRUE(tl.release(7, 999));  // bogus hint still finds the interval
  EXPECT_EQ(tl.size(), 1u);
  EXPECT_EQ(tl.intervals()[0].owner, 8);
  EXPECT_FALSE(tl.release(42, 10));  // hint matches a start, owner does not
  EXPECT_EQ(tl.size(), 1u);
}

TEST(Timeline, ReleaseWithHintThenReoccupySameSlot) {
  // The unplace/replace cycle of migrating schedulers: hinted release
  // frees exactly the interval the caller placed, and the slot is
  // immediately reusable.
  Timeline tl;
  for (int i = 0; i < 50; ++i) tl.occupy(i, i * 10, 10);
  EXPECT_TRUE(tl.release(25, 250));
  EXPECT_TRUE(tl.fits(250, 10));
  tl.occupy(99, 250, 10);
  EXPECT_EQ(tl.size(), 50u);
  EXPECT_EQ(tl.intervals()[25].owner, 99);
}

TEST(Timeline, ManyIntervalsCrossChunkBoundaries) {
  // Enough intervals to force chunk splits; fits must land in the exact
  // gaps a flat scan would find, including gaps straddling chunk seams.
  Timeline tl;
  for (int i = 0; i < 500; ++i) tl.occupy(i, i * 10, 8);  // gaps of 2
  EXPECT_EQ(tl.earliest_fit(0, 2, true), 8);
  EXPECT_EQ(tl.earliest_fit(1234, 2, true), 1238);
  EXPECT_EQ(tl.earliest_fit(0, 3, true), 4998);  // only after the last
  // Open one interior gap and find it from far to the left.
  EXPECT_TRUE(tl.release(300, 3000));
  EXPECT_EQ(tl.earliest_fit(0, 3, true), 2998);   // [2998, 3010) is idle
  EXPECT_EQ(tl.earliest_fit(0, 12, true), 2998);  // exactly fills it
  EXPECT_EQ(tl.earliest_fit(0, 13, true), 4998);
  EXPECT_EQ(tl.earliest_fit(2999, 3, true), 2999);
  tl.occupy(300, 3000, 8);  // restore
  EXPECT_EQ(tl.earliest_fit(0, 3, true), 4998);
}

// Both stores holding `n` blocks of length 10 separated by idle gaps of 3,
// the first starting at `lead` (the leading gap).
void gapped(Timeline& tl, FlatTimeline& ref, int n, Time lead) {
  for (int i = 0; i < n; ++i) {
    tl.occupy(i, lead + i * 13, 10);
    ref.occupy(i, lead + i * 13, 10);
  }
}

TEST(Timeline, NoFitVerdictWhenNoInternalGapFits) {
  // Every gap between intervals is 3: a block of 4 fits only at the end,
  // from any ready time inside the timeline.
  Timeline tl;
  FlatTimeline ref;
  gapped(tl, ref, 20, 0);
  const Time end = tl.end_time();
  EXPECT_EQ(end, 19 * 13 + 10);
  for (Time ready = 0; ready < end; ++ready) {
    ASSERT_EQ(tl.earliest_fit(ready, 4, true), end) << ready;
    ASSERT_EQ(ref.earliest_fit(ready, 4, true), end) << ready;
  }
  EXPECT_EQ(tl.earliest_fit(0, 3, true), 10);  // the gap itself still fits
}

TEST(Timeline, NoFitVerdictKeepsTheLeadingGap) {
  // The leading gap [0, 100) is not between two intervals, so the gap
  // tree does not hold it: a block longer than every internal gap still
  // fits in front of the first interval.
  Timeline tl;
  FlatTimeline ref;
  gapped(tl, ref, 20, 100);
  EXPECT_EQ(tl.earliest_fit(0, 50, true), 0);
  EXPECT_EQ(tl.earliest_fit(0, 100, true), 0);   // exactly fills it
  EXPECT_EQ(tl.earliest_fit(40, 60, true), 40);  // ends at the first start
  EXPECT_EQ(ref.earliest_fit(0, 50, true), 0);
  EXPECT_EQ(ref.earliest_fit(40, 60, true), 40);
}

TEST(Timeline, NoFitVerdictReadyInsideLeadingGap) {
  // `ready` inside the leading gap with a block too long for its rest:
  // nothing fits before the end.
  Timeline tl;
  FlatTimeline ref;
  gapped(tl, ref, 20, 100);
  const Time end = tl.end_time();
  EXPECT_EQ(tl.earliest_fit(60, 50, true), end);
  EXPECT_EQ(tl.earliest_fit(0, 101, true), end);
  EXPECT_EQ(tl.earliest_fit(41, 60, true), end);
  EXPECT_EQ(ref.earliest_fit(60, 50, true), end);
  EXPECT_EQ(ref.earliest_fit(41, 60, true), end);
}

TEST(Timeline, NoFitVerdictSingleAndMultiChunkMatchFlat) {
  // 5 intervals sit in one chunk; 500 span many, with the root of the gap
  // tree above its leaves. Every (ready, dur) of a grid around the gap
  // sizes answers what the flat store answers, with and without a wide
  // internal gap (interval 3 released) and a leading gap.
  for (const int n : {5, 500}) {
    for (const Time lead : {Time{0}, Time{7}, Time{100}}) {
      for (const bool wide : {false, true}) {
        Timeline tl;
        FlatTimeline ref;
        gapped(tl, ref, n, lead);
        if (wide) {
          ASSERT_TRUE(tl.release(3, lead + 3 * 13));
          ASSERT_TRUE(ref.release(3));
        }
        const Time end = tl.end_time();
        for (Time ready = 0; ready <= end + 1; ready += (n == 5 ? 1 : 7))
          for (const Cost dur : {1, 3, 4, 7, 8, 16, 23, 24, 99, 100, 101})
            ASSERT_EQ(tl.earliest_fit(ready, dur, true),
                      ref.earliest_fit(ready, dur, true))
                << "n " << n << " lead " << lead << " wide " << wide
                << " ready " << ready << " dur " << dur;
      }
    }
  }
}

TEST(Timeline, OccupyVerdictAtChunkSeams) {
  // The one-search occupy reads the slot's neighbours, which sit in the
  // previous or next chunk when the slot is a chunk's edge: every
  // (start, dur) across a 500-interval timeline is rejected exactly when
  // fits() says so, and an accepted block lands where the flat store puts
  // it.
  Timeline tl;
  FlatTimeline ref;
  for (int i = 0; i < 500; ++i) {
    tl.occupy(i, i * 10, 8);
    ref.occupy(i, i * 10, 8);
  }
  for (Time start = 0; start < 5010; ++start) {
    for (const Cost dur : {0, 1, 2, 3}) {
      Timeline t = tl;
      FlatTimeline r = ref;
      if (!tl.fits(start, dur)) {
        ASSERT_THROW(t.occupy(1000, start, dur), std::logic_error)
            << start << " " << dur;
        continue;
      }
      ASSERT_NO_THROW(t.occupy(1000, start, dur)) << start << " " << dur;
      r.occupy(1000, start, dur);
      ASSERT_EQ(t.intervals(), r.intervals()) << start << " " << dur;
      ASSERT_EQ(t.end_time(), r.intervals().back().end);
    }
  }
}

TEST(Timeline, GapIndexMatchesFlatReferenceUnderChurn) {
  // Random occupy/release/query churn (the BSA-migration and B&B
  // backtracking pattern) on both stores; every query must agree and the
  // interval sequences must stay identical. Durations include zero-width
  // blocks; starts collide on purpose (dense value range).
  for (std::uint64_t seed : {1ull, 7ull, 1998ull}) {
    Rng rng(seed);
    Timeline tl;
    FlatTimeline ref;
    std::vector<std::pair<std::int64_t, Time>> live;  // owner -> start
    std::int64_t next_owner = 0;
    for (int step = 0; step < 4000; ++step) {
      const int op = static_cast<int>(rng.uniform_int(0, 9));
      if (op < 5 || live.empty()) {  // occupy at the earliest fitting slot
        const Time ready = rng.uniform_int(0, 3000);
        const Cost dur = rng.uniform_int(1, 40);
        const Time at = tl.earliest_fit(ready, dur, true);
        ASSERT_EQ(at, ref.earliest_fit(ready, dur, true));
        tl.occupy(next_owner, at, dur);
        ref.occupy(next_owner, at, dur);
        live.emplace_back(next_owner, at);
        ++next_owner;
      } else if (op < 8) {  // release, hinted or not
        const std::size_t i =
            static_cast<std::size_t>(rng.uniform_int(0, live.size() - 1));
        const auto [owner, start] = live[i];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        const bool hinted = rng.bernoulli(0.7);
        ASSERT_TRUE(hinted ? tl.release(owner, start) : tl.release(owner));
        ASSERT_TRUE(ref.release(owner));
      } else {  // probe-only round
        const Time ready = rng.uniform_int(0, 4000);
        const Cost dur = rng.uniform_int(0, 60);
        EXPECT_EQ(tl.earliest_fit(ready, dur, true),
                  ref.earliest_fit(ready, dur, true));
        EXPECT_EQ(tl.earliest_fit(ready, dur, false),
                  ref.earliest_fit(ready, dur, false));
        EXPECT_EQ(tl.fits(ready, dur), ref.fits(ready, dur));
      }
      if (step % 256 == 0) {
        ASSERT_EQ(tl.intervals(), ref.intervals());
        ASSERT_EQ(tl.size(), ref.intervals().size());
      }
    }
    EXPECT_EQ(tl.intervals(), ref.intervals());
    const auto busy = [](const std::vector<Interval>& ivs) {
      Time t = 0;
      for (const Interval& iv : ivs) t += iv.end - iv.start;
      return t;
    };
    EXPECT_EQ(busy(tl.intervals()), busy(ref.intervals()));
  }
}

TEST(Timeline, GapIndexMatchesFlatReferenceUnderLongBlockChurn) {
  // Churn whose blocks are mostly longer than the gaps between intervals,
  // so most fits end at the no-fit verdict, and whose occupies also land
  // at arbitrary starts (rejected exactly when fits() says so), so blocks
  // go into the middle of chunks, split their widest gap and sit at chunk
  // seams.
  for (std::uint64_t seed : {5ull, 13ull, 2027ull}) {
    Rng rng(seed);
    Timeline tl;
    FlatTimeline ref;
    std::vector<std::pair<std::int64_t, Time>> live;  // owner -> start
    std::int64_t next_owner = 0;
    int verdicts = 0;
    for (int step = 0; step < 6000; ++step) {
      const int op = static_cast<int>(rng.uniform_int(0, 9));
      if (op < 3 || live.empty()) {  // long block at its earliest fit
        const Time ready = rng.uniform_int(0, 6000);
        const Cost dur = rng.uniform_int(5, 60);
        const Time at = tl.earliest_fit(ready, dur, true);
        ASSERT_EQ(at, ref.earliest_fit(ready, dur, true));
        if (at == tl.end_time() && ready < at) ++verdicts;
        tl.occupy(next_owner, at, dur);
        ref.occupy(next_owner, at, dur);
        live.emplace_back(next_owner++, at);
      } else if (op < 6) {  // short block at an arbitrary start
        const Time start = rng.uniform_int(0, 6000);
        const Cost dur = rng.uniform_int(1, 4);
        if (!ref.fits(start, dur)) {
          ASSERT_THROW(tl.occupy(next_owner, start, dur), std::logic_error);
          continue;
        }
        tl.occupy(next_owner, start, dur);
        ref.occupy(next_owner, start, dur);
        live.emplace_back(next_owner++, start);
      } else if (op < 8) {
        const std::size_t i =
            static_cast<std::size_t>(rng.uniform_int(0, live.size() - 1));
        const auto [owner, start] = live[i];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        ASSERT_TRUE(tl.release(owner, start));
        ASSERT_TRUE(ref.release(owner));
      } else {
        const Time ready = rng.uniform_int(0, 8000);
        const Cost dur = rng.uniform_int(1, 80);
        ASSERT_EQ(tl.earliest_fit(ready, dur, true),
                  ref.earliest_fit(ready, dur, true));
        ASSERT_EQ(tl.fits(ready, dur), ref.fits(ready, dur));
      }
      if (step % 200 == 0) {
        ASSERT_EQ(tl.intervals(), ref.intervals());
      }
    }
    EXPECT_EQ(tl.intervals(), ref.intervals());
    EXPECT_GT(tl.size(), 2 * 48u);  // several chunks
    EXPECT_GT(verdicts, 100);       // the verdict case is exercised
  }
}

TEST(Timeline, FilteredCopyMatchesFlatReferenceUnderChurn) {
  // The churn above, with a filtered copy every 300 steps: both stores
  // drop the intervals of one owner residue class (assign_filtered on the
  // chunked store, a filter of the flat list on the reference), and the
  // churn continues on the copies. The copies alternate between two
  // chunked timelines, so assign_filtered also reuses stale chunks.
  // Durations are positive: the flat reference orders a block behind a
  // zero-width interval at the same start, which the chunked store (and
  // every schedule) never produces.
  for (std::uint64_t seed : {3ull, 11ull, 2026ull}) {
    Rng rng(seed);
    Timeline buf[2];
    int cur = 0;
    FlatTimeline ref;
    std::vector<std::pair<std::int64_t, Time>> live;  // owner -> start
    std::int64_t next_owner = 0;
    for (int step = 1; step <= 3000; ++step) {
      Timeline& tl = buf[cur];
      const int op = static_cast<int>(rng.uniform_int(0, 9));
      if (op < 6 || live.empty()) {
        const Time ready = rng.uniform_int(0, 3000);
        const Cost dur = rng.uniform_int(1, 40);
        const Time at = tl.earliest_fit(ready, dur, true);
        ASSERT_EQ(at, ref.earliest_fit(ready, dur, true));
        tl.occupy(next_owner, at, dur);
        ref.occupy(next_owner, at, dur);
        live.emplace_back(next_owner++, at);
      } else if (op < 8) {
        const std::size_t i =
            static_cast<std::size_t>(rng.uniform_int(0, live.size() - 1));
        const auto [owner, start] = live[i];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        ASSERT_TRUE(tl.release(owner, start));
        ASSERT_TRUE(ref.release(owner));
      } else {
        const Time ready = rng.uniform_int(0, 4000);
        const Cost dur = rng.uniform_int(0, 60);
        ASSERT_EQ(tl.earliest_fit(ready, dur, true),
                  ref.earliest_fit(ready, dur, true));
        ASSERT_EQ(tl.earliest_fit(ready, dur, false),
                  ref.earliest_fit(ready, dur, false));
        ASSERT_EQ(tl.fits(ready, dur), ref.fits(ready, dur));
      }
      if (step % 300 == 0) {
        const std::int64_t drop = step / 300 % 3;
        const auto keep = [drop](std::int64_t owner) {
          return owner % 3 != drop;
        };
        buf[1 - cur].assign_filtered(tl, keep);
        cur = 1 - cur;
        const std::vector<Interval> all = ref.intervals();
        ref = FlatTimeline();
        for (const Interval& iv : all)
          if (keep(iv.owner)) ref.occupy(iv.owner, iv.start, iv.end - iv.start);
        std::erase_if(live, [&](const auto& e) { return !keep(e.first); });
        ASSERT_EQ(buf[cur].intervals(), ref.intervals()) << "step " << step;
        ASSERT_EQ(buf[cur].size(), ref.size());
        ASSERT_EQ(buf[cur].end_time(),
                  ref.size() == 0 ? 0 : ref.intervals().back().end);
      }
    }
    EXPECT_EQ(buf[cur].intervals(), ref.intervals());
  }
}

TEST(Timeline, ReleaseEverythingThenReuse) {
  Timeline tl;
  for (int i = 0; i < 200; ++i) tl.occupy(i, i * 5, 5);  // back-to-back
  for (int i = 0; i < 200; i += 2) EXPECT_TRUE(tl.release(i, i * 5));
  EXPECT_EQ(tl.size(), 100u);
  EXPECT_EQ(tl.earliest_fit(0, 5, true), 0);  // even slots are free again
  for (int i = 0; i < 200; i += 2) tl.occupy(1000 + i, i * 5, 5);
  EXPECT_EQ(tl.size(), 200u);
  EXPECT_EQ(tl.earliest_fit(0, 1, true), 1000);
  for (int i = 0; i < 200; ++i)
    EXPECT_TRUE(tl.release(i % 2 == 0 ? 1000 + i : i, i * 5));
  EXPECT_TRUE(tl.empty());
  EXPECT_EQ(tl.end_time(), 0);
  EXPECT_EQ(tl.earliest_fit(3, 10, true), 3);
}

TEST(Timeline, ZeroWidthIntervalsShareAStart) {
  // Zero-width intervals (defensive: TaskGraphBuilder forbids zero weights)
  // may share a start; insertion order at an equal start is newest-first
  // (what the flat store did), and they never block real blocks.
  Timeline tl;
  tl.occupy(1, 10, 5);
  tl.occupy(2, 10, 0);
  tl.occupy(3, 10, 0);
  const auto ivs = tl.intervals();
  ASSERT_EQ(ivs.size(), 3u);
  EXPECT_EQ(ivs[0].owner, 3);  // newest first at the shared start
  EXPECT_EQ(ivs[1].owner, 2);
  EXPECT_EQ(ivs[2].owner, 1);
  EXPECT_THROW(tl.occupy(4, 9, 2), std::logic_error);
  EXPECT_TRUE(tl.release(2, 10));
  EXPECT_TRUE(tl.release(1, 10));
  EXPECT_EQ(tl.earliest_fit(0, 100, true), 10);  // [10,10) doesn't block
}

TEST(Timeline, RealBlockAfterZeroWidthAtSameStart) {
  // A positive-duration block landing on a zero-width interval's start
  // must sort AFTER it (ends stay non-decreasing) and stay visible to
  // every query; this order is what keeps the chunked searches sound.
  Timeline tl;
  tl.occupy(1, 10, 0);
  tl.occupy(2, 10, 5);
  const auto ivs = tl.intervals();
  ASSERT_EQ(ivs.size(), 2u);
  EXPECT_EQ(ivs[0].owner, 1);  // zero-width first
  EXPECT_EQ(ivs[1].owner, 2);
  EXPECT_EQ(tl.earliest_fit(12, 3, true), 15);
  EXPECT_EQ(tl.earliest_fit(0, 3, true), 0);
  EXPECT_FALSE(tl.fits(12, 3));
  EXPECT_THROW(tl.occupy(3, 12, 1), std::logic_error);
  EXPECT_TRUE(tl.release(2, 10));
  EXPECT_EQ(tl.end_time(), 10);
}

}  // namespace
}  // namespace tgs
