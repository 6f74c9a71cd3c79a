// Core scalar types shared by every tgs subsystem.
//
// Costs and times are 64-bit integers: the paper's benchmark generators draw
// integer weights (uniform, mean 40), and integer arithmetic keeps schedule
// validation exact -- two schedules are equal iff they are bit-identical.
#pragma once

#include <cstdint>
#include <limits>

namespace tgs {

/// Index of a task (node) inside a TaskGraph. Dense, 0-based.
using NodeId = std::uint32_t;

/// Index of a processor. Dense, 0-based; kNoProc marks "not yet placed".
using ProcId = std::int32_t;

/// Computation / communication weight.
using Cost = std::int64_t;

/// A point on the schedule time axis.
using Time = std::int64_t;

inline constexpr ProcId kNoProc = -1;

/// "Infinity" that survives a few additions without overflowing.
inline constexpr Time kTimeInf = std::numeric_limits<Time>::max() / 8;

inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

// Giant-graph tier invariants (v up to ~100k nodes). Path-length sums are
// O(v * max_weight): a 100k-node chain of mean-40 weights is ~4e6, but CCR
// sweeps scale edge costs by 10x and traced kernels emit weights O(v), so
// fingerprint-visible sums reach ~1e10 -- past 32-bit Time/Cost. The widths
// below are load-bearing; shrinking them is a silent-overflow regression
// (tests/test_generators_scale.cpp holds the runtime counterpart).
static_assert(sizeof(Time) == 8 && sizeof(Cost) == 8,
              "Time/Cost must be 64-bit: 100k-node path sums overflow 32");
static_assert(std::numeric_limits<Time>::max() >= (std::int64_t{1} << 62),
              "Time must cover ~1e18: kTimeInf arithmetic relies on it");
static_assert(std::numeric_limits<NodeId>::max() >= 100'000u,
              "NodeId must index 100k-node giant-tier graphs");
static_assert(kTimeInf > (std::int64_t{1} << 40),
              "kTimeInf must dominate any real giant-tier makespan");

// The cost domain: a graph's total weight plus total edge cost is at most
// kMaxGraphCost, enforced by TaskGraphBuilder::finalize. Every time a
// scheduler forms is a sum along one chain of tasks and messages, so it
// stays below this total times the route length of a message; 2^48 leaves
// 2^12 of headroom under kTimeInf (2^60 - 1) for multi-hop routes and for
// adding two such times. Products of two costs (MD's mobility, LAST's
// D_NODE) are formed in __int128. The bound admits the giant tier's ~1e10
// sums and the ~2^33-per-node weights of the scaling tests with room left.
inline constexpr Cost kMaxGraphCost = Cost{1} << 48;
static_assert((kMaxGraphCost << 12) - 1 <= kTimeInf,
              "kMaxGraphCost must leave route-length headroom under kTimeInf");
static_assert(kMaxGraphCost > Cost{10'000'000'000} * 1000,
              "kMaxGraphCost must admit giant-tier sums with headroom");

}  // namespace tgs
