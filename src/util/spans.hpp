#pragma once

/// \file spans.hpp
/// Deterministic contiguous partitioning of an index range into work
/// spans. The sharded sweeps queue their spans on a worker pool (the flow
/// engine four per worker, the flag scan one per worker); because the cut
/// points are a pure function of (weights, parts) — never of thread
/// timing — the same inputs always produce the same plan, which is one of
/// the two legs the sharded flow engine's jobs-invariance stands on (the
/// other being the canonical-order contribution merge).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ddp::util {

struct IndexSpan {
  std::size_t begin = 0;
  std::size_t end = 0;  ///< exclusive
  std::size_t size() const noexcept { return end - begin; }
};

/// Split [0, n) into at most `parts` non-empty contiguous spans of
/// near-equal length, in order. Fewer than `parts` spans come back when
/// n < parts; n == 0 yields no spans.
std::vector<IndexSpan> make_spans(std::size_t n, std::size_t parts);

/// Split [0, weights.size()) into at most `parts` non-empty contiguous
/// spans of near-equal total weight: span k ends at the first index whose
/// running weight reaches total * (k+1) / parts. Zero-weight items ride
/// along with their neighbours; an all-zero weight vector degrades to
/// make_spans. This is the flow engine's shard-assignment policy: spans
/// are contiguous in index (peers keep their slot spans together) and
/// balanced by per-index cost.
std::vector<IndexSpan> make_weighted_spans(std::span<const std::uint64_t> weights,
                                           std::size_t parts);

}  // namespace ddp::util
