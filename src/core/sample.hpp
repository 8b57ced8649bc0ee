// Frontier sampling operator — the paper's second Section-7 extension:
// "a 'sample' step that can take a random subsample of a frontier, which
// we can use to compute a rough or seeded solution that may allow faster
// convergence on a full graph."
//
// Deterministic given (seed, round): each frontier element is kept
// independently with probability `fraction` via a counter-based hash, so
// the sample is reproducible and cheap (one coalesced pass + compaction).
// Survivors are emitted through the two-phase count/scan/scatter assembler
// (simt::ChunkedOutput), so the output is in input order and byte-identical
// across host thread counts.
#pragma once

#include <cstdint>
#include <vector>

#include "core/frontier.hpp"
#include "simt/device.hpp"
#include "util/rng.hpp"

namespace grx {

struct SampleConfig {
  double fraction = 0.1;      ///< expected kept fraction, in (0, 1]
  std::uint64_t seed = 1;     ///< sampling stream seed
  std::uint32_t round = 0;    ///< vary per iteration for fresh samples
  std::size_t min_keep = 1;   ///< never return empty from a nonempty input
};

/// Samples `in` into `out`. Survivors keep their input order; if fewer than
/// `min_keep` survive, `out` is the first min(min_keep, |in|) elements of
/// `in`.
void frontier_sample(simt::Device& dev, const Frontier& in, Frontier& out,
                     const SampleConfig& cfg);

}  // namespace grx
