#pragma once

#include <cstdint>
#include <vector>

#include "hpcgpt/race/trace.hpp"

namespace hpcgpt::race {

/// Knobs of the happens-before engine. Each dynamic tool instantiates the
/// engine with a profile reproducing its characteristic inaccuracies:
///
///  * ThreadSanitizer: exact (all defaults);
///  * Intel Inspector: coarse shadow granularity (false sharing at chunk
///    boundaries → false positives) and barrier-blindness;
///  * ROMP: exact ordering but no atomic awareness (its OMPT callbacks for
///    atomics were incomplete → false positives on atomic-protected data).
struct HbOptions {
  /// Barrier events create happens-before edges when true.
  bool respect_barriers = true;
  /// Atomic per-address locks create edges when true.
  bool respect_atomics = true;
  /// Shadow-memory cell width in elements; accesses to distinct addresses
  /// in the same cell are treated as conflicting (1 = exact).
  std::uint64_t shadow_granularity = 1;
};

/// Runs FastTrack-style vector-clock race detection over `trace`.
/// Returns one report per distinct racy variable (first pair found).
std::vector<RaceReport> analyze_trace(const Trace& trace,
                                      const HbOptions& options = {});

}  // namespace hpcgpt::race
