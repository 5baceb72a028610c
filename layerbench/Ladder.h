//===- Ladder.h - Traced re-runs of a cell at growing stack depth -*- C++ -*-===//
//
// Part of the miniperf project, a reproduction of "Dissecting RISC-V
// Performance" (PACT 2025). See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run re-runs every cell at growing stack depth. Each rung
/// is a span recorded here, around calls into one module's public API:
///
///   vm        vm::Instance::run, no consumers
///   hw        + hw::CoreModel as retire consumer, no event sink
///   pmu       miniperf::Session::profile, Sampling=false
///   sampling  Session::profile with the cell's options (sampling on)
///   cluster   miniperf::ClusterSession::profile (cluster cells; the
///             rungs below it run each core as a single hart)
///   roofline  roofline::TwoPhaseDriver::analyze (Roofline cells; vm and
///             hw run both phases)
///   static_cost, analysis.<name>   analysis::computeStaticCost and each
///             miniperf Analysis::run on the sampling rung's profile
///   cell      the cell as a timed pass runs it, untraced; its
///             SweepReport::toJson is the "serialize" rung inside it
///   cell.traced  the same with support/Trace recording, so the driver's
///             own spans (scenario.exec, report.serialize, ...) land in
///             the same trace
///
/// A layer's time is its rung's marginal time over the rung below;
/// "other" is what the top rung spends beyond all layers.
///
//===----------------------------------------------------------------------===//

#ifndef LAYERBENCH_LADDER_H
#define LAYERBENCH_LADDER_H

#include "Cells.h"

namespace layerbench {

/// One recorded span. Times are support/Trace's clock (ns since its
/// epoch), so rung spans and the library's spans share one timeline.
struct Span {
  std::string Name;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int Id = 0;
  int Parent = -1; // -1: a cell's root span
  int CellId = 0;  // one id per cell of the workload
};

/// The spans of one traced run, kept in memory until the run ends.
class SpanLog {
public:
  int open(std::string Name, int Parent, int CellId);
  void close(int Id);
  const std::vector<Span> &spans() const { return Spans; }
  /// One Chrome trace_event document holding these spans and the events
  /// of \p TracerJson (a support/Trace export).
  std::string toChromeJson(const std::string &TracerJson) const;

private:
  std::vector<Span> Spans;
};

/// One climb of a cell's ladder.
struct Climb {
  bool Failed = false;
  std::string Error;
  /// Host seconds per rung name.
  std::map<std::string, double> Rungs;
  /// Process CPU seconds across the cluster rung.
  double ClusterCpuSeconds = 0;
  /// The top rung's values, checked like a timed pass's.
  Values Vals;
  /// Roofline cells: the hw rung's cache and branch statistics.
  Values HwCounts;
};

/// Climbs \p C's ladder once, recording spans under cell id \p CellId.
Climb climb(const Cell &C, SpanLog &Log, int CellId);

/// Names of the layers, in table order; their times sum to the top rung.
const std::vector<std::string> &layerNames();

/// Host seconds per layer of \p C from its rung times; "other" is the
/// top rung minus every other layer.
std::map<std::string, double> layerSeconds(const Cell &C,
                                           const std::map<std::string, double>
                                               &Rungs);

} // namespace layerbench

#endif // LAYERBENCH_LADDER_H
