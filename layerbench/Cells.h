//===- Cells.h - Workloads, cells and output checks of the layered bench -===//
//
// Part of the miniperf project, a reproduction of "Dissecting RISC-V
// Performance" (PACT 2025). See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's three workloads, each a fixed list of cells:
///
///   profile-hart       {sqlite, matmul, triad, memset, peakflops} x
///                      {x60, c910, u74}, sampling on, every analysis,
///                      through driver::SweepRunner::run.
///   profile-cluster    {matmul, triad, memset} on x60x2, through
///                      SweepRunner::run (a ClusterSession per cell).
///   roofline-twophase  vectorized matmul and scalar triad on x60 and
///                      c910: TwoPhaseDriver::analyze, then
///                      computeStaticCost on the same program.
///
/// Set-up compiles every program (ProgramCache::compile, and the
/// vectorize + instrument passes of the Roofline cells) before the first
/// timed pass, so a timed pass only executes. Every cell yields a set of
/// named values; the checks compare them across passes, against a plain
/// reference run of the same program, against the program's own output
/// (sqlite's host-side match count, matmul's verify) and against the
/// values recorded in expected.json.
///
//===----------------------------------------------------------------------===//

#ifndef LAYERBENCH_CELLS_H
#define LAYERBENCH_CELLS_H

#include "driver/Scenario.h"
#include "hw/CoreModel.h"
#include "support/Error.h"
#include "support/JSON.h"
#include "transform/RooflineInstrumenter.h"

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace layerbench {

using namespace mperf;

/// Scale of every cell (driver::standardWorkloads' --scale knob). The
/// benchmark measures scale 1; layerbench's --scale sets another before
/// any set-up, for by-hand comparisons. expected.json holds scale-1
/// values only.
inline unsigned Scale = 1;
/// Sample period of the profiling cells (the CI sweep's default).
constexpr uint64_t SamplePeriod = 20000;

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Process user+sys CPU seconds, all threads.
double cpuSeconds();

/// The workload names, in presentation order.
const std::vector<std::string> &workloadNames();

enum class CellKind { Hart, Cluster, Roofline };

/// Named values one cell produced (counts, ratios, simulated times).
using Values = std::map<std::string, double>;

/// One cell of a workload's list.
struct Cell {
  std::string Name; // "matmul@x60", "triad@x60x2", ...
  std::string Key;  // "<workload>/<name>", its key in expected.json
  CellKind Kind = CellKind::Hart;
  /// Hart and cluster cells: the sweep scenario. Its workload hands out
  /// the program compiled at set-up, so SweepRunner's build step is a
  /// lookup.
  driver::Scenario Scen;
  /// The compiled program, its entry, arguments and input set-up hook.
  /// Roofline cells own an instrumented copy here for computeStaticCost
  /// and the reference runs.
  std::shared_ptr<const driver::CompiledWorkload> Work;
  /// Roofline cells: the platform, the instrumented module the
  /// TwoPhaseDriver analyzes, and its instrumented loops.
  hw::Platform Platform;
  std::unique_ptr<ir::Module> Instrumented;
  std::vector<transform::InstrumentedLoop> Loops;
  /// Checks the program's result in an Instance that ran it; returns ""
  /// when the result is right.
  std::function<std::string(vm::Instance &)> CheckOutput;
  /// Roofline cells: the kernel's FLOP count. Scalar loops report it
  /// exactly; vectorized ones add only their horizontal reductions, less
  /// than half again.
  uint64_t KernelFlops = 0;

  unsigned numCores() const {
    return Kind == CellKind::Cluster ? Scen.Cluster.numCores() : 1;
  }
  const hw::Platform &platform() const {
    return Kind == CellKind::Roofline ? Platform : Scen.Platform;
  }
};

/// A workload after set-up.
struct Workload {
  std::string Name;
  std::vector<Cell> Cells;
  /// Host seconds in ProgramCache::compile, summed over the programs.
  double BuildSeconds = 0;
  /// Host seconds in PassManager::run, summed over the Roofline cells.
  double PassSeconds = 0;
};

/// Builds workload \p Name with the inputs of \p Seed: seed 0 is the
/// standard inputs of driver::standardWorkloads; any other seed is fed
/// to the sqlite and matmul input generators.
Expected<Workload> setUp(const std::string &Name, uint64_t Seed);

/// One execution of a cell as a timed pass runs it.
struct CellRun {
  bool Failed = false;
  std::string Error;
  Values Vals;
  /// Host wall seconds of the whole cell, and of its SweepReport::toJson.
  double Seconds = 0;
  double SerializeSeconds = 0;
};

/// Runs \p C once: SweepRunner::run + SweepReport::toJson for hart and
/// cluster cells, TwoPhaseDriver::analyze + computeStaticCost for
/// Roofline cells.
CellRun runCell(const Cell &C);

/// Runs \p C's program once on one core of \p P with no PMU: with no
/// timing model when \p Core is null, else with \p Core as the retire
/// consumer. Roofline cells run phase \p Instrumented with their
/// runtime bound. \p Check also checks the program's output.
Expected<vm::RunStats> runProgram(const Cell &C, const hw::Platform &P,
                                  bool Instrumented, hw::CoreModel *Core,
                                  bool Check);

/// Runs \p C's program on one core (Roofline cells: both phases) and
/// checks its output. Returns the architectural values ("ref.*").
Expected<Values> referenceRun(const Cell &C);

/// Compares a cell's values with its reference run; returns mismatches.
std::vector<std::string> crossCheck(const Cell &C, const Values &Run,
                                    const Values &Ref);

/// Retired IR ops of one execution of \p C: the run's own count, or the
/// reference run's for Roofline cells.
uint64_t cellOps(const Cell &C, const Values &Vals);

/// The values recorded when the benchmark landed (expected.json).
class Expectations {
public:
  /// Loads \p Path; an empty path checks nothing.
  static Expected<Expectations> load(const std::string &Path);

  /// Mismatches of \p Vals against the recorded values of cell \p Key
  /// ("<workload>/<cell>") at \p Seed. Keys recorded identical on every
  /// recorded seed apply to any seed; the others only to their seed.
  std::vector<std::string> check(const std::string &Key, uint64_t Seed,
                                 const Values &Vals) const;

private:
  bool Enabled = false;
  JsonValue Doc = JsonValue::makeNull();
};

} // namespace layerbench

#endif // LAYERBENCH_CELLS_H
