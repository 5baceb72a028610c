//===- main.cpp - Layered end-to-end benchmark of the miniperf stack -----===//
//
// Part of the miniperf project, a reproduction of "Dissecting RISC-V
// Performance" (PACT 2025). See README.md for details.
//
// Usage:
//   layerbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//              [--trace-out FILE] [--expected FILE] [--scale N]
//   layerbench --smoke [--seed N] [--expected FILE] [--dump-values FILE]
//
// --trace 0 measures the end-to-end metrics: set-up 31 times, one warm-up
// pass, then back-to-back passes over the workload's cells (a closed
// loop, one client) for S seconds: no pass starts that would end after
// S seconds, judged by the pass before it. --trace 1 climbs every cell's
// ladder (Ladder.h) the same way and reports the per-layer metrics.
// Either way the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --smoke runs one pass and one ladder climb of every workload with all
// output checks, for the self-test. --scale N runs the cells at another
// scale than the benchmark's 1, for by-hand comparisons; it needs
// --expected "" because expected.json holds scale-1 values.
//
//===----------------------------------------------------------------------===//

#include "Cells.h"
#include "Ladder.h"

#include "miniperf/Analysis.h"
#include "support/Format.h"
#include "support/Table.h"
#include "support/Trace.h"
#include "vm/LowerCheck.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sys/resource.h>
#include <thread>

using namespace layerbench;

namespace {

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/// Linear-interpolated quantile \p Q of \p V (0 when empty).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// Full-precision JSON number.
std::string num(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  bool Smoke = false;
  std::string TraceOut;
  std::string ExpectedPath = LAYERBENCH_EXPECTED;
  std::string DumpValues;
};

/// Set-ups per run; setup_s is their median.
constexpr unsigned SetupReps = 31;

[[noreturn]] void usage(const std::string &Why) {
  std::fprintf(stderr,
               "layerbench: %s\n"
               "usage: layerbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out FILE]\n"
               "                  [--expected FILE] [--scale N]\n"
               "       layerbench --smoke [--seed N] [--expected FILE] "
               "[--dump-values FILE]\n"
               "workloads: profile-hart, profile-cluster, "
               "roofline-twophase\n",
               Why.c_str());
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage("missing value for " + Arg);
      return Argv[++I];
    };
    try {
      if (Arg == "--workload")
        O.Workload = Value();
      else if (Arg == "--seed")
        O.Seed = std::stoull(Value());
      else if (Arg == "--seconds")
        O.Seconds = std::stod(Value());
      else if (Arg == "--trace")
        O.Trace = Value() != "0";
      else if (Arg == "--trace-out")
        O.TraceOut = Value();
      else if (Arg == "--expected")
        O.ExpectedPath = Value();
      else if (Arg == "--scale")
        Scale = static_cast<unsigned>(std::stoul(Value()));
      else if (Arg == "--dump-values")
        O.DumpValues = Value();
      else if (Arg == "--smoke")
        O.Smoke = true;
      else
        usage("unknown argument " + Arg);
    } catch (const std::exception &) {
      usage("bad value for " + Arg);
    }
  }
  if (!O.Smoke && O.Workload.empty())
    usage("--workload is required");
  if (Scale == 0)
    usage("--scale must be at least 1");
  return O;
}

/// What the run measured: the machine, the build and the overrides that
/// would make it measure a different program.
struct Fingerprint {
  unsigned Nproc = std::thread::hardware_concurrency();
  std::string Compiler = __VERSION__;
  std::string BuildType = LAYERBENCH_BUILD_TYPE;
  bool Verify = vm::lowerCheckEnabled();
  std::vector<std::string> Problems;

  Fingerprint() {
    for (const char *Var : {"MPERF_EXEC_ENGINE", "MPERF_TIMING_TIER"})
      if (const char *V = std::getenv(Var))
        Problems.push_back(std::string(Var) + "=" + V +
                           " overrides the default");
    if (BuildType != "Release")
      Problems.push_back("build type is '" + BuildType + "', not Release");
  }
  bool valid() const { return Problems.empty(); }

  void print() const {
    std::printf("fingerprint: nproc=%u compiler=\"%s\" build=%s "
                "MPERF_VERIFY=%s valid=%s\n",
                Nproc, Compiler.c_str(), BuildType.c_str(),
                Verify ? "on" : "off", valid() ? "yes" : "no");
    for (const std::string &P : Problems)
      std::printf("fingerprint: invalid run: %s\n", P.c_str());
  }
};

/// Per-cell outcome of a run: every attempt must reproduce the first
/// attempt's values, and the cell's reference run and recorded values
/// must agree with them.
struct Ledger {
  Values First;
  bool HaveFirst = false;
  uint64_t Attempts = 0;
  uint64_t FailedAttempts = 0;
  std::vector<std::string> Problems;
  Values Merged; // First plus the reference run's values

  void note(bool Failed, const std::string &Error, const Values &Vals) {
    ++Attempts;
    if (Failed) {
      ++FailedAttempts;
      Problems.push_back(Error);
      return;
    }
    if (!HaveFirst) {
      First = Vals;
      HaveFirst = true;
      return;
    }
    if (Vals != First) {
      ++FailedAttempts;
      Problems.push_back("values changed between passes");
    }
  }
};

struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Runs the reference checks of every cell and folds each ledger into
/// attempted/failed counts: a cell whose checks fail fails every attempt.
Outcome settle(const Workload &W, std::vector<Ledger> &Ledgers,
               const Expectations &Expect, uint64_t Seed) {
  Outcome O;
  for (size_t I = 0; I != W.Cells.size(); ++I) {
    const Cell &C = W.Cells[I];
    Ledger &L = Ledgers[I];
    bool Bad = !L.HaveFirst;
    if (L.HaveFirst) {
      auto RefOr = referenceRun(C);
      if (!RefOr) {
        L.Problems.push_back(RefOr.errorMessage());
        Bad = true;
      } else {
        L.Merged = L.First;
        L.Merged.insert(RefOr->begin(), RefOr->end());
        std::vector<std::string> P = crossCheck(C, L.First, *RefOr);
        std::vector<std::string> E =
            Expect.check(C.Key, Seed, L.Merged);
        P.insert(P.end(), E.begin(), E.end());
        Bad = !P.empty();
        L.Problems.insert(L.Problems.end(), P.begin(), P.end());
      }
    }
    for (const std::string &P : L.Problems)
      std::fprintf(stderr, "layerbench: %s: %s\n", C.Key.c_str(), P.c_str());
    O.Attempted += L.Attempts;
    O.Failed += Bad ? L.Attempts : L.FailedAttempts;
  }
  return O;
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

void printResult(bool Correct, const Outcome &O,
                 const std::vector<Metric> &Ms) {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(O.Attempted);
  Out += ", \"failed\": " + std::to_string(O.Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I != Ms.size(); ++I) {
    if (I)
      Out += ", ";
    Out += "\"" + Ms[I].Name + "\": {\"value\": " + num(Ms[I].Value) +
           ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

/// Median seconds of the whole set-up, its builds and its passes.
struct SetupTimes {
  double Total = 0, Build = 0, Pass = 0;
};

/// Sets the workload up SetupReps times; returns the last set-up.
Expected<Workload> setUpMedian(const Options &O, SetupTimes &T) {
  std::vector<double> Total, Build, Pass;
  Expected<Workload> WOr = makeError<Workload>("no set-up ran");
  for (unsigned I = 0; I != SetupReps; ++I) {
    const Clock::time_point T0 = Clock::now();
    WOr = setUp(O.Workload, O.Seed);
    Total.push_back(secondsSince(T0));
    if (!WOr)
      return WOr;
    Build.push_back(WOr->BuildSeconds);
    Pass.push_back(WOr->PassSeconds);
  }
  T.Total = median(Total);
  T.Build = median(Build);
  T.Pass = median(Pass);
  return WOr;
}

//===----------------------------------------------------------------------===//
// --trace 0: end-to-end metrics
//===----------------------------------------------------------------------===//

int runUntraced(const Options &O, const Fingerprint &FP,
                const Expectations &Expect) {
  SetupTimes ST;
  auto WOr = setUpMedian(O, ST);
  if (!WOr) {
    std::fprintf(stderr, "layerbench: set-up failed: %s\n",
                 WOr.errorMessage().c_str());
    return 1;
  }
  const Workload &W = *WOr;
  std::vector<Ledger> Ledgers(W.Cells.size());

  // Warm-up pass: fills host caches and allocator pools; checked, not
  // timed.
  for (size_t I = 0; I != W.Cells.size(); ++I) {
    CellRun R = runCell(W.Cells[I]);
    Ledgers[I].note(R.Failed, R.Error, R.Vals);
  }

  // Timed passes: whole passes over the fixed cell list, back to back,
  // while the next one fits the budget. Each pass keeps its wall and CPU
  // seconds, each cell its seconds; ops are attached after the reference
  // runs.
  std::vector<std::vector<double>> CellSeconds(W.Cells.size());
  std::vector<double> PassWall, PassCpu;
  const Clock::time_point T0 = Clock::now();
  do {
    const double Cpu0 = cpuSeconds();
    const Clock::time_point P0 = Clock::now();
    for (size_t I = 0; I != W.Cells.size(); ++I) {
      CellRun R = runCell(W.Cells[I]);
      Ledgers[I].note(R.Failed, R.Error, R.Vals);
      CellSeconds[I].push_back(R.Seconds);
    }
    PassWall.push_back(secondsSince(P0));
    PassCpu.push_back(cpuSeconds() - Cpu0);
  } while (secondsSince(T0) + PassWall.back() <= O.Seconds);

  Outcome Out = settle(W, Ledgers, Expect, O.Seed);

  // Every pass retires the same ops: the simulation is deterministic.
  double PassOps = 0;
  std::vector<double> NsPerOp;
  for (size_t I = 0; I != W.Cells.size(); ++I) {
    const double CellOps =
        static_cast<double>(cellOps(W.Cells[I], Ledgers[I].Merged));
    PassOps += CellOps;
    if (CellOps <= 0)
      continue;
    std::vector<double> Cell;
    for (double S : CellSeconds[I])
      Cell.push_back(S * 1e9 / CellOps);
    std::printf("cell %-18s %12.0f ops, median %.1f ns/op\n",
                W.Cells[I].Name.c_str(), CellOps, median(Cell));
    NsPerOp.insert(NsPerOp.end(), Cell.begin(), Cell.end());
  }
  // Throughput and CPU per op over the whole timed span, not per pass:
  // the host's speed drifts over seconds, and a ratio of totals moves in
  // proportion to the time spent at each speed, where a median of passes
  // jumps from one speed to the other.
  double Wall = 0, Cpu = 0;
  for (size_t P = 0; P != PassWall.size(); ++P) {
    Wall += PassWall[P];
    Cpu += PassCpu[P];
    std::printf("pass %zu: %.3f s wall, %.3f s cpu, %.3f Mops/s\n", P + 1,
                PassWall[P], PassCpu[P], PassOps / PassWall[P] / 1e6);
  }
  const double RunOps = PassOps * static_cast<double>(PassWall.size());
  const size_t N = NsPerOp.size();
  const double FailRatio =
      Out.Attempted ? static_cast<double>(Out.Failed) / Out.Attempted : 1;
  // The tail: p90, or the highest percentile with at least ten samples
  // beyond it when the run has fewer than a hundred samples.
  const double TailQ =
      std::min(0.9, N > 10 ? 1.0 - 10.0 / static_cast<double>(N) : 0.5);

  std::printf("workload %s, seed %llu: %zu timed pass(es) of %zu cells, "
              "%.0f ops each\n",
              W.Name.c_str(), static_cast<unsigned long long>(O.Seed),
              PassWall.size(), W.Cells.size(), PassOps);
  std::printf("cell_ns_per_op over %zu samples: p50 %.1f; tail (reported "
              "as p90) is p%.1f = %.1f; p90 itself %.1f\n",
              N, quantile(NsPerOp, 0.5), TailQ * 100,
              quantile(NsPerOp, TailQ), quantile(NsPerOp, 0.9));
  std::printf("fail_ratio %.4f (%llu of %llu cells)\n", FailRatio,
              static_cast<unsigned long long>(Out.Failed),
              static_cast<unsigned long long>(Out.Attempted));

  std::vector<Metric> Ms = {
      {"sim_mops_per_s", RunOps / Wall / 1e6, "Mops/s"},
      {"cell_ns_per_op.p50", quantile(NsPerOp, 0.5), "ns/op"},
      {"cell_ns_per_op.p90", quantile(NsPerOp, TailQ), "ns/op"},
      {"cpu_ns_per_op", RunOps > 0 ? Cpu * 1e9 / RunOps : 0, "ns/op"},
      {"peak_rss_mb", peakRssMb(), "MB"},
      {"setup_s", ST.Total, "s"},
  };
  for (const Metric &M : Ms)
    std::printf("%-20s %14.4f %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  printResult(Out.Failed == 0 && FP.valid(), Out, Ms);
  return 0;
}

//===----------------------------------------------------------------------===//
// --trace 1: per-layer metrics
//===----------------------------------------------------------------------===//

int runTraced(const Options &O, const Fingerprint &FP,
              const Expectations &Expect) {
  SetupTimes ST;
  auto WOr = setUpMedian(O, ST);
  if (!WOr) {
    std::fprintf(stderr, "layerbench: set-up failed: %s\n",
                 WOr.errorMessage().c_str());
    return 1;
  }
  Workload &W = *WOr;
  // profile-cluster is not a gated workload: its wall time follows the
  // host's vCPU wake-up latency (README). Its cells are climbed here as
  // probes, so the cluster layers are still measured. They feed only the
  // cluster.* metrics; every other metric covers the workload's own
  // cells, the ones its untraced run measures.
  const size_t NOwn = W.Cells.size();
  if (W.Name == "profile-hart") {
    auto ProbesOr = setUp("profile-cluster", O.Seed);
    if (!ProbesOr) {
      std::fprintf(stderr, "layerbench: set-up failed: %s\n",
                   ProbesOr.errorMessage().c_str());
      return 1;
    }
    for (Cell &C : ProbesOr->Cells)
      W.Cells.push_back(std::move(C));
  }
  const size_t NC = W.Cells.size();
  std::vector<Ledger> Ledgers(NC);
  std::vector<std::vector<Climb>> Climbs(NC);
  SpanLog Log;

  unsigned Passes = 0;
  double LastPass = 0;
  const Clock::time_point T0 = Clock::now();
  do {
    const Clock::time_point P0 = Clock::now();
    for (size_t I = 0; I != NC; ++I) {
      Climb Cl = climb(W.Cells[I], Log, static_cast<int>(I));
      Ledgers[I].note(Cl.Failed, Cl.Error, Cl.Vals);
      Climbs[I].push_back(std::move(Cl));
    }
    ++Passes;
    LastPass = secondsSince(P0);
  } while (secondsSince(T0) + LastPass <= O.Seconds);

  Outcome Out = settle(W, Ledgers, Expect, O.Seed);

  // Median rung times per cell, then layer seconds from the medians.
  std::vector<std::map<std::string, double>> Rungs(NC), Layers(NC);
  std::vector<double> CellOps(NC);
  // Summed over the own cells, and over the probe cells.
  std::map<std::string, double> Sum, ProbeSum;
  std::map<CellKind, double> KindOps, KindCells;
  double Ops = 0, ProbeOps = 0;
  double ClusterCpu = 0, ClusterWall = 0, ClusterLayer = 0, ClusterOps = 0;
  for (size_t I = 0; I != NC; ++I) {
    std::map<std::string, std::vector<double>> ByRung;
    std::vector<double> Cpu;
    for (const Climb &Cl : Climbs[I]) {
      if (Cl.Failed)
        continue;
      for (const auto &[Name, Sec] : Cl.Rungs)
        ByRung[Name].push_back(Sec);
      Cpu.push_back(Cl.ClusterCpuSeconds);
    }
    for (const auto &[Name, Secs] : ByRung)
      Rungs[I][Name] = median(Secs);
    Layers[I] = layerSeconds(W.Cells[I], Rungs[I]);
    CellOps[I] = static_cast<double>(cellOps(W.Cells[I], Ledgers[I].Merged));
    const bool Own = I < NOwn;
    (Own ? Ops : ProbeOps) += CellOps[I];
    if (Own) {
      KindOps[W.Cells[I].Kind] += CellOps[I];
      KindCells[W.Cells[I].Kind] += 1;
    }
    std::map<std::string, double> &S = Own ? Sum : ProbeSum;
    for (const auto &[Name, Sec] : Layers[I])
      S["layer." + Name] += Sec;
    for (const auto &[Name, Sec] : Rungs[I])
      S["rung." + Name] += Sec;
    if (W.Cells[I].Kind == CellKind::Cluster) {
      ClusterCpu += median(Cpu);
      ClusterWall += Rungs[I]["cluster"];
      ClusterLayer += Layers[I]["cluster"];
      ClusterOps += CellOps[I];
    }
  }

  // The per-cell layer table: shares of the top rung, summing to 100%.
  TextTable T("layer shares of each cell's top rung (medians of " +
              std::to_string(Passes) + " climb(s))");
  std::vector<std::string> Head = {"cell", "ops", "top ms"};
  for (const std::string &L : layerNames())
    Head.push_back(L);
  Head.push_back("traced/untraced");
  T.addHeader(Head);
  auto AddRow = [&](const std::string &Name, double CellOpsN,
                    const std::map<std::string, double> &Rung,
                    const std::map<std::string, double> &Layer,
                    const std::string &Prefix) {
    const double Top = Rung.count(Prefix + "cell") ? Rung.at(Prefix + "cell")
                                                   : 0;
    std::vector<std::string> Row = {Name, withCommas(static_cast<uint64_t>(
                                              CellOpsN)),
                                    fixed(Top * 1e3, 1)};
    for (const std::string &L : layerNames()) {
      const double S = Layer.at(Prefix + L);
      Row.push_back(Top > 0 ? fixed(100 * S / Top, 1) + "%" : "-");
    }
    const double Traced = Rung.count(Prefix + "cell.traced")
                              ? Rung.at(Prefix + "cell.traced")
                              : 0;
    Row.push_back(Top > 0 ? fixed(Traced / Top, 3) : "-");
    T.addRow(Row);
  };
  for (size_t I = 0; I != NC; ++I)
    AddRow(W.Cells[I].Name, CellOps[I], Rungs[I], Layers[I], "");
  auto AddSumRow = [&](const std::string &Name, double SumOps,
                       const std::map<std::string, double> &S) {
    std::map<std::string, double> SumRungs, SumLayers;
    for (const auto &[Key, Sec] : S) {
      if (Key.rfind("rung.", 0) == 0)
        SumRungs[Key.substr(5)] = Sec;
      else
        SumLayers[Key.substr(6)] = Sec;
    }
    AddRow(Name, SumOps, SumRungs, SumLayers, "");
  };
  AddSumRow("all " + W.Name, Ops, Sum);
  if (NOwn != NC)
    AddSumRow("all probes", ProbeOps, ProbeSum);
  std::printf("workload %s, seed %llu\n%s", W.Name.c_str(),
              static_cast<unsigned long long>(O.Seed), T.render().c_str());

  // Per-layer metrics: each layer's time over the ops, or the number, of
  // the own cells that run it; 0 when no own cell does.
  using K = CellKind;
  auto Over = [&](const std::map<CellKind, double> &Base,
                  std::initializer_list<CellKind> Kinds) {
    double B = 0;
    for (CellKind Kd : Kinds)
      B += Base.count(Kd) ? Base.at(Kd) : 0;
    return B;
  };
  auto NsPerOp = [&](const std::string &Key,
                     std::initializer_list<CellKind> Kinds) {
    const double B = Over(KindOps, Kinds);
    return B > 0 ? Sum[Key] * 1e9 / B : 0;
  };
  auto PerCell = [&](const std::string &Key,
                     std::initializer_list<CellKind> Kinds) {
    const double B = Over(KindCells, Kinds);
    return B > 0 ? Sum[Key] / B : 0;
  };
  const auto All = {K::Hart, K::Cluster, K::Roofline};
  const auto Profiled = {K::Hart, K::Cluster};
  std::vector<Metric> Ms = {
      {"cell.ns_per_op", NsPerOp("rung.cell", All), "ns/op"},
      {"vm.ns_per_op", NsPerOp("layer.vm", All), "ns/op"},
      {"hw.ns_per_op", NsPerOp("layer.hw", All), "ns/op"},
      {"pmu.ns_per_op", NsPerOp("layer.pmu", Profiled), "ns/op"},
      {"sampling.ns_per_op", NsPerOp("layer.sampling", Profiled), "ns/op"},
      {"cluster.overhead_ns_per_op",
       ClusterOps > 0 ? ClusterLayer * 1e9 / ClusterOps : 0, "ns/op"},
      {"cluster.cpu_wall_ratio",
       ClusterWall > 0 ? ClusterCpu / ClusterWall : 0, "ratio"},
      {"roofline.runtime_ns_per_op",
       NsPerOp("layer.roofline", {K::Roofline}), "ns/op"},
      {"other.ns_per_op", NsPerOp("layer.other", All), "ns/op"},
      {"analysis.static_cost_s",
       PerCell("rung.static_cost", {K::Hart, K::Roofline}), "s"},
  };
  for (const miniperf::Analysis *A :
       miniperf::AnalysisRegistry::builtins().all())
    Ms.push_back({"miniperf.analysis." + A->name() + "_s",
                  PerCell("rung.analysis." + A->name(), Profiled), "s"});
  Ms.push_back({"driver.build_s", ST.Build, "s"});
  Ms.push_back({"transform.pass_s", ST.Pass, "s"});
  Ms.push_back({"driver.serialize_s", PerCell("rung.serialize", Profiled),
                "s"});
  Ms.push_back({"trace.overhead_ratio",
                Sum["rung.cell"] > 0
                    ? Sum["rung.cell.traced"] / Sum["rung.cell"]
                    : 0,
                "ratio"});

  // Deterministic counts, each over its base; the probes give only the
  // shared L2's.
  Values C;
  for (size_t I = 0; I != NC; ++I) {
    const Cell &Cl = W.Cells[I];
    const Values &V = Ledgers[I].Merged;
    auto Get = [&V](const std::string &K) {
      auto It = V.find(K);
      return It == V.end() ? 0.0 : It->second;
    };
    for (const char *K : {"shared_l2_hits", "shared_l2_misses"})
      C[K] += Get(K);
    if (I >= NOwn)
      continue;
    const Values *Hw = &V;
    if (Cl.Kind == CellKind::Roofline && !Climbs[I].empty())
      Hw = &Climbs[I].front().HwCounts;
    for (const char *K : {"l1_hits", "l1_misses", "dram_bytes", "mispredicts"})
      C[K] += Hw->count(K) ? Hw->at(K) : 0;
    for (const char *K : {"interrupts", "sbi_ecalls", "samples",
                          "baseline_cycles", "instrumented_cycles"})
      C[K] += Get(K);
    C["counters"] += Get("counters");
  }
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0; };
  Ms.push_back({"ops", Ops, "count"});
  Ms.push_back({"hw.l1_hit_ratio",
                Ratio(C["l1_hits"], C["l1_hits"] + C["l1_misses"]),
                "ratio"});
  Ms.push_back({"hw.dram_bytes_per_op", Ratio(C["dram_bytes"], Ops), "B/op"});
  Ms.push_back({"hw.mispredict_ratio", Ratio(C["mispredicts"], Ops), "1/op"});
  Ms.push_back({"pmu.armed_counters",
                Ratio(C["counters"], Over(KindCells, Profiled)), "count"});
  Ms.push_back({"kernel.interrupts", C["interrupts"], "count"});
  Ms.push_back({"sbi.ecalls", C["sbi_ecalls"], "count"});
  Ms.push_back({"samples", C["samples"], "count"});
  Ms.push_back({"cluster.shared_l2_hit_ratio",
                Ratio(C["shared_l2_hits"],
                      C["shared_l2_hits"] + C["shared_l2_misses"]),
                "ratio"});
  Ms.push_back({"roofline.overhead_ratio",
                Ratio(C["instrumented_cycles"], C["baseline_cycles"]),
                "ratio"});
  for (const Metric &M : Ms)
    std::printf("%-36s %16.6g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());

  if (!O.TraceOut.empty()) {
    std::ofstream F(O.TraceOut);
    F << Log.toChromeJson(trace::Tracer::instance().toChromeJson());
    if (!F) {
      std::fprintf(stderr, "layerbench: cannot write %s\n",
                   O.TraceOut.c_str());
      return 1;
    }
    std::printf("trace: %zu rung span(s) written to %s\n", Log.spans().size(),
                O.TraceOut.c_str());
  }
  printResult(Out.Failed == 0 && FP.valid(), Out, Ms);
  return 0;
}

//===----------------------------------------------------------------------===//
// --smoke: one pass and one climb of every workload, all checks
//===----------------------------------------------------------------------===//

int runSmoke(const Options &O, const Expectations &Expect) {
  Outcome Total;
  JsonWriter Dump;
  Dump.beginObject();
  Dump.key("scale");
  Dump.number(static_cast<uint64_t>(Scale));
  Dump.key("seed");
  Dump.number(O.Seed);
  Dump.key("cells");
  Dump.beginObject();
  for (const std::string &Name : workloadNames()) {
    auto WOr = setUp(Name, O.Seed);
    if (!WOr) {
      std::fprintf(stderr, "layerbench: %s set-up failed: %s\n", Name.c_str(),
                   WOr.errorMessage().c_str());
      return 1;
    }
    std::vector<Ledger> Ledgers(WOr->Cells.size());
    for (size_t I = 0; I != WOr->Cells.size(); ++I) {
      CellRun R = runCell(WOr->Cells[I]);
      Ledgers[I].note(R.Failed, R.Error, R.Vals);
    }
    SpanLog Log;
    Climb Cl = climb(WOr->Cells.front(), Log, 0);
    Ledgers.front().note(Cl.Failed, Cl.Error, Cl.Vals);
    Outcome Out = settle(*WOr, Ledgers, Expect, O.Seed);
    std::printf("smoke %-18s %zu cells, %llu of %llu attempts failed\n",
                Name.c_str(), WOr->Cells.size(),
                static_cast<unsigned long long>(Out.Failed),
                static_cast<unsigned long long>(Out.Attempted));
    Total.Attempted += Out.Attempted;
    Total.Failed += Out.Failed;
    for (size_t I = 0; I != WOr->Cells.size(); ++I) {
      Dump.key(WOr->Cells[I].Key);
      Dump.beginObject();
      for (const auto &[K, V] : Ledgers[I].Merged) {
        Dump.key(K);
        Dump.rawValue(num(V));
      }
      Dump.endObject();
    }
  }
  Dump.endObject();
  Dump.endObject();
  if (!O.DumpValues.empty()) {
    std::ofstream F(O.DumpValues);
    F << Dump.str() << "\n";
    if (!F) {
      std::fprintf(stderr, "layerbench: cannot write %s\n",
                   O.DumpValues.c_str());
      return 1;
    }
  }
  std::printf("smoke: %s\n", Total.Failed ? "FAIL" : "PASS");
  return Total.Failed ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  const Options O = parseArgs(Argc, Argv);
  const Fingerprint FP;
  FP.print();
  auto ExpectOr = Expectations::load(O.ExpectedPath);
  if (!ExpectOr) {
    std::fprintf(stderr, "layerbench: %s\n", ExpectOr.errorMessage().c_str());
    return 1;
  }
  if (O.Smoke)
    return runSmoke(O, *ExpectOr);
  const auto &Names = workloadNames();
  if (std::find(Names.begin(), Names.end(), O.Workload) == Names.end())
    usage("unknown workload '" + O.Workload + "'");
  return O.Trace ? runTraced(O, FP, *ExpectOr)
                 : runUntraced(O, FP, *ExpectOr);
}
