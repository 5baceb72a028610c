//===- Cells.cpp - Workloads, cells and output checks of the layered bench ===//
//
// Part of the miniperf project, a reproduction of "Dissecting RISC-V
// Performance" (PACT 2025). See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "Cells.h"

#include "analysis/StaticCost.h"
#include "driver/ProgramCache.h"
#include "driver/ScenarioMatrix.h"
#include "driver/SweepReport.h"
#include "driver/SweepRunner.h"
#include "miniperf/Analysis.h"
#include "roofline/Runtime.h"
#include "roofline/TwoPhase.h"
#include "transform/LoopVectorizer.h"
#include "transform/PassManager.h"
#include "vm/Program.h"
#include "workloads/Matmul.h"
#include "workloads/Microbench.h"
#include "workloads/SqliteLike.h"

#include <cmath>
#include <cstdio>
#include <set>
#include <sys/resource.h>

using namespace layerbench;

namespace {

/// splitmix64: spreads a small benchmark seed over a generator seed.
uint64_t mixSeed(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

// The standard sqlite and matmul configurations of
// driver::standardWorkloads at this scale; only the input seed differs.
// Seed 0 keeps the standard generator seeds.
workloads::SqliteLikeConfig sqliteConfig(uint64_t Seed) {
  workloads::SqliteLikeConfig C;
  C.NumPages = 24;
  C.CellsPerPage = 16;
  C.NumQueries = 16 * Scale;
  if (Seed)
    C.Seed = mixSeed(Seed);
  return C;
}

workloads::MatmulConfig matmulConfig(uint64_t Seed) {
  workloads::MatmulConfig C{64, 16, 0x5eed};
  if (Scale > 1) {
    double Grown = C.N * std::cbrt(static_cast<double>(Scale));
    unsigned Snapped = static_cast<unsigned>((Grown / C.Tile) + 0.5) * C.Tile;
    C.N = Snapped > C.N ? Snapped : C.N;
  }
  if (Seed)
    C.Seed = mixSeed(Seed ^ 0x6d61746d756cull);
  return C;
}

constexpr uint64_t TriadElems = 8192;
uint64_t triadPasses() { return 24 * Scale; }

std::function<void(vm::Instance &)> matmulSetup(workloads::MatmulConfig C) {
  return [C](vm::Instance &Vm) {
    workloads::MatmulWorkload W;
    W.Config = C;
    W.initialize(Vm);
    workloads::bindClock(Vm, [] { return 0.0; });
  };
}

/// The output check of workload \p Name; null when the workload has no
/// host-side reference result.
std::function<std::string(vm::Instance &)>
outputCheck(const std::string &Name, uint64_t Seed) {
  if (Name == "sqlite") {
    workloads::SqliteLikeConfig C = sqliteConfig(Seed);
    return [C](vm::Instance &Vm) -> std::string {
      const uint64_t Want = workloads::buildSqliteLike(C).ExpectedMatches;
      const uint64_t Got = Vm.readI64(Vm.globalAddress("RESULT"));
      if (Got == Want)
        return "";
      return "sqlite matched " + std::to_string(Got) + " rows, expected " +
             std::to_string(Want);
    };
  }
  if (Name == "matmul") {
    workloads::MatmulConfig C = matmulConfig(Seed);
    return [C](vm::Instance &Vm) -> std::string {
      workloads::MatmulWorkload W;
      W.Config = C;
      const double Err = W.verify(Vm);
      if (Err < 1e-3)
        return "";
      return "matmul result off by " + std::to_string(Err);
    };
  }
  return nullptr;
}

/// driver::standardWorkloads with the sqlite and matmul input generators
/// fed from \p Seed. The Variant carries the seed so programs of
/// different seeds never share a ProgramCache key.
std::vector<driver::WorkloadDesc> seededWorkloads(uint64_t Seed) {
  std::vector<driver::WorkloadDesc> Ws = driver::standardWorkloads(Scale);
  for (driver::WorkloadDesc &D : Ws) {
    D.Variant += "-seed" + std::to_string(Seed);
    if (D.Name == "sqlite") {
      workloads::SqliteLikeConfig C = sqliteConfig(Seed);
      D.Compile = [C](const transform::TargetInfo &T, bool Vectorize)
          -> Expected<driver::CompiledWorkload> {
        auto POr = workloads::compileSqliteLike(C, Vectorize ? &T : nullptr);
        if (!POr)
          return makeError<driver::CompiledWorkload>(POr.errorMessage());
        driver::CompiledWorkload W;
        W.Prog = std::move(POr->Prog);
        W.Args = {vm::RtValue::ofInt(C.NumQueries)};
        return W;
      };
    } else if (D.Name == "matmul") {
      workloads::MatmulConfig C = matmulConfig(Seed);
      D.Compile = [C](const transform::TargetInfo &T, bool Vectorize)
          -> Expected<driver::CompiledWorkload> {
        auto POr = workloads::compileMatmul(C, Vectorize ? &T : nullptr);
        if (!POr)
          return makeError<driver::CompiledWorkload>(POr.errorMessage());
        driver::CompiledWorkload W;
        W.Prog = std::move(POr->Prog);
        W.Setup = matmulSetup(C);
        return W;
      };
    }
  }
  return Ws;
}

std::vector<driver::WorkloadDesc>
pick(const std::vector<driver::WorkloadDesc> &All,
     const std::set<std::string> &Names) {
  std::vector<driver::WorkloadDesc> Out;
  for (const driver::WorkloadDesc &D : All)
    if (Names.count(D.Name))
      Out.push_back(D);
  return Out;
}

std::vector<std::string> allAnalyses() {
  std::vector<std::string> Names;
  for (const miniperf::Analysis *A :
       miniperf::AnalysisRegistry::builtins().all())
    Names.push_back(A->name());
  return Names;
}

/// Compiles every scenario's program once per ProgramCache key and makes
/// the scenario's workload hand out that build.
Expected<Workload> profileWorkload(const std::string &Name,
                                   std::vector<driver::Scenario> Scens,
                                   uint64_t Seed) {
  Workload W;
  W.Name = Name;
  std::map<std::string, std::shared_ptr<const driver::CompiledWorkload>> Built;
  for (driver::Scenario &S : Scens) {
    const std::string Key = driver::ProgramCache::key(S);
    auto It = Built.find(Key);
    if (It == Built.end()) {
      const Clock::time_point T0 = Clock::now();
      auto WOr = driver::ProgramCache::compile(S);
      W.BuildSeconds += secondsSince(T0);
      if (!WOr)
        return makeError<Workload>(S.Name + ": " + WOr.errorMessage());
      It = Built.emplace(Key, *WOr).first;
    }
    Cell C;
    C.Name = S.Name;
    C.Key = Name + "/" + S.Name;
    C.Kind = S.isCluster() ? CellKind::Cluster : CellKind::Hart;
    C.Work = It->second;
    C.CheckOutput = outputCheck(S.Workload.Name, Seed);
    std::shared_ptr<const driver::CompiledWorkload> Prebuilt = It->second;
    S.Workload.Compile = [Prebuilt](const transform::TargetInfo &, bool)
        -> Expected<driver::CompiledWorkload> { return *Prebuilt; };
    C.Scen = std::move(S);
    W.Cells.push_back(std::move(C));
  }
  return W;
}

Expected<Workload> rooflineWorkload(uint64_t Seed) {
  Workload W;
  W.Name = "roofline-twophase";
  const workloads::MatmulConfig MC = matmulConfig(Seed);
  for (const hw::Platform &P : {hw::spacemitX60(), hw::theadC910()}) {
    for (bool IsMatmul : {true, false}) {
      Cell C;
      C.Kind = CellKind::Roofline;
      C.Platform = P;
      C.Name = std::string(IsMatmul ? "matmul" : "triad") + "@" +
               driver::platformKey(P) + (IsMatmul ? "+vec" : "");
      C.Key = W.Name + "/" + C.Name;
      // Two identical builds: the TwoPhaseDriver analyzes one in place,
      // the other is compiled into the Program that computeStaticCost
      // and the reference runs use.
      std::vector<transform::InstrumentedLoop> Loops[2];
      std::unique_ptr<ir::Module> Mods[2];
      for (unsigned I = 0; I != 2; ++I) {
        Mods[I] = IsMatmul ? workloads::buildMatmul(MC).M
                           : workloads::buildTriad(TriadElems, triadPasses()).M;
        transform::PassManager PM;
        if (IsMatmul)
          PM.addPass(std::make_unique<transform::LoopVectorizer>(P.Target));
        auto Pass = std::make_unique<transform::RooflineInstrumenter>();
        transform::RooflineInstrumenter *Instr = Pass.get();
        PM.addPass(std::move(Pass));
        const Clock::time_point T0 = Clock::now();
        Error E = PM.run(*Mods[I]);
        W.PassSeconds += secondsSince(T0);
        if (E)
          return makeError<Workload>(C.Name + ": " + E.message());
        Loops[I] = Instr->loops();
      }
      if (Loops[0].empty() || Loops[0].size() != Loops[1].size())
        return makeError<Workload>(C.Name + ": instrumenter found " +
                                   std::to_string(Loops[0].size()) + " and " +
                                   std::to_string(Loops[1].size()) +
                                   " loops in two identical builds");
      const Clock::time_point T0 = Clock::now();
      auto ProgOr = vm::Program::compile(std::move(Mods[1]));
      W.BuildSeconds += secondsSince(T0);
      if (!ProgOr)
        return makeError<Workload>(C.Name + ": " + ProgOr.errorMessage());
      auto Work = std::make_shared<driver::CompiledWorkload>();
      Work->Prog = std::move(*ProgOr);
      if (IsMatmul)
        Work->Setup = matmulSetup(MC);
      C.Work = std::move(Work);
      C.Instrumented = std::move(Mods[0]);
      C.Loops = std::move(Loops[0]);
      C.CheckOutput = IsMatmul ? outputCheck("matmul", Seed) : nullptr;
      C.KernelFlops = IsMatmul ? 2ull * MC.N * MC.N * MC.N
                                 : 2ull * TriadElems * triadPasses();
      W.Cells.push_back(std::move(C));
    }
  }
  return W;
}

/// Counters the session opened: a sampled cycles leader doubles as the
/// cycles counter, so count distinct group fds.
double armedCounters(const miniperf::Profile &P) {
  std::set<int> Fds;
  size_t Ungrouped = 0;
  for (const miniperf::ProfileCounter &C : P.Counters) {
    if (C.GroupFd < 0)
      ++Ungrouped;
    else
      Fds.insert(C.GroupFd);
  }
  return static_cast<double>(Fds.size() + Ungrouped);
}

Values rooflineValues(const roofline::TwoPhaseResult &R,
                      const analysis::StaticCostResult &SC) {
  Values V;
  double Fp = 0, Int = 0, Ld = 0, St = 0, Sec = 0;
  for (const roofline::LoopMetrics &L : R.Loops) {
    Fp += static_cast<double>(L.FpOps);
    Int += static_cast<double>(L.IntOps);
    Ld += static_cast<double>(L.BytesLoaded);
    St += static_cast<double>(L.BytesStored);
    Sec += L.Seconds;
  }
  V["loops"] = static_cast<double>(R.Loops.size());
  V["fp_ops"] = Fp;
  V["int_ops"] = Int;
  V["roof_bytes_loaded"] = Ld;
  V["roof_bytes_stored"] = St;
  V["ai"] = Ld + St > 0 ? Fp / (Ld + St) : 0;
  V["baseline_cycles"] = R.BaselineProgramCycles;
  V["instrumented_cycles"] = R.InstrumentedProgramCycles;
  V["overhead_ratio"] = R.BaselineProgramCycles > 0
                            ? R.InstrumentedProgramCycles /
                                  R.BaselineProgramCycles
                            : 0;
  V["gflops"] = Sec > 0 ? Fp / Sec / 1e9 : 0;
  V["static_known"] = SC.Known ? 1 : 0;
  if (SC.Known) {
    V["static_cycles"] = SC.Cycles;
    V["static_instructions"] = SC.Instret;
  }
  return V;
}

/// The values of a profiled cell (hart or cluster).
Values profileValues(const driver::ScenarioResult &R) {
  const miniperf::Profile &P = R.Profile;
  Values V;
  V["ops"] = static_cast<double>(P.Vm.RetiredOps);
  V["instructions"] = static_cast<double>(P.Instructions);
  V["loaded_bytes"] = static_cast<double>(P.Vm.LoadedBytes);
  V["stored_bytes"] = static_cast<double>(P.Vm.StoredBytes);
  V["l1_hits"] = static_cast<double>(P.Cache.L1Hits);
  V["l1_misses"] = static_cast<double>(P.Cache.L1Misses);
  V["l2_hits"] = static_cast<double>(P.Cache.L2Hits);
  V["l2_misses"] = static_cast<double>(P.Cache.L2Misses);
  V["dram_bytes"] = static_cast<double>(P.Cache.DramBytes);
  V["mispredicts"] = static_cast<double>(P.Core.BranchMispredicts);
  V["counters"] = armedCounters(P);
  double Ok = 0;
  for (const driver::AnalysisRecord &A : R.Analyses)
    Ok += A.Failed ? 0 : 1;
  V["analyses_ok"] = Ok;
  V["cycles"] = static_cast<double>(P.Cycles);
  V["ipc"] = P.Ipc;
  V["samples"] = static_cast<double>(R.NumSamples);
  V["interrupts"] = static_cast<double>(P.Interrupts);
  V["sbi_ecalls"] = static_cast<double>(P.SbiEcalls);
  V["gflops"] = P.Seconds > 0 ? P.Core.FpOpsActual / P.Seconds / 1e9 : 0;
  if (P.NumCores > 1) {
    V["shared_l2_hits"] = static_cast<double>(P.SharedCache.L2Hits);
    V["shared_l2_misses"] = static_cast<double>(P.SharedCache.L2Misses);
  } else {
    V["static_known"] = R.StaticCost.Known ? 1 : 0;
    if (R.StaticCost.Known) {
      V["static_cycles"] = R.StaticCost.PredictedCycles;
      V["static_instructions"] = R.StaticCost.PredictedInstructions;
      V["instret"] = static_cast<double>(P.Core.Instret);
    }
  }
  return V;
}

/// True for values derived from simulated time (cycles, IPC, samples,
/// GFLOP/s): they must match within the perf gate's 2% tolerance, all
/// others exactly.
bool isTimingDerived(const std::string &Key) {
  static const std::set<std::string> Timed = {
      "cycles",          "ipc",
      "samples",         "interrupts",
      "sbi_ecalls",      "gflops",
      "baseline_cycles", "instrumented_cycles",
      "overhead_ratio",  "static_cycles"};
  return Timed.count(Key) != 0;
}

} // namespace

double layerbench::cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) { return T.tv_sec + T.tv_usec / 1e6; };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

const std::vector<std::string> &layerbench::workloadNames() {
  static const std::vector<std::string> Names = {
      "profile-hart", "profile-cluster", "roofline-twophase"};
  return Names;
}

Expected<Workload> layerbench::setUp(const std::string &Name, uint64_t Seed) {
  if (Name == "roofline-twophase")
    return rooflineWorkload(Seed);
  const std::vector<driver::WorkloadDesc> All = seededWorkloads(Seed);
  driver::ScenarioMatrix M;
  M.addSamplingMode(true).addSamplePeriod(SamplePeriod).setAnalyses(
      allAnalyses());
  if (Name == "profile-hart") {
    M.addPlatforms({hw::spacemitX60(), hw::theadC910(), hw::sifiveU74()});
    M.addWorkloads(All);
  } else if (Name == "profile-cluster") {
    M.addCluster(hw::clusterX60x2());
    M.addWorkloads(pick(All, {"matmul", "triad", "memset"}));
  } else {
    return makeError<Workload>("unknown workload '" + Name + "'");
  }
  return profileWorkload(Name, M.build(), Seed);
}

CellRun layerbench::runCell(const Cell &C) {
  CellRun Out;
  const Clock::time_point T0 = Clock::now();
  if (C.Kind == CellKind::Roofline) {
    roofline::TwoPhaseDriver Driver(C.Platform);
    if (C.Work->Setup)
      Driver.setSetupHook(C.Work->Setup);
    auto ROr = Driver.analyze(*C.Instrumented, C.Loops, C.Work->Entry,
                              C.Work->Args);
    analysis::StaticCostResult SC = analysis::computeStaticCost(
        *C.Work->Prog, C.Platform, C.Work->Entry, {});
    Out.Seconds = secondsSince(T0);
    if (!ROr) {
      Out.Failed = true;
      Out.Error = ROr.errorMessage();
      return Out;
    }
    Out.Vals = rooflineValues(*ROr, SC);
    return Out;
  }
  driver::SweepOptions Opts;
  Opts.Jobs = 1;
  driver::SweepReport Report = driver::SweepRunner(Opts).run({C.Scen});
  const Clock::time_point J0 = Clock::now();
  const std::string Json = Report.toJson();
  Out.SerializeSeconds = secondsSince(J0);
  Out.Seconds = secondsSince(T0);
  const driver::ScenarioResult &R = Report.Results.at(0);
  if (R.Failed || Json.empty()) {
    Out.Failed = true;
    Out.Error = R.Failed ? R.Error : "empty sweep report";
    return Out;
  }
  Out.Vals = profileValues(R);
  return Out;
}

Expected<vm::RunStats> layerbench::runProgram(const Cell &C,
                                              const hw::Platform &P,
                                              bool Instrumented,
                                              hw::CoreModel *Core,
                                              bool Check) {
  vm::Instance Vm(C.Work->Prog);
  if (Core)
    Vm.addConsumer(Core);
  // The Roofline runtime reads cycle stamps from a core model; a
  // detached one stands in when the run has no timing model.
  hw::CoreModel Detached(P.Core, P.Cache);
  std::unique_ptr<roofline::RooflineRuntime> Runtime;
  if (C.Kind == CellKind::Roofline) {
    Environment Env;
    if (Instrumented)
      Env.set("MPERF_ROOFLINE_INSTRUMENTED", "1");
    Runtime = std::make_unique<roofline::RooflineRuntime>(C.Loops, Env);
    Runtime->bind(Vm, Core ? *Core : Detached);
  }
  if (C.Work->Setup)
    C.Work->Setup(Vm);
  auto ROr = Vm.run(C.Work->Entry, C.Work->Args);
  if (!ROr)
    return makeError<vm::RunStats>(ROr.errorMessage());
  if (Check && C.CheckOutput) {
    std::string Bad = C.CheckOutput(Vm);
    if (!Bad.empty())
      return makeError<vm::RunStats>(Bad);
  }
  return Vm.stats();
}

Expected<Values> layerbench::referenceRun(const Cell &C) {
  Values V;
  const bool Roofline = C.Kind == CellKind::Roofline;
  uint64_t Ops = 0, Loaded = 0, Stored = 0;
  for (bool Instrumented : {false, true}) {
    if (Instrumented && !Roofline)
      break;
    const hw::Platform &P = C.platform();
    hw::CoreModel Core(P.Core, P.Cache);
    auto SOr = runProgram(C, P, Instrumented, Roofline ? &Core : nullptr,
                          /*Check=*/true);
    if (!SOr)
      return makeError<Values>(std::string("reference run") +
                               (Roofline ? Instrumented ? " (instrumented)"
                                                        : " (baseline)"
                                         : "") +
                               ": " + SOr.errorMessage());
    if (Roofline && !Instrumented)
      V["ref.baseline_instret"] = Core.stats().Instret;
    Ops += SOr->RetiredOps;
    Loaded += SOr->LoadedBytes;
    Stored += SOr->StoredBytes;
  }
  V["ref.ops"] = static_cast<double>(Ops);
  V["ref.loaded_bytes"] = static_cast<double>(Loaded);
  V["ref.stored_bytes"] = static_cast<double>(Stored);
  return V;
}

std::vector<std::string> layerbench::crossCheck(const Cell &C,
                                                const Values &Run,
                                                const Values &Ref) {
  std::vector<std::string> Bad;
  auto Get = [](const Values &V, const std::string &K) {
    auto It = V.find(K);
    return It == V.end() ? std::nan("") : It->second;
  };
  auto Expect = [&Bad](const std::string &What, double Got, double Want) {
    if (!(Got == Want))
      Bad.push_back(What + " is " + std::to_string(Got) + ", expected " +
                    std::to_string(Want));
  };
  auto StaticBand = [&Bad](double Predicted, double Measured) {
    // docs/static-analysis.md: Known predictions stay within 0.5%.
    if (!(Measured > 0) || std::fabs(Predicted - Measured) > 0.005 * Measured)
      Bad.push_back("static_cost predicts " + std::to_string(Predicted) +
                    " instructions, the run retired " +
                    std::to_string(Measured));
  };
  if (C.Kind == CellKind::Roofline) {
    const double Flops = static_cast<double>(C.KernelFlops);
    if (C.Name.rfind("triad", 0) == 0) {
      Expect("roofline FLOP count", Get(Run, "fp_ops"), Flops);
      Expect("triad arithmetic intensity", Get(Run, "ai"), 2.0 / 12.0);
    } else if (!(Get(Run, "fp_ops") >= Flops &&
                 Get(Run, "fp_ops") < 1.5 * Flops)) {
      Bad.push_back("roofline FLOP count " +
                    std::to_string(Get(Run, "fp_ops")) +
                    " is not the kernel's " + std::to_string(Flops) +
                    " plus less than half again of reductions");
    }
    if (Get(Run, "static_known") == 1)
      StaticBand(Get(Run, "static_instructions"),
                 Get(Ref, "ref.baseline_instret"));
    return Bad;
  }
  const double Cores = C.numCores();
  Expect("retired ops", Get(Run, "ops"), Cores * Get(Ref, "ref.ops"));
  Expect("loaded bytes", Get(Run, "loaded_bytes"),
         Cores * Get(Ref, "ref.loaded_bytes"));
  Expect("stored bytes", Get(Run, "stored_bytes"),
         Cores * Get(Ref, "ref.stored_bytes"));
  if (Get(Run, "static_known") == 1)
    StaticBand(Get(Run, "static_instructions"), Get(Run, "instret"));
  return Bad;
}

uint64_t layerbench::cellOps(const Cell &C, const Values &Vals) {
  auto It = Vals.find(C.Kind == CellKind::Roofline ? "ref.ops" : "ops");
  return It == Vals.end() ? 0 : static_cast<uint64_t>(It->second);
}

Expected<Expectations> Expectations::load(const std::string &Path) {
  Expectations E;
  if (Path.empty())
    return E;
  auto DocOr = parseJsonFile(Path);
  if (!DocOr)
    return makeError<Expectations>(DocOr.errorMessage());
  const JsonValue *S = DocOr->find("scale");
  if (!S || !S->isNumber() || S->asNumber() != Scale)
    return makeError<Expectations>(Path + ": recorded at another scale; "
                                   "pass --expected \"\" to check nothing");
  if (!DocOr->find("cells"))
    return makeError<Expectations>(Path + ": no \"cells\" object");
  E.Enabled = true;
  E.Doc = std::move(*DocOr);
  return E;
}

std::vector<std::string> Expectations::check(const std::string &Key,
                                             uint64_t Seed,
                                             const Values &Vals) const {
  std::vector<std::string> Bad;
  if (!Enabled)
    return Bad;
  const JsonValue *Cell = Doc.find("cells")->find(Key);
  if (!Cell)
    return {"no recorded values for " + Key};
  for (const std::string &Group : {std::string("any"),
                                  "seed:" + std::to_string(Seed)}) {
    const JsonValue *G = Cell->find(Group);
    if (!G)
      continue;
    for (const auto &[Name, Want] : G->members()) {
      auto It = Vals.find(Name);
      if (It == Vals.end()) {
        Bad.push_back(Name + " missing");
        continue;
      }
      const double W = Want.asNumber(), Got = It->second;
      const bool Ok = isTimingDerived(Name)
                          ? std::fabs(Got - W) <= 0.02 * std::fabs(W)
                          : Got == W;
      if (!Ok) {
        char Buf[160];
        std::snprintf(Buf, sizeof(Buf), "%s is %.17g, recorded %.17g",
                      Name.c_str(), Got, W);
        Bad.push_back(Buf);
      }
    }
  }
  return Bad;
}
