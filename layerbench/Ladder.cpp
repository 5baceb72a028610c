//===- Ladder.cpp - Traced re-runs of a cell at growing stack depth -------===//
//
// Part of the miniperf project, a reproduction of "Dissecting RISC-V
// Performance" (PACT 2025). See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "Ladder.h"

#include "analysis/StaticCost.h"
#include "miniperf/Analysis.h"
#include "miniperf/ClusterSession.h"
#include "roofline/TwoPhase.h"
#include "support/Format.h"
#include "support/Trace.h"


using namespace layerbench;

int SpanLog::open(std::string Name, int Parent, int CellId) {
  Span S;
  S.Name = std::move(Name);
  S.Id = static_cast<int>(Spans.size());
  S.Parent = Parent;
  S.CellId = CellId;
  S.StartNs = trace::Tracer::nowNs();
  Spans.push_back(std::move(S));
  return Spans.back().Id;
}

void SpanLog::close(int Id) { Spans.at(Id).EndNs = trace::Tracer::nowNs(); }

std::string SpanLog::toChromeJson(const std::string &TracerJson) const {
  JsonWriter W;
  W.beginObject();
  W.key("displayTimeUnit");
  W.string("ms");
  W.key("traceEvents");
  W.beginArray();
  if (auto DocOr = parseJson(TracerJson))
    if (const JsonValue *Events = DocOr->find("traceEvents"))
      for (const JsonValue &E : Events->elements())
        W.value(E);
  for (const Span &S : Spans) {
    W.beginObject();
    W.key("name");
    W.string(S.Name);
    W.key("cat");
    W.string("layerbench");
    W.key("ph");
    W.string("X");
    // Microseconds with ns resolution (JsonWriter::number keeps only six
    // significant digits).
    W.key("ts");
    W.rawValue(fixed(static_cast<double>(S.StartNs) / 1e3, 3));
    W.key("dur");
    W.rawValue(fixed(static_cast<double>(S.EndNs - S.StartNs) / 1e3, 3));
    W.key("pid");
    W.number(uint64_t(2));
    W.key("tid");
    W.number(uint64_t(1));
    W.key("args");
    W.beginObject();
    W.key("id");
    W.number(static_cast<int64_t>(S.Id));
    W.key("parent");
    W.number(static_cast<int64_t>(S.Parent));
    W.key("cell");
    W.number(static_cast<int64_t>(S.CellId));
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.str();
}

namespace {

/// Runs one rung under a span and books its host seconds.
class Rungs {
public:
  Rungs(SpanLog &Log, int Parent, int CellId, Climb &Out)
      : Log(Log), Parent(Parent), CellId(CellId), Out(Out) {}

  /// Times \p Fn as rung \p Name; \p Fn returns an error message or "".
  template <typename F> void run(const std::string &Name, F &&Fn) {
    if (Out.Failed)
      return;
    const int Id = Log.open("rung." + Name, Parent, CellId);
    const Clock::time_point T0 = Clock::now();
    std::string Err = Fn(Id);
    Out.Rungs[Name] += secondsSince(T0);
    Log.close(Id);
    if (!Err.empty()) {
      Out.Failed = true;
      Out.Error = "rung " + Name + ": " + Err;
    }
  }

  SpanLog &Log;
  int Parent;
  int CellId;
  Climb &Out;
};

/// The single-hart platforms a cell's lower rungs run: the cluster's
/// cores, or the cell's one platform.
std::vector<hw::Platform> hartsOf(const Cell &C) {
  if (C.Kind == CellKind::Cluster)
    return C.Scen.Cluster.Cores;
  return {C.platform()};
}

std::string runPrograms(const Cell &C, bool WithCore, Values *HwCounts) {
  const bool Roofline = C.Kind == CellKind::Roofline;
  for (const hw::Platform &P : hartsOf(C)) {
    for (bool Instrumented : {false, true}) {
      if (Instrumented && !Roofline)
        break;
      hw::CoreModel Core(P.Core, P.Cache);
      auto SOr = runProgram(C, P, Instrumented, WithCore ? &Core : nullptr,
                            /*Check=*/false);
      if (!SOr)
        return SOr.errorMessage();
      if (HwCounts && WithCore) {
        (*HwCounts)["l1_hits"] += Core.cacheStats().L1Hits;
        (*HwCounts)["l1_misses"] += Core.cacheStats().L1Misses;
        (*HwCounts)["dram_bytes"] += Core.cacheStats().DramBytes;
        (*HwCounts)["mispredicts"] += Core.stats().BranchMispredicts;
      }
    }
  }
  return "";
}

std::string runSessions(const Cell &C, bool Sampling,
                        miniperf::Profile *Keep) {
  for (const hw::Platform &P : hartsOf(C)) {
    miniperf::SessionOptions Opts = C.Scen.Knobs.Session;
    Opts.Sampling = Sampling;
    miniperf::Session S(P, Opts);
    if (C.Work->Setup)
      S.setSetupHook(C.Work->Setup);
    auto POr = S.profile(C.Work->Prog, C.Work->Entry, C.Work->Args);
    if (!POr)
      return POr.errorMessage();
    if (Keep)
      *Keep = std::move(*POr);
  }
  return "";
}

std::vector<int64_t> intArgs(const Cell &C) {
  std::vector<int64_t> Args;
  for (const vm::RtValue &V : C.Work->Args)
    Args.push_back(static_cast<int64_t>(V.I[0]));
  return Args;
}

} // namespace

Climb layerbench::climb(const Cell &C, SpanLog &Log, int CellId) {
  Climb Out;
  const int Root = Log.open("cell " + C.Name, -1, CellId);
  Rungs R(Log, Root, CellId, Out);

  R.run("vm", [&](int) { return runPrograms(C, false, nullptr); });
  R.run("hw", [&](int) {
    return runPrograms(C, true,
                       C.Kind == CellKind::Roofline ? &Out.HwCounts : nullptr);
  });

  miniperf::Profile Prof;
  if (C.Kind == CellKind::Roofline) {
    R.run("roofline", [&](int) -> std::string {
      roofline::TwoPhaseDriver Driver(C.Platform);
      if (C.Work->Setup)
        Driver.setSetupHook(C.Work->Setup);
      auto ROr = Driver.analyze(*C.Instrumented, C.Loops, C.Work->Entry,
                                C.Work->Args);
      return ROr ? "" : ROr.errorMessage();
    });
  } else {
    R.run("pmu", [&](int) { return runSessions(C, false, nullptr); });
    R.run("sampling", [&](int) {
      return runSessions(C, true,
                         C.Kind == CellKind::Hart ? &Prof : nullptr);
    });
    if (C.Kind == CellKind::Cluster) {
      R.run("cluster", [&](int) -> std::string {
        const double Cpu0 = cpuSeconds();
        miniperf::ClusterSession S(C.Scen.Cluster, C.Scen.Knobs.Session);
        if (C.Scen.Knobs.InterleaveQuantum)
          S.setInterleaveQuantum(C.Scen.Knobs.InterleaveQuantum);
        if (C.Work->Setup)
          S.setSetupHook(C.Work->Setup);
        auto POr = S.profile(C.Work->Prog, C.Work->Entry, C.Work->Args);
        Out.ClusterCpuSeconds += cpuSeconds() - Cpu0;
        if (!POr)
          return POr.errorMessage();
        Prof = std::move(*POr);
        return "";
      });
    }
  }

  // The runner skips the static model on cluster cells, so the ladder
  // does too.
  if (C.Kind != CellKind::Cluster)
    R.run("static_cost", [&](int) -> std::string {
      analysis::computeStaticCost(*C.Work->Prog, C.platform(), C.Work->Entry,
                                  intArgs(C));
      return "";
    });

  if (C.Kind != CellKind::Roofline) {
    R.run("analyses", [&](int Parent) -> std::string {
      for (const std::string &Name : C.Scen.Knobs.Analyses) {
        const miniperf::Analysis *A =
            miniperf::AnalysisRegistry::builtins().find(Name);
        if (!A)
          return "unknown analysis " + Name;
        const int Id = Log.open("rung.analysis." + Name, Parent, CellId);
        const Clock::time_point T0 = Clock::now();
        // A failing analysis is a result too (u74 has no samples).
        (void)A->run(Prof);
        Out.Rungs["analysis." + Name] += secondsSince(T0);
        Log.close(Id);
      }
      return "";
    });
  }

  R.run("cell", [&](int) -> std::string {
    CellRun Run = runCell(C);
    Out.Rungs["serialize"] += Run.SerializeSeconds;
    if (Run.Failed)
      return Run.Error;
    Out.Vals = std::move(Run.Vals);
    return "";
  });
  R.run("cell.traced", [&](int) -> std::string {
    trace::Tracer::instance().enable();
    CellRun Run = runCell(C);
    trace::Tracer::instance().disable();
    return Run.Failed ? Run.Error : "";
  });
  Log.close(Root);
  return Out;
}

const std::vector<std::string> &layerbench::layerNames() {
  static const std::vector<std::string> Names = {
      "vm",          "hw",       "pmu",       "sampling", "cluster",
      "roofline",    "static_cost", "analyses", "serialize", "other"};
  return Names;
}

std::map<std::string, double>
layerbench::layerSeconds(const Cell &C,
                         const std::map<std::string, double> &Rungs) {
  auto Get = [&Rungs](const std::string &Name) {
    auto It = Rungs.find(Name);
    return It == Rungs.end() ? 0.0 : It->second;
  };
  std::map<std::string, double> L;
  for (const std::string &Name : layerNames())
    L[Name] = 0;
  L["vm"] = Get("vm");
  L["hw"] = Get("hw") - Get("vm");
  if (C.Kind == CellKind::Roofline) {
    L["roofline"] = Get("roofline") - Get("hw");
  } else {
    L["pmu"] = Get("pmu") - Get("hw");
    L["sampling"] = Get("sampling") - Get("pmu");
    if (C.Kind == CellKind::Cluster)
      L["cluster"] = Get("cluster") - Get("sampling");
    for (const auto &[Name, Sec] : Rungs)
      if (Name.rfind("analysis.", 0) == 0)
        L["analyses"] += Sec;
    L["serialize"] = Get("serialize");
  }
  L["static_cost"] = Get("static_cost");
  double Sum = 0;
  for (const auto &[Name, Sec] : L)
    Sum += Sec;
  L["other"] = Get("cell") - Sum;
  return L;
}
