//===- e2e.cpp - End-to-end measurement of the compile job ----------------===//
//
// Part of the TBAA reproduction of Diwan, McKinley & Moss, PLDI 1998.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload of the compile job (source -> lex/parse/sema/lower ->
/// TBAA context -> alias classes -> mod-ref -> devirt/inline/rle/copyprop/
/// rle#2/pre -> VM) and prints one JSON object of raw measurements on
/// stdout. perfbench/run.py builds this binary, turns the raw numbers into
/// the metrics BENCHMARK.json names and checks them.
///
///   perfbench_e2e --workload golden|paper-suite|gen-compile|shape-sweep
///                 --seed N --seconds T --trace 0|1 --workdir DIR
///                 [--workers N]
///
/// --trace 0 is the timed run: it calls the same public entry points the
/// drivers call (compileSource + OptPipeline::run + VM for `m3lc run
/// --pipeline --pre`, runBatch + jobs::runCompileJob for m3batch) with the
/// program's own timers, metrics and trace recorder off, in a closed loop
/// for T seconds. The loop is cut into segments (a round over the
/// programs, a runBatch, or 8 generated modules) so run.py can take
/// medians over them. After the loop come the untimed output-quality runs.
///
/// --trace 1 is the traced run over a fixed job list: each job runs once
/// through the driver path (untraced) and once decomposed into the public
/// per-layer calls, each bracketed by a span the benchmark records in
/// memory. The decomposition must reproduce the driver path's final IR
/// and counts exactly, or the run fails.
///
/// Any job that fails, traps or returns the wrong checksum is reported in
/// "errors"; the exit code is 0 whenever measurement itself completed.
///
//===----------------------------------------------------------------------===//

#include "CompileJobs.h"

#include "analysis/AnalysisManager.h"
#include "exec/VM.h"
#include "ir/Lower.h"
#include "ir/Pipeline.h"
#include "lang/Lexer.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "limit/LimitAnalysis.h"
#include "opt/CopyProp.h"
#include "opt/Devirt.h"
#include "opt/Inline.h"
#include "opt/PassPipeline.h"
#include "opt/RLE.h"
#include "service/Batch.h"
#include "service/Journal.h"
#include "sim/CacheSim.h"
#include "support/JSONUtil.h"
#include "support/Stats.h"
#include "workloads/Generator.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sched.h>
#include <string>
#include <sys/resource.h>
#include <unistd.h>
#include <vector>

using namespace tbaa;

namespace {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Process CPU time in nanoseconds; with \p Children, reaped children's
/// time is added (the shape-sweep's forked workers).
uint64_t cpuNs(bool Children) {
  auto Of = [](int Who) {
    rusage U{};
    getrusage(Who, &U);
    auto Ns = [](const timeval &T) {
      return static_cast<uint64_t>(T.tv_sec) * 1'000'000'000ull +
             static_cast<uint64_t>(T.tv_usec) * 1000ull;
    };
    return Ns(U.ru_utime) + Ns(U.ru_stime);
  };
  return Of(RUSAGE_SELF) + (Children ? Of(RUSAGE_CHILDREN) : 0);
}

uint64_t peakRssKB(int Who) {
  rusage U{};
  getrusage(Who, &U);
  return static_cast<uint64_t>(U.ru_maxrss);
}

unsigned onlineCpus() {
  long N = sysconf(_SC_NPROCESSORS_ONLN);
  return N > 0 ? static_cast<unsigned>(N) : 1u;
}

//===----------------------------------------------------------------------===//
// Reference outputs
//===----------------------------------------------------------------------===//

/// Main() checksums of the bundled programs, copied from the values
/// pinned in tests/GoldenTests.cpp.
constexpr std::pair<const char *, int64_t> GoldenChecksums[] = {
    {"format", 900263027},       {"dformat", 342847893},
    {"write-pickle", 257618873}, {"k-tree", 441827238},
    {"slisp", 134438198},        {"pp", 867252856},
    {"dom", 228090704},          {"postcard", 962346572},
    {"m2tom3", 74679219},        {"m3cg", 881268001},
};

std::optional<int64_t> goldenChecksum(const std::string &Name) {
  for (const auto &[N, Sum] : GoldenChecksums)
    if (Name == N)
      return Sum;
  return std::nullopt;
}

struct Job {
  std::string Name;
  std::string Source;
  int64_t Expected = 0;
  /// paper-suite only: the RLE-optimized half of a Fig. 8/9 row, not the
  /// original.
  bool ApplyRLE = false;
};

size_t codeSize(const IRModule &M) {
  size_t N = 0;
  for (const IRFunction &F : M.Functions)
    N += F.instrCount();
  return N;
}

/// Main() of \p Source with no optimization at all: the reference a
/// generated module's optimized runs must reproduce.
std::optional<int64_t> unoptimizedChecksum(const std::string &Source) {
  DiagnosticEngine Diags;
  Compilation C = compileSource(Source, Diags);
  if (!C.ok())
    return std::nullopt;
  VM Machine(C.IR);
  if (!Machine.runInit())
    return std::nullopt;
  return Machine.callFunction("Main");
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// The traced run's in-memory span log: one span per layer call the
/// benchmark makes, with its parent and the job it belongs to. Nothing is
/// written until the run ends.
class SpanRecorder {
public:
  struct Span {
    const char *Name;
    uint32_t Job;
    int32_t Parent;
    uint64_t Start;
    uint64_t End;
  };

  /// A span from construction to destruction; records nothing when the
  /// recorder is null (the untraced path).
  class Scope {
  public:
    Scope(SpanRecorder *R, const char *Name)
        : R(R), Idx(R ? R->open(Name) : -1) {}
    ~Scope() {
      if (R)
        R->close(Idx);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanRecorder *R;
    int32_t Idx;
  };

  void setJob(uint32_t J) { Job = J; }

  /// Self time per span name in nanoseconds: duration minus the part
  /// covered by direct children (children never overlap).
  std::map<std::string, uint64_t> selfNs() const {
    std::vector<uint64_t> Covered(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Covered[static_cast<size_t>(S.Parent)] += S.End - S.Start;
    std::map<std::string, uint64_t> Out;
    for (size_t I = 0; I != Spans.size(); ++I)
      Out[Spans[I].Name] += Spans[I].End - Spans[I].Start - Covered[I];
    return Out;
  }

  bool write(const std::string &Path) const {
    json::Writer W;
    W.beginArray();
    for (const Span &S : Spans) {
      W.beginObject();
      W.key("name").value(S.Name);
      W.key("job").value(S.Job);
      W.key("parent").value(static_cast<int64_t>(S.Parent));
      W.key("start_ns").value(S.Start);
      W.key("dur_ns").value(S.End - S.Start);
      W.endObject();
    }
    W.endArray();
    std::ofstream Out(Path);
    Out << W.str() << '\n';
    return static_cast<bool>(Out);
  }

private:
  int32_t open(const char *Name) {
    int32_t Parent = Open.empty() ? -1 : Open.back();
    Spans.push_back({Name, Job, Parent, nowNs(), 0});
    Open.push_back(static_cast<int32_t>(Spans.size() - 1));
    return Open.back();
  }
  void close(int32_t Idx) {
    Spans[static_cast<size_t>(Idx)].End = nowNs();
    Open.pop_back();
  }

  std::vector<Span> Spans;
  std::vector<int32_t> Open;
  uint32_t Job = 0;
};

using Counts = std::map<std::string, double>;

/// Global statistics registry values; the traced run reads per-job deltas
/// of the engine's counters from it.
std::map<std::string, uint64_t> statValues() {
  std::map<std::string, uint64_t> Out;
  for (const StatSnapshot &S : StatsRegistry::instance().snapshot())
    Out[S.qualifiedName()] = S.Value;
  return Out;
}

void addStatDeltas(Counts &C, const std::map<std::string, uint64_t> &Before) {
  std::map<std::string, uint64_t> After = statValues();
  auto Delta = [&](const char *Name) {
    return static_cast<double>(After[Name] - Before.at(Name));
  };
  C["core.locs"] += Delta("engine.locs-interned");
  C["core.build_queries"] += Delta("engine.build-queries");
  C["core.partitions_built"] += Delta("engine.partitions-built");
  C["core.fast_answers"] += Delta("engine.fast-answers");
  C["core.slow_path"] += Delta("engine.slow-path");
}

//===----------------------------------------------------------------------===//
// The m3lc job: compileSource + OptPipeline::run + VM
//===----------------------------------------------------------------------===//

/// What one job produced: enough to check it and to compare the traced
/// decomposition against the driver path.
struct JobResult {
  std::string Error; ///< Empty when the job succeeded.
  uint64_t JobNs = 0;
  uint64_t CompileNs = 0;
  int64_t Checksum = 0;
  ExecStats Exec;
  PipelineStats Pipeline;
  uint64_t OracleQueries = 0;
  size_t CodeSize = 0;
  std::string IR; ///< Final IR text, when asked for.
  // Monitored (paper-suite) runs.
  uint64_t Cycles = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t OrigHeapLoads = 0;
  uint64_t RedundantAfter = 0;

  bool ok() const { return Error.empty(); }
};

AnalysisManagerOptions driverAMOptions() {
  return {.Level = AliasLevel::SMFieldTypeRefs, .Degrading = true};
}

PipelineOptions driverPipelineOptions(bool VerifyEach) {
  PipelineOptions PO; // devirt, inline, rle, copyprop, rle#2, pre
  PO.VerifyEach = VerifyEach;
  return PO;
}

/// Runs Main() on \p M with \p Monitors attached; with \p Rec, VM set-up
/// and Main() get the exec.init and exec.run spans.
std::string execute(const IRModule &M, const Job &J,
                    std::vector<ExecMonitor *> Monitors, JobResult &R,
                    SpanRecorder *Rec = nullptr) {
  std::optional<VM> Machine;
  {
    SpanRecorder::Scope S(Rec, "exec.init");
    Machine.emplace(M);
    for (ExecMonitor *Mon : Monitors)
      Machine->addMonitor(Mon);
    if (!Machine->runInit())
      return J.Name + ": init trapped: " + Machine->trapMessage();
  }
  std::optional<int64_t> Sum;
  {
    SpanRecorder::Scope S(Rec, "exec.run");
    Sum = Machine->callFunction("Main");
  }
  if (!Sum)
    return J.Name + ": Main trapped: " + Machine->trapMessage();
  R.Checksum = *Sum;
  R.Exec = Machine->stats();
  if (*Sum != J.Expected)
    return J.Name + ": checksum " + std::to_string(*Sum) + " != reference " +
           std::to_string(J.Expected);
  return {};
}

/// The `m3lc run --pipeline --pre` job on a bare VM (with \p VerifyEach,
/// the pipeline m3batch workers run).
JobResult runPipelineJob(const Job &J, bool VerifyEach, bool KeepIR) {
  JobResult R;
  uint64_t T0 = nowNs();
  DiagnosticEngine Diags;
  Compilation C = compileSource(J.Source, Diags);
  if (!C.ok()) {
    R.Error = J.Name + ": compile failed: " + Diags.str();
    return R;
  }
  AnalysisManager AM(C.ast(), C.types(), driverAMOptions());
  OptPipeline P(AM, driverPipelineOptions(VerifyEach));
  if (PipelineFailure F = P.run(C.IR); F.failed()) {
    R.Error = J.Name + ": verification failed after " + F.Pass;
    return R;
  }
  uint64_t T1 = nowNs();
  R.Error = execute(C.IR, J, {}, R);
  R.JobNs = nowNs() - T0;
  R.CompileNs = T1 - T0;
  R.Pipeline = P.stats();
  R.OracleQueries = AM.instrumented()->stats().totalQueries();
  R.CodeSize = codeSize(C.IR);
  if (KeepIR)
    R.IR = C.IR.dump();
  return R;
}

/// One untimed m3lc job with the timing simulator attached: the optimized
/// IR's simulated cycles (the Fig. 8 currency), dynamic heap loads (Fig.
/// 9) and size.
JobResult pipelineQuality(const Job &J, bool VerifyEach) {
  JobResult R;
  DiagnosticEngine Diags;
  Compilation C = compileSource(J.Source, Diags);
  if (!C.ok()) {
    R.Error = J.Name + ": compile failed: " + Diags.str();
    return R;
  }
  AnalysisManager AM(C.ast(), C.types(), driverAMOptions());
  OptPipeline P(AM, driverPipelineOptions(VerifyEach));
  if (PipelineFailure F = P.run(C.IR); F.failed()) {
    R.Error = J.Name + ": verification failed after " + F.Pass;
    return R;
  }
  TimingSimulator Timing;
  R.Error = execute(C.IR, J, {&Timing}, R);
  R.Cycles = Timing.cycles(R.Exec);
  R.CodeSize = codeSize(C.IR);
  return R;
}

/// compileSource, one span per front-end stage.
Compilation tracedCompile(const Job &J, SpanRecorder &Rec, Counts &Cnt,
                          std::string &Error) {
  Compilation C;
  C.Prog = std::make_unique<Program>();
  Program &P = *C.Prog;
  DiagnosticEngine Diags;
  std::vector<Token> Tokens;
  unsigned CodeLines = 0;
  {
    SpanRecorder::Scope S(&Rec, "lang.lex");
    Lexer Lex(J.Source, Diags);
    Tokens = Lex.lexAll();
    CodeLines = Lex.codeLineCount();
  }
  Cnt["lang.tokens"] += static_cast<double>(Tokens.size());
  std::unique_ptr<ModuleAST> M;
  if (!Diags.hasErrors()) {
    SpanRecorder::Scope S(&Rec, "lang.parse");
    Parser Parse(std::move(Tokens), P.Types, Diags);
    M = Parse.parseModule();
  }
  bool Checked = false;
  if (M && !Diags.hasErrors()) {
    M->SourceLines = CodeLines;
    SpanRecorder::Scope S(&Rec, "lang.sema");
    Checked = P.Types.finalize(Diags) && checkModule(*M, P.Types, Diags);
  }
  if (!Checked) {
    Error = J.Name + ": compile failed: " + Diags.str();
    return C;
  }
  P.Module = std::move(M);
  {
    SpanRecorder::Scope S(&Rec, "ir.lower");
    C.IR = lowerModule(*P.Module, P.Types);
  }
  Cnt["ir.instrs_lowered"] += static_cast<double>(codeSize(C.IR));
  return C;
}

/// Module analyses a pass is about to query, fetched ahead of it inside
/// their own spans so their build time is not charged to the pass. Every
/// fetch adds exactly one cache hit over the driver path (the pass's own
/// query hits instead of computing), which the guard accounts for.
struct Prefetches {
  uint64_t CallGraph = 0, AliasClasses = 0, ModRef = 0;
};

void prefetchForMemoryPass(IRModule &M, AnalysisManager &AM, SpanRecorder &Rec,
                           Prefetches &Pre) {
  AM.bind(M);
  const AliasClassEngine *ACE = nullptr;
  {
    SpanRecorder::Scope S(&Rec, "core.intern");
    ACE = AM.aliasClasses();
  }
  ++Pre.AliasClasses;
  if (ACE) {
    SpanRecorder::Scope S(&Rec, "core.partition");
    ACE->partition(AM.oracle());
  }
  {
    SpanRecorder::Scope S(&Rec, "analysis.callgraph");
    AM.callGraph();
  }
  ++Pre.CallGraph;
  {
    SpanRecorder::Scope S(&Rec, "analysis.modref");
    AM.modRef();
  }
  ++Pre.ModRef;
}

/// Compares the decomposition's outcome with the driver path's.
std::string compareWithDriver(const Job &J, const JobResult &Traced,
                              const JobResult &Driver, const Prefetches &Pre) {
  const PipelineStats &A = Traced.Pipeline, &B = Driver.Pipeline;
  auto Same = [](const AnalysisManager::KindCounters &X,
                 const AnalysisManager::KindCounters &Y, uint64_t ExtraHits) {
    return X.Computes == Y.Computes && X.Invalidations == Y.Invalidations &&
           X.Hits == Y.Hits + ExtraHits;
  };
  std::string Why;
  if (Traced.IR != Driver.IR)
    Why = "final IR differs";
  else if (A.MethodsResolved != B.MethodsResolved ||
           A.CallsInlined != B.CallsInlined ||
           A.OperandsPropagated != B.OperandsPropagated ||
           A.RLE.Hoisted != B.RLE.Hoisted || A.RLE.Replaced != B.RLE.Replaced ||
           A.RLE.TypeTestsElided != B.RLE.TypeTestsElided ||
           A.PRE.Inserted != B.PRE.Inserted || A.PRE.Replaced != B.PRE.Replaced)
    Why = "transformation counts differ";
  else if (!Same(A.Analyses.CallGraph, B.Analyses.CallGraph, Pre.CallGraph) ||
           !Same(A.Analyses.ModRef, B.Analyses.ModRef, Pre.ModRef) ||
           !Same(A.Analyses.AliasClasses, B.Analyses.AliasClasses,
                 Pre.AliasClasses) ||
           !Same(A.Analyses.Dominators, B.Analyses.Dominators, 0) ||
           !Same(A.Analyses.Loops, B.Analyses.Loops, 0))
    Why = "analysis cache counts differ";
  else if (Traced.OracleQueries != Driver.OracleQueries)
    Why = "oracle query counts differ";
  else if (Traced.Checksum != Driver.Checksum ||
           Traced.Exec.Ops != Driver.Exec.Ops ||
           Traced.Exec.HeapLoads != Driver.Exec.HeapLoads ||
           Traced.Cycles != Driver.Cycles ||
           Traced.RedundantAfter != Driver.RedundantAfter)
    Why = "execution differs";
  return Why.empty() ? Why
                     : J.Name + ": traced decomposition diverges from the "
                                "driver path: " + Why;
}

/// runPipelineJob decomposed into the per-layer public calls, in
/// OptPipeline's sequential order with its invalidations.
JobResult tracedPipelineJob(const Job &J, bool VerifyEach, SpanRecorder &Rec,
                            Counts &Cnt, Prefetches &Pre) {
  JobResult R;
  std::map<std::string, uint64_t> StatsBefore = statValues();
  uint64_t T0 = nowNs();
  std::optional<SpanRecorder::Scope> JobSpan(std::in_place, &Rec, "job");
  Compilation C = tracedCompile(J, Rec, Cnt, R.Error);
  if (!R.ok())
    return R;
  IRModule &M = C.IR;
  AnalysisManager AM(C.ast(), C.types(), driverAMOptions());
  AM.rebind(M);
  PipelineStats &PS = R.Pipeline;
  auto Verify = [&](const char *Pass) {
    if (!VerifyEach || !R.ok())
      return;
    SpanRecorder::Scope S(&Rec, "ir.verify");
    if (OptPipeline::verifyAfter(M, Pass).failed())
      R.Error = J.Name + ": verification failed after " + Pass;
  };
  Verify("<input>");
  {
    SpanRecorder::Scope S(&Rec, "core.context");
    AM.context();
  }
  {
    SpanRecorder::Scope S(&Rec, "opt.devirt");
    PS.MethodsResolved = resolveMethodCalls(M, AM.context());
    if (PS.MethodsResolved)
      AM.invalidateModuleAnalyses();
  }
  Verify("devirt");
  {
    AM.bind(M);
    SpanRecorder::Scope S(&Rec, "analysis.callgraph");
    AM.callGraph();
  }
  ++Pre.CallGraph;
  {
    SpanRecorder::Scope S(&Rec, "opt.inline");
    PS.CallsInlined = inlineCalls(M, AM);
  }
  Verify("inline");
  auto RLEPass = [&] {
    prefetchForMemoryPass(M, AM, Rec, Pre);
    SpanRecorder::Scope S(&Rec, "opt.rle");
    RLEStats RS = runRLE(M, AM);
    PS.RLE.Hoisted += RS.Hoisted;
    PS.RLE.Replaced += RS.Replaced;
    PS.RLE.TypeTestsElided += RS.TypeTestsElided;
  };
  RLEPass();
  Verify("rle");
  {
    SpanRecorder::Scope S(&Rec, "opt.copyprop");
    PS.OperandsPropagated = propagateCopies(M);
  }
  Verify("copyprop");
  RLEPass();
  Verify("rle#2");
  prefetchForMemoryPass(M, AM, Rec, Pre);
  {
    SpanRecorder::Scope S(&Rec, "opt.pre");
    PS.PRE = runLoadPRE(M, AM);
  }
  Verify("pre");
  if (!R.ok())
    return R;
  PS.Analyses = AM.cacheStats();
  R.OracleQueries = AM.instrumented()->stats().totalQueries();
  uint64_t T1 = nowNs();
  R.Error = execute(M, J, {}, R, &Rec);
  R.JobNs = nowNs() - T0;
  JobSpan.reset();
  R.CompileNs = T1 - T0;
  R.CodeSize = codeSize(M);
  R.IR = M.dump();
  addStatDeltas(Cnt, StatsBefore);
  return R;
}

//===----------------------------------------------------------------------===//
// The paper-suite job: one half of a Fig. 8/9 row
//===----------------------------------------------------------------------===//

/// Copies what the monitors saw into \p R: cache behaviour of the
/// optimized run (Fig. 8), and the heap loads of the original run or the
/// redundant loads left in the optimized one (Fig. 9).
void recordMonitors(const Job &J, const TimingSimulator &Timing,
                    const RedundantLoadMonitor &Limit, JobResult &R) {
  R.Cycles = Timing.cycles(R.Exec);
  if (J.ApplyRLE) {
    R.CacheHits = Timing.cache().hits();
    R.CacheMisses = Timing.cache().misses();
    R.RedundantAfter = Limit.redundantLoads();
  } else {
    R.OrigHeapLoads = Limit.heapLoads();
  }
}

AnalysisManagerOptions paperAMOptions() {
  return {.Level = AliasLevel::SMFieldTypeRefs, .Degrading = false};
}

/// The reproducer's path (bench/BenchCommon.h): the original IR, or the
/// RLE-optimized IR (SMFieldTypeRefs, plain instrumented oracle), run with
/// the timing simulator and the redundant-load monitor attached.
JobResult runPaperJob(const Job &J, bool KeepIR) {
  JobResult R;
  uint64_t T0 = nowNs();
  DiagnosticEngine Diags;
  Compilation C = compileSource(J.Source, Diags);
  if (!C.ok()) {
    R.Error = J.Name + ": compile failed: " + Diags.str();
    return R;
  }
  std::optional<AnalysisManager> AM;
  if (J.ApplyRLE) {
    AM.emplace(C.ast(), C.types(), paperAMOptions());
    AM->bind(C.IR);
    R.Pipeline.RLE = runRLE(C.IR, *AM);
  }
  R.CompileNs = nowNs() - T0;
  TimingSimulator Timing;
  RedundantLoadMonitor Limit;
  R.Error = execute(C.IR, J, {&Timing, &Limit}, R);
  R.JobNs = nowNs() - T0;
  recordMonitors(J, Timing, Limit, R);
  if (AM) {
    R.Pipeline.Analyses = AM->cacheStats();
    R.OracleQueries = AM->instrumented()->stats().totalQueries();
  }
  R.CodeSize = codeSize(C.IR);
  if (KeepIR)
    R.IR = C.IR.dump();
  return R;
}

/// Wall time of one run of \p M with \p Monitors attached.
uint64_t timedRun(const IRModule &M, std::vector<ExecMonitor *> Monitors) {
  uint64_t T0 = nowNs();
  VM Machine(M);
  for (ExecMonitor *Mon : Monitors)
    Machine.addMonitor(Mon);
  if (Machine.runInit())
    Machine.callFunction("Main");
  return nowNs() - T0;
}

/// The sim and limit layers' cost on \p M: each monitor alone against a
/// bare run of the same IR.
void monitorOverheads(const IRModule &M, Counts &Cnt) {
  uint64_t Bare = timedRun(M, {});
  TimingSimulator Timing;
  uint64_t Sim = timedRun(M, {&Timing});
  RedundantLoadMonitor Limit;
  uint64_t Lim = timedRun(M, {&Limit});
  Cnt["sim.overhead_ns"] += static_cast<double>(Sim) - static_cast<double>(Bare);
  Cnt["limit.overhead_ns"] +=
      static_cast<double>(Lim) - static_cast<double>(Bare);
}

/// runPaperJob decomposed into per-layer calls. The monitor-overhead runs
/// happen after the job span closes, so they are not part of its time.
JobResult tracedPaperJob(const Job &J, SpanRecorder &Rec, Counts &Cnt,
                         Prefetches &Pre) {
  JobResult R;
  std::map<std::string, uint64_t> StatsBefore = statValues();
  uint64_t T0 = nowNs();
  std::optional<SpanRecorder::Scope> JobSpan(std::in_place, &Rec, "job");
  Compilation C = tracedCompile(J, Rec, Cnt, R.Error);
  if (!R.ok())
    return R;
  IRModule &M = C.IR;
  std::optional<AnalysisManager> AM;
  if (J.ApplyRLE) {
    AM.emplace(C.ast(), C.types(), paperAMOptions());
    AM->bind(M);
    {
      SpanRecorder::Scope S(&Rec, "core.context");
      AM->context();
    }
    prefetchForMemoryPass(M, *AM, Rec, Pre);
    SpanRecorder::Scope S(&Rec, "opt.rle");
    R.Pipeline.RLE = runRLE(M, *AM);
  }
  TimingSimulator Timing;
  RedundantLoadMonitor Limit;
  R.Error = execute(M, J, {&Timing, &Limit}, R, &Rec);
  R.JobNs = nowNs() - T0;
  JobSpan.reset();
  recordMonitors(J, Timing, Limit, R);
  if (AM) {
    R.Pipeline.Analyses = AM->cacheStats();
    R.OracleQueries = AM->instrumented()->stats().totalQueries();
  }
  R.CodeSize = codeSize(M);
  R.IR = M.dump();
  addStatDeltas(Cnt, StatsBefore);
  if (R.ok())
    monitorOverheads(M, Cnt);
  return R;
}

//===----------------------------------------------------------------------===//
// The m3batch job: runBatch + jobs::runCompileJob
//===----------------------------------------------------------------------===//

/// One settled batch job as the journal and the batch result saw it.
struct BatchJobOutcome {
  std::string Id;
  std::string Error;
  uint64_t WallMs = 0; ///< Journal wall time, summed over attempts.
  uint64_t Attempts = 0;
  uint64_t PeakRSSKB = 0;
};

struct BatchRound {
  std::string Error; ///< Driver-level failure.
  uint64_t MakespanNs = 0;
  std::vector<BatchJobOutcome> Jobs;
};

/// One runBatch over \p Jobs with m3batch's `--pipeline --pre` flags and
/// its default supervisor settings, at most \p Workers at a time.
BatchRound runBatchRound(const std::vector<Job> &Jobs, unsigned Workers,
                         const std::string &JournalPath) {
  BatchConfig Cfg;
  jobs::CompileFlags Flags;
  Flags.Pipeline = Flags.PRE = true;
  std::vector<BatchJob> Batch;
  for (const Job &J : Jobs) {
    BatchJob B;
    B.Id = J.Name;
    B.Source = J.Source;
    B.Make = [Source = J.Source, Cfg, Flags](DegradeLevel D) {
      return [=](int Fd) {
        return jobs::runCompileJob(Source, Cfg, Flags, D, Fd);
      };
    };
    Batch.push_back(std::move(B));
  }
  BatchOptions BO;
  BO.Parallelism = Workers;
  BO.Limits.WallMs = Cfg.TimeoutMs;
  BO.Limits.CpuSeconds = Cfg.CpuSeconds;
  BO.Limits.MemoryMB = Cfg.MemoryMB;
  BO.Retry.MaxAttempts = Cfg.Retries;
  BO.Retry.BackoffBaseMs = Cfg.BackoffMs;
  BO.Retry.BackoffCapMs = Cfg.BackoffCapMs;
  BO.JournalPath = JournalPath;

  BatchRound Round;
  uint64_t T0 = nowNs();
  BatchResult BR = runBatch(Batch, BO);
  Round.MakespanNs = nowNs() - T0;
  if (!BR.ok()) {
    Round.Error = "runBatch: " + BR.Error;
    return Round;
  }
  std::vector<JournalRecord> Records;
  if (!Journal::load(JournalPath, Records, Round.Error))
    return Round;
  std::map<std::string, BatchJobOutcome> ById;
  for (const JournalRecord &Rec : Records) {
    BatchJobOutcome &O = ById[Rec.Job];
    O.WallMs += Rec.WallMs;
    O.PeakRSSKB = std::max(O.PeakRSSKB, Rec.PeakRSSKB);
  }
  std::map<std::string, int64_t> Expected;
  for (const Job &J : Jobs)
    Expected[J.Name] = J.Expected;
  for (const JobFinal &F : BR.Finals) {
    BatchJobOutcome O = ById[F.Id];
    O.Id = F.Id;
    O.Attempts = F.Attempts;
    if (F.Outcome != JobOutcome::Ok || F.Level != DegradeLevel::Full)
      O.Error = F.Id + ": outcome " + jobOutcomeName(F.Outcome) + " at " +
                degradeLevelName(F.Level);
    else if (!F.HasResult || F.Result != Expected[F.Id])
      O.Error = F.Id + ": checksum mismatch";
    Round.Jobs.push_back(O);
  }
  if (Round.Jobs.size() != Jobs.size())
    Round.Error = "runBatch settled " + std::to_string(Round.Jobs.size()) +
                  " of " + std::to_string(Jobs.size()) + " jobs";
  return Round;
}

//===----------------------------------------------------------------------===//
// CPU placement
//===----------------------------------------------------------------------===//

/// Moves a one-client, in-process workload to the next allowed CPU before
/// each job. Other tenants of the machine load single CPUs for seconds to
/// minutes at a time, making every job there 30-60% slower; a client that
/// stayed on one CPU would measure that CPU's luck, while one that visits
/// every CPU in turn measures their average, as the batch workers of
/// shape-sweep do. Forked workers inherit the affinity, so release() must
/// come before any batch.
class CpuRotation {
public:
  /// Reads the allowed CPUs; false when affinity is unavailable.
  bool init() {
    CPU_ZERO(&Allowed);
    if (sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0)
      return false;
    for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu)
      if (CPU_ISSET(Cpu, &Allowed))
        Cpus.push_back(Cpu);
    return !Cpus.empty();
  }

  void next() {
    if (Cpus.empty())
      return;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[Next++ % Cpus.size()], &One);
    sched_setaffinity(0, sizeof(One), &One);
  }

  /// Allows every CPU again.
  void release() {
    if (!Cpus.empty())
      sched_setaffinity(0, sizeof(Allowed), &Allowed);
  }

private:
  cpu_set_t Allowed;
  std::vector<int> Cpus;
  size_t Next = 0;
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir = ".";
  unsigned Workers = 4;
};

/// Seeds of a workload's generated modules: a pure function of the
/// benchmark seed and the module's index.
uint64_t moduleSeed(uint64_t Seed, uint64_t Index) {
  uint64_t X = Seed * 0x9E3779B97F4A7C15ull + Index + 1;
  X ^= X >> 31;
  X *= 0xBF58476D1CE4E5B9ull;
  X ^= X >> 29;
  return X % 1'000'000'007ull + 1;
}

/// gen-compile's module shape: ~2000 statements over 64 procedures.
Job genCompileJob(uint64_t Seed, uint64_t Index) {
  GeneratorOptions GO;
  GO.Seed = moduleSeed(Seed, Index);
  GO.StatementBudget = 2000;
  GO.NumProcs = 64;
  Job J;
  J.Name = "gen:" + std::to_string(GO.Seed) + ":2000x64";
  J.Source = generateProgram(GO);
  return J;
}

/// shape-sweep's module: the drivers' `gen:SEED:s40` job.
Job shapeJob(uint64_t Seed, uint64_t Index) {
  Job J;
  J.Name = "gen:" + std::to_string(moduleSeed(Seed, Index)) + ":s40";
  jobs::resolveJobSource(J.Name, J.Source);
  return J;
}

constexpr unsigned ShapeModules = 16;
constexpr unsigned ShapeQualityModules = 128;
constexpr double PoolJobsPerSecond = 14;
constexpr unsigned GenQualityModules = 16;
constexpr unsigned GenTracedModules = 12;
constexpr unsigned SetupRepeats = 3;

/// Everything a run reports, before run.py turns it into metrics.
struct Report {
  std::vector<double> SetupS;
  struct Sample {
    std::string Program;
    uint64_t JobNs, CompileNs;
    /// Index of the timed-loop segment the job ran in; -1 outside it.
    int64_t Segment = -1;
  };
  std::vector<Sample> Samples;
  std::vector<Sample> UntracedSamples; ///< --trace 1 only.
  /// Stretches of the timed loop (a round, or a fixed number of jobs).
  /// run.py drops the slowest quarter of them before taking any timing
  /// metric, so a burst of load from outside the benchmark that covers
  /// less than that moves nothing.
  struct Segment {
    uint64_t Jobs, WallNs, CpuNs;
  };
  std::vector<Segment> Segments;
  uint64_t PeakRSSKB = 0;
  uint64_t Attempted = 0;
  std::vector<std::string> Errors;
  struct Quality {
    std::string Program;
    uint64_t Cycles, HeapLoads, CodeSize;
  };
  std::vector<Quality> Qualities;
  Counts Cnt;        ///< Per-layer totals over the traced jobs.
  uint64_t TracedJobs = 0;
  std::map<std::string, uint64_t> SelfNs;
  bool PoolExhausted = false;
};

class Workload {
public:
  explicit Workload(const Options &Opts) : Opts(Opts) {}
  virtual ~Workload() = default;
  Workload(const Workload &) = delete;
  Workload &operator=(const Workload &) = delete;

  /// Builds the inputs and references and warms up. Called several
  /// times; each call replaces the previous state.
  virtual void setup(Report &Rep) = 0;
  /// The timed closed loop.
  virtual void measure(Report &Rep) = 0;
  /// One untimed run per program for the output-quality counts.
  virtual void quality(Report &Rep) = 0;
  /// The traced run over a fixed job list.
  virtual void trace(Report &Rep, SpanRecorder &Rec) = 0;
  /// True when jobs run in forked workers, whose CPU and memory count.
  virtual bool forksWorkers() const { return false; }

  /// Moves in-process jobs between CPUs; null when affinity is
  /// unavailable.
  CpuRotation *Cpus = nullptr;

protected:
  bool timeLeft(uint64_t Start) const {
    return static_cast<double>(nowNs() - Start) < Opts.Seconds * 1e9;
  }
  void beginSegment(const Report &Rep) {
    SegWall = nowNs();
    SegCpu = cpuNs(forksWorkers());
    SegSamples = Rep.Samples.size();
  }
  void endSegment(Report &Rep) {
    Report::Segment S{Rep.Samples.size() - SegSamples, nowNs() - SegWall,
                      cpuNs(forksWorkers()) - SegCpu};
    Rep.Segments.push_back(S);
  }
  void record(Report &Rep, const JobResult &R, const Job &J) {
    ++Rep.Attempted;
    if (!R.ok())
      Rep.Errors.push_back(R.Error);
    else
      Rep.Samples.push_back({J.Name, R.JobNs, R.CompileNs, segment(Rep)});
  }
  static void addQuality(Report &Rep, const Job &J, const JobResult &R) {
    ++Rep.Attempted;
    if (!R.ok())
      Rep.Errors.push_back(R.Error);
    else
      Rep.Qualities.push_back(
          {J.Name, R.Cycles, R.Exec.HeapLoads, R.CodeSize});
  }
  static int64_t segment(const Report &Rep) {
    return static_cast<int64_t>(Rep.Segments.size());
  }

  void nextCpu() {
    if (Cpus)
      Cpus->next();
  }
  void releaseCpu() {
    if (Cpus)
      Cpus->release();
  }

  const Options &Opts;

private:
  uint64_t SegWall = 0, SegCpu = 0;
  size_t SegSamples = 0;
};

/// Runs and checks a job on both paths; the traced one must match.
/// Rounds alternate which path runs first, so neither always finds the
/// caches the other warmed.
template <typename DriverFn, typename TracedFn>
void traceOne(Report &Rep, SpanRecorder &Rec, const Job &J, DriverFn Driver,
              TracedFn Traced, bool TracedFirst) {
  Rec.setJob(static_cast<uint32_t>(Rep.TracedJobs));
  Prefetches Pre;
  std::optional<JobResult> T;
  if (TracedFirst)
    T = Traced(Pre);
  JobResult D = Driver();
  if (!TracedFirst)
    T = Traced(Pre);
  Rep.Attempted += 2;
  if (!D.ok()) {
    Rep.Errors.push_back(D.Error);
    return;
  }
  Rep.UntracedSamples.push_back({J.Name, D.JobNs, D.CompileNs});
  if (T->ok())
    T->Error = compareWithDriver(J, *T, D, Pre);
  if (!T->ok()) {
    Rep.Errors.push_back(T->Error);
    return;
  }
  ++Rep.TracedJobs;
  Rep.Samples.push_back({J.Name, T->JobNs, T->CompileNs});
  Counts &C = Rep.Cnt;
  const PipelineStats &PS = D.Pipeline;
  C["analysis.computes"] += static_cast<double>(PS.Analyses.totalComputes());
  C["analysis.hits"] += static_cast<double>(PS.Analyses.totalHits());
  C["opt.oracle_queries"] += static_cast<double>(D.OracleQueries);
  C["opt.calls_inlined"] += PS.CallsInlined;
  C["opt.loads_hoisted"] += PS.RLE.Hoisted;
  C["opt.loads_replaced"] += PS.RLE.Replaced;
  C["opt.pre_inserted"] += PS.PRE.Inserted;
  C["exec.ops"] += static_cast<double>(D.Exec.Ops);
  C["exec.calls"] += static_cast<double>(D.Exec.Calls);
  C["sim.misses"] += static_cast<double>(D.CacheMisses);
  C["sim.accesses"] += static_cast<double>(D.CacheHits + D.CacheMisses);
  C["limit.redundant"] += static_cast<double>(D.RedundantAfter);
  C["limit.orig_heap_loads"] += static_cast<double>(D.OrigHeapLoads);
}

/// golden and paper-suite: the bundled programs, repeated in rounds.
class BundledWorkload : public Workload {
public:
  BundledWorkload(const Options &Opts, bool Paper)
      : Workload(Opts), Paper(Paper) {}

  void setup(Report &Rep) override {
    Jobs.clear();
    for (const WorkloadInfo &W : allWorkloads()) {
      // The paper has dynamic numbers only for the non-interactive eight.
      if (Paper && W.Interactive)
        continue;
      std::optional<int64_t> Sum = goldenChecksum(W.Name);
      if (!Sum) {
        Rep.Errors.push_back(std::string(W.Name) + ": no reference checksum");
        continue;
      }
      if (!Paper) {
        Jobs.push_back({W.Name, W.Source, *Sum});
        continue;
      }
      // Each half of the program's Fig. 8/9 row is a job of its own.
      Jobs.push_back({std::string(W.Name) + "/orig", W.Source, *Sum, false});
      Jobs.push_back({std::string(W.Name) + "/rle", W.Source, *Sum, true});
    }
    OpsOf.clear();
    for (const Job &J : Jobs)
      check(Rep, J, run(J, false));
  }

  void measure(Report &Rep) override {
    uint64_t Start = nowNs();
    while (timeLeft(Start)) {
      beginSegment(Rep);
      for (const Job &J : Jobs) {
        nextCpu();
        JobResult R = run(J, false);
        record(Rep, R, J);
        check(Rep, J, R);
      }
      endSegment(Rep);
    }
  }

  void quality(Report &Rep) override {
    for (const Job &J : Jobs) {
      if (Paper && !J.ApplyRLE)
        continue;
      addQuality(Rep, J, Paper ? run(J, false) : pipelineQuality(J, false));
    }
  }

  void trace(Report &Rep, SpanRecorder &Rec) override {
    constexpr unsigned Rounds = 2;
    for (unsigned I = 0; I != Rounds; ++I)
      for (const Job &J : Jobs) {
        nextCpu();
        if (Paper)
          traceOne(
              Rep, Rec, J, [&] { return runPaperJob(J, true); },
              [&](Prefetches &Pre) {
                return tracedPaperJob(J, Rec, Rep.Cnt, Pre);
              },
              I % 2);
        else
          traceOne(
              Rep, Rec, J, [&] { return runPipelineJob(J, false, true); },
              [&](Prefetches &Pre) {
                return tracedPipelineJob(J, false, Rec, Rep.Cnt, Pre);
              },
              I % 2);
      }
  }

private:
  JobResult run(const Job &J, bool KeepIR) {
    return Paper ? runPaperJob(J, KeepIR) : runPipelineJob(J, false, KeepIR);
  }

  /// Every round of a program must execute the same operations.
  void check(Report &Rep, const Job &J, const JobResult &R) {
    if (!R.ok())
      return;
    auto [It, New] = OpsOf.emplace(J.Name, R.Exec.Ops);
    if (!New && It->second != R.Exec.Ops)
      Rep.Errors.push_back(J.Name + ": executed ops drifted between rounds");
  }

  bool Paper;
  std::vector<Job> Jobs;
  std::map<std::string, uint64_t> OpsOf;
};

/// gen-compile: distinct generated many-procedure modules, never repeated.
class GenCompileWorkload : public Workload {
public:
  using Workload::Workload;

  void setup(Report &Rep) override {
    Job Warm = genCompileJob(Opts.Seed, ~0ull >> 1);
    if (reference(Rep, Warm)) {
      JobResult R = runPipelineJob(Warm, false, false);
      if (!R.ok())
        Rep.Errors.push_back(R.Error);
    }
    // Enough modules for PoolJobsPerSecond, about 1.5x today's rate; a
    // faster compiler that runs out measures a shorter loop (reported as
    // pool_exhausted) rather than repeating a module.
    size_t N = static_cast<size_t>(Opts.Seconds * PoolJobsPerSecond) + 8;
    Pool.clear();
    for (size_t I = 0; I != N; ++I) {
      Pool.push_back(genCompileJob(Opts.Seed, I));
      if (!reference(Rep, Pool.back()))
        return;
    }
  }

  void measure(Report &Rep) override {
    constexpr size_t SegmentJobs = 8;
    uint64_t Start = nowNs();
    size_t Next = 0;
    while (timeLeft(Start)) {
      if (Next == Pool.size()) {
        Rep.PoolExhausted = true;
        break;
      }
      if (Next % SegmentJobs == 0)
        beginSegment(Rep);
      const Job &J = Pool[Next++];
      nextCpu();
      record(Rep, runPipelineJob(J, false, false), J);
      if (Next % SegmentJobs == 0)
        endSegment(Rep);
    }
  }

  void quality(Report &Rep) override {
    for (size_t I = 0; I != std::min<size_t>(GenQualityModules, Pool.size());
         ++I)
      addQuality(Rep, Pool[I], pipelineQuality(Pool[I], false));
  }

  void trace(Report &Rep, SpanRecorder &Rec) override {
    for (size_t I = 0; I != std::min<size_t>(GenTracedModules, Pool.size());
         ++I) {
      const Job &J = Pool[I];
      nextCpu();
      traceOne(
          Rep, Rec, J, [&] { return runPipelineJob(J, false, true); },
          [&](Prefetches &Pre) {
            return tracedPipelineJob(J, false, Rec, Rep.Cnt, Pre);
          },
          I % 2);
    }
  }

protected:
  static bool reference(Report &Rep, Job &J) {
    std::optional<int64_t> Sum = unoptimizedChecksum(J.Source);
    if (!Sum) {
      Rep.Errors.push_back(J.Name + ": unoptimized reference run failed");
      return false;
    }
    J.Expected = *Sum;
    return true;
  }

  std::vector<Job> Pool;
};

/// shape-sweep: modules sharing one 40-type shape shelf, each listed
/// twice (build and rebuild), as one runBatch per round.
class ShapeSweepWorkload : public GenCompileWorkload {
public:
  using GenCompileWorkload::GenCompileWorkload;

  void setup(Report &Rep) override {
    Pool.clear();
    Batch.clear();
    for (unsigned I = 0; I != ShapeModules; ++I) {
      Pool.push_back(shapeJob(Opts.Seed, I));
      if (!reference(Rep, Pool.back()))
        return;
      for (const char *Suffix : {"/build", "/rebuild"}) {
        Batch.push_back(Pool.back());
        Batch.back().Name += Suffix;
      }
    }
    JobResult R = runPipelineJob(Pool.front(), true, false);
    if (!R.ok())
      Rep.Errors.push_back(R.Error);
    BatchRound Warm = batchRound();
    if (!Warm.Error.empty())
      Rep.Errors.push_back(Warm.Error);
  }

  void measure(Report &Rep) override {
    uint64_t Start = nowNs();
    size_t Replay = 0;
    while (timeLeft(Start)) {
      beginSegment(Rep);
      BatchRound Round = batchRound();
      if (!Round.Error.empty()) {
        Rep.Attempted += Batch.size();
        Rep.Errors.push_back(Round.Error);
        return;
      }
      for (const BatchJobOutcome &O : Round.Jobs) {
        ++Rep.Attempted;
        if (!O.Error.empty())
          Rep.Errors.push_back(O.Error);
        else
          Rep.Samples.push_back(
              {O.Id, O.WallMs * 1'000'000ull, 0, segment(Rep)});
      }
      endSegment(Rep);
      // compile_ms: the journal has no compile time, so two modules'
      // worker bodies are replayed in process after each round, outside
      // its segment, tagged with it.
      for (int I = 0; I != 2; ++I) {
        const Job &J = Pool[Replay++ % Pool.size()];
        nextCpu();
        JobResult R = runPipelineJob(J, true, false);
        ++Rep.Attempted;
        if (!R.ok())
          Rep.Errors.push_back(R.Error);
        else
          Rep.UntracedSamples.push_back(
              {J.Name, R.JobNs, R.CompileNs, segment(Rep) - 1});
      }
    }
  }

  bool forksWorkers() const override { return true; }

  void quality(Report &Rep) override {
    // The batch's modules are small; more of them keep the geometric
    // means of the quality counts steady from seed to seed.
    for (unsigned I = 0; I != ShapeQualityModules; ++I) {
      Job J = I < Pool.size() ? Pool[I] : shapeJob(Opts.Seed, I);
      if (I < Pool.size() || reference(Rep, J))
        addQuality(Rep, J, pipelineQuality(J, true));
    }
  }

  void trace(Report &Rep, SpanRecorder &Rec) override {
    constexpr unsigned Rounds = 2;
    for (unsigned I = 0; I != Rounds; ++I)
      for (const Job &J : Pool) {
        nextCpu();
        traceOne(
            Rep, Rec, J, [&] { return runPipelineJob(J, true, true); },
            [&](Prefetches &Pre) {
              return tracedPipelineJob(J, true, Rec, Rep.Cnt, Pre);
            },
            I % 2);
      }
    // The service layer around the same jobs: one batch round, compared
    // with the in-process replays above.
    BatchRound Round = batchRound();
    if (!Round.Error.empty()) {
      Rep.Errors.push_back(Round.Error);
      return;
    }
    std::vector<double> RssMB;
    for (const BatchJobOutcome &O : Round.Jobs) {
      ++Rep.Attempted;
      if (!O.Error.empty())
        Rep.Errors.push_back(O.Error);
      Rep.Cnt["service.journal_wall_ms"] += static_cast<double>(O.WallMs);
      Rep.Cnt["service.attempts"] += static_cast<double>(O.Attempts);
      RssMB.push_back(static_cast<double>(O.PeakRSSKB) / 1024.0);
    }
    Rep.Cnt["service.jobs"] += static_cast<double>(Round.Jobs.size());
    Rep.Cnt["service.makespan_ms"] +=
        static_cast<double>(Round.MakespanNs) / 1e6;
    std::sort(RssMB.begin(), RssMB.end());
    if (!RssMB.empty())
      Rep.Cnt["service.worker_rss_mb"] = RssMB[RssMB.size() / 2];
  }

private:
  BatchRound batchRound() {
    releaseCpu();
    return runBatchRound(Batch, Opts.Workers,
                         Opts.WorkDir + "/shape-sweep-" +
                             std::to_string(Opts.Seed) + ".jsonl");
  }

  std::vector<Job> Batch;
};

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_e2e --workload W --seed N --seconds T "
               "--trace 0|1 --workdir DIR [--workers N]\n"
               "workloads: golden, paper-suite, gen-compile, shape-sweep\n");
  return 2;
}

std::unique_ptr<Workload> makeWorkload(const Options &Opts) {
  if (Opts.Workload == "golden")
    return std::make_unique<BundledWorkload>(Opts, false);
  if (Opts.Workload == "paper-suite")
    return std::make_unique<BundledWorkload>(Opts, true);
  if (Opts.Workload == "gen-compile")
    return std::make_unique<GenCompileWorkload>(Opts);
  if (Opts.Workload == "shape-sweep")
    return std::make_unique<ShapeSweepWorkload>(Opts);
  return nullptr;
}

void writeSamples(json::Writer &W, const std::vector<Report::Sample> &S) {
  W.beginArray();
  for (const Report::Sample &X : S) {
    W.beginObject();
    W.key("program").value(X.Program);
    W.key("job_ns").value(X.JobNs);
    W.key("compile_ns").value(X.CompileNs);
    W.key("segment").value(X.Segment);
    W.endObject();
  }
  W.endArray();
}

std::string render(const Options &Opts, const Report &Rep) {
  json::Writer W;
  W.beginObject();
  W.key("workload").value(Opts.Workload);
  W.key("seed").value(Opts.Seed);
  W.key("trace").value(Opts.Trace);
  W.key("env").beginObject();
  W.key("nproc").value(onlineCpus());
  W.key("compiler").value(PERFBENCH_COMPILER);
  W.key("build_type").value(PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
  W.key("asserts").value(false);
#else
  W.key("asserts").value(true);
#endif
  W.key("workers").value(Opts.Workers);
  W.endObject();
  W.key("setup_s").beginArray();
  for (double S : Rep.SetupS)
    W.value(S);
  W.endArray();
  W.key("samples");
  writeSamples(W, Rep.Samples);
  W.key("untraced_samples");
  writeSamples(W, Rep.UntracedSamples);
  W.key("segments").beginArray();
  for (const Report::Segment &S : Rep.Segments) {
    W.beginObject();
    W.key("jobs").value(S.Jobs);
    W.key("wall_ns").value(S.WallNs);
    W.key("cpu_ns").value(S.CpuNs);
    W.endObject();
  }
  W.endArray();
  W.key("peak_rss_kb").value(Rep.PeakRSSKB);
  W.key("attempted").value(Rep.Attempted);
  W.key("pool_exhausted").value(Rep.PoolExhausted);
  W.key("errors").beginArray();
  for (const std::string &E : Rep.Errors)
    W.value(E);
  W.endArray();
  W.key("quality").beginArray();
  for (const Report::Quality &Q : Rep.Qualities) {
    W.beginObject();
    W.key("program").value(Q.Program);
    W.key("sim_cycles").value(Q.Cycles);
    W.key("dyn_heap_loads").value(Q.HeapLoads);
    W.key("code_size_instrs").value(static_cast<uint64_t>(Q.CodeSize));
    W.endObject();
  }
  W.endArray();
  W.key("traced_jobs").value(Rep.TracedJobs);
  W.key("counts").beginObject();
  for (const auto &[K, V] : Rep.Cnt)
    W.key(K).value(V);
  W.endObject();
  W.key("self_ns").beginObject();
  for (const auto &[K, V] : Rep.SelfNs)
    W.key(K).value(V);
  W.endObject();
  W.endObject();
  return W.str();
}

} // namespace

int main(int argc, char **argv) {
  Options Opts;
  bool HaveWorkload = false;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string Flag = argv[I], Val = argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      Opts.Workload = Val;
      HaveWorkload = true;
    } else if (Flag == "--seed")
      Opts.Seed = std::strtoull(Val.c_str(), &End, 10);
    else if (Flag == "--seconds")
      Opts.Seconds = std::strtod(Val.c_str(), &End);
    else if (Flag == "--trace")
      Opts.Trace = Val == "1";
    else if (Flag == "--workdir")
      Opts.WorkDir = Val;
    else if (Flag == "--workers")
      Opts.Workers = static_cast<unsigned>(std::strtoul(Val.c_str(), &End, 10));
    else
      return usage();
    if (End && *End)
      return usage();
  }
  if (!HaveWorkload || argc % 2 != 1 || !(Opts.Seconds > 0))
    return usage();
  if (Opts.Workers == 0 || Opts.Workers > onlineCpus()) {
    std::fprintf(stderr,
                 "perfbench_e2e: refusing %u batch workers on %u CPUs\n",
                 Opts.Workers, onlineCpus());
    return 2;
  }
  std::unique_ptr<Workload> W = makeWorkload(Opts);
  if (!W)
    return usage();

  Report Rep;
  // Forked workers on idle CPUs run several times slower for about the
  // first second of a batch; one untimed set-up, which ends in a batch
  // round, takes that out of every timed number.
  CpuRotation Rotation;
  if (Rotation.init())
    W->Cpus = &Rotation;
  if (W->forksWorkers())
    W->setup(Rep);
  for (unsigned I = 0; I != SetupRepeats; ++I) {
    uint64_t T0 = nowNs();
    W->setup(Rep);
    Rep.SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
  }
  if (Rep.Errors.empty()) {
    bool Forks = W->forksWorkers();
    if (!Opts.Trace) {
      W->measure(Rep);
      Rep.PeakRSSKB = std::max(peakRssKB(RUSAGE_SELF),
                               Forks ? peakRssKB(RUSAGE_CHILDREN) : 0);
      W->quality(Rep);
    } else {
      SpanRecorder Rec;
      W->trace(Rep, Rec);
      Rep.SelfNs = Rec.selfNs();
      if (!Rec.write(Opts.WorkDir + "/spans-" + Opts.Workload + "-" +
                     std::to_string(Opts.Seed) + ".json"))
        Rep.Errors.push_back("cannot write the span log");
    }
  }
  std::printf("%s\n", render(Opts, Rep).c_str());
  return 0;
}
