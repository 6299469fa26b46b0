//===----------------------------------------------------------------------===//
///
/// \file
/// ThreadSanitizer smoke over the speculative DOALL runtime: plan a
/// kernel with speculation enabled, apply the plan, and execute it on
/// real worker threads under -fsanitize=thread — once on the profiled
/// input (commit path: journal writes, validation, ordered commit) and
/// once with the input flipped so every dispatch conflicts (rollback
/// path: journal discard, sequential re-execution). A TSan report on
/// either path indicts the write-log/commit protocol's synchronization.
///
/// Two more programs run on 4 workers to cover retired-instruction
/// publication (thread-local flushes, one add per engine entry): a
/// DOALL whose task calls sin() every iteration, and the x264 suite
/// kernel planned with speculation on its commit path. After each join
/// the engine total must equal the main thread's count plus every
/// task's count.
///
//===----------------------------------------------------------------------===//

#include "benchmarks/Suite.h"
#include "frontend/MiniC.h"
#include "noelle/Noelle.h"
#include "planner/Planner.h"
#include "runtime/ParallelRuntime.h"
#include "xforms/SpecDOALL.h"

#include <cstdio>
#include <string>

using namespace noelle;
using nir::Context;
using nir::ExecutionEngine;

namespace {

/// Same seeded kernel the spec-suite uses: mode == 0 keeps iteration
/// writes disjoint (the profiled configuration); mode == 1 funnels every
/// iteration through data[0], so speculation must roll back.
const char *Src = R"(
  int mode;
  int data[2048];
  int main() {
    int total = 0;
    for (int r = 0; r < 8; r = r + 1) {
      for (int i = 0; i < 2048; i = i + 1) {
        int idx = i;
        if (mode > 0) idx = 0;
        data[idx] = data[idx] + i + r;
      }
      total = total + data[r];
    }
    return total % 100007;
  }
)";

/// 64 DOALL tasks on 4 runners, each calling sin() every iteration;
/// returns 0 when the parallel sum matches the sequential one.
const char *SinSrc = R"(
  extern void noelle_dispatch_chunked(void (*task)(int *, int, int),
                                      int *env, int n, int grain);
  int env[1];
  double part[64];
  void task(int *env, int t, int n) {
    int i = t * 32;
    double s = 0.0;
    while (i < t * 32 + 32) {
      s = s + sin((double)i * 0.01);
      i = i + 1;
    }
    part[t] = s;
    return;
  }
  int main() {
    noelle_dispatch_chunked(task, env, 64, 1);
    double par = 0.0;
    double seq = 0.0;
    int i = 0;
    while (i < 64) { par = par + part[i]; i = i + 1; }
    i = 0;
    while (i < 2048) { seq = seq + sin((double)i * 0.01); i = i + 1; }
    double d = par - seq;
    if (d < 0.0) { d = 0.0 - d; }
    if (d > 0.000001) { return 1; }
    return 0;
  }
)";

/// Runs @main with the parallel runtime and checks the engine total
/// against the main thread's and the tasks' retired counts.
bool runAndCheckRetired(nir::Module &M, const char *What, int64_t Expected) {
  ExecutionEngine E(M);
  registerParallelRuntime(E);
  ExecutionEngine::resetThreadRetired();
  int64_t Got = E.runMain();
  uint64_t Tasks = 0;
  for (const auto &R : E.getDispatchRecords())
    Tasks += R.TotalTaskInstructions;
  uint64_t Main = ExecutionEngine::readThreadRetired();
  if (Got != Expected || Tasks == 0 ||
      E.getInstructionsExecuted() != Main + Tasks) {
    std::fprintf(stderr,
                 "spec-tsan: %s returned %lld (expected %lld), engine "
                 "retired %llu, main %llu + tasks %llu\n",
                 What, (long long)Got, (long long)Expected,
                 (unsigned long long)E.getInstructionsExecuted(),
                 (unsigned long long)Main, (unsigned long long)Tasks);
    return false;
  }
  return true;
}

int64_t runSequential(int64_t Mode) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  M->getGlobal("mode")->setInitWords({Mode});
  ExecutionEngine E(*M);
  return E.runMain();
}

} // namespace

int main() {
  int64_t SeqClean = runSequential(0);
  int64_t SeqFlipped = runSequential(1);

  // Profile on mode == 0, then plan with speculation enabled. Fall back
  // to the forced transform if the cost model declines — the smoke's
  // target is the runtime protocol under TSan, not the planner's
  // profitability call.
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  Profiler::profileModule(*M, /*ObserveDependences=*/true).embed(*M);

  Noelle N(*M);
  planner::PlannerOptions PO;
  PO.MaxWorkers = 4;
  PO.EnableSpeculation = true;
  planner::Planner P(N, PO);
  planner::ProgramPlan Plan = P.plan();

  unsigned SpecApplied = 0;
  bool PlanHadSpec = false;
  for (const auto &En : Plan.Entries)
    PlanHadSpec |= En.Kind == TechniqueKind::SpecDOALL;
  if (PlanHadSpec) {
    for (const auto &D : P.apply(Plan))
      SpecApplied += D.Parallelized && D.Kind == TechniqueKind::SpecDOALL;
  } else {
    std::printf("spec-tsan: planner declined, forcing SpecDOALL\n");
    SpecDOALL Tool(N);
    for (const auto &D : Tool.run())
      SpecApplied += D.Parallelized && D.Kind == TechniqueKind::SpecDOALL;
  }
  if (SpecApplied == 0) {
    std::fprintf(stderr, "spec-tsan: no loop speculated\n");
    return 1;
  }

  // Commit path: profiled input, worker threads, journaled accesses.
  {
    ExecutionEngine E(*M);
    registerParallelRuntime(E);
    int64_t Got = E.runMain();
    if (Got != SeqClean) {
      std::fprintf(stderr,
                   "spec-tsan: commit path returned %lld, expected %lld\n",
                   (long long)Got, (long long)SeqClean);
      return 1;
    }
  }

  // Rollback path: flip the input so validation fails on every dispatch
  // and the sequential clone re-executes.
  M->getGlobal("mode")->setInitWords({1});
  {
    ExecutionEngine E(*M);
    registerParallelRuntime(E);
    int64_t Got = E.runMain();
    if (Got != SeqFlipped) {
      std::fprintf(stderr,
                   "spec-tsan: rollback path returned %lld, expected "
                   "%lld\n",
                   (long long)Got, (long long)SeqFlipped);
      return 1;
    }
  }

  // DOALL calling an external every iteration, on 4 runners.
  {
    Context SCtx;
    auto SM = minic::compileMiniCOrDie(SCtx, SinSrc);
    SM->setModuleMetadata(PlanRunnersKey, "4");
    if (!runAndCheckRetired(*SM, "sin DOALL", 0))
      return 1;
  }

  // x264 planned with speculation, on its profiled input: commit path.
  {
    const bench::Benchmark *B = bench::findBenchmark("x264");
    Context XCtx;
    auto XM = minic::compileMiniCOrDie(XCtx, B->Source);
    int64_t Expected = ExecutionEngine(*XM).runMain();
    Profiler::profileModule(*XM, /*ObserveDependences=*/true).embed(*XM);
    Noelle XN(*XM);
    planner::PlannerOptions XPO;
    XPO.MaxWorkers = 4;
    XPO.EnableSpeculation = true;
    planner::Planner XP(XN, XPO);
    unsigned XSpec = 0;
    for (const auto &D : XP.apply(XP.plan()))
      XSpec += D.Parallelized && D.Kind == TechniqueKind::SpecDOALL;
    if (XSpec == 0) {
      std::fprintf(stderr, "spec-tsan: x264 planned no speculative loop\n");
      return 1;
    }
    if (!runAndCheckRetired(*XM, "x264 spec commit", Expected))
      return 1;
  }

  std::printf("spec-tsan: commit and rollback paths clean (%u loops); "
              "sin DOALL and x264 retired totals exact\n",
              SpecApplied);
  return 0;
}
