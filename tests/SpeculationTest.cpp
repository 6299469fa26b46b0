//===----------------------------------------------------------------------===//
///
/// \file
/// spec-suite: the profile-guided speculative DOALL pipeline end to end.
/// Covers the profiler's dependence tracking (manifested-dependence
/// recording, iteration-boundary precision, loop trips), the one
/// profile format (wire round trip, content-hash binding, malformed
/// blobs, exit 2 at the tools' input boundary, coverage-only profiles
/// as no evidence, one profiling run per compile), the SpecDOALL
/// transform with the write-log/commit runtime (commit path and
/// seeded-misspeculation rollback, the retired-instruction total on both,
/// and the write journal's page-straddling, mixed-byte and rollback
/// edge cases), the planner's speculative enumeration over a real suite
/// kernel, and the `noelle-check --speculative` audits — including that
/// each audit catches a deliberately seeded violation. Registered under
/// the ctest label "spec-suite".
///
//===----------------------------------------------------------------------===//

#include "benchmarks/Suite.h"
#include "frontend/MiniC.h"
#include "ir/IDs.h"
#include "ir/IRBuilder.h"
#include "ir/Parser.h"
#include "noelle/Noelle.h"
#include "planner/Planner.h"
#include "runtime/ParallelRuntime.h"
#include "telemetry/Telemetry.h"
#include "verify/CheckMetadata.h"
#include "verify/NoelleCheck.h"
#include "verify/PlanCheck.h"
#include "xforms/SpecDOALL.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

using namespace noelle;
using nir::Context;
using nir::ExecutionEngine;

namespace {

/// The loops \p N finds, sorted by header ID — deterministic IDs follow
/// program order, so source order is recoverable from the sort.
std::vector<nir::LoopStructure *> loopsInSourceOrder(Noelle &N) {
  std::vector<nir::LoopStructure *> Loops;
  for (LoopContent *LC : N.getLoopContents())
    Loops.push_back(&LC->getLoopStructure());
  auto headerID = [](const nir::LoopStructure *LS) {
    return nir::instructionID(LS->getHeader()->front());
  };
  std::sort(Loops.begin(), Loops.end(),
            [&](const nir::LoopStructure *A, const nir::LoopStructure *B) {
              return headerID(A) < headerID(B);
            });
  return Loops;
}

// ---------------------------------------------------------------------------
// Dependence-observing profiler.
// ---------------------------------------------------------------------------

/// Three loops: a disjoint store map (no carried dependence), a true
/// recurrence (carried RAW through a[]), and an intra-iteration
/// read-modify-write of c[] that also consumes loop 1's output b[].
/// Only the middle loop may appear in the manifested-dependence set:
/// loop 3's load of b[i] hits bytes last written *before* its invocation
/// began, and its c[i] accesses pair up within one iteration — both were
/// phantom "carried" dependences under the old off-by-one iteration
/// window, which this test pins down.
const char *ProfilerSrc = R"(
  int a[64];
  int b[64];
  int c[64];
  int main() {
    for (int i = 0; i < 64; i = i + 1) b[i] = i * 2;
    for (int i = 1; i < 64; i = i + 1) a[i] = a[i-1] + 1;
    for (int i = 0; i < 64; i = i + 1) c[i] = c[i] + b[i];
    return a[63] + c[63];
  }
)";

TEST(MemDepProfilerTest, RecordsOnlyTrueCarriedDependences) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, ProfilerSrc);
  ProfileData P = Profiler::profileModule(*M, /*ObserveDependences=*/true);
  ASSERT_TRUE(P.observedDependences());

  Noelle N(*M);
  std::vector<nir::LoopStructure *> Loops = loopsInSourceOrder(N);
  ASSERT_EQ(Loops.size(), 3u);
  std::vector<uint64_t> Headers;
  for (nir::LoopStructure *LS : Loops) {
    uint64_t H = nir::instructionID(LS->getHeader()->front());
    Headers.push_back(H);
    EXPECT_GT(P.getBlockCount(LS->getHeader()), 0u)
        << "loop " << H << " not observed";
    EXPECT_EQ(P.getLoopInvocations(*LS), 1u);
    // Header executions beyond the invocation's first: the back-edge
    // iterations.
    EXPECT_GT(P.getLoopTotalIterations(*LS), P.getLoopInvocations(*LS));
  }

  // Every manifested dependence belongs to the recurrence loop (source
  // order: the middle header), and all of them are RAW.
  ASSERT_FALSE(P.deps().empty()) << "recurrence loop recorded no deps";
  for (const ManifestedDep &D : P.deps()) {
    EXPECT_EQ(D.HeaderID, Headers[1])
        << "phantom carried dependence on loop " << D.HeaderID;
    EXPECT_EQ(D.K, ManifestedDep::RAW);
  }
  EXPECT_TRUE(P.manifested(Headers[1], P.deps().begin()->SrcID,
                           P.deps().begin()->DstID));
}

TEST(MemDepProfilerTest, SerializationRoundTripsByteIdentically) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, ProfilerSrc);
  ProfileData P = Profiler::profileModule(*M, /*ObserveDependences=*/true);

  std::string Text = P.serialize(*M);
  ProfileData Q;
  std::string Err;
  ASSERT_TRUE(ProfileData::deserialize(Text, *M, Q, Err)) << Err;
  EXPECT_EQ(Q.serialize(*M), Text);
  EXPECT_EQ(Q.deps().size(), P.deps().size());

  // Embedded, printed and re-parsed: the same text binds to the copy.
  P.embed(*M);
  Context Ctx2;
  auto M2 = nir::parseModuleOrDie(Ctx2, M->str());
  ProfileData R;
  ASSERT_TRUE(ProfileData::fromModule(*M2, R, Err)) << Err;
  EXPECT_EQ(R.serialize(*M2), Text);
  EXPECT_EQ(R.getTotalInstructions(), P.getTotalInstructions());
}

TEST(MemDepProfilerTest, EmbeddedProfileBindsToContentHash) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, ProfilerSrc);
  Profiler::profileModule(*M, /*ObserveDependences=*/true).embed(*M);
  ASSERT_TRUE(ProfileData::hasEmbeddedDependences(*M));

  ProfileData P;
  std::string Err;
  EXPECT_TRUE(ProfileData::fromModule(*M, P, Err)) << Err;

  // Change the module's content (an initializer participates in the
  // hash): the load must refuse the now-stale binding.
  M->getGlobal("a")->setInitWords({7});
  ProfileData Stale;
  EXPECT_FALSE(ProfileData::fromModule(*M, Stale, Err));
  EXPECT_NE(Err.find("content hash"), std::string::npos) << Err;
  EXPECT_FALSE(ProfileData::hasEmbeddedDependences(*M));
}

/// Every malformed number, record or header is an error, never a throw.
TEST(UnifiedProfileTest, MalformedBlobsAreRejected) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, ProfilerSrc);
  Profiler::profileModule(*M, /*ObserveDependences=*/true).embed(*M);
  const std::string Good = M->getModuleMetadata(ProfileEmbedKey);
  const size_t Total = Good.find("total ");
  ASSERT_NE(Total, std::string::npos);
  const size_t Records = Good.find('\n', Total) + 1;

  const std::vector<std::string> Bad = {
      "",
      "profile v2\n" + Good.substr(Good.find('\n') + 1),
      Good.substr(0, Total) + "total zz\n" + Good.substr(Records),
      Good.substr(0, Total) + "total 99999999999999999999999\n" +
          Good.substr(Records),
      Good.substr(0, Total) + Good.substr(Records), // no total line
      Good + "block 5\n",
      Good + "block 999999 1\n",
      Good + "branch 0 1 -1\n",
      Good + "call no_such_fn 1\n",
      Good + "dep 1 2 3 rar\n",
      Good + "bogus 1 2\n",
      Good + "total 5\n", // header kind outside the header
  };
  for (const std::string &Text : Bad) {
    M->setModuleMetadata(ProfileEmbedKey, Text);
    ProfileData P;
    std::string Err;
    EXPECT_FALSE(ProfileData::fromModule(*M, P, Err)) << Text;
    EXPECT_FALSE(Err.empty()) << Text;
  }
}

/// The whole `--speculate` compile path on a fresh module — profile and
/// embed, snapshot, Noelle's profile lookup, planning — executes @main
/// under the observed interpreter tier exactly once.
TEST(UnifiedProfileTest, SpeculativeCompilePathProfilesOnce) {
  const bench::Benchmark *B = bench::findBenchmark("x264");
  ASSERT_NE(B, nullptr);
  telemetry::setMode(telemetry::Mode::Metrics);
  telemetry::resetMetrics();

  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B->Source);
  Profiler::profileModule(*M, /*ObserveDependences=*/true).embed(*M);
  verify::PreTransformSnapshot Snap = verify::captureForCheck(*M);
  Noelle N(*M);
  ProfileData *Prof = N.getProfiles(/*CollectIfMissing=*/true);
  planner::PlannerOptions PO;
  PO.EnableSpeculation = true;
  planner::ProgramPlan Plan = planner::Planner(N, PO).plan();

  uint64_t Observed = telemetry::snapshotMetrics().counter(
      telemetry::Counter::TierObserved);
  telemetry::setMode(telemetry::Mode::Off);
  ASSERT_NE(Prof, nullptr);
  EXPECT_TRUE(Prof->observedDependences());
  EXPECT_FALSE(Plan.Entries.empty());
  EXPECT_EQ(Observed, 1u);
}

// ---------------------------------------------------------------------------
// SpecDOALL end to end: commit path and seeded misspeculation.
// ---------------------------------------------------------------------------

/// The seeded kernel. With mode == 0 (the profiled configuration) every
/// inner iteration touches its own data[idx]; the loop-carried PDG edges
/// on data[] never manifest, so the loop speculates. Flipping mode to 1
/// *after* the transform funnels every iteration through data[0] — the
/// profiled-absent dependence manifests, the write-log validation must
/// detect the conflict, and the dispatch must roll back to the
/// sequential clone with a byte-identical result.
const char *SeededSrc = R"(
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
    print_i64(total);
    return total % 100007;
  }
)";

struct SeqResult {
  int64_t Ret = 0;
  std::string Out;
};

/// Sequential ground truth for the seeded kernel at a given mode value.
SeqResult runSeededSequential(int64_t Mode) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, SeededSrc);
  M->getGlobal("mode")->setInitWords({Mode});
  ExecutionEngine E(*M);
  SeqResult R;
  R.Ret = E.runMain();
  R.Out = E.getOutput();
  return R;
}

struct SpecModule {
  std::unique_ptr<nir::Module> M;
  verify::PreTransformSnapshot Snap;
  unsigned SpecLoops = 0;
};

/// Profile (mode = 0), snapshot, and force-transform the seeded kernel
/// with SpecDOALL. The caller owns mode's initializer from here on.
SpecModule buildSeededSpec(Context &Ctx) {
  SpecModule R;
  R.M = minic::compileMiniCOrDie(Ctx, SeededSrc);
  Profiler::profileModule(*R.M, /*ObserveDependences=*/true).embed(*R.M);
  R.Snap = verify::captureForCheck(*R.M);
  Noelle N(*R.M);
  SpecDOALL Tool(N);
  for (const auto &D : Tool.run())
    if (D.Parallelized && D.Kind == TechniqueKind::SpecDOALL)
      ++R.SpecLoops;
  return R;
}

struct SpecRun {
  int64_t Ret = 0;
  std::string Out;
  uint64_t Commits = 0;
  uint64_t Misspecs = 0;
  /// getInstructionsExecuted(), the main thread's own retired count, and
  /// the sum of TotalTaskInstructions over every DispatchRecord.
  uint64_t EngineRetired = 0;
  uint64_t MainRetired = 0;
  uint64_t TaskRetired = 0;
};

SpecRun runWithTelemetry(nir::Module &M) {
  telemetry::setMode(telemetry::Mode::Metrics);
  telemetry::resetMetrics();
  ExecutionEngine E(M);
  registerParallelRuntime(E);
  SpecRun R;
  ExecutionEngine::resetThreadRetired();
  R.Ret = E.runMain();
  R.Out = E.getOutput();
  R.EngineRetired = E.getInstructionsExecuted();
  R.MainRetired = ExecutionEngine::readThreadRetired();
  for (const auto &D : E.getDispatchRecords())
    R.TaskRetired += D.TotalTaskInstructions;
  auto Snap = telemetry::snapshotMetrics();
  R.Commits = Snap.counter(telemetry::Counter::SpecCommits);
  R.Misspecs = Snap.counter(telemetry::Counter::SpecMisspeculations);
  telemetry::setMode(telemetry::Mode::Off);
  return R;
}

TEST(SpeculationTest, CommitsAndMatchesSequentialWhenProfileHolds) {
  SeqResult Seq = runSeededSequential(0);

  Context Ctx;
  SpecModule S = buildSeededSpec(Ctx);
  ASSERT_GE(S.SpecLoops, 1u) << "seeded kernel did not speculate";

  // The transformed module passes the full audit, speculation machinery
  // included.
  verify::CheckOptions CO;
  CO.Speculative = true;
  verify::CheckReport Rep = verify::checkModule(*S.M, S.Snap, CO);
  EXPECT_TRUE(Rep.clean()) << Rep.str();

  SpecRun R = runWithTelemetry(*S.M);
  EXPECT_EQ(R.Ret, Seq.Ret);
  EXPECT_EQ(R.Out, Seq.Out);
  EXPECT_GT(R.Commits, 0u);
  EXPECT_EQ(R.Misspecs, 0u)
      << "profiled-clean input must not misspeculate";
}

TEST(SpeculationTest, SeededMisspeculationDetectsAndRollsBack) {
  SeqResult Seq = runSeededSequential(1);

  Context Ctx;
  SpecModule S = buildSeededSpec(Ctx);
  ASSERT_GE(S.SpecLoops, 1u);

  // Flip the input *after* the transform: the dependence the profile
  // never saw now manifests on every invocation.
  S.M->getGlobal("mode")->setInitWords({1});

  SpecRun R = runWithTelemetry(*S.M);
  EXPECT_GT(R.Misspecs, 0u)
      << "conflicting writes must fail write-log validation";
  EXPECT_EQ(R.Ret, Seq.Ret)
      << "rollback must reproduce the sequential result";
  EXPECT_EQ(R.Out, Seq.Out)
      << "rollback must reproduce the sequential output byte for byte";
}

TEST(SpeculationTest, RetiredTotalAddsUpOnCommitAndRollback) {
  // The engine total is the main thread's count plus every task's count
  // on both paths: on rollback the sequential clone re-executes inside
  // noelle_dispatch_spec, a nested engine entry on the main thread.
  for (int64_t Mode : {0, 1}) {
    Context Ctx;
    SpecModule S = buildSeededSpec(Ctx);
    ASSERT_GE(S.SpecLoops, 1u);
    S.M->getGlobal("mode")->setInitWords({Mode});
    SpecRun R = runWithTelemetry(*S.M);
    EXPECT_EQ(R.Misspecs > 0, Mode == 1) << "mode " << Mode;
    EXPECT_GT(R.TaskRetired, 0u) << "mode " << Mode;
    EXPECT_EQ(R.EngineRetired, R.MainRetired + R.TaskRetired)
        << "mode " << Mode;
  }
}

// ---------------------------------------------------------------------------
// Write-journal edge cases: accesses that straddle a journal page, reads
// that mix journaled and memory bytes, and rollback leaving memory as is.
// ---------------------------------------------------------------------------

/// One speculative dispatch over a host buffer. `target` points into the
/// buffer; `mode` picks the task body. The recovery clone does nothing,
/// so after a rollback memory must hold exactly what it held before.
const char *JournalSrc = R"(
  extern void noelle_dispatch_spec(void (*task)(char *, int, int),
                                   void (*seq)(char *, int, int),
                                   char *env, int n, int grain);
  extern int noelle_spec_load_i64(char *p);
  extern void noelle_spec_store_i64(char *p, int v);
  extern void noelle_spec_store_i32(char *p, int v);
  char *target;
  int mode;
  int tasks;
  void task(char *p, int t, int n) {
    if (mode == 0) {
      noelle_spec_store_i64(p, 72623859790382856);
      noelle_spec_store_i64(p + 16, noelle_spec_load_i64(p));
    }
    if (mode == 1) {
      noelle_spec_store_i32(p, 287454020);
      noelle_spec_store_i64(p + 32, noelle_spec_load_i64(p));
    }
    if (mode == 2) {
      int i = 0;
      while (i < 1500) {
        noelle_spec_store_i64(p + i * 8 + t, i * 7 + t);
        i = i + 1;
      }
    }
    return;
  }
  void seq(char *p, int t, int n) { return; }
  int main() {
    noelle_dispatch_spec(task, seq, target, tasks, 1);
    return 0;
  }
)";

/// A host buffer of three 64 KiB blocks filled with a byte pattern. The
/// middle block's start is 64 KiB-aligned, so it is a page boundary for
/// any power-of-two journal page up to 64 KiB.
struct JournalBuffer {
  static constexpr uint64_t Block = 64 * 1024;
  std::vector<uint8_t> Storage = std::vector<uint8_t>(4 * Block);
  uint8_t *Base;

  JournalBuffer() {
    uint64_t Raw = reinterpret_cast<uint64_t>(Storage.data());
    Base = reinterpret_cast<uint8_t *>((Raw + Block - 1) & ~(Block - 1));
    for (uint64_t I = 0; I < 3 * Block; ++I)
      Base[I] = static_cast<uint8_t>(I * 37 + 11);
  }
  uint8_t *boundary() const { return Base + Block; }
  std::vector<uint8_t> bytes() const {
    return std::vector<uint8_t>(Base, Base + 3 * Block);
  }
};

SpecRun runJournalKernel(uint8_t *Target, int64_t Mode, int64_t Tasks) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, JournalSrc);
  M->getGlobal("target")->setInitWords(
      {static_cast<int64_t>(reinterpret_cast<uint64_t>(Target))});
  M->getGlobal("mode")->setInitWords({Mode});
  M->getGlobal("tasks")->setInitWords({Tasks});
  return runWithTelemetry(*M);
}

uint64_t readU64(const uint8_t *P) {
  uint64_t V;
  std::memcpy(&V, P, 8);
  return V;
}

TEST(SpecJournalTest, StraddlingStoreReadsBackAndCommits) {
  JournalBuffer Buf;
  uint8_t *P = Buf.boundary() - 4; // bytes [-4, +4) around the boundary
  std::vector<uint8_t> Before = Buf.bytes();
  SpecRun R = runJournalKernel(P, /*Mode=*/0, /*Tasks=*/1);
  EXPECT_EQ(R.Commits, 1u);
  EXPECT_EQ(R.Misspecs, 0u);
  const uint64_t Stored = 72623859790382856ull; // 0x0102030405060708
  EXPECT_EQ(readU64(P), Stored);
  // The load in the same task saw the journaled bytes on both pages.
  EXPECT_EQ(readU64(P + 16), Stored);
  // Commit wrote exactly the 16 journaled bytes.
  std::vector<uint8_t> After = Buf.bytes();
  const uint64_t Off = static_cast<uint64_t>(P - Buf.Base);
  for (uint64_t I = 0; I < After.size(); ++I) {
    if (I < Off || I >= Off + 24 || (I >= Off + 8 && I < Off + 16)) {
      ASSERT_EQ(After[I], Before[I]) << "byte " << I;
    }
  }
}

TEST(SpecJournalTest, WideLoadMixesJournalAndMemoryBytes) {
  JournalBuffer Buf;
  // The i32 store stays on the first page; the i64 load that follows
  // covers it plus two memory bytes there and two on the next page.
  uint8_t *P = Buf.boundary() - 6;
  std::vector<uint8_t> Before = Buf.bytes();
  const uint64_t Off = static_cast<uint64_t>(P - Buf.Base);
  SpecRun R = runJournalKernel(P, /*Mode=*/1, /*Tasks=*/1);
  EXPECT_EQ(R.Commits, 1u);
  uint8_t Expect[8] = {0x44, 0x33, 0x22, 0x11, Before[Off + 4],
                       Before[Off + 5], Before[Off + 6], Before[Off + 7]};
  EXPECT_EQ(readU64(P + 32), readU64(Expect));
  EXPECT_EQ(readU64(P), readU64(Expect));
  EXPECT_EQ(std::vector<uint8_t>(P + 8, P + 32),
            std::vector<uint8_t>(Before.begin() + Off + 8,
                                 Before.begin() + Off + 32));
}

TEST(SpecJournalTest, RollbackLeavesMemoryByteIdentical) {
  JournalBuffer Buf;
  // Two tasks write overlapping bytes over three pages: validation must
  // fail, and nothing either task journaled may reach memory.
  uint8_t *P = Buf.boundary() - 5000;
  std::vector<uint8_t> Before = Buf.bytes();
  SpecRun R = runJournalKernel(P, /*Mode=*/2, /*Tasks=*/2);
  EXPECT_EQ(R.Commits, 0u);
  EXPECT_EQ(R.Misspecs, 1u);
  EXPECT_TRUE(Buf.bytes() == Before);
}

// ---------------------------------------------------------------------------
// Planner integration over a real suite kernel.
// ---------------------------------------------------------------------------

TEST(SpeculationTest, PlannerSpeculatesX264AndPreservesResult) {
  const bench::Benchmark *B = bench::findBenchmark("x264");
  ASSERT_NE(B, nullptr);

  SeqResult Seq;
  {
    Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, B->Source);
    ExecutionEngine E(*M);
    Seq.Ret = E.runMain();
    Seq.Out = E.getOutput();
  }

  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B->Source);
  Profiler::profileModule(*M, /*ObserveDependences=*/true).embed(*M);

  Noelle N(*M);
  planner::PlannerOptions PO;
  PO.MaxWorkers = 4;
  PO.EnableSpeculation = true;
  planner::Planner P(N, PO);
  planner::ProgramPlan Plan = P.plan();

  unsigned Spec = 0;
  for (const auto &En : Plan.Entries)
    if (En.Kind == TechniqueKind::SpecDOALL)
      ++Spec;
  EXPECT_GE(Spec, 1u)
      << "the planner found no speculative candidate on x264:\n"
      << Plan.serialize();

  // Speculative entries (misspec probability, premises) survive the
  // wire format.
  planner::ProgramPlan RT;
  std::string Err;
  ASSERT_TRUE(planner::ProgramPlan::deserialize(Plan.serialize(), RT, Err))
      << Err;
  EXPECT_TRUE(RT == Plan);
  EXPECT_EQ(RT.serialize(), Plan.serialize());

  // The plan audits clean before touching the module.
  verify::CheckReport PlanRep = verify::checkPlan(*M, Plan);
  EXPECT_TRUE(PlanRep.clean()) << PlanRep.str();

  // Every entry applies — speculative ones included.
  for (const auto &D : P.apply(Plan))
    EXPECT_TRUE(D.Parallelized)
        << D.FunctionName << " loop " << D.LoopID << ": " << D.Reason;

  SpecRun R = runWithTelemetry(*M);
  EXPECT_EQ(R.Ret, Seq.Ret);
  EXPECT_EQ(R.Out, Seq.Out);
  EXPECT_GT(R.Commits, 0u) << "no speculative dispatch committed";
  EXPECT_EQ(R.Misspecs, 0u)
      << "x264 on its profiled input must not misspeculate";
}

// ---------------------------------------------------------------------------
// The --speculative audits each catch a seeded violation.
// ---------------------------------------------------------------------------

nir::Function *findSpecTask(nir::Module &M) {
  for (const auto &F : M.getFunctions())
    if (F->getMetadata(verify::TaskKindKey) == "doall-spec")
      return F.get();
  return nullptr;
}

verify::CheckReport speculativeAudit(SpecModule &S) {
  verify::CheckOptions CO;
  CO.RunVerifier = false; // the seeded corruptions target the spec audit
  CO.RunRaces = false;
  CO.Speculative = true;
  return verify::checkModule(*S.M, S.Snap, CO);
}

TEST(SpecCheckTest, CatchesUnjournaledAccess) {
  Context Ctx;
  SpecModule S = buildSeededSpec(Ctx);
  ASSERT_GE(S.SpecLoops, 1u);
  nir::Function *Task = findSpecTask(*S.M);
  ASSERT_NE(Task, nullptr);

  // Seed a raw store into the instrumented task: it bypasses the write
  // log, so commit-time validation can neither see nor undo it.
  nir::BasicBlock *Entry = Task->getBlocks().front().get();
  ASSERT_FALSE(Entry->getInstList().empty());
  nir::IRBuilder B(Ctx, Entry);
  B.setInsertPoint(Entry->getInstList().front().get());
  B.createStore(Ctx.getInt64(7), S.M->getGlobal("data"));

  verify::CheckReport Rep = speculativeAudit(S);
  EXPECT_GE(Rep.count(verify::DiagKind::SpecUnjournaledAccess), 1u)
      << Rep.str();
}

TEST(SpecCheckTest, CatchesBrokenRecoveryPath) {
  Context Ctx;
  SpecModule S = buildSeededSpec(Ctx);
  ASSERT_GE(S.SpecLoops, 1u);
  nir::Function *Task = findSpecTask(*S.M);
  ASSERT_NE(Task, nullptr);

  // Point the rollback link at a function that does not exist.
  Task->setMetadata(verify::TaskSpecSeqKey, "no_such_fallback");

  verify::CheckReport Rep = speculativeAudit(S);
  EXPECT_GE(Rep.count(verify::DiagKind::SpecRecoveryMissing), 1u)
      << Rep.str();
}

TEST(SpecCheckTest, CatchesFabricatedPremise) {
  Context Ctx;
  SpecModule S = buildSeededSpec(Ctx);
  ASSERT_GE(S.SpecLoops, 1u);
  nir::Function *Task = findSpecTask(*S.M);
  ASSERT_NE(Task, nullptr);

  // Replace the recorded premises with a pair that names no loop-carried
  // memory dependence of the snapshot PDG.
  Task->setMetadata(verify::TaskSpecPremisesKey, "1:2");

  verify::CheckReport Rep = speculativeAudit(S);
  EXPECT_GE(Rep.count(verify::DiagKind::SpecPremiseUnsupported), 1u)
      << Rep.str();
}

TEST(SpecCheckTest, CleanSpecModulePassesSpeculativeAudit) {
  Context Ctx;
  SpecModule S = buildSeededSpec(Ctx);
  ASSERT_GE(S.SpecLoops, 1u);
  verify::CheckReport Rep = speculativeAudit(S);
  EXPECT_TRUE(Rep.clean()) << Rep.str();
}

// ---------------------------------------------------------------------------
// The profile at the tools' input boundary.
// ---------------------------------------------------------------------------

/// A path for a scratch file of this test process.
std::string tempPath(const std::string &Name) {
  return (std::filesystem::temp_directory_path() /
          ("noelle-spec-" + std::to_string(::getpid()) + "-" + Name))
      .string();
}

struct ToolRun {
  int Status = -1; ///< exit status; -1 when the tool did not exit
  std::string Out; ///< stdout and stderr
};

/// Runs \p Tool with \p Args on \p M, printed to a .nir file.
ToolRun runTool(const char *Tool, const std::string &Args,
                const nir::Module &M) {
  const std::string In = tempPath("in.nir"), Out = tempPath("out.txt");
  {
    std::ofstream F(In);
    F << M.str();
  }
  int Raw = std::system((std::string(Tool) + " " + Args + " " + In + " > " +
                         Out + " 2>&1")
                            .c_str());
  ToolRun R;
  if (WIFEXITED(Raw))
    R.Status = WEXITSTATUS(Raw);
  std::ifstream F(Out);
  R.Out.assign(std::istreambuf_iterator<char>(F), {});
  std::filesystem::remove(In);
  std::filesystem::remove(Out);
  return R;
}

/// crc with an embedded coverage profile whose blob \p Edit rewrites.
std::unique_ptr<nir::Module>
crcWithEditedProfile(Context &Ctx,
                     const std::function<std::string(std::string)> &Edit) {
  auto M = minic::compileMiniCOrDie(Ctx, bench::findBenchmark("crc")->Source);
  Profiler::profileModule(*M).embed(*M);
  M->setModuleMetadata(ProfileEmbedKey,
                       Edit(M->getModuleMetadata(ProfileEmbedKey)));
  return M;
}

TEST(UnifiedProfileTest, MalformedProfileExitsTwo) {
  Context Ctx;
  auto M = crcWithEditedProfile(Ctx, [](std::string Blob) {
    size_t T = Blob.find("total ");
    return Blob.replace(T, Blob.find('\n', T) - T, "total zz");
  });
  ToolRun P = runTool(NOELLE_PARALLELIZE_BIN, "--run", *M);
  EXPECT_EQ(P.Status, 2) << P.Out;
  EXPECT_NE(P.Out.find("total zz"), std::string::npos) << P.Out;
  ToolRun C = runTool(NOELLE_CHECK_BIN, "", *M);
  EXPECT_EQ(C.Status, 2) << C.Out;
}

TEST(UnifiedProfileTest, ProfileOfAnotherModuleExitsTwo) {
  Context Ctx;
  auto M = crcWithEditedProfile(Ctx, [](std::string Blob) {
    size_t H = Blob.find("hash ") + 5;
    return Blob.replace(H, 16, "0123456789abcdef");
  });
  ToolRun P = runTool(NOELLE_PARALLELIZE_BIN, "--run", *M);
  EXPECT_EQ(P.Status, 2) << P.Out;
  EXPECT_NE(P.Out.find("content hash"), std::string::npos) << P.Out;
  ToolRun C = runTool(NOELLE_CHECK_BIN, "--speculative", *M);
  EXPECT_EQ(C.Status, 2) << C.Out;
}

/// A coverage-only profile says nothing about dependences: SpecDOALL
/// refuses it as evidence, and `--speculate` re-profiles with
/// dependence tracking instead of planning from it.
TEST(UnifiedProfileTest, CoverageOnlyProfileIsNoSpeculationEvidence) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx,
                                    bench::findBenchmark("x264")->Source);
  Profiler::profileModule(*M).embed(*M);
  ASSERT_TRUE(ProfileData::isEmbedded(*M));
  EXPECT_FALSE(ProfileData::hasEmbeddedDependences(*M));
  {
    Noelle N(*M);
    SpecDOALL T(N);
    ASSERT_FALSE(N.getLoopContents().empty());
    for (LoopContent *LC : N.getLoopContents()) {
      Legality L = T.applicable(*LC);
      EXPECT_FALSE(L);
      EXPECT_NE(L.Reason.find("coverage-only"), std::string::npos)
          << L.Reason;
    }
  }

  ToolRun R = runTool(NOELLE_PARALLELIZE_BIN, "--speculate --plan-only", *M);
  EXPECT_EQ(R.Status, 0) << R.Out;
  EXPECT_NE(R.Out.find("kind=spec-doall"), std::string::npos) << R.Out;
}

} // namespace
