//===----------------------------------------------------------------------===//
///
/// \file
/// noelle-perfbench: wall-clock benchmark, MiniC source to program exit.
///
/// One process, one client, closed loop: the next op starts when the
/// previous one has finished. The seed only shuffles the order of the
/// programs in each round; every program sees only its own MiniC source.
/// Rounds are whole (each program once), so every run times the same mix.
///
/// Workloads:
///   suite-pipeline  op = one tool path on one suite kernel, source to exit:
///                   the `noelle-opt --run` path and the
///                   `noelle-parallelize --speculate --run` path
///   parallel-exec   op = fresh engine -> runMain -> destruction on a scaled
///                   kernel the planner parallelizes (compiled in set-up
///                   through the --speculate planner path)
///   seq-exec        op = the same on a scaled statically sequential kernel
///                   (compiled in set-up through the noelle-opt path)
///
/// An op fails when main() differs from the expected file, an audit
/// reports a finding, a plan entry fails to apply, or an exception
/// escapes. The last stdout line is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// with the end-to-end metrics (--trace 0) or the per-layer ones
/// (--trace 1).
///
/// Usage:
///   noelle-perfbench --workload W --seed N --seconds S --trace 0|1
///                    --programs DIR --expected FILE
///   noelle-perfbench --emit-sources DIR --programs DIR
///   noelle-perfbench --dispatch-records --programs DIR
///
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

#include "benchmarks/Suite.h"
#include "frontend/MiniC.h"
#include "interp/Interpreter.h"
#include "ir/Verifier.h"
#include "noelle/MemDepProfiler.h"
#include "noelle/Noelle.h"
#include "opt/Passes.h"
#include "planner/Planner.h"
#include "runtime/ParallelRuntime.h"
#include "telemetry/Telemetry.h"
#include "verify/NoelleCheck.h"
#include "verify/PlanCheck.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

using namespace noelle;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0)
      .count();
}

/// The parallel runtime may use at most this many workers (host nproc).
constexpr unsigned MaxWorkers = 4;
/// Set-up is repeated at least SetupMinReps times, and until SetupMinS
/// seconds have been spent on it; setup_s is the median repetition.
constexpr unsigned SetupMinReps = 3;
constexpr double SetupMinS = 3.0;

enum class PathKind { Opt, Parallelize };

struct Program {
  std::string Key; ///< "suite.<name>", "parallel.<name>", "seq.<name>"
  std::string Source;
};

/// Per-layer accumulator: every sample of a metric is summed, and the
/// report gives the mean per sample (per op, or per compile).
class Layers {
public:
  void add(const std::string &Name, double V) {
    auto &S = Sums[Name];
    S.first += V;
    S.second += 1;
  }
  double mean(const std::string &Name) const {
    auto It = Sums.find(Name);
    return It == Sums.end() || It->second.second == 0
               ? 0.0
               : It->second.first / It->second.second;
  }
  double sum(const std::string &Name) const {
    auto It = Sums.find(Name);
    return It == Sums.end() ? 0.0 : It->second.first;
  }

private:
  std::map<std::string, std::pair<double, uint64_t>> Sums;
};

uint64_t countInstructions(const nir::Module &M) {
  uint64_t N = 0;
  for (const auto &F : M.getFunctions())
    N += F->getNumInstructions();
  return N;
}

/// A compiled program: the module with its context (declared first so
/// it is destroyed last).
struct Compiled {
  nir::Context Ctx;
  std::unique_ptr<nir::Module> M;
  std::string Error; ///< non-empty: the compile path failed
};

/// Frontend: parse, codegen, mem2reg, verify (minic::compileMiniC's
/// steps, each timed on its own).
bool runFrontend(const std::string &Source, Compiled &C, Layers &L) {
  std::string Err;
  auto T0 = Clock::now();
  auto TU = minic::parseMiniC(Source, Err);
  L.add("frontend.parse_ms", msSince(T0));
  if (!TU) {
    C.Error = "parse: " + Err;
    return false;
  }
  T0 = Clock::now();
  C.M = minic::codegen(C.Ctx, *TU, "minic", Err);
  L.add("frontend.codegen_ms", msSince(T0));
  if (!C.M) {
    C.Error = "codegen: " + Err;
    return false;
  }
  T0 = Clock::now();
  minic::promoteMemoryToRegisters(*C.M);
  L.add("frontend.mem2reg_ms", msSince(T0));
  if (!nir::verifyModule(*C.M).empty()) {
    C.Error = "frontend output does not verify";
    return false;
  }
  L.add("frontend.ir_instrs", static_cast<double>(countInstructions(*C.M)));
  return true;
}

/// The `noelle-opt --run` compile path: frontend, then opt::runPipeline.
void compileOpt(const std::string &Source, Compiled &C, Layers &L) {
  if (!runFrontend(Source, C, L))
    return;
  auto T0 = Clock::now();
  const opt::PipelineStats S = opt::runPipeline(*C.M);
  L.add("opt.pipeline_ms", msSince(T0));
  L.add("opt.calls_inlined", static_cast<double>(S.CallsInlined));
  L.add("opt.gvn_replaced", static_cast<double>(S.GVNReplaced));
  L.add("opt.dce_removed", static_cast<double>(S.DCERemoved));
  L.add("opt.insts_hoisted", static_cast<double>(S.InstructionsHoisted));
  L.add("opt.loops_unrolled", static_cast<double>(S.LoopsUnrolled));
  L.add("opt.vector_insts", static_cast<double>(S.VectorInstsEmitted));
  L.add("opt.ir_instrs_after", static_cast<double>(countInstructions(*C.M)));
}

/// The `noelle-parallelize --speculate` compile path, step for step as
/// the tool runs it, with the PDG and the coverage profile requested
/// explicitly so each is timed on its own (the planner then finds both
/// cached).
void compileParallelize(const std::string &Source, Compiled &C, Layers &L) {
  if (!runFrontend(Source, C, L))
    return;
  nir::Module &M = *C.M;

  auto T0 = Clock::now();
  if (!MemDepProfile::isEmbedded(M))
    profileMemDeps(M).embed(M);
  L.add("noelle.memdep_profile_ms", msSince(T0));

  T0 = Clock::now();
  verify::PreTransformSnapshot Snap = verify::captureForCheck(M);
  L.add("verify.snapshot_ms", msSince(T0));

  Noelle N(M);
  T0 = Clock::now();
  PDG &G = N.getPDG();
  L.add("noelle.pdg_ms", msSince(T0));
  L.add("noelle.pdg_edges", static_cast<double>(G.getNumEdges()));

  T0 = Clock::now();
  N.getProfiles(/*CollectIfMissing=*/true);
  L.add("noelle.coverage_profile_ms", msSince(T0));

  planner::PlannerOptions PO;
  PO.MaxWorkers = MaxWorkers;
  PO.EnableSpeculation = true;
  planner::Planner P(N, PO);
  T0 = Clock::now();
  planner::ProgramPlan Plan = P.plan();
  L.add("planner.plan_ms", msSince(T0));
  unsigned Spec = 0;
  for (const auto &E : Plan.Entries)
    Spec += E.Kind == TechniqueKind::SpecDOALL;
  L.add("planner.entries", static_cast<double>(Plan.Entries.size()));
  L.add("planner.spec_entries", Spec);

  T0 = Clock::now();
  verify::CheckReport PlanRep = verify::checkPlan(M, Plan);
  L.add("verify.plan_check_ms", msSince(T0));

  const uint64_t Before = countInstructions(M);
  T0 = Clock::now();
  std::vector<Decision> Decisions = P.apply(Plan);
  L.add("xforms.apply_ms", msSince(T0));
  unsigned Parallelized = 0, Failed = 0;
  for (const Decision &D : Decisions)
    (D.Parallelized ? Parallelized : Failed) += 1;
  L.add("xforms.loops_parallelized", Parallelized);
  L.add("xforms.entries_failed", Failed);
  L.add("xforms.ir_growth",
        static_cast<double>(countInstructions(M)) /
            static_cast<double>(std::max<uint64_t>(Before, 1)));

  verify::CheckOptions CO;
  CO.Speculative = true;
  T0 = Clock::now();
  verify::CheckReport Rep = verify::checkModule(M, Snap, CO);
  L.add("verify.module_check_ms", msSince(T0));
  const size_t Findings =
      PlanRep.diagnostics().size() + Rep.diagnostics().size();
  L.add("verify.findings", static_cast<double>(Findings));

  if (Findings)
    C.Error = "audit: " + PlanRep.str() + Rep.str();
  else if (Failed)
    C.Error = "plan entries failed to apply: " + std::to_string(Failed);
}

std::unique_ptr<Compiled> compile(const Program &P, PathKind K, Layers &L) {
  auto C = std::make_unique<Compiled>();
  try {
    if (K == PathKind::Opt)
      compileOpt(P.Source, *C, L);
    else
      compileParallelize(P.Source, *C, L);
  } catch (const std::exception &E) {
    C->Error = std::string("exception: ") + E.what();
  } catch (...) {
    C->Error = "unknown exception";
  }
  return C;
}

/// What one execution observed.
struct ExecResult {
  bool Ok = false;
  int64_t Value = 0;
  double ExecMs = 0;
  uint64_t Retired = 0;
  std::vector<nir::DispatchRecord> Records;
};

/// Durations (µs) of the "dispatch" spans in the recorded trace, in
/// start order. The runtime records them under telemetry mode `trace`.
std::vector<double> dispatchSpansUs() {
  std::vector<double> Out;
  const std::string J = telemetry::traceJson();
  const std::string NameKey = "\"name\": \"dispatch\"";
  const std::string DurKey = "\"dur\": ";
  size_t Pos = 0;
  while ((Pos = J.find(NameKey, Pos)) != std::string::npos) {
    size_t D = J.find(DurKey, Pos);
    if (D == std::string::npos)
      break;
    Out.push_back(std::strtod(J.c_str() + D + DurKey.size(), nullptr));
    Pos = D;
  }
  return Out;
}

/// Fresh engine -> runMain -> destruction; the unit of every exec op and
/// the run step of both tool paths.
ExecResult execute(nir::Module &M, bool Parallel, Layers &L) {
  ExecResult R;
  auto T0 = Clock::now();
  auto E = std::make_unique<nir::ExecutionEngine>(M);
  if (Parallel)
    registerParallelRuntime(*E);
  L.add("interp.engine_init_ms", msSince(T0));

  T0 = Clock::now();
  R.Value = E->runMain();
  R.ExecMs = msSince(T0);
  R.Retired = E->getInstructionsExecuted();
  R.Records = E->getDispatchRecords();

  T0 = Clock::now();
  E.reset();
  L.add("interp.engine_teardown_ms", msSince(T0));
  L.add("interp.exec_ms", R.ExecMs);
  L.add("interp.retired_minstr", static_cast<double>(R.Retired) / 1e6);

  uint64_t Tasks = 0, Sync = 0;
  for (const auto &D : R.Records) {
    Tasks += D.NumTasks;
    Sync += D.TotalTaskSyncOps;
  }
  L.add("runtime.dispatches", static_cast<double>(R.Records.size()));
  L.add("runtime.tasks", static_cast<double>(Tasks));
  L.add("runtime.sync_ops", static_cast<double>(Sync));
  R.Ok = true;
  return R;
}

/// Reads the counters and dispatch spans that one op recorded under
/// telemetry mode `trace`.
void collectTrace(Layers &L) {
  const telemetry::MetricsSnapshot S = telemetry::snapshotMetrics();
  L.add("runtime.spec_commits",
        static_cast<double>(S.counter(telemetry::Counter::SpecCommits)));
  L.add("runtime.misspeculations",
        static_cast<double>(S.counter(telemetry::Counter::SpecMisspeculations)));
  const std::vector<double> Spans = dispatchSpansUs();
  for (size_t I = 0; I < Spans.size(); ++I)
    L.add(I == 0 ? "runtime.first_dispatch_us" : "runtime.warm_dispatch_us",
          Spans[I]);
}

ExecResult executeChecked(nir::Module &M, bool Parallel, Layers &L) {
  try {
    return execute(M, Parallel, L);
  } catch (...) {
    return ExecResult{};
  }
}

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

std::string readFile(const fs::path &P) {
  std::ifstream In(P);
  if (!In)
    throw std::runtime_error("cannot read " + P.string());
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::vector<Program> suitePrograms() {
  std::vector<Program> Out;
  for (const auto &B : bench::getBenchmarkSuite())
    Out.push_back({"suite." + B.Name, B.Source});
  return Out;
}

/// Scaled copies: every <Dir>/<Group>/*.minic, by file name.
std::vector<Program> scaledPrograms(const fs::path &Dir,
                                    const std::string &Group) {
  std::vector<fs::path> Files;
  for (const auto &E : fs::directory_iterator(Dir / Group))
    if (E.is_regular_file() && E.path().extension() == ".minic")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  if (Files.empty())
    throw std::runtime_error("no programs in " + (Dir / Group).string());
  std::vector<Program> Out;
  for (const auto &F : Files)
    Out.push_back({Group + "." + F.stem().string(), readFile(F)});
  return Out;
}

/// "<key> <value>" per line; '#' starts a comment.
std::map<std::string, int64_t> readExpected(const fs::path &P) {
  std::map<std::string, int64_t> Out;
  std::istringstream In(readFile(P));
  std::string Line;
  while (std::getline(In, Line)) {
    Line = Line.substr(0, Line.find('#'));
    std::istringstream LS(Line);
    std::string Key;
    long long V;
    if (LS >> Key >> V)
      Out[Key] = V;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// One kind of op: a program through a path. Exec workloads hold the
/// module compiled in set-up; suite-pipeline compiles inside the op.
struct OpKind {
  const Program *Prog = nullptr;
  PathKind Path = PathKind::Opt;
  int64_t Expected = 0;
  std::unique_ptr<Compiled> Module; ///< exec workloads only
  std::vector<double> OpMs;         ///< this kind's timed ops
};

struct RunState {
  std::string Workload;
  std::vector<Program> Programs;
  std::vector<OpKind> Kinds;
  bool ExecOnly = false;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool SetupOk = true;
  std::vector<std::string> Errors;
};

void noteError(RunState &S, const std::string &What) {
  if (S.Errors.size() < 8)
    S.Errors.push_back(What);
}

/// Runs one op's work; returns whether it succeeded. A program whose
/// set-up compile failed fails every op.
bool runProgram(RunState &S, OpKind &K, Layers &L) {
  std::unique_ptr<Compiled> Fresh;
  Compiled *C = K.Module.get();
  if (!C) {
    Fresh = compile(*K.Prog, K.Path, L);
    C = Fresh.get();
  }
  if (!C->Error.empty()) {
    noteError(S, K.Prog->Key + ": " + C->Error);
    return false;
  }
  ExecResult R = executeChecked(*C->M, K.Path == PathKind::Parallelize, L);
  if (!R.Ok) {
    noteError(S, K.Prog->Key + ": exception while running");
    return false;
  }
  if (R.Value != K.Expected) {
    noteError(S, K.Prog->Key + ": main() = " + std::to_string(R.Value) +
                     ", expected " + std::to_string(K.Expected));
    return false;
  }
  return true;
}

/// Runs one op and returns whether it succeeded; \p OpMs receives its
/// time. Under telemetry mode `trace` the recorder is cleared before the
/// clock starts and read after it stops, so the op time holds the
/// program's own tracing cost but not the benchmark's collection work.
bool runOp(RunState &S, OpKind &K, Layers &L, double &OpMs) {
  const bool Traced = telemetry::traceEnabled();
  if (Traced) {
    telemetry::clearTrace();
    telemetry::resetMetrics();
  }
  const auto T0 = Clock::now();
  const bool Ok = runProgram(S, K, L);
  OpMs = msSince(T0);
  if (Traced)
    collectTrace(L);
  return Ok;
}

/// Builds the op kinds of \p Workload, reading expected values.
void buildKinds(RunState &S, const fs::path &ProgramsDir,
                const std::map<std::string, int64_t> &Expected) {
  if (S.Workload == "suite-pipeline") {
    S.Programs = suitePrograms();
  } else if (S.Workload == "parallel-exec") {
    S.Programs = scaledPrograms(ProgramsDir, "parallel");
    S.ExecOnly = true;
  } else if (S.Workload == "seq-exec") {
    S.Programs = scaledPrograms(ProgramsDir, "seq");
    S.ExecOnly = true;
  } else {
    throw std::runtime_error("unknown workload '" + S.Workload + "'");
  }
  for (const Program &P : S.Programs) {
    auto It = Expected.find(P.Key);
    if (It == Expected.end())
      throw std::runtime_error("no expected value for " + P.Key);
    auto Add = [&](PathKind K) {
      OpKind O;
      O.Prog = &P;
      O.Path = K;
      O.Expected = It->second;
      S.Kinds.push_back(std::move(O));
    };
    if (S.Workload == "suite-pipeline") {
      Add(PathKind::Opt);
      Add(PathKind::Parallelize);
    } else {
      Add(S.Workload == "parallel-exec" ? PathKind::Parallelize
                                        : PathKind::Opt);
    }
  }
}

/// One set-up: compile the exec workloads' programs, then warm up with
/// one checked op per kind (suite-pipeline: one op per path on its first
/// kernel). Returns the elapsed seconds.
double setupOnce(RunState &S, Layers &L) {
  auto T0 = Clock::now();
  if (S.ExecOnly)
    for (OpKind &K : S.Kinds)
      K.Module = compile(*K.Prog, K.Path, L);
  double OpMs;
  for (OpKind &K : S.Kinds)
    if ((S.ExecOnly || K.Prog == S.Kinds.front().Prog) &&
        !runOp(S, K, L, OpMs))
      S.SetupOk = false;
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// One round: every kind once, in seeded order. Appends op times (ms)
/// and returns the round's duration (ms).
double runRound(RunState &S, std::mt19937_64 &Rng, Layers &L,
                std::vector<double> &OpMs) {
  const auto RoundT0 = Clock::now();
  std::vector<size_t> Order(S.Kinds.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::shuffle(Order.begin(), Order.end(), Rng);
  for (size_t I : Order) {
    OpKind &K = S.Kinds[I];
    ++S.Attempted;
    double Ms;
    const bool Ok = runOp(S, K, L, Ms);
    OpMs.push_back(Ms);
    K.OpMs.push_back(Ms);
    if (!Ok)
      ++S.Failed;
  }
  return msSince(RoundT0);
}

/// The \p Q quantile of \p V, interpolating linearly between ranks.
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

/// A shared host can run at half speed for stretches of several seconds,
/// so a median over one run's rounds follows the host's slow stretches.
/// Per-round and per-program times are summarized by their 10th
/// percentile instead, which keeps the run's fast stretches.
constexpr double FastQuantile = 0.1;

/// Sequential and parallel legs of every planner-compiled program, for
/// runtime.wall_speedup and planner.model_error. The sequential leg is
/// the frontend output of the same source; each leg runs untraced, three
/// times, and its median runMain time counts.
void measureLegs(RunState &S, Layers &L) {
  constexpr unsigned Reps = 3;
  double SumLogWall = 0, SumErr = 0;
  unsigned Programs = 0;
  const telemetry::Mode Saved = telemetry::mode();
  telemetry::setMode(telemetry::Mode::Off);
  for (OpKind &K : S.Kinds) {
    if (K.Path != PathKind::Parallelize)
      continue;
    Layers Scratch;
    std::unique_ptr<Compiled> Par =
        K.Module ? nullptr : compile(*K.Prog, K.Path, Scratch);
    nir::Module *PM = K.Module ? K.Module->M.get() : Par->M.get();
    const std::string &PErr = K.Module ? K.Module->Error : Par->Error;
    auto Seq = std::make_unique<Compiled>();
    if (!PErr.empty() || !runFrontend(K.Prog->Source, *Seq, Scratch))
      continue;
    std::vector<double> SeqMs, ParMs;
    uint64_t SeqInstrs = 0, ParSim = 1;
    for (unsigned I = 0; I < Reps; ++I) {
      ExecResult RS = execute(*Seq->M, false, Scratch);
      SeqMs.push_back(RS.ExecMs);
      SeqInstrs = RS.Retired;
      nir::ExecutionEngine E(*PM);
      registerParallelRuntime(E);
      auto T0 = Clock::now();
      E.runMain();
      ParMs.push_back(msSince(T0));
      ParSim = std::max<uint64_t>(benchutil::simulatedTime(E), 1);
    }
    const double Wall = median(SeqMs) / std::max(median(ParMs), 1e-9);
    const double Model =
        static_cast<double>(SeqInstrs) / static_cast<double>(ParSim);
    SumLogWall += std::log(Wall);
    SumErr += std::fabs(Model - Wall) / Wall;
    ++Programs;
  }
  telemetry::setMode(Saved);
  if (Programs == 0)
    return;
  L.add("runtime.wall_speedup", std::exp(SumLogWall / Programs));
  L.add("planner.model_error", SumErr / Programs);
}

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// The per-layer metrics, in BENCHMARK.json order.
const MetricSpec PerLayer[] = {
    {"frontend.parse_ms", "ms"},
    {"frontend.codegen_ms", "ms"},
    {"frontend.mem2reg_ms", "ms"},
    {"frontend.ir_instrs", "count"},
    {"opt.pipeline_ms", "ms"},
    {"opt.calls_inlined", "count"},
    {"opt.gvn_replaced", "count"},
    {"opt.dce_removed", "count"},
    {"opt.insts_hoisted", "count"},
    {"opt.loops_unrolled", "count"},
    {"opt.vector_insts", "count"},
    {"opt.ir_instrs_after", "count"},
    {"noelle.memdep_profile_ms", "ms"},
    {"noelle.coverage_profile_ms", "ms"},
    {"noelle.pdg_ms", "ms"},
    {"noelle.pdg_edges", "count"},
    {"verify.snapshot_ms", "ms"},
    {"verify.plan_check_ms", "ms"},
    {"verify.module_check_ms", "ms"},
    {"verify.findings", "count"},
    {"planner.plan_ms", "ms"},
    {"planner.entries", "count"},
    {"planner.spec_entries", "count"},
    {"planner.model_error", "ratio"},
    {"xforms.apply_ms", "ms"},
    {"xforms.loops_parallelized", "count"},
    {"xforms.entries_failed", "count"},
    {"xforms.ir_growth", "ratio"},
    {"interp.engine_init_ms", "ms"},
    {"interp.engine_teardown_ms", "ms"},
    {"interp.exec_ms", "ms"},
    {"interp.retired_minstr", "Minstr"},
    {"interp.mips", "Minstr/s"},
    {"runtime.dispatches", "count"},
    {"runtime.tasks", "count"},
    {"runtime.first_dispatch_us", "us"},
    {"runtime.warm_dispatch_us", "us"},
    {"runtime.sync_ops", "count"},
    {"runtime.spec_commits", "count"},
    {"runtime.misspeculations", "count"},
    {"runtime.wall_speedup", "ratio"},
    {"telemetry.trace_overhead", "ratio"},
};

std::string fmtNum(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

void addMetric(telemetry::JsonObject &O, const std::string &Name, double V,
               const std::string &Unit) {
  telemetry::JsonObject M;
  M.addRaw("value", fmtNum(V)).add("unit", Unit);
  O.addRaw(Name, M.str());
}

double peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0;
}

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  fs::path Programs;
  fs::path Expected;
  fs::path EmitSources;
  bool DispatchRecords = false;
};

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    const std::string K = Argv[I];
    auto Val = [&]() -> std::string {
      if (I + 1 >= Argc)
        throw std::runtime_error("missing value for " + K);
      return Argv[++I];
    };
    if (K == "--workload")
      A.Workload = Val();
    else if (K == "--seed")
      A.Seed = std::stoull(Val());
    else if (K == "--seconds")
      A.Seconds = std::stod(Val());
    else if (K == "--trace")
      A.Trace = Val() != "0";
    else if (K == "--programs")
      A.Programs = Val();
    else if (K == "--expected")
      A.Expected = Val();
    else if (K == "--emit-sources")
      A.EmitSources = Val();
    else if (K == "--dispatch-records")
      A.DispatchRecords = true;
    else
      throw std::runtime_error("unknown argument '" + K + "'");
  }
  if (A.Programs.empty())
    throw std::runtime_error("--programs is required");
  return A;
}

/// Writes every program's MiniC source as <dir>/<key>.minic, so the
/// expected file can be rebuilt from exactly what the benchmark runs.
int emitSources(const Args &A) {
  fs::create_directories(A.EmitSources);
  std::vector<Program> All = suitePrograms();
  for (const char *G : {"parallel", "seq"})
    for (Program &P : scaledPrograms(A.Programs, G))
      All.push_back(std::move(P));
  for (const Program &P : All) {
    std::ofstream Out(A.EmitSources / (P.Key + ".minic"));
    Out << P.Source;
    if (!Out)
      throw std::runtime_error("cannot write " + P.Key);
  }
  return 0;
}

/// Prints every DispatchRecord of each parallel-exec program (compiled
/// through the planner path, run once); two invocations must print the
/// same bytes.
int printDispatchRecords(const Args &A) {
  for (const Program &P : scaledPrograms(A.Programs, "parallel")) {
    Layers L;
    auto C = compile(P, PathKind::Parallelize, L);
    if (!C->Error.empty())
      throw std::runtime_error(P.Key + ": " + C->Error);
    ExecResult R = execute(*C->M, true, L);
    std::printf("%s main=%lld records=%zu\n", P.Key.c_str(),
                (long long)R.Value, R.Records.size());
    for (const auto &D : R.Records)
      std::printf("  %s tasks=%llu max=%llu total=%llu maxsync=%llu "
                  "totalsync=%llu seg=%llu\n",
                  D.TaskName.c_str(), (unsigned long long)D.NumTasks,
                  (unsigned long long)D.MaxTaskInstructions,
                  (unsigned long long)D.TotalTaskInstructions,
                  (unsigned long long)D.MaxTaskSyncOps,
                  (unsigned long long)D.TotalTaskSyncOps,
                  (unsigned long long)D.TotalSegmentInstructions);
  }
  return 0;
}

int runBenchmark(const Args &A) {
  RunState S;
  S.Workload = A.Workload;
  buildKinds(S, A.Programs, readExpected(A.Expected));
  std::mt19937_64 Rng(A.Seed);

  // Tracing is off for the end-to-end run; the traced run records
  // spans and counters and alternates traced and untraced rounds to
  // measure the tracing overhead.
  telemetry::setMode(A.Trace ? telemetry::Mode::Trace
                             : telemetry::Mode::Off);
  Layers L, Untraced;

  std::vector<double> SetupS;
  double SetupTotalS = 0;
  while (SetupS.size() < SetupMinReps || SetupTotalS < SetupMinS) {
    SetupS.push_back(setupOnce(S, L));
    SetupTotalS += SetupS.back();
  }

  // Whole rounds until the budget is spent (the traced run also ends on
  // an untraced round, so both legs time the same ops).
  std::vector<double> OpMs, RoundMs, TracedMs, UntracedMs;
  const auto T0 = Clock::now();
  const double Budget = A.Seconds * 1000.0;
  unsigned Rounds = 0;
  while (msSince(T0) < Budget || (A.Trace && Rounds % 2 == 1)) {
    if (A.Trace) {
      const bool Traced = Rounds % 2 == 0;
      telemetry::setMode(Traced ? telemetry::Mode::Trace
                                : telemetry::Mode::Off);
      runRound(S, Rng, Traced ? L : Untraced, Traced ? TracedMs : UntracedMs);
    } else {
      RoundMs.push_back(runRound(S, Rng, L, OpMs));
    }
    ++Rounds;
  }
  const double ElapsedS = msSince(T0) / 1000.0;
  std::vector<double> KindFast;
  for (const OpKind &K : S.Kinds) {
    KindFast.push_back(quantile(K.OpMs, FastQuantile));
    std::printf("%-28s %-11s ops=%zu p10_ms=%.3f median_ms=%.3f\n",
                K.Prog->Key.c_str(),
                K.Path == PathKind::Opt ? "opt" : "parallelize",
                K.OpMs.size(), KindFast.back(), median(K.OpMs));
  }

  telemetry::JsonObject Metrics;
  if (!A.Trace) {
    std::sort(OpMs.begin(), OpMs.end());
    const size_t N = OpMs.size();
    // The tail: the highest percentile with at least ten samples beyond
    // it; its percentile and sample count are printed with it.
    const size_t TailIdx = N > 10 ? N - 11 : N - 1;
    std::printf("setups=%zu ops=%zu rounds=%u elapsed_s=%.3f op_ms_tail=%.3f "
                "(p%.1f, %zu samples beyond it)\n",
                SetupS.size(), N, Rounds, ElapsedS, OpMs[TailIdx],
                100.0 * static_cast<double>(TailIdx + 1) /
                    static_cast<double>(N),
                N - 1 - TailIdx);
    // Every round holds the same ops, and every program x path kind has
    // one sample per round, so both summaries compare like with like.
    addMetric(Metrics, "setup_s", median(SetupS), "s");
    addMetric(Metrics, "ops_per_s",
              static_cast<double>(S.Kinds.size()) * 1000.0 /
                  quantile(RoundMs, FastQuantile),
              "1/s");
    addMetric(Metrics, "op_ms_p50", median(KindFast), "ms");
    addMetric(Metrics, "op_ms_tail", OpMs[TailIdx], "ms");
    addMetric(Metrics, "peak_rss_mb", peakRssMb(), "MB");
  } else {
    measureLegs(S, L);
    double TracedSum = 0, UntracedSum = 0;
    for (double V : TracedMs)
      TracedSum += V;
    for (double V : UntracedMs)
      UntracedSum += V;
    L.add("telemetry.trace_overhead", TracedSum / std::max(UntracedSum, 1e-9));
    L.add("interp.mips", L.sum("interp.retired_minstr") /
                             std::max(L.sum("interp.exec_ms") / 1000.0, 1e-9));
    for (const MetricSpec &M : PerLayer)
      addMetric(Metrics, M.Name, L.mean(M.Name), M.Unit);
  }
  for (const std::string &E : S.Errors)
    std::fprintf(stderr, "noelle-perfbench: %s\n", E.c_str());

  telemetry::JsonObject Root;
  Root.addRaw("correct", S.SetupOk && S.Failed == 0 ? "true" : "false")
      .add("attempted", S.Attempted)
      .add("failed", S.Failed)
      .addRaw("metrics", Metrics.str());
  std::printf("%s\n", Root.str().c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  try {
    Args A = parseArgs(Argc, Argv);
    if (!A.EmitSources.empty())
      return emitSources(A);
    if (A.DispatchRecords)
      return printDispatchRecords(A);
    if (A.Workload.empty() || A.Expected.empty())
      throw std::runtime_error("--workload and --expected are required");
    return runBenchmark(A);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "noelle-perfbench: %s\n", E.what());
    return 2;
  }
}
