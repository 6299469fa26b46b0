//===----------------------------------------------------------------------===//
///
/// \file
/// noelle-trace: run a kernel under the full parallelization pipeline
/// with the telemetry layer in trace mode and export what happened —
/// a Chrome trace_event JSON timeline (chrome://tracing, Perfetto) of
/// per-worker task/chunk spans, DSWP queue operations, and HELIX
/// sequential-segment stalls, plus the metrics-registry snapshot.
///
/// Usage:
///   noelle-trace [options] --run <kernel-name | minic-file | nir-file>
///
/// Options:
///   --run <input>        parallelize and execute the input (the planner
///                        picks techniques, as noelle-parallelize does)
///   --trace=<path>       write the Chrome trace JSON (default:
///                        trace.json)
///   --metrics=<path>     also write the metrics snapshot JSON
///   --summary            print a human-readable digest (span count,
///                        dispatches, steals, stall time) to stdout
///   --cores=N            worker-count ceiling for the planner (4)
///   --technique=K        skip the planner: force doall|helix|dswp on
///                        every eligible loop (e.g. --technique=dswp to
///                        see pipeline stage/queue spans on a kernel the
///                        planner would DOALL)
///   --observe            execute through the observed tier so fused-
///                        superinstruction fire counts populate (slower)
///   --no-transform       trace the sequential run (no parallelization)
///   --list               list benchmark kernels and exit
///
/// Exit status: 0 on success, 1 when the run produced audit findings,
/// 2 on usage/compile/IO errors.
///
//===----------------------------------------------------------------------===//

#include "ToolDriver.h"

#include "interp/Interpreter.h"
#include "noelle/Noelle.h"
#include "planner/Feedback.h"
#include "planner/Planner.h"
#include "runtime/ParallelRuntime.h"
#include "verify/NoelleCheck.h"

#include <cstdio>
#include <string>

using namespace noelle;
namespace telemetry = noelle::telemetry;

namespace {

struct CLIOptions {
  std::string Input;
  std::string TracePath = "trace.json";
  std::string MetricsPath;
  std::string ForcedTechnique; // empty = free planner
  bool Summary = false;
  bool Observe = false;
  bool Transform = true;
  unsigned Cores = 4;
};

void printUsage() {
  std::fprintf(stderr,
               "usage: noelle-trace [--trace=F] [--metrics=F] [--summary] "
               "[--cores=N] [--technique=doall|helix|dswp] [--observe] "
               "[--no-transform] [--list] "
               "--run <kernel|file.minic|file.nir>\n");
}

bool parseArgs(int Argc, char **Argv, CLIOptions &O) {
  bool SawRun = false;
  for (int K = 1; K < Argc; ++K) {
    std::string Arg = Argv[K];
    if (Arg == "--list") {
      tooldriver::listKernels();
      std::exit(0);
    }
    if (Arg == "--run") {
      SawRun = true;
      continue;
    }
    if (tooldriver::parseStringOpt(Arg, "--trace=", O.TracePath))
      continue;
    if (tooldriver::parseStringOpt(Arg, "--metrics=", O.MetricsPath))
      continue;
    if (tooldriver::parseUnsignedOpt(Arg, "--cores=", O.Cores)) {
      if (O.Cores == 0) {
        std::fprintf(stderr, "noelle-trace: --cores must be positive\n");
        return false;
      }
      continue;
    }
    if (tooldriver::parseStringOpt(Arg, "--technique=",
                                   O.ForcedTechnique)) {
      TechniqueKind K;
      if (!techniqueFromName(O.ForcedTechnique, K)) {
        std::fprintf(stderr, "noelle-trace: unknown technique '%s'\n",
                     O.ForcedTechnique.c_str());
        return false;
      }
      continue;
    }
    if (Arg == "--summary") {
      O.Summary = true;
      continue;
    }
    if (Arg == "--observe") {
      O.Observe = true;
      continue;
    }
    if (Arg == "--no-transform") {
      O.Transform = false;
      continue;
    }
    if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "noelle-trace: unknown option '%s'\n",
                   Arg.c_str());
      return false;
    }
    if (!O.Input.empty()) {
      std::fprintf(stderr, "noelle-trace: multiple inputs\n");
      return false;
    }
    O.Input = Arg;
  }
  if (O.Input.empty() || !SawRun) {
    printUsage();
    return false;
  }
  return true;
}

/// Keeps the engine in the observed tier without perturbing anything:
/// the tier's accounting is byte-identical, it just runs unbatched (and
/// charges interp.fuse.fired per executed block).
class NullObserver : public nir::ExecutionObserver {};

} // namespace

int main(int Argc, char **Argv) {
  CLIOptions O;
  if (!parseArgs(Argc, Argv, O))
    return 2;

  // Trace mode before any instrumented code runs; a stricter
  // NOELLE_TELEMETRY=trace in the environment is already equivalent.
  telemetry::setMode(telemetry::Mode::Trace);
  if (!telemetry::traceEnabled()) {
    std::fprintf(stderr,
                 "noelle-trace: telemetry is compiled out "
                 "(NOELLE_TELEMETRY_DISABLED); nothing to record\n");
    return 2;
  }

  nir::Context Ctx;
  auto M = tooldriver::loadInputModule("noelle-trace", Ctx, O.Input);
  if (!M)
    return 2;

  unsigned Parallelized = 0;
  planner::ProgramPlan Plan;
  if (O.Transform) {
    Noelle N(*M);
    if (!O.ForcedTechnique.empty()) {
      // Forced mode: one technique on every eligible loop — no plan, so
      // the measured-speedup feedback has nothing to write back to.
      TechniqueKind K;
      techniqueFromName(O.ForcedTechnique, K);
      auto T = createTechnique(K, N, O.Cores);
      for (const auto &D : T->run())
        Parallelized += D.Parallelized;
    } else {
      planner::PlannerOptions PO;
      PO.MaxWorkers = O.Cores;
      planner::Planner P(N, PO);
      Plan = P.plan();
      for (const auto &D : P.apply(Plan))
        Parallelized += D.Parallelized;
    }
  }

  nir::ExecutionEngine E(*M);
  registerParallelRuntime(E);
  NullObserver Obs;
  if (O.Observe)
    E.setObserver(&Obs);
  const int64_t R = E.runMain();
  std::fputs(E.getOutput().c_str(), stdout);
  std::printf("main() = %lld\n", (long long)R);

  if (O.Transform)
    planner::applyMeasuredSpeedups(Plan, *M, E.getDispatchRecords());

  if (!telemetry::writeFile(O.TracePath, telemetry::traceJson() + "\n")) {
    std::fprintf(stderr, "noelle-trace: cannot write trace to '%s'\n",
                 O.TracePath.c_str());
    return 2;
  }
  if (!O.MetricsPath.empty() &&
      !telemetry::writeFile(O.MetricsPath,
                            telemetry::metricsJson() + "\n")) {
    std::fprintf(stderr, "noelle-trace: cannot write metrics to '%s'\n",
                 O.MetricsPath.c_str());
    return 2;
  }

  if (O.Summary) {
    telemetry::MetricsSnapshot S = telemetry::snapshotMetrics();
    std::printf("noelle-trace: %zu span(s) -> %s\n",
                telemetry::traceEventCount(), O.TracePath.c_str());
    std::printf("  loops parallelized:   %u\n", Parallelized);
    std::printf("  dispatches:           %llu static, %llu chunked "
                "(%llu chunks)\n",
                (unsigned long long)S.counter(
                    telemetry::Counter::DispatchStatic),
                (unsigned long long)S.counter(
                    telemetry::Counter::DispatchChunked),
                (unsigned long long)S.counter(
                    telemetry::Counter::DispatchChunks));
    std::printf("  pool tasks / steals:  %llu / %llu\n",
                (unsigned long long)S.counter(
                    telemetry::Counter::PoolTasksRun),
                (unsigned long long)S.counter(
                    telemetry::Counter::PoolSteals));
    std::printf("  queue push / pop:     %llu / %llu\n",
                (unsigned long long)S.counter(
                    telemetry::Counter::QueuePush),
                (unsigned long long)S.counter(
                    telemetry::Counter::QueuePop));
    if (const telemetry::HistSnapshot *H =
            S.histogram(telemetry::Hist::SSWaitStallNs))
      std::printf("  ss_wait stalls:       %llu (%llu ns total)\n",
                  (unsigned long long)H->Count,
                  (unsigned long long)H->Sum);
    // MeasuredMilli is the Figure-5 model over this run's
    // DispatchRecords, not a wall-clock ratio.
    for (const auto &En : Plan.Entries)
      if (En.MeasuredMilli != 0)
        std::printf("  %s loop@%llu:  est %.2fx, modeled %.2fx\n",
                    En.FunctionName.c_str(),
                    (unsigned long long)En.HeaderInstID,
                    static_cast<double>(En.SpeedupMilli) / 1000.0,
                    static_cast<double>(En.MeasuredMilli) / 1000.0);
  }
  return 0;
}
