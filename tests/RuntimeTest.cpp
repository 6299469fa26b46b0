//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the parallel runtime primitives: the persistent
/// work-stealing thread pool (worker reuse, forward progress for
/// blocking jobs), the per-engine blocking queues under producer/
/// consumer contention, sequential-segment gate ordering, chunked
/// dispatch coverage, the heap allocator's bounds check, and the
/// retired-instruction total across DOALL, HELIX and nested DSWP runs.
///
//===----------------------------------------------------------------------===//

#include "frontend/MiniC.h"
#include "runtime/ParallelRuntime.h"
#include "runtime/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace noelle;
using nir::BlockingQueue;
using nir::Context;
using nir::ExecutionEngine;
using nir::ThreadPool;

namespace {

int64_t runWithRuntime(const char *Src, ExecutionEngine **OutEngine,
                       std::unique_ptr<ExecutionEngine> &Keep,
                       std::unique_ptr<nir::Module> &KeepM, Context &Ctx) {
  KeepM = minic::compileMiniCOrDie(Ctx, Src);
  Keep = std::make_unique<ExecutionEngine>(*KeepM);
  registerParallelRuntime(*Keep);
  if (OutEngine)
    *OutEngine = Keep.get();
  return Keep->runMain();
}

int64_t runWithRuntime(const char *Src) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  ExecutionEngine E(*M);
  registerParallelRuntime(E);
  return E.runMain();
}

//===----------------------------------------------------------------------===//
// ThreadPool unit tests
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, RunsAllJobsAndBlocksUntilDone) {
  ThreadPool Pool;
  std::atomic<int> Count{0};
  std::vector<ThreadPool::Job> Jobs;
  for (int I = 0; I < 64; ++I)
    Jobs.push_back([&Count] { Count.fetch_add(1); });
  Pool.run(std::move(Jobs));
  // run() is a barrier: every job has finished once it returns.
  EXPECT_EQ(Count.load(), 64);
}

TEST(ThreadPoolTest, ReusesWorkersAcrossBatches) {
  ThreadPool Pool;
  std::vector<ThreadPool::Job> Warm;
  for (int I = 0; I < 8; ++I)
    Warm.push_back([] {});
  Pool.run(std::move(Warm));
  uint64_t AfterWarmup = Pool.getThreadsCreated();
  EXPECT_GE(AfterWarmup, 1u);

  for (int Batch = 0; Batch < 50; ++Batch) {
    std::vector<ThreadPool::Job> Jobs;
    for (int I = 0; I < 8; ++I)
      Jobs.push_back([] {});
    Pool.run(std::move(Jobs));
  }
  // Same peak concurrency -> the pool must not have created any thread
  // after warm-up.
  EXPECT_EQ(Pool.getThreadsCreated(), AfterWarmup);
  EXPECT_EQ(Pool.getBatchesRun(), 51u);
}

TEST(ThreadPoolTest, InterdependentBlockingJobsMakeProgress) {
  // Jobs that block on each other (the HELIX/DSWP shape): each job J
  // waits for flag J-1 before setting flag J. A pool without the
  // forward-progress guarantee deadlocks here on a small machine.
  ThreadPool Pool;
  constexpr int N = 16;
  std::vector<std::atomic<int>> Flags(N);
  for (auto &F : Flags)
    F.store(0);
  std::vector<ThreadPool::Job> Jobs;
  for (int J = N - 1; J >= 0; --J) // worst-case enqueue order
    Jobs.push_back([&Flags, J] {
      if (J > 0)
        while (Flags[J - 1].load(std::memory_order_acquire) == 0)
          std::this_thread::yield();
      Flags[J].store(1, std::memory_order_release);
    });
  Pool.run(std::move(Jobs));
  for (auto &F : Flags)
    EXPECT_EQ(F.load(), 1);
}

TEST(ThreadPoolTest, ConcurrentBatchesFromMultipleThreads) {
  // Nested/concurrent dispatches (a HELIX region inside a DSWP stage)
  // issue run() from worker threads; the pool must keep all batches
  // progressing.
  ThreadPool Pool;
  std::atomic<int> Count{0};
  std::vector<ThreadPool::Job> Outer;
  for (int I = 0; I < 4; ++I)
    Outer.push_back([&Pool, &Count] {
      std::vector<ThreadPool::Job> Inner;
      for (int J = 0; J < 4; ++J)
        Inner.push_back([&Count] { Count.fetch_add(1); });
      Pool.run(std::move(Inner));
    });
  Pool.run(std::move(Outer));
  EXPECT_EQ(Count.load(), 16);
}

//===----------------------------------------------------------------------===//
// BlockingQueue unit tests
//===----------------------------------------------------------------------===//

TEST(BlockingQueueTest, ProducerConsumerStress) {
  // Two producers, two consumers, tiny capacity so both the full and
  // the empty wait paths are exercised constantly.
  BlockingQueue Q(8);
  constexpr int64_t PerProducer = 1000;
  std::atomic<int64_t> Sum{0};
  std::atomic<int64_t> Received{0};

  auto Producer = [&Q] {
    for (int64_t V = 0; V < PerProducer; ++V)
      Q.push(V);
  };
  auto Consumer = [&] {
    while (Received.fetch_add(1) < 2 * PerProducer)
      Sum.fetch_add(Q.pop());
  };

  std::thread P1(Producer), P2(Producer);
  std::thread C1(Consumer), C2(Consumer);
  P1.join();
  P2.join();
  C1.join();
  C2.join();
  EXPECT_EQ(Sum.load(), 2 * (PerProducer * (PerProducer - 1) / 2));
}

//===----------------------------------------------------------------------===//
// Engine-level runtime tests (MiniC programs through the interpreter)
//===----------------------------------------------------------------------===//

TEST(RuntimeTest, QueueStressThroughInterpreter) {
  // 2 producer tasks and 2 consumer tasks share one capacity-8 queue,
  // so both the queue-full and queue-empty wait paths run constantly.
  // Producers push disjoint ranges covering 0..999; consumers split
  // them arbitrarily but the sum of both partitions is fixed.
  const char *Src = R"(
    extern int *noelle_queue_create(int capacity);
    extern void noelle_queue_push(int *q, int v);
    extern int noelle_queue_pop(int *q);
    extern void noelle_dispatch(void (*task)(int *, int, int), int *env,
                                int n);
    int sums[2];
    void task(int *q, int t, int n) {
      if (t < 2) {
        int i = 0;
        while (i < 500) {
          noelle_queue_push(q, t * 500 + i);
          i = i + 1;
        }
      } else {
        int i = 0;
        int s = 0;
        while (i < 500) {
          s = s + noelle_queue_pop(q);
          i = i + 1;
        }
        sums[t - 2] = s;
      }
      return;
    }
    int main() {
      int *q = noelle_queue_create(8);
      noelle_dispatch(task, q, 4);
      return sums[0] + sums[1];
    }
  )";
  EXPECT_EQ(runWithRuntime(Src), 999 * 1000 / 2);
}

TEST(RuntimeTest, SequentialSegmentOrderingUnderContention) {
  // 4 tasks x 16 iterations increment a NON-atomic global inside a
  // sequential segment. Only the gate's ordering (ss_wait parks until
  // the counter reaches this task's turn) makes this race-free; any
  // lost update or misordering changes the result.
  const char *Src = R"(
    extern int *noelle_ss_create(int count);
    extern void noelle_ss_wait(int *gates, int ss, int iter);
    extern void noelle_ss_signal(int *gates, int ss, int iter);
    extern void noelle_dispatch(void (*task)(int *, int, int), int *env,
                                int n);
    int counter;
    void task(int *gates, int t, int n) {
      int i = t;
      while (i < 64) {
        noelle_ss_wait(gates, 0, i);
        counter = counter + 1;
        noelle_ss_signal(gates, 0, i);
        i = i + n;
      }
      return;
    }
    int main() {
      int *gates = noelle_ss_create(1);
      noelle_dispatch(task, gates, 4);
      return counter;
    }
  )";
  for (int Round = 0; Round < 5; ++Round)
    EXPECT_EQ(runWithRuntime(Src), 64);
}

TEST(RuntimeTest, WorkersAreReusedAcrossDispatches) {
  const char *Src = R"(
    extern void noelle_dispatch(void (*task)(int *, int, int), int *env,
                                int n);
    int env[1];
    void task(int *env, int t, int n) { return; }
    int main() {
      noelle_dispatch(task, env, 4);
      return 0;
    }
  )";
  Context Ctx;
  std::unique_ptr<nir::Module> M;
  std::unique_ptr<ExecutionEngine> E;
  ExecutionEngine *EP = nullptr;
  runWithRuntime(Src, &EP, E, M, Ctx);
  uint64_t AfterFirst = EP->getThreadPool().getThreadsCreated();
  EXPECT_GE(AfterFirst, 1u);
  for (int I = 0; I < 10; ++I)
    EP->runMain();
  // Repeated dispatches of the same width must not create new threads.
  EXPECT_EQ(EP->getThreadPool().getThreadsCreated(), AfterFirst);
}

TEST(RuntimeTest, ChunkedDispatchCoversEveryTaskExactlyOnce) {
  // 13 tasks, grain 3 (doesn't divide evenly): every logical task index
  // must run exactly once, regardless of which runner claims the chunk.
  const char *Src = R"(
    extern void noelle_dispatch_chunked(void (*task)(int *, int, int),
                                        int *env, int n, int grain);
    int hits[13];
    void task(int *env, int t, int n) {
      hits[t] = hits[t] + 1;
      return;
    }
    int main() {
      noelle_dispatch_chunked(task, hits, 13, 3);
      int i = 0;
      int bad = 0;
      while (i < 13) {
        if (hits[i] != 1) { bad = bad + 1; }
        i = i + 1;
      }
      return bad;
    }
  )";
  EXPECT_EQ(runWithRuntime(Src), 0);
}

TEST(RuntimeTest, ChunkedDispatchMatchesStaticResults) {
  // Same reduction computed via static and chunked dispatch must agree.
  const char *StaticSrc = R"(
    extern void noelle_dispatch(void (*task)(int *, int, int), int *env,
                                int n);
    int acc[4];
    void task(int *env, int t, int n) {
      int i = t;
      int s = 0;
      while (i < 1000) { s = s + i * i; i = i + n; }
      acc[t] = s;
      return;
    }
    int main() {
      noelle_dispatch(task, acc, 4);
      return acc[0] + acc[1] + acc[2] + acc[3];
    }
  )";
  const char *ChunkedSrc = R"(
    extern void noelle_dispatch_chunked(void (*task)(int *, int, int),
                                        int *env, int n, int grain);
    int acc[4];
    void task(int *env, int t, int n) {
      int i = t;
      int s = 0;
      while (i < 1000) { s = s + i * i; i = i + n; }
      acc[t] = s;
      return;
    }
    int main() {
      noelle_dispatch_chunked(task, acc, 4, 2);
      return acc[0] + acc[1] + acc[2] + acc[3];
    }
  )";
  EXPECT_EQ(runWithRuntime(StaticSrc), runWithRuntime(ChunkedSrc));
}

TEST(RuntimeTest, QueueRegistryIsPerEngine) {
  // Queues are owned by the engine that created them, not by a
  // process-global singleton: a fresh engine starts with an empty
  // registry even after another engine created queues.
  const char *Src = R"(
    extern int *noelle_queue_create(int capacity);
    int main() {
      noelle_queue_create(4);
      noelle_queue_create(4);
      return 0;
    }
  )";
  Context Ctx1;
  auto M1 = minic::compileMiniCOrDie(Ctx1, Src);
  ExecutionEngine E1(*M1);
  registerParallelRuntime(E1);
  E1.runMain();
  EXPECT_EQ(E1.getQueueRegistry().size(), 2u);

  Context Ctx2;
  auto M2 = minic::compileMiniCOrDie(Ctx2, Src);
  ExecutionEngine E2(*M2);
  registerParallelRuntime(E2);
  E2.runMain();
  // With the old global registry this would observe E1's queues too.
  EXPECT_EQ(E2.getQueueRegistry().size(), 2u);
}

TEST(RuntimeTest, HeapAllocIsRaceFreeUnderConcurrentAllocation) {
  // Hammer the engine's bump allocator (malloc -> heapAlloc) from 4
  // pooled tasks; blocks must be disjoint. With the old
  // fetch_add-then-check scheme, racing allocations near the heap end
  // could both commit and hand out overlapping memory.
  const char *Src = R"(
    extern void noelle_dispatch(void (*task)(int *, int, int), int *env,
                                int n);
    int ok[4];
    void task(int *env, int t, int n) {
      int i = 0;
      int good = 1;
      while (i < 200) {
        int *p = malloc(16);
        p[0] = t * 1000 + i;
        p[1] = t * 1000 - i;
        if (p[0] != t * 1000 + i) { good = 0; }
        if (p[1] != t * 1000 - i) { good = 0; }
        i = i + 1;
      }
      ok[t] = good;
      return;
    }
    int main() {
      noelle_dispatch(task, ok, 4);
      return ok[0] + ok[1] + ok[2] + ok[3];
    }
  )";
  EXPECT_EQ(runWithRuntime(Src), 4);
}

//===----------------------------------------------------------------------===//
// Retired-instruction publication
//===----------------------------------------------------------------------===//

/// Runs @main with the parallel runtime and checks that the engine total
/// is exactly what the main thread retired plus what every dispatched
/// task retired: flushes stay thread-local and each engine entry
/// publishes its own count once.
void expectRetirementAddsUp(const char *Src, int64_t Expected) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  ExecutionEngine E(*M);
  registerParallelRuntime(E);
  ExecutionEngine::resetThreadRetired();
  EXPECT_EQ(E.runMain(), Expected);
  const uint64_t MainRetired = ExecutionEngine::readThreadRetired();
  uint64_t TaskRetired = 0;
  for (const auto &R : E.getDispatchRecords())
    TaskRetired += R.TotalTaskInstructions;
  EXPECT_GT(TaskRetired, 0u);
  EXPECT_EQ(E.getInstructionsExecuted(), MainRetired + TaskRetired);
}

TEST(RetirementTest, DOALLTaskCallingAnExternalEveryIteration) {
  // Every iteration leaves the interpreter for sin(), so every iteration
  // flushes the retired count; the parallel sum must also match the
  // sequential one.
  const char *Src = R"(
    extern void noelle_dispatch_chunked(void (*task)(int *, int, int),
                                        int *env, int n, int grain);
    int env[1];
    double part[32];
    void task(int *env, int t, int n) {
      int i = t * 16;
      double s = 0.0;
      while (i < t * 16 + 16) {
        s = s + sin((double)i * 0.01);
        i = i + 1;
      }
      part[t] = s;
      return;
    }
    int main() {
      noelle_dispatch_chunked(task, env, 32, 2);
      double par = 0.0;
      double seq = 0.0;
      int i = 0;
      while (i < 32) { par = par + part[i]; i = i + 1; }
      i = 0;
      while (i < 512) { seq = seq + sin((double)i * 0.01); i = i + 1; }
      double d = par - seq;
      if (d < 0.0) { d = 0.0 - d; }
      if (d > 0.000001) { return 1; }
      return 0;
    }
  )";
  expectRetirementAddsUp(Src, 0);
}

TEST(RetirementTest, HELIXSequentialSegments) {
  const char *Src = R"(
    extern int *noelle_ss_create(int count);
    extern void noelle_ss_wait(int *gates, int ss, int iter);
    extern void noelle_ss_signal(int *gates, int ss, int iter);
    extern void noelle_dispatch(void (*task)(int *, int, int), int *env,
                                int n);
    int counter;
    void task(int *gates, int t, int n) {
      int i = t;
      while (i < 64) {
        noelle_ss_wait(gates, 0, i);
        counter = counter * 3 + i;
        noelle_ss_signal(gates, 0, i);
        i = i + n;
      }
      return;
    }
    int main() {
      int *gates = noelle_ss_create(1);
      noelle_dispatch(task, gates, 4);
      int expect = 0;
      int i = 0;
      while (i < 64) { expect = expect * 3 + i; i = i + 1; }
      if (counter == expect) { return 1; }
      return 0;
    }
  )";
  expectRetirementAddsUp(Src, 1);
}

TEST(RetirementTest, DSWPStageWithNestedDOALL) {
  // Stage 0 produces into a queue; stage 1 consumes and, per item,
  // dispatches a DOALL from its worker thread, so inner tasks publish
  // while the stage's own entry is still open.
  const char *Src = R"(
    extern int *noelle_queue_create(int capacity);
    extern void noelle_queue_push(int *q, int v);
    extern int noelle_queue_pop(int *q);
    extern void noelle_dispatch(void (*task)(int *, int, int), int *env,
                                int n);
    extern void noelle_dispatch_chunked(void (*task)(int *, int, int),
                                        int *env, int n, int grain);
    int cell[1];
    int sq[8];
    int total;
    void inner(int *env, int t, int n) {
      sq[t] = env[0] * t;
      return;
    }
    void stage(int *q, int t, int n) {
      int i = 0;
      if (t == 0) {
        while (i < 10) { noelle_queue_push(q, i + 1); i = i + 1; }
      } else {
        int s = 0;
        while (i < 10) {
          cell[0] = noelle_queue_pop(q);
          noelle_dispatch_chunked(inner, cell, 8, 2);
          int k = 0;
          while (k < 8) { s = s + sq[k]; k = k + 1; }
          i = i + 1;
        }
        total = s;
      }
      return;
    }
    int main() {
      int *q = noelle_queue_create(4);
      noelle_dispatch(stage, q, 2);
      return total;
    }
  )";
  // sum over v = 1..10 of v * (0 + 1 + ... + 7) = 55 * 28.
  expectRetirementAddsUp(Src, 55 * 28);
}

} // namespace
