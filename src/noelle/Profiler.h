//===----------------------------------------------------------------------===//
///
/// \file
/// NOELLE's profiler abstraction (PRO): one interpreter observer and one
/// run of @main collect block, branch and call counts, the dynamic
/// instruction total and — when the caller asks for dependence evidence
/// — the manifested loop-carried memory dependences (LAMP-style shadow
/// memory). The profile embeds into IR metadata (noelle-meta-prof-embed)
/// as one content-hash-bound blob and answers the high-level hotness and
/// loop-trip queries.
///
/// Wire format (module metadata `noelle.profile.v1`; deterministic,
/// round trips byte-identically; every ID is a deterministic instruction
/// ID, ir/IDs.h):
///
///   profile v1
///   hash <16 hex digits>
///   deps observed|unobserved
///   total <dynamic instructions>
///   call <function name> <invocations>
///   block <id of the block's first instruction> <executions>
///   branch <id of the conditional branch> <taken 0> <taken 1>
///   dep <header id> <src id> <dst id> raw|war|waw
///
/// `deps unobserved` marks a coverage-only profile: the absence of a
/// `dep` record is evidence that a dependence never manifested only
/// under `deps observed`.
///
//===----------------------------------------------------------------------===//

#ifndef NOELLE_PROFILER_H
#define NOELLE_PROFILER_H

#include "analysis/LoopInfo.h"
#include "interp/Interpreter.h"
#include "ir/Module.h"

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>

namespace noelle {

using nir::BasicBlock;
using nir::BranchInst;
using nir::Function;
using nir::Module;

/// Module metadata key the profile is embedded under.
inline constexpr const char *ProfileEmbedKey = "noelle.profile.v1";

/// A manifested loop-carried memory dependence: during one invocation of
/// the loop identified by \p HeaderID, the access \p DstID touched a
/// byte last touched (conflictingly) by \p SrcID in an earlier
/// iteration.
struct ManifestedDep {
  uint64_t HeaderID = 0; ///< ID of the loop header's first instruction
  uint64_t SrcID = 0;    ///< earlier access
  uint64_t DstID = 0;    ///< later access
  enum Kind : uint8_t { RAW = 0, WAR = 1, WAW = 2 } K = RAW;

  bool operator<(const ManifestedDep &O) const {
    return std::tie(HeaderID, SrcID, DstID, K) <
           std::tie(O.HeaderID, O.SrcID, O.DstID, O.K);
  }
};

/// Collected execution statistics with high-level queries.
class ProfileData {
public:
  /// Executions of a block. Zero when never observed.
  uint64_t getBlockCount(const BasicBlock *BB) const;

  /// Times the branch took successor \p Idx.
  uint64_t getBranchTakenCount(const BranchInst *Br, unsigned Idx) const;

  /// Invocations of a function.
  uint64_t getFunctionInvocations(const Function *F) const;

  /// Total dynamic instructions observed.
  uint64_t getTotalInstructions() const { return TotalInstructions; }

  /// Fraction of all executed instructions spent inside loop \p L — the
  /// paper's "hotness of a code region".
  double getLoopHotness(const nir::LoopStructure &L) const;

  /// Fraction of all executed instructions spent in \p F.
  double getFunctionHotness(const Function &F) const;

  /// Executions of \p L's header over all invocations — not minus the
  /// invocations: a loop that tests its exit in the header counts one
  /// execution per invocation more than it runs its body. CostModel's
  /// TripCount and BodyScale are calibrated on this value.
  uint64_t getLoopTotalIterations(const nir::LoopStructure &L) const;

  /// Times the loop was entered from outside.
  uint64_t getLoopInvocations(const nir::LoopStructure &L) const;

  /// Average iterations per invocation (0 when never invoked).
  double getLoopAverageIterations(const nir::LoopStructure &L) const;

  /// True when the run tracked memory dependences. Only then is a pair
  /// missing from manifested() evidence that it never manifested.
  bool observedDependences() const { return ObservedDeps; }

  /// True when any carried dependence between the unordered instruction
  /// pair {A, B} manifested for the loop whose header starts with
  /// instruction \p HeaderID (any direction, any kind).
  bool manifested(uint64_t HeaderID, uint64_t A, uint64_t B) const {
    return Pairs.count(pairKey(HeaderID, A, B)) != 0;
  }

  const std::set<ManifestedDep> &deps() const { return Deps; }

  /// The `noelle.profile.v1` text of this profile, keyed by \p M's
  /// instruction IDs and stamped with \p M's content hash.
  std::string serialize(const Module &M) const;

  /// Parses \p Text against \p M. Fails on a bad header, number or
  /// record, an ID \p M does not carry, or a binding to a different
  /// content hash.
  static bool deserialize(const std::string &Text, Module &M,
                          ProfileData &Out, std::string &Err);

  /// Writes the profile into \p M's metadata so it survives print/parse.
  /// (Re)assigns \p M's deterministic IDs first — the program-order
  /// assignment captureForCheck reproduces. The content hash ignores
  /// metadata, so embedding invalidates neither the PDG cache nor the
  /// profile's own binding.
  void embed(Module &M) const;

  /// Loads the profile embedded in \p M; fails when absent, malformed or
  /// stale (see deserialize).
  static bool fromModule(Module &M, ProfileData &Out, std::string &Err);

  /// True when \p M carries a valid embedded profile that observed
  /// dependences — the evidence speculation needs.
  static bool hasEmbeddedDependences(Module &M);

  /// Removes the embedded profile (noelle-meta-clean).
  static void clean(Module &M);

  /// True if \p M carries an embedded profile (valid or not).
  static bool isEmbedded(const Module &M);

private:
  friend class Profiler;

  static std::tuple<uint64_t, uint64_t, uint64_t>
  pairKey(uint64_t H, uint64_t A, uint64_t B) {
    return A <= B ? std::make_tuple(H, A, B) : std::make_tuple(H, B, A);
  }
  void recordDep(const ManifestedDep &D) {
    if (Deps.insert(D).second)
      Pairs.insert(pairKey(D.HeaderID, D.SrcID, D.DstID));
  }

  std::map<const BasicBlock *, uint64_t> BlockCounts;
  std::map<const BranchInst *, std::pair<uint64_t, uint64_t>> BranchCounts;
  std::map<const Function *, uint64_t> FnInvocations;
  uint64_t TotalInstructions = 0;
  bool ObservedDeps = false;
  std::set<ManifestedDep> Deps;
  std::set<std::tuple<uint64_t, uint64_t, uint64_t>> Pairs;
};

/// Observes an ExecutionEngine run and accumulates ProfileData —
/// noelle-prof-coverage's engine. Single-threaded by design: profiling
/// runs happen before parallelization.
class Profiler : public nir::ExecutionObserver {
public:
  /// Block, branch and call counts; with \p DependencesOf (the module
  /// about to run, carrying deterministic IDs) also the manifested
  /// loop-carried memory dependences: byte-granular shadow memory (last
  /// reader and writer with access timestamps) and a dynamic
  /// loop-activation stack test each access against the iteration
  /// windows of every active loop.
  explicit Profiler(Module *DependencesOf = nullptr);
  ~Profiler() override;

  void onBlockExecuted(const BasicBlock *BB) override;
  void onBranchExecuted(const BranchInst *Br, unsigned Taken) override;
  void onCallExecuted(const nir::CallInst *Call,
                      const Function *Callee) override;
  void onLoadExecuted(const nir::Instruction *I, uint64_t Addr,
                      unsigned Bytes) override;
  void onStoreExecuted(const nir::Instruction *I, uint64_t Addr,
                       unsigned Bytes) override;

  /// Runs @main of \p M once under profiling and returns the collected
  /// data. With \p ObserveDependences, (re)assigns \p M's deterministic
  /// IDs first, since the dependences are keyed by them.
  static ProfileData profileModule(Module &M,
                                   bool ObserveDependences = false);

  ProfileData takeData();

private:
  struct DepTracker;

  ProfileData Data;
  /// Last-entry caches: dynamic block/branch streams are dominated by
  /// tight loops re-hitting the same few keys, so one pointer compare
  /// usually replaces the map walk.
  const BasicBlock *LastBlock = nullptr;
  uint64_t *LastBlockCount = nullptr;
  const BranchInst *LastBranch = nullptr;
  std::pair<uint64_t, uint64_t> *LastBranchCounts = nullptr;
  /// Null for coverage-only runs.
  std::unique_ptr<DepTracker> Deps;
};

} // namespace noelle

#endif // NOELLE_PROFILER_H
