#include "noelle/Profiler.h"
#include "noelle/MemDepProfiler.h"

#include "analysis/Dominators.h"
#include "ir/IDs.h"
#include "ir/Instructions.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <unordered_map>
#include <vector>

using namespace noelle;
using nir::Instruction;

//===----------------------------------------------------------------------===//
// Dependence tracking
//===----------------------------------------------------------------------===//

struct Profiler::DepTracker {
  /// One natural loop of the profiled module.
  struct LoopRec {
    nir::LoopStructure *L = nullptr;
    const Function *F = nullptr;
    uint64_t HeaderID = 0;
  };

  /// A dynamic context frame: either an active loop invocation or a call
  /// marker separating caller loops from callee blocks. Returns produce
  /// no event, so frames are unwound lazily at the next block event.
  struct Frame {
    enum Tag : uint8_t { CallMarker, LoopActivation } T = CallMarker;
    const Function *Callee = nullptr; ///< CallMarker
    LoopRec *L = nullptr;             ///< LoopActivation
    uint64_t InvocStart = 0;          ///< clock at loop entry
    uint64_t IterStart = 0;           ///< clock at current iteration start
  };

  /// Shadow state of one byte of memory.
  struct ByteState {
    uint64_t WId = 0, WT = 0; ///< last writer and its clock
    uint64_t RId = 0, RT = 0; ///< last reader and its clock
  };

  ProfileData &Data;
  std::vector<Frame> Stack;
  std::unordered_map<uint64_t, ByteState> Shadow;
  uint64_t Now = 0; ///< memory-access clock (monotone)

  // Static module indexes, built once at construction.
  std::vector<std::unique_ptr<nir::DominatorTree>> DTs;
  std::vector<std::unique_ptr<nir::LoopInfo>> LIs;
  std::vector<std::unique_ptr<LoopRec>> LoopStorage;
  std::unordered_map<const BasicBlock *, const Function *> FnOf;
  std::unordered_map<const BasicBlock *, LoopRec *> HeaderOf;
  std::unordered_map<const Instruction *, uint64_t> IdCache;

  DepTracker(Module &M, ProfileData &Data) : Data(Data) {
    for (const auto &FPtr : M.getFunctions()) {
      Function *F = FPtr.get();
      if (F->isDeclaration())
        continue;
      for (const auto &BB : F->getBlocks())
        FnOf[BB.get()] = F;
      auto DT = std::make_unique<nir::DominatorTree>(*F);
      auto LI = std::make_unique<nir::LoopInfo>(*F, *DT);
      for (nir::LoopStructure *L : LI->getLoopsInPreorder()) {
        auto Rec = std::make_unique<LoopRec>();
        Rec->L = L;
        Rec->F = F;
        if (!L->getHeader()->getInstList().empty())
          Rec->HeaderID = nir::instructionID(
              L->getHeader()->getInstList().front().get());
        HeaderOf[L->getHeader()] = Rec.get();
        LoopStorage.push_back(std::move(Rec));
      }
      DTs.push_back(std::move(DT));
      LIs.push_back(std::move(LI));
    }
  }

  uint64_t idOf(const Instruction *I) {
    auto It = IdCache.find(I);
    if (It != IdCache.end())
      return It->second;
    uint64_t Id = nir::instructionID(I);
    IdCache.emplace(I, Id);
    return Id;
  }

  /// Unwinds frames invalidated by control arriving at a block of \p F:
  /// loop activations whose loop no longer contains the block, and call
  /// markers of calls that have returned.
  void unwind(const BasicBlock *BB, const Function *F) {
    while (!Stack.empty()) {
      Frame &Top = Stack.back();
      if (Top.T == Frame::CallMarker) {
        if (Top.Callee == F)
          break; // still inside this call
        Stack.pop_back();
        continue;
      }
      if (Top.L->F == F) {
        if (Top.L->L->contains(const_cast<BasicBlock *>(BB)))
          break; // still iterating this loop
        Stack.pop_back();
        continue;
      }
      Stack.pop_back(); // loop of a function we returned from
    }
  }

  void onBlock(const BasicBlock *BB) {
    auto FIt = FnOf.find(BB);
    if (FIt == FnOf.end())
      return;
    unwind(BB, FIt->second);

    auto HIt = HeaderOf.find(BB);
    if (HIt == HeaderOf.end())
      return;
    LoopRec *L = HIt->second;
    if (!Stack.empty() && Stack.back().T == Frame::LoopActivation &&
        Stack.back().L == L) {
      // Back edge: a new iteration of the active invocation. The clock
      // pre-increments, so the iteration owns accesses from Now+1 on —
      // using Now would disown the previous iteration's final access
      // (recordCarried's SrcT < IterStart must admit it as a source).
      Stack.back().IterStart = Now + 1;
      return;
    }
    Frame Fr;
    Fr.T = Frame::LoopActivation;
    Fr.L = L;
    // Same boundary convention: the invocation owns accesses from Now+1,
    // so the previous invocation's final access (clock == Now) is not
    // misattributed to this one by recordCarried's SrcT >= InvocStart.
    Fr.InvocStart = Now + 1;
    Fr.IterStart = Now + 1;
    Stack.push_back(Fr);
  }

  void onCall(const Function *Callee) {
    Frame Fr;
    Fr.T = Frame::CallMarker;
    Fr.Callee = Callee;
    Stack.push_back(Fr);
  }

  /// Records a carried dependence for every active loop whose current
  /// iteration began after the earlier access (same invocation, earlier
  /// iteration). Loops below a call marker stay active: a dependence
  /// carried through a callee is still carried by the caller's loop.
  void recordCarried(uint64_t SrcId, uint64_t SrcT, uint64_t DstId,
                     ManifestedDep::Kind K) {
    if (!SrcId || !DstId)
      return;
    for (const Frame &Fr : Stack) {
      if (Fr.T != Frame::LoopActivation || !Fr.L->HeaderID)
        continue;
      if (SrcT >= Fr.InvocStart && SrcT < Fr.IterStart) {
        ManifestedDep D;
        D.HeaderID = Fr.L->HeaderID;
        D.SrcID = SrcId;
        D.DstID = DstId;
        D.K = K;
        Data.recordDep(D);
      }
    }
  }

  void onLoad(const Instruction *I, uint64_t Addr, unsigned Bytes) {
    ++Now;
    const uint64_t Id = I ? idOf(I) : 0;
    for (unsigned B = 0; B != Bytes; ++B) {
      ByteState &S = Shadow[Addr + B];
      if (S.WT)
        recordCarried(S.WId, S.WT, Id, ManifestedDep::RAW);
      S.RId = Id;
      S.RT = Now;
    }
  }

  void onStore(const Instruction *I, uint64_t Addr, unsigned Bytes) {
    ++Now;
    const uint64_t Id = I ? idOf(I) : 0;
    for (unsigned B = 0; B != Bytes; ++B) {
      ByteState &S = Shadow[Addr + B];
      if (S.RT)
        recordCarried(S.RId, S.RT, Id, ManifestedDep::WAR);
      if (S.WT)
        recordCarried(S.WId, S.WT, Id, ManifestedDep::WAW);
      S.WId = Id;
      S.WT = Now;
    }
  }
};

//===----------------------------------------------------------------------===//
// Profiler (observer)
//===----------------------------------------------------------------------===//

Profiler::Profiler(Module *DependencesOf) {
  if (DependencesOf) {
    Deps = std::make_unique<DepTracker>(*DependencesOf, Data);
    Data.ObservedDeps = true;
  }
}

Profiler::~Profiler() = default;

void Profiler::onBlockExecuted(const BasicBlock *BB) {
  if (BB != LastBlock) {
    LastBlock = BB;
    LastBlockCount = &Data.BlockCounts[BB];
  }
  *LastBlockCount += 1;
  Data.TotalInstructions += BB->size();
  if (Deps)
    Deps->onBlock(BB);
}

void Profiler::onBranchExecuted(const BranchInst *Br, unsigned Taken) {
  if (Br != LastBranch) {
    LastBranch = Br;
    LastBranchCounts = &Data.BranchCounts[Br];
  }
  if (Taken == 0)
    ++LastBranchCounts->first;
  else
    ++LastBranchCounts->second;
}

void Profiler::onCallExecuted(const nir::CallInst *, const Function *Callee) {
  Data.FnInvocations[Callee] += 1;
  if (Deps)
    Deps->onCall(Callee);
}

void Profiler::onLoadExecuted(const Instruction *I, uint64_t Addr,
                              unsigned Bytes) {
  if (Deps)
    Deps->onLoad(I, Addr, Bytes);
}

void Profiler::onStoreExecuted(const Instruction *I, uint64_t Addr,
                               unsigned Bytes) {
  if (Deps)
    Deps->onStore(I, Addr, Bytes);
}

ProfileData Profiler::takeData() {
  LastBlock = nullptr;
  LastBlockCount = nullptr;
  LastBranch = nullptr;
  LastBranchCounts = nullptr;
  Deps.reset();
  return std::move(Data);
}

ProfileData Profiler::profileModule(Module &M, bool ObserveDependences) {
  if (ObserveDependences)
    nir::assignDeterministicIDs(M);
  Profiler P(ObserveDependences ? &M : nullptr);
  nir::ExecutionEngine Engine(M);
  Engine.setObserver(&P);
  Engine.runMain();
  Engine.setObserver(nullptr);
  ProfileData Data = P.takeData();
  if (const Function *Main = M.getFunction("main"))
    Data.FnInvocations[Main] += 1;
  return Data;
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

uint64_t ProfileData::getBlockCount(const BasicBlock *BB) const {
  auto It = BlockCounts.find(BB);
  return It == BlockCounts.end() ? 0 : It->second;
}

uint64_t ProfileData::getBranchTakenCount(const BranchInst *Br,
                                          unsigned Idx) const {
  auto It = BranchCounts.find(Br);
  if (It == BranchCounts.end())
    return 0;
  return Idx == 0 ? It->second.first : It->second.second;
}

uint64_t ProfileData::getFunctionInvocations(const Function *F) const {
  auto It = FnInvocations.find(F);
  return It == FnInvocations.end() ? 0 : It->second;
}

double ProfileData::getLoopHotness(const nir::LoopStructure &L) const {
  if (!TotalInstructions)
    return 0;
  uint64_t InLoop = 0;
  for (const auto *BB : L.getBlocks())
    InLoop += getBlockCount(BB) * BB->size();
  return static_cast<double>(InLoop) /
         static_cast<double>(TotalInstructions);
}

double ProfileData::getFunctionHotness(const Function &F) const {
  if (!TotalInstructions)
    return 0;
  uint64_t InFn = 0;
  for (const auto &BB : F.getBlocks())
    InFn += getBlockCount(BB.get()) * BB->size();
  return static_cast<double>(InFn) / static_cast<double>(TotalInstructions);
}

uint64_t
ProfileData::getLoopInvocations(const nir::LoopStructure &L) const {
  uint64_t N = 0;
  for (const auto *Pred : L.getHeader()->predecessors()) {
    if (L.contains(Pred))
      continue; // Back edge, not an invocation.
    const auto *Br =
        nir::dyn_cast_or_null<BranchInst>(Pred->getTerminator());
    if (!Br)
      continue;
    if (!Br->isConditional()) {
      N += getBlockCount(Pred);
      continue;
    }
    for (unsigned S = 0; S < Br->getNumSuccessors(); ++S)
      if (Br->getSuccessor(S) == L.getHeader())
        N += getBranchTakenCount(Br, S);
  }
  return N;
}

uint64_t
ProfileData::getLoopTotalIterations(const nir::LoopStructure &L) const {
  return getBlockCount(L.getHeader());
}

double
ProfileData::getLoopAverageIterations(const nir::LoopStructure &L) const {
  uint64_t Inv = getLoopInvocations(L);
  if (!Inv)
    return 0;
  return static_cast<double>(getLoopTotalIterations(L)) /
         static_cast<double>(Inv);
}

//===----------------------------------------------------------------------===//
// Embedding (noelle-meta-prof-embed / noelle-meta-clean)
//===----------------------------------------------------------------------===//

namespace {

const char *kindName(ManifestedDep::Kind K) {
  switch (K) {
  case ManifestedDep::RAW:
    return "raw";
  case ManifestedDep::WAR:
    return "war";
  case ManifestedDep::WAW:
    return "waw";
  }
  return "raw";
}

bool kindFromName(const std::string &S, ManifestedDep::Kind &K) {
  if (S == "raw")
    K = ManifestedDep::RAW;
  else if (S == "war")
    K = ManifestedDep::WAR;
  else if (S == "waw")
    K = ManifestedDep::WAW;
  else
    return false;
  return true;
}

bool parseNumber(const std::string &S, uint64_t &Out, int Base = 10) {
  const char *End = S.data() + S.size();
  auto [Ptr, Ec] = std::from_chars(S.data(), End, Out, Base);
  return !S.empty() && Ec == std::errc() && Ptr == End;
}

} // namespace

std::string ProfileData::serialize(const Module &M) const {
  std::ostringstream OS;
  char Hash[17];
  std::snprintf(Hash, sizeof(Hash), "%016" PRIx64, M.getContentHash());
  OS << "profile v1\nhash " << Hash << "\ndeps "
     << (ObservedDeps ? "observed" : "unobserved") << "\ntotal "
     << TotalInstructions << "\n";
  for (const auto &F : M.getFunctions()) {
    if (uint64_t Calls = getFunctionInvocations(F.get()))
      OS << "call " << F->getName() << " " << Calls << "\n";
    for (const auto &BB : F->getBlocks()) {
      if (BB->empty())
        continue;
      // ID 0 is a real ID (the module's first instruction), so test for
      // the metadata itself.
      if (uint64_t C = getBlockCount(BB.get());
          C && BB->front()->hasMetadata(nir::InstIDKey))
        OS << "block " << nir::instructionID(BB->front()) << " " << C
           << "\n";
      const auto *Br =
          nir::dyn_cast_or_null<BranchInst>(BB->getTerminator());
      if (Br && BranchCounts.count(Br) && Br->hasMetadata(nir::InstIDKey))
        OS << "branch " << nir::instructionID(Br) << " "
           << getBranchTakenCount(Br, 0) << " " << getBranchTakenCount(Br, 1)
           << "\n";
    }
  }
  for (const ManifestedDep &D : Deps)
    OS << "dep " << D.HeaderID << " " << D.SrcID << " " << D.DstID << " "
       << kindName(D.K) << "\n";
  return OS.str();
}

bool ProfileData::deserialize(const std::string &Text, Module &M,
                              ProfileData &Out, std::string &Err) {
  Out = ProfileData();
  const std::map<uint64_t, Instruction *> Index =
      nir::buildInstructionIndex(M);
  static const char *const Header[] = {"profile", "hash", "deps", "total"};
  std::istringstream In(Text);
  std::string Line;
  std::vector<std::string> Tok;
  unsigned LineNo = 0, Records = 0;
  auto fail = [&](const std::string &Why) {
    Err = "profile line " + std::to_string(LineNo) + ": " + Why;
    return false;
  };
  auto num = [&](size_t I, uint64_t &V, int Base = 10) {
    return I < Tok.size() && parseNumber(Tok[I], V, Base);
  };
  while (std::getline(In, Line)) {
    ++LineNo;
    Tok.clear();
    std::istringstream LS(Line);
    for (std::string T; LS >> T;)
      Tok.push_back(T);
    if (Tok.empty())
      continue;
    const std::string &Kind = Tok[0];
    const size_t N = Tok.size();
    const bool InHeader = Records++ < 4;
    if (InHeader && Kind != Header[Records - 1])
      return fail(std::string("expected '") + Header[Records - 1] + "'");
    uint64_t A = 0, B = 0, C = 0;
    ManifestedDep::Kind K = ManifestedDep::RAW;
    if (InHeader && Kind == "profile" && N == 2 && Tok[1] == "v1")
      continue;
    if (InHeader && Kind == "hash" && N == 2 && num(1, A, 16)) {
      if (A != M.getContentHash())
        return fail("profile is bound to a different module (content "
                    "hash mismatch)");
      continue;
    }
    if (InHeader && Kind == "deps" && N == 2 &&
        (Tok[1] == "observed" || Tok[1] == "unobserved")) {
      Out.ObservedDeps = Tok[1] == "observed";
      continue;
    }
    if (InHeader && Kind == "total" && N == 2 && num(1, A)) {
      Out.TotalInstructions = A;
      continue;
    }
    if (!InHeader && Kind == "call" && N == 3 && num(2, A)) {
      const Function *F = M.getFunction(Tok[1]);
      if (!F)
        return fail("no function '" + Tok[1] + "'");
      Out.FnInvocations[F] = A;
      continue;
    }
    if (!InHeader && Kind == "block" && N == 3 && num(1, A) && num(2, B)) {
      auto It = Index.find(A);
      if (It == Index.end() ||
          It->second->getParent()->front() != It->second)
        return fail("no block starts with instruction " + Tok[1]);
      Out.BlockCounts[It->second->getParent()] = B;
      continue;
    }
    if (!InHeader && Kind == "branch" && N == 4 && num(1, A) && num(2, B) &&
        num(3, C)) {
      auto It = Index.find(A);
      const auto *Br = It == Index.end()
                           ? nullptr
                           : nir::dyn_cast<BranchInst>(It->second);
      if (!Br || !Br->isConditional())
        return fail("instruction " + Tok[1] + " is no conditional branch");
      Out.BranchCounts[Br] = {B, C};
      continue;
    }
    if (!InHeader && Kind == "dep" && N == 5 && num(1, A) && num(2, B) &&
        num(3, C) && kindFromName(Tok[4], K)) {
      ManifestedDep D;
      D.HeaderID = A;
      D.SrcID = B;
      D.DstID = C;
      D.K = K;
      Out.recordDep(D);
      continue;
    }
    return fail("malformed record '" + Line + "'");
  }
  if (Records < 4) {
    Err = "profile header is incomplete";
    return false;
  }
  return true;
}

void ProfileData::embed(Module &M) const {
  nir::assignDeterministicIDs(M);
  M.setModuleMetadata(ProfileEmbedKey, serialize(M));
}

bool ProfileData::fromModule(Module &M, ProfileData &Out, std::string &Err) {
  if (!isEmbedded(M)) {
    Err = "module carries no embedded profile";
    return false;
  }
  return deserialize(M.getModuleMetadata(ProfileEmbedKey), M, Out, Err);
}

bool ProfileData::hasEmbeddedDependences(Module &M) {
  ProfileData P;
  std::string Err;
  return fromModule(M, P, Err) && P.observedDependences();
}

void ProfileData::clean(Module &M) { M.removeModuleMetadata(ProfileEmbedKey); }

bool ProfileData::isEmbedded(const Module &M) {
  return M.hasModuleMetadata(ProfileEmbedKey);
}

bool MemDepProfile::isEmbedded(Module &M) {
  return ProfileData::hasEmbeddedDependences(M);
}

ProfileData noelle::profileMemDeps(Module &M) {
  return Profiler::profileModule(M, /*ObserveDependences=*/true);
}
