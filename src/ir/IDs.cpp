#include "ir/IDs.h"

#include <charconv>
#include <string>

using namespace nir;

namespace {

/// Parses a decimal ID; false unless \p S is all digits and fits.
bool parseID(const std::string &S, uint64_t &Out) {
  const char *End = S.data() + S.size();
  auto [Ptr, Ec] = std::from_chars(S.data(), End, Out);
  return !S.empty() && Ec == std::errc() && Ptr == End;
}

} // namespace

void nir::assignDeterministicIDs(Module &M) {
  uint64_t FnID = 0, BBID = 0, InstID = 0;
  for (const auto &F : M.getFunctions()) {
    F->setMetadata(FunctionIDKey, std::to_string(FnID++));
    for (const auto &BB : F->getBlocks()) {
      BB->setMetadata(BlockIDKey, std::to_string(BBID++));
      for (const auto &I : BB->getInstList())
        I->setMetadata(InstIDKey, std::to_string(InstID++));
    }
  }
}

void nir::clearDeterministicIDs(Module &M) {
  for (const auto &F : M.getFunctions()) {
    F->removeMetadata(FunctionIDKey);
    for (const auto &BB : F->getBlocks()) {
      BB->removeMetadata(BlockIDKey);
      for (const auto &I : BB->getInstList())
        I->removeMetadata(InstIDKey);
    }
  }
}

std::map<uint64_t, Instruction *> nir::buildInstructionIndex(Module &M) {
  std::map<uint64_t, Instruction *> Index;
  for (const auto &F : M.getFunctions())
    for (const auto &BB : F->getBlocks())
      for (const auto &I : BB->getInstList()) {
        uint64_t ID = 0;
        if (parseID(I->getMetadata(InstIDKey), ID))
          Index[ID] = I.get();
      }
  return Index;
}

uint64_t nir::instructionID(const Instruction *I) {
  uint64_t ID = 0;
  return parseID(I->getMetadata(InstIDKey), ID) ? ID : 0;
}
