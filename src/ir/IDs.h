//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic IDs for instructions, basic blocks, and functions —
/// NOELLE's "IDs" abstraction. IDs are stored as metadata so they survive
/// printing, parsing, and linking, letting tools (noelle-meta-pdg-embed)
/// reference instructions across pipeline stages.
///
//===----------------------------------------------------------------------===//

#ifndef IR_IDS_H
#define IR_IDS_H

#include "ir/Module.h"

#include <cstdint>
#include <map>

namespace nir {

/// Metadata keys used for deterministic IDs.
inline constexpr const char *InstIDKey = "noelle.inst.id";
inline constexpr const char *BlockIDKey = "noelle.bb.id";
inline constexpr const char *FunctionIDKey = "noelle.fn.id";

/// Assigns fresh deterministic IDs to every function, block, and
/// instruction of \p M in program order, replacing any existing IDs.
void assignDeterministicIDs(Module &M);

/// Removes all deterministic IDs from \p M.
void clearDeterministicIDs(Module &M);

/// Index from instruction ID to instruction for a module whose IDs were
/// previously assigned. Instructions without (well-formed) IDs are
/// skipped.
std::map<uint64_t, Instruction *> buildInstructionIndex(Module &M);

/// The deterministic ID of \p I, or 0 when it carries none or a
/// malformed one.
uint64_t instructionID(const Instruction *I);

} // namespace nir

#endif // IR_IDS_H
