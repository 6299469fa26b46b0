//===----------------------------------------------------------------------===//
///
/// \file
/// The two dependence-profile entry points the wall-clock benchmark
/// (perfbench/perfbench.cpp) calls. Both forward to the one profiler in
/// noelle/Profiler.h, which every in-tree caller uses directly.
///
//===----------------------------------------------------------------------===//

#ifndef NOELLE_MEMDEPPROFILER_H
#define NOELLE_MEMDEPPROFILER_H

#include "noelle/Profiler.h"

namespace noelle {

struct MemDepProfile {
  /// ProfileData::hasEmbeddedDependences.
  static bool isEmbedded(nir::Module &M);
};

/// Profiler::profileModule(M, /*ObserveDependences=*/true).
ProfileData profileMemDeps(nir::Module &M);

} // namespace noelle

#endif // NOELLE_MEMDEPPROFILER_H
