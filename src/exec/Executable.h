//===- exec/Executable.h - Compile-once run-side plan artifact --*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The immutable executable form of one ExecutionPlan for one (kernel
/// registry, JIT engine or none) pair: every instruction's RowAnalysis —
/// row plan with its bodies installed, refusal reasons, the K-check
/// verdicts behind the JIT outcome — computed once and then only selected
/// from by runPlan and the recovery ladder.
///
/// ExecutionPlan::executable() builds it on first use under the plan's
/// lock and memoizes it on the plan, keyed on the registry's and engine's
/// process-unique identities (never their addresses). The memo dies with
/// the plan; copies of a plan start without one. The memo is bypassed —
/// neither read nor filled — for JIT selections while the jitval fault
/// site is armed, so a fault campaign probes the translation-validation
/// gate on every run exactly as when every run re-analyzed. An entry whose
/// instruction count no longer matches the plan is rebuilt; other
/// in-place edits of a plan that already ran are not supported (copy it).
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_EXEC_EXECUTABLE_H
#define LCDFG_EXEC_EXECUTABLE_H

#include "exec/RowPlan.h"

#include <cstdint>
#include <vector>

namespace lcdfg {
namespace exec {

struct Executable {
  std::uint64_t RegistryId = 0;
  std::uint64_t EngineId = 0; ///< 0 = interpreted bodies.
  /// Per instruction (index = instruction): the row-batching outcome.
  /// Instructions without an engaged Plan run on the scalar interpreter.
  std::vector<RowAnalysis> Rows;
  /// Per instruction: statements of an engaged row plan that requested
  /// JIT specialization but kept their interpreted body (their sum is
  /// reported as exec.jit.fallbacks on every JIT run).
  std::vector<std::int64_t> JitFallbacks;
};

} // namespace exec
} // namespace lcdfg

#endif // LCDFG_EXEC_EXECUTABLE_H
