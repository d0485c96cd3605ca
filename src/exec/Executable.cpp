//===- exec/Executable.cpp - Compile-once run-side plan artifact ----------===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//

#include "exec/Executable.h"

#include "exec/FaultInjector.h"
#include "jit/JitEngine.h"
#include "obs/Trace.h"

using namespace lcdfg;
using namespace lcdfg::exec;

namespace {

/// Executables one plan keeps; the oldest is dropped past this. A plan
/// is normally run with one registry under one or two kernel modes (a
/// stale entry — same key, different instruction count — ages out too).
constexpr std::size_t MaxMemoized = 4;

} // namespace

std::shared_ptr<const Executable>
ExecutionPlan::executable(const codegen::KernelRegistry &Kernels,
                          jit::Engine *Jit) const {
  const std::uint64_t RegistryId = Kernels.id();
  const std::uint64_t EngineId = Jit ? Jit->id() : 0;
  // A fault campaign arming the jitval site must probe the translation-
  // validation gate on every selection, as when every run re-analyzed:
  // such builds neither read nor fill the memo.
  const bool Memoize =
      !Jit || !FaultInjector::global().armedFor(FaultSite::JitValidate);
  std::lock_guard<std::mutex> Lock(Lazy.Mu);
  if (Memoize)
    for (const std::shared_ptr<const Executable> &E : Lazy.Executables)
      if (E->RegistryId == RegistryId && E->EngineId == EngineId &&
          E->Rows.size() == Instrs.size())
        return E;

  auto Exe = std::make_shared<Executable>();
  Exe->RegistryId = RegistryId;
  Exe->EngineId = EngineId;
  Exe->Rows.reserve(Instrs.size());
  Exe->JitFallbacks.reserve(Instrs.size());
  for (const NestInstr &I : Instrs) {
    RowAnalysis RA = RowPlan::analyze(I, Kernels, Jit);
    Exe->JitFallbacks.push_back(
        Jit && RA.Plan ? static_cast<std::int64_t>(RA.Plan->Stmts.size()) -
                             RA.JitStmts
                       : 0);
    Exe->Rows.push_back(std::move(RA));
  }
  obs::Tracer::global().add(obs::Counter::RowsBuilt, 1);
  if (Memoize) {
    if (Lazy.Executables.size() >= MaxMemoized)
      Lazy.Executables.erase(Lazy.Executables.begin());
    Lazy.Executables.push_back(Exe);
  }
  return Exe;
}
