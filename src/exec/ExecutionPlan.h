//===- exec/ExecutionPlan.h - Compiled, runnable schedules ------*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lowered execution representation every schedule runs through. A
/// plan compiles a schedule (untiled chain, generated loop AST, or
/// overlapped ChainTiling) against a ConcreteStorage binding into flat
/// per-nest instructions whose storage addressing is fully pre-resolved:
/// each access becomes a Stream with a constant base offset and one stride
/// per loop level, so the per-iteration path is a dot product plus an
/// optional modulo wrap instead of string-keyed map lookups. Instructions
/// are wrapped in tasks with explicit dependence edges (derived from
/// storage-space conflicts, i.e. from the M2DFG dataflow after
/// allocation), which is what lets the runner execute independent nests
/// and self-contained overlapped tiles in parallel.
///
/// Hand-written workloads (the baselines, the MiniFluxDiv variant kernels)
/// participate through external tasks: opaque callbacks scheduled and
/// instrumented by the same runner.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_EXEC_EXECUTIONPLAN_H
#define LCDFG_EXEC_EXECUTIONPLAN_H

#include "codegen/Ast.h"
#include "graph/Graph.h"
#include "storage/StorageMap.h"
#include "support/Status.h"
#include "tiling/Tiling.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lcdfg {
namespace codegen {
class KernelRegistry;
} // namespace codegen
namespace jit {
class Engine;
} // namespace jit
namespace exec {

struct Executable;

using ParamEnv = std::map<std::string, std::int64_t, std::less<>>;

/// One pre-resolved access path. The linear index of the element accessed
/// at loop-iteration vector I is Base + sum_l I[l] * LevelStrides[l],
/// wrapped into [0, ModSize) when Modulo is set. The pre-wrap value is
/// injective over the array extent, so instrumentation uses it as the
/// element identity when counting distinct reads.
struct Stream {
  unsigned Space = 0;
  bool Modulo = false;
  std::int64_t ModSize = 1;
  std::int64_t Base = 0;
  std::vector<std::int64_t> LevelStrides; ///< One per loop level.
  /// Index into ExecutionPlan::Edges for traffic accounting; -1 when the
  /// access is a write or the plan was built without a graph.
  int Edge = -1;
  /// Index into ExecutionPlan::ArrayNames identifying the value array this
  /// stream addresses. Spaces are shared between arrays by the liveness
  /// allocator, so (ArrayId, pre-wrap index) — not the wrapped location —
  /// is the identity of the value an access touches. The runner ignores
  /// it; the static verifier keys its dataflow re-derivation on it.
  int ArrayId = -1;
};

/// A concrete bound on one loop level; statement records carry these where
/// a fused member's shifted domain is narrower than the hull.
struct GuardBound {
  unsigned Level = 0;
  std::int64_t Lo = 0;
  std::int64_t Hi = 0;
};

/// One statement set executed at every (guard-admitted) point of its
/// instruction's loops. Reads are flattened per access per stencil offset,
/// in declaration order — the order kernels expect.
struct StmtRecord {
  unsigned NestId = 0;
  int KernelId = -1;
  std::vector<GuardBound> Guards;
  std::vector<Stream> Reads;
  Stream Write;
};

/// One loop level, outermost first, with concrete inclusive bounds.
struct LoopLevel {
  std::string Iter;
  std::int64_t Lo = 0;
  std::int64_t Hi = -1;
};

/// One schedulable unit of compiled loops: a loop nest over concrete
/// bounds running one or more statement records per point — or, for
/// hand-written workloads, an opaque callback.
struct NestInstr {
  std::string Label;
  std::vector<LoopLevel> Loops;
  std::vector<StmtRecord> Stmts;
  /// Tile index for tiled plans (-1 otherwise). Instructions of one tile
  /// are scheduled as a unit on one worker.
  int Tile = -1;
  /// When set, the instruction is an external task: the runner invokes it
  /// with the participant id instead of interpreting Loops/Stmts.
  std::function<void(int)> External;
};

/// A task wraps one instruction with its dependence edges (indices of
/// tasks that must complete first). Task order is the serial execution
/// order and is always a valid topological order.
struct PlanTask {
  int Instr = 0;
  std::vector<int> Deps;
};

/// A read edge tracked by instrumentation, keyed like graph::Traffic:
/// (value array, consumer statement label), with the M2DFG multiplicity.
struct PlanEdge {
  std::string Array;
  std::string Consumer;
  unsigned Multiplicity = 1;
};

/// The compiled schedule.
class ExecutionPlan {
public:
  std::vector<NestInstr> Instrs;
  std::vector<PlanTask> Tasks;
  std::vector<PlanEdge> Edges;
  /// Value-array names referenced by the plan's streams, indexed by
  /// Stream::ArrayId (first-reference order).
  std::vector<std::string> ArrayNames;
  /// True when tiles are self-contained and may run concurrently (with
  /// non-persistent spaces privatized per worker).
  bool TileParallel = false;
  /// Space table shape, mirrored from the ConcreteStorage the plan was
  /// compiled against. SpacePersistent marks spaces holding persistent
  /// arrays (shared across workers; never privatized).
  std::size_t NumSpaces = 0;
  std::vector<bool> SpacePersistent;

  /// Compiles the untiled chain, one instruction per nest in chain order.
  /// \p G, when given, attaches traffic-instrumentation edges.
  static ExecutionPlan fromChain(const ir::LoopChain &Chain,
                                 const storage::ConcreteStorage &Store,
                                 const ParamEnv &Env,
                                 const graph::Graph *G = nullptr);

  /// Compiles a generated loop AST (the transformed schedule): one
  /// instruction per loop nest, with member guards and fusion shifts
  /// folded into the stream bases.
  static ExecutionPlan fromAst(const graph::Graph &G,
                               const codegen::AstNode &Root,
                               const storage::ConcreteStorage &Store,
                               const ParamEnv &Env);

  /// Compiles an overlapped tiling: per tile, per nest, one instruction
  /// over the expanded domain, in the serial fusion-of-tiles order.
  static ExecutionPlan fromTiling(const ir::LoopChain &Chain,
                                  const tiling::ChainTiling &Tiling,
                                  const storage::ConcreteStorage &Store,
                                  const ParamEnv &Env,
                                  const graph::Graph *G = nullptr);

  /// Validating forms of the three compilers: an E008-plan-invalid (or
  /// E003/E007 storage) Status instead of a thrown StatusError when the
  /// schedule cannot be lowered against the given concrete storage.
  static support::Expected<ExecutionPlan>
  tryFromChain(const ir::LoopChain &Chain, const storage::ConcreteStorage &Store,
               const ParamEnv &Env, const graph::Graph *G = nullptr);
  static support::Expected<ExecutionPlan>
  tryFromAst(const graph::Graph &G, const codegen::AstNode &Root,
             const storage::ConcreteStorage &Store, const ParamEnv &Env);
  static support::Expected<ExecutionPlan>
  tryFromTiling(const ir::LoopChain &Chain, const tiling::ChainTiling &Tiling,
                const storage::ConcreteStorage &Store, const ParamEnv &Env,
                const graph::Graph *G = nullptr);

  /// Appends an external task; returns its task index.
  int addExternalTask(std::string Label, std::function<void(int)> Work,
                      int Tile = -1);
  /// Declares that task \p After must wait for task \p Before.
  void addDependence(int Before, int After);

  /// Transitive closure of the task dependences: Closure[J][I] is true when
  /// task J (transitively) waits for task I. Task indices are their own
  /// topological order, so the closure is a single backward sweep. Exported
  /// for the static legality verifier, which checks every conflicting task
  /// pair against it; the list scheduler's priority pass and the trace
  /// checker share the same bits. Memoized under the plan's lock, so
  /// concurrent readers are safe: the O(N^2) sweep reruns only when the
  /// task/edge shape changed since the last call (members are public, so
  /// validity is keyed on task and edge counts — mutating Deps in place
  /// without changing either count is not supported). The reference is
  /// invalidated by the next shape change.
  const std::vector<std::vector<bool>> &dependenceClosure() const;

  /// The compiled executable of this plan for \p Kernels and \p Jit
  /// (nullptr = interpreted bodies): row analysis, K-checks and JIT
  /// lookup for every instruction, done on the first call for that
  /// (registry, engine) identity pair and shared by every later run.
  /// Concurrent first calls build it exactly once. Defined in
  /// exec/Executable.cpp; see that header for the memoization rules.
  std::shared_ptr<const Executable>
  executable(const codegen::KernelRegistry &Kernels, jit::Engine *Jit) const;

  /// Human-readable plan listing (the --dump-plan output).
  std::string dump() const;

private:
  /// State derived lazily from the plan, under one lock. A copy or move
  /// of the plan starts empty — a copy is mutated independently (the
  /// recovery ladder corrupts one for fault drills) and must never run
  /// the original's row plans.
  struct Memo {
    Memo() = default;
    Memo(const Memo &) noexcept {}
    Memo &operator=(const Memo &) {
      std::lock_guard<std::mutex> Lock(Mu);
      Closure.clear();
      ClosureKey = {-1, -1};
      Executables.clear();
      return *this;
    }

    std::mutex Mu;
    std::vector<std::vector<bool>> Closure;
    /// Shape stamp of the cached closure: (task count, total edge count),
    /// or (-1, -1) when nothing is cached.
    std::pair<std::int64_t, std::int64_t> ClosureKey{-1, -1};
    std::vector<std::shared_ptr<const Executable>> Executables;
  };
  mutable Memo Lazy;
};

} // namespace exec
} // namespace lcdfg

#endif // LCDFG_EXEC_EXECUTIONPLAN_H
