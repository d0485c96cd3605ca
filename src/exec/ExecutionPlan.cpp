//===- exec/ExecutionPlan.cpp - Compiled, runnable schedules --------------===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//

#include "exec/ExecutionPlan.h"

#include "support/Errors.h"
#include "support/Status.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

using namespace lcdfg;
using namespace lcdfg::exec;

namespace {

/// Registry of instrumentation edges during plan construction: maps the
/// (array, consumer label) key to a PlanEdge index, accumulating M2DFG
/// read-edge multiplicities the way graph::Traffic does.
class EdgeTable {
public:
  EdgeTable(const graph::Graph *G, std::vector<PlanEdge> &Edges)
      : Edges(Edges) {
    if (!G)
      return;
    for (const graph::Edge &E : G->edges()) {
      if (E.Dead || E.FromKind != graph::EndpointKind::Value)
        continue;
      const std::string &Array = G->value(E.From).Array;
      const std::string &Consumer = G->stmt(E.To).Label;
      auto [It, Inserted] =
          Index.emplace(std::make_pair(Array, Consumer), Edges.size());
      if (Inserted)
        Edges.push_back(PlanEdge{Array, Consumer, E.Multiplicity});
      else
        Edges[It->second].Multiplicity += E.Multiplicity;
    }
  }

  /// Edge index for \p Array read inside consumer \p Label, or -1.
  int lookup(const std::string &Array, const std::string &Label) const {
    auto It = Index.find(std::make_pair(Array, Label));
    return It == Index.end() ? -1 : static_cast<int>(It->second);
  }

private:
  std::vector<PlanEdge> &Edges;
  std::map<std::pair<std::string, std::string>, std::size_t> Index;
};

/// Plan-construction registry for value-array identities: interns array
/// names into ExecutionPlan::ArrayNames so every stream carries the id of
/// the array it addresses (spaces are shared between arrays under liveness
/// allocation; the verifier needs the array to identify values).
class ArrayTable {
public:
  explicit ArrayTable(std::vector<std::string> &Names) : Names(Names) {}

  int idOf(const std::string &Array) {
    auto [It, Inserted] = Index.emplace(Array, Names.size());
    if (Inserted)
      Names.push_back(Array);
    return static_cast<int>(It->second);
  }

private:
  std::vector<std::string> &Names;
  std::map<std::string, std::size_t, std::less<>> Index;
};

/// Folds one access of \p Nest into a Stream against \p Loops: the base
/// absorbs the stencil offset, the fusion shift, and the array lower
/// bounds; per-level strides come from matching nest dimension names to
/// loop iterators.
Stream makeStream(const storage::ConcreteStorage &Store,
                  const std::string &Array,
                  const std::vector<std::int64_t> &Off,
                  const std::vector<std::int64_t> &Shift,
                  const ir::LoopNest &Nest,
                  const std::vector<LoopLevel> &Loops, int EdgeIdx,
                  std::vector<bool> &SpacePersistent, ArrayTable &Arrays) {
  storage::ConcreteStorage::Resolved R = Store.resolve(Array);
  unsigned Rank = Nest.Domain.rank();
  if (R.Lowers.size() != Rank)
    support::raise(support::ErrorCode::PlanInvalid,
                   "execution plan: rank mismatch between nest " + Nest.Name +
                       " and array " + Array);
  Stream S;
  S.Space = R.Space;
  S.Modulo = R.Modulo;
  S.ModSize = R.ModSize;
  S.Edge = EdgeIdx;
  S.ArrayId = Arrays.idOf(Array);
  S.LevelStrides.assign(Loops.size(), 0);
  for (unsigned D = 0; D < Rank; ++D) {
    const std::string &Name = Nest.Domain.dim(D).Name;
    auto It = std::find_if(Loops.begin(), Loops.end(), [&](const LoopLevel &L) {
      return L.Iter == Name;
    });
    if (It == Loops.end())
      support::raise(support::ErrorCode::PlanInvalid,
                     "execution plan: unbound iterator " + Name + " in nest " +
                         Nest.Name);
    std::int64_t Sh = Shift.empty() ? 0 : Shift[D];
    S.LevelStrides[It - Loops.begin()] += R.Strides[D];
    S.Base += (Off[D] - Sh - R.Lowers[D]) * R.Strides[D];
  }
  if (S.Space >= SpacePersistent.size())
    SpacePersistent.resize(S.Space + 1, false);
  if (R.Persistent)
    SpacePersistent[S.Space] = true;
  return S;
}

/// Builds the statement record for \p NestId executing under \p Loops with
/// fusion shift \p Shift.
StmtRecord makeRecord(const ir::LoopChain &Chain, unsigned NestId,
                      const std::vector<std::int64_t> &Shift,
                      const storage::ConcreteStorage &Store,
                      const std::vector<LoopLevel> &Loops,
                      const EdgeTable &Edges, const std::string &Consumer,
                      std::vector<bool> &SpacePersistent, ArrayTable &Arrays) {
  const ir::LoopNest &Nest = Chain.nest(NestId);
  StmtRecord Rec;
  Rec.NestId = NestId;
  Rec.KernelId = Nest.KernelId;
  for (const ir::Access &R : Nest.Reads) {
    int EdgeIdx = Edges.lookup(R.Array, Consumer);
    for (const auto &Off : R.Offsets)
      Rec.Reads.push_back(makeStream(Store, R.Array, Off, Shift, Nest, Loops,
                                     EdgeIdx, SpacePersistent, Arrays));
  }
  Rec.Write = makeStream(Store, Nest.Write.Array, Nest.Write.Offsets.front(),
                         Shift, Nest, Loops, /*EdgeIdx=*/-1, SpacePersistent,
                         Arrays);
  return Rec;
}

/// Concrete loop levels over \p Domain in its natural dimension order.
std::vector<LoopLevel> loopsOver(const poly::BoxSet &Domain,
                                 const ParamEnv &Env) {
  std::vector<LoopLevel> Loops;
  for (unsigned D = 0; D < Domain.rank(); ++D) {
    const poly::Dim &Dim = Domain.dim(D);
    Loops.push_back(
        LoopLevel{Dim.Name, Dim.Lower.evaluate(Env), Dim.Upper.evaluate(Env)});
  }
  return Loops;
}

/// Spaces an instruction reads and writes, for conflict-based sequencing.
struct SpaceUse {
  std::set<unsigned> Reads, Writes;
};

SpaceUse usesOf(const NestInstr &I) {
  SpaceUse U;
  for (const StmtRecord &S : I.Stmts) {
    for (const Stream &R : S.Reads)
      U.Reads.insert(R.Space);
    U.Writes.insert(S.Write.Space);
  }
  return U;
}

bool intersects(const std::set<unsigned> &A, const std::set<unsigned> &B) {
  for (unsigned X : A)
    if (B.count(X))
      return true;
  return false;
}

/// Sequences \p Plan's tasks by storage-space conflicts: task J waits for
/// the latest earlier task I whose writes touch J's reads or writes, or
/// whose reads touch J's writes. Conflicts are computed at space (not
/// element) granularity — conservative under allocator space reuse, exact
/// enough to expose independent nests.
void sequenceByConflicts(ExecutionPlan &Plan) {
  std::vector<SpaceUse> Uses;
  Uses.reserve(Plan.Instrs.size());
  for (const NestInstr &I : Plan.Instrs)
    Uses.push_back(usesOf(I));
  for (std::size_t J = 0; J < Plan.Tasks.size(); ++J) {
    for (std::size_t I = 0; I < J; ++I) {
      const SpaceUse &A = Uses[Plan.Tasks[I].Instr];
      const SpaceUse &B = Uses[Plan.Tasks[J].Instr];
      if (intersects(A.Writes, B.Writes) || intersects(A.Writes, B.Reads) ||
          intersects(A.Reads, B.Writes))
        Plan.Tasks[J].Deps.push_back(static_cast<int>(I));
    }
  }
}

} // namespace

ExecutionPlan ExecutionPlan::fromChain(const ir::LoopChain &Chain,
                                       const storage::ConcreteStorage &Store,
                                       const ParamEnv &Env,
                                       const graph::Graph *G) {
  ExecutionPlan Plan;
  Plan.NumSpaces = Store.numSpaces();
  EdgeTable Edges(G, Plan.Edges);
  ArrayTable Arrays(Plan.ArrayNames);
  for (unsigned N = 0; N < Chain.numNests(); ++N) {
    const ir::LoopNest &Nest = Chain.nest(N);
    NestInstr Instr;
    Instr.Label = Nest.Name;
    if (G) {
      graph::NodeId S = G->stmtOfNest(N);
      if (S != graph::InvalidNode)
        Instr.Label = G->stmt(S).Label;
    }
    Instr.Loops = loopsOver(Nest.Domain, Env);
    Instr.Stmts.push_back(makeRecord(Chain, N, /*Shift=*/{}, Store,
                                     Instr.Loops, Edges, Instr.Label,
                                     Plan.SpacePersistent, Arrays));
    Plan.Instrs.push_back(std::move(Instr));
    Plan.Tasks.push_back(PlanTask{static_cast<int>(Plan.Instrs.size()) - 1, {}});
  }
  Plan.SpacePersistent.resize(Plan.NumSpaces, false);
  sequenceByConflicts(Plan);
  return Plan;
}

ExecutionPlan ExecutionPlan::fromAst(const graph::Graph &G,
                                     const codegen::AstNode &Root,
                                     const storage::ConcreteStorage &Store,
                                     const ParamEnv &Env) {
  ExecutionPlan Plan;
  Plan.NumSpaces = Store.numSpaces();
  EdgeTable Edges(&G, Plan.Edges);

  // Walk the AST collecting statement instances with their loop and guard
  // context. Each distinct loop path becomes one instruction; consecutive
  // statement instances under the same path share it (that is how the
  // generator emits fused statement nodes).
  struct Walker {
    ExecutionPlan &Plan;
    const graph::Graph &G;
    const storage::ConcreteStorage &Store;
    const ParamEnv &Env;
    const EdgeTable &Edges;
    ArrayTable &Arrays;
    std::vector<const codegen::AstNode *> LoopPath;
    std::vector<const codegen::AstNode *> GuardPath;
    /// Loop path the currently open instruction was built from; empty when
    /// no instruction is open.
    std::vector<const codegen::AstNode *> OpenPath;

    void walk(const codegen::AstNode &Node) {
      switch (Node.Kind) {
      case codegen::AstKind::Block:
        for (const codegen::AstPtr &Child : Node.Children)
          walk(*Child);
        return;
      case codegen::AstKind::Loop:
        LoopPath.push_back(&Node);
        for (const codegen::AstPtr &Child : Node.Children)
          walk(*Child);
        LoopPath.pop_back();
        return;
      case codegen::AstKind::Guard:
        GuardPath.push_back(&Node);
        for (const codegen::AstPtr &Child : Node.Children)
          walk(*Child);
        GuardPath.pop_back();
        return;
      case codegen::AstKind::StmtInstance:
        emit(Node);
        return;
      }
    }

    void emit(const codegen::AstNode &Stmt) {
      if (LoopPath != OpenPath) {
        // A new loop nest starts. The generator never interleaves nests,
        // so a partial overlap with the open path is an unsupported shape.
        NestInstr Instr;
        for (const codegen::AstNode *L : LoopPath)
          Instr.Loops.push_back(LoopLevel{L->Iter, L->Lower.evaluate(Env),
                                          L->Upper.evaluate(Env)});
        graph::NodeId S = G.stmtOfNest(Stmt.NestId);
        Instr.Label = S != graph::InvalidNode
                          ? G.stmt(S).Label
                          : G.chain().nest(Stmt.NestId).Name;
        Plan.Instrs.push_back(std::move(Instr));
        Plan.Tasks.push_back(
            PlanTask{static_cast<int>(Plan.Instrs.size()) - 1, {}});
        OpenPath = LoopPath;
      }
      NestInstr &Instr = Plan.Instrs.back();
      StmtRecord Rec = makeRecord(G.chain(), Stmt.NestId, Stmt.Shift, Store,
                                  Instr.Loops, Edges, Instr.Label,
                                  Plan.SpacePersistent, Arrays);
      // Fold the guard stack into concrete per-level bounds.
      for (const codegen::AstNode *Guard : GuardPath) {
        for (unsigned D = 0; D < Guard->Domain.rank(); ++D) {
          const poly::Dim &Dim = Guard->Domain.dim(D);
          auto It = std::find_if(
              Instr.Loops.begin(), Instr.Loops.end(),
              [&](const LoopLevel &L) { return L.Iter == Dim.Name; });
          if (It == Instr.Loops.end())
            support::raise(support::ErrorCode::PlanInvalid,
                           "execution plan: guard on unbound iterator " +
                               Dim.Name);
          unsigned Level = static_cast<unsigned>(It - Instr.Loops.begin());
          std::int64_t Lo = Dim.Lower.evaluate(Env);
          std::int64_t Hi = Dim.Upper.evaluate(Env);
          if (Lo > It->Lo || Hi < It->Hi)
            Rec.Guards.push_back(GuardBound{Level, Lo, Hi});
        }
      }
      Instr.Stmts.push_back(std::move(Rec));
    }
  };

  ArrayTable Arrays(Plan.ArrayNames);
  Walker W{Plan, G, Store, Env, Edges, Arrays, {}, {}, {}};
  W.walk(Root);
  Plan.SpacePersistent.resize(Plan.NumSpaces, false);
  sequenceByConflicts(Plan);
  return Plan;
}

ExecutionPlan ExecutionPlan::fromTiling(const ir::LoopChain &Chain,
                                        const tiling::ChainTiling &Tiling,
                                        const storage::ConcreteStorage &Store,
                                        const ParamEnv &Env,
                                        const graph::Graph *G) {
  ExecutionPlan Plan;
  Plan.NumSpaces = Store.numSpaces();
  EdgeTable Edges(G, Plan.Edges);
  ArrayTable Arrays(Plan.ArrayNames);

  // Tiles may run concurrently when every nest that writes persistent
  // (worker-shared) storage executes exactly its untiled point count —
  // i.e. its per-tile domains partition, as terminal statement sets do.
  // Expanded (overlapping) nests write temporaries, which the runner
  // privatizes per worker. Any persistent write that is recomputed
  // across tiles would race, so such plans stay tile-serial.
  Plan.TileParallel = true;
  for (unsigned N = 0; N < Chain.numNests(); ++N) {
    if (!Store.resolve(Chain.nest(N).Write.Array).Persistent)
      continue;
    auto Executed = Tiling.ExecutedPoints.find(N);
    auto Required = Tiling.RequiredPoints.find(N);
    if (Executed == Tiling.ExecutedPoints.end() ||
        Required == Tiling.RequiredPoints.end() ||
        Executed->second != Required->second) {
      Plan.TileParallel = false;
      break;
    }
  }

  int PrevTileLast = -1;
  for (std::size_t T = 0; T < Tiling.Tiles.size(); ++T) {
    const tiling::OverlappedTile &Tile = Tiling.Tiles[T];
    int Prev = -1;
    for (unsigned N = 0; N < Chain.numNests(); ++N) {
      auto It = Tile.NestDomains.find(N);
      if (It == Tile.NestDomains.end())
        continue;
      const ir::LoopNest &Nest = Chain.nest(N);
      NestInstr Instr;
      Instr.Label = Nest.Name;
      Instr.Tile = static_cast<int>(T);
      Instr.Loops = loopsOver(It->second, Env);
      Instr.Stmts.push_back(makeRecord(Chain, N, /*Shift=*/{}, Store,
                                       Instr.Loops, Edges, Instr.Label,
                                       Plan.SpacePersistent, Arrays));
      Plan.Instrs.push_back(std::move(Instr));
      int Task = static_cast<int>(Plan.Tasks.size());
      PlanTask PT{static_cast<int>(Plan.Instrs.size()) - 1, {}};
      // Nests of one tile run in chain order; without tile parallelism
      // the tiles themselves are chained too.
      if (Prev >= 0)
        PT.Deps.push_back(Prev);
      else if (!Plan.TileParallel && PrevTileLast >= 0)
        PT.Deps.push_back(PrevTileLast);
      Plan.Tasks.push_back(std::move(PT));
      Prev = Task;
    }
    if (Prev >= 0)
      PrevTileLast = Prev;
  }
  Plan.SpacePersistent.resize(Plan.NumSpaces, false);
  return Plan;
}

int ExecutionPlan::addExternalTask(std::string Label,
                                   std::function<void(int)> Work, int Tile) {
  NestInstr Instr;
  Instr.Label = std::move(Label);
  Instr.Tile = Tile;
  Instr.External = std::move(Work);
  Instrs.push_back(std::move(Instr));
  Tasks.push_back(PlanTask{static_cast<int>(Instrs.size()) - 1, {}});
  return static_cast<int>(Tasks.size()) - 1;
}

const std::vector<std::vector<bool>> &ExecutionPlan::dependenceClosure() const {
  std::int64_t NumEdges = 0;
  for (const PlanTask &T : Tasks)
    NumEdges += static_cast<std::int64_t>(T.Deps.size());
  const std::pair<std::int64_t, std::int64_t> Key{
      static_cast<std::int64_t>(Tasks.size()), NumEdges};
  std::lock_guard<std::mutex> Lock(Lazy.Mu);
  if (Key == Lazy.ClosureKey)
    return Lazy.Closure;
  std::vector<std::vector<bool>> Closure(
      Tasks.size(), std::vector<bool>(Tasks.size(), false));
  for (std::size_t J = 0; J < Tasks.size(); ++J) {
    for (int D : Tasks[J].Deps) {
      if (D < 0 || static_cast<std::size_t>(D) >= J)
        support::raise(support::ErrorCode::PlanInvalid,
                       "execution plan: dependence not topological");
      Closure[J][static_cast<std::size_t>(D)] = true;
      for (std::size_t I = 0; I < Tasks.size(); ++I)
        if (Closure[static_cast<std::size_t>(D)][I])
          Closure[J][I] = true;
    }
  }
  Lazy.Closure = std::move(Closure);
  Lazy.ClosureKey = Key;
  return Lazy.Closure;
}

void ExecutionPlan::addDependence(int Before, int After) {
  if (Before < 0 || After < 0 || Before >= static_cast<int>(Tasks.size()) ||
      After >= static_cast<int>(Tasks.size()) || Before == After)
    support::raise(support::ErrorCode::PlanInvalid,
                   "execution plan: invalid dependence");
  Tasks[After].Deps.push_back(Before);
}

std::string ExecutionPlan::dump() const {
  std::ostringstream OS;
  OS << "plan: " << Instrs.size() << " instrs, " << Tasks.size() << " tasks, "
     << Edges.size() << " edges, " << NumSpaces << " spaces, tile-parallel="
     << (TileParallel ? "yes" : "no") << "\n";
  for (std::size_t E = 0; E < Edges.size(); ++E)
    OS << "  edge " << E << ": " << Edges[E].Array << " -> "
       << Edges[E].Consumer << " (x" << Edges[E].Multiplicity << ")\n";
  auto Str = [&](const Stream &S) {
    OS << "space" << S.Space << " base " << S.Base << " strides (";
    for (std::size_t L = 0; L < S.LevelStrides.size(); ++L)
      OS << (L ? "," : "") << S.LevelStrides[L];
    OS << ")";
    if (S.Modulo)
      OS << " mod " << S.ModSize;
    if (S.Edge >= 0)
      OS << " edge " << S.Edge;
  };
  for (std::size_t I = 0; I < Instrs.size(); ++I) {
    const NestInstr &Instr = Instrs[I];
    OS << "instr " << I << " [" << Instr.Label << "]";
    if (Instr.Tile >= 0)
      OS << " tile " << Instr.Tile;
    if (Instr.External) {
      OS << " external\n";
      continue;
    }
    OS << "\n";
    OS << "  loops:";
    for (const LoopLevel &L : Instr.Loops)
      OS << " " << L.Iter << " in [" << L.Lo << "," << L.Hi << "]";
    OS << "\n";
    for (const StmtRecord &S : Instr.Stmts) {
      OS << "  stmt nest " << S.NestId << " kernel " << S.KernelId;
      for (const GuardBound &Gd : S.Guards)
        OS << " guard " << Instr.Loops[Gd.Level].Iter << " in [" << Gd.Lo
           << "," << Gd.Hi << "]";
      OS << "\n";
      for (const Stream &R : S.Reads) {
        OS << "    read  ";
        Str(R);
        OS << "\n";
      }
      OS << "    write ";
      Str(S.Write);
      OS << "\n";
    }
  }
  for (std::size_t T = 0; T < Tasks.size(); ++T) {
    OS << "task " << T << " -> instr " << Tasks[T].Instr;
    if (!Tasks[T].Deps.empty()) {
      OS << " deps (";
      for (std::size_t D = 0; D < Tasks[T].Deps.size(); ++D)
        OS << (D ? "," : "") << Tasks[T].Deps[D];
      OS << ")";
    }
    OS << "\n";
  }
  return OS.str();
}

support::Expected<ExecutionPlan>
ExecutionPlan::tryFromChain(const ir::LoopChain &Chain,
                            const storage::ConcreteStorage &Store,
                            const ParamEnv &Env, const graph::Graph *G) {
  auto R =
      support::tryInvoke([&] { return fromChain(Chain, Store, Env, G); });
  if (!R)
    return R.takeError().withContext("compiling chain " + Chain.name());
  return R;
}

support::Expected<ExecutionPlan>
ExecutionPlan::tryFromAst(const graph::Graph &G, const codegen::AstNode &Root,
                          const storage::ConcreteStorage &Store,
                          const ParamEnv &Env) {
  auto R = support::tryInvoke([&] { return fromAst(G, Root, Store, Env); });
  if (!R)
    return R.takeError().withContext("compiling transformed schedule");
  return R;
}

support::Expected<ExecutionPlan>
ExecutionPlan::tryFromTiling(const ir::LoopChain &Chain,
                             const tiling::ChainTiling &Tiling,
                             const storage::ConcreteStorage &Store,
                             const ParamEnv &Env, const graph::Graph *G) {
  auto R = support::tryInvoke(
      [&] { return fromTiling(Chain, Tiling, Store, Env, G); });
  if (!R)
    return R.takeError().withContext("compiling tiled schedule for chain " +
                                     Chain.name());
  return R;
}
