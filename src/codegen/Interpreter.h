//===- codegen/Interpreter.h - Executable schedules -------------*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a generated loop AST against concrete storage. Each loop nest's
/// computation is a kernel registered by id; the interpreter resolves reads
/// and writes through the storage plan (including modulo mappings), which
/// makes transformed schedules directly checkable against a reference
/// execution of the original chain.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_CODEGEN_INTERPRETER_H
#define LCDFG_CODEGEN_INTERPRETER_H

#include "codegen/Ast.h"
#include "codegen/KernelExpr.h"
#include "graph/Graph.h"
#include "storage/StorageMap.h"
#include "support/InstanceId.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace lcdfg {
namespace codegen {

/// The batched statement body ABI: processes one wrap-free row segment of
/// \p N statement instances with raw pointer arithmetic. Element I reads
/// operand J at Reads[J][I * ReadStrides[J]] (stride 0 broadcasts a single
/// value) and writes Write[I * WriteStride]; elements must be processed in
/// ascending order so self-referencing stencils match the scalar oracle.
/// The arity of Reads is fixed per kernel, so it is not passed.
using BatchedKernel = void (*)(double *Write, const double *const *Reads,
                               const std::int64_t *ReadStrides,
                               std::int64_t WriteStride, std::int64_t N);

/// A registry of executable statement bodies. A kernel receives the values
/// of its reads (flattened in declaration order: per read access, per
/// stencil point) plus the current value of the write location (so that
/// accumulating statements like the flux-difference updates can be
/// expressed) and returns the value to store.
///
/// A kernel may additionally carry a batched body (see BatchedKernel): the
/// plan runner calls it for whole wrap-free row segments instead of
/// dispatching the scalar std::function per point. The two forms must be
/// arithmetically identical expression by expression — the scalar form is
/// the bit-equality oracle the batched path is tested against.
class KernelRegistry {
public:
  using Kernel =
      std::function<double(const std::vector<double> &Reads, double Current)>;

  /// Registers a kernel; the returned id goes into LoopNest::KernelId.
  /// \p B, when given, is the batched form of the same body.
  int add(Kernel K, BatchedKernel B = nullptr);
  /// Registers a kernel with an expression form alongside the scalar and
  /// batched bodies. \p E must compute the same value as \p K — it is what
  /// the JIT backend re-emits as specialized C per segment shape.
  int add(Kernel K, BatchedKernel B, KernelExpr E);
  const Kernel &get(int Id) const;
  /// The batched body of kernel \p Id, or nullptr when only the scalar
  /// form was registered.
  BatchedKernel batched(int Id) const;
  /// The expression form of kernel \p Id, or nullptr when none was
  /// registered (opaque kernels stay on the interpreted paths).
  const KernelExpr *expr(int Id) const;

  /// Process-unique identity: fresh on construction, copy, move and every
  /// add(). Compiled plan executables key on it, so a registry rebuilt
  /// at the same address (or grown after a run) never reuses bodies
  /// installed from another one.
  std::uint64_t id() const { return Identity.value(); }

private:
  InstanceId Identity;
  std::vector<Kernel> Kernels;
  std::vector<BatchedKernel> BatchedKernels;
  std::vector<std::optional<KernelExpr>> Exprs;
};

/// Executes \p Root (generated from \p G) with parameter binding \p Env.
/// Every nest reached must have a registered kernel.
void execute(const graph::Graph &G, const AstNode &Root,
             const KernelRegistry &Kernels, storage::ConcreteStorage &Store,
             const std::map<std::string, std::int64_t, std::less<>> &Env);

} // namespace codegen
} // namespace lcdfg

#endif // LCDFG_CODEGEN_INTERPRETER_H
