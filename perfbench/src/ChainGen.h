//===- perfbench/src/ChainGen.h - Seeded benchmark inputs -------*- C++ -*-===//
//
// The benchmark's input generator. Everything the program under test sees
// is produced here from the workload seed: loop chains as pragma text,
// transform scripts, and the synthetic kernel bodies a parsed chain needs
// before it can run (pragma text carries no executable statements).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHAINGEN_H
#define PERFBENCH_CHAINGEN_H

#include "codegen/Interpreter.h"
#include "ir/LoopChain.h"

#include <cstdint>
#include <random>
#include <string>

namespace perfbench {

/// One generated compile input: chain source plus transform script.
struct ChainInput {
  std::string Name;   ///< "random-<n>", "fig1" or "flux".
  std::string Text;   ///< Pragma source.
  std::string Script; ///< Transform script (fusepc prefix or autoschedule).
  unsigned Rank = 2;
};

/// The Figure 1 chain of the paper, and the fused 3D flux/accumulate pair
/// the serving benchmarks use as a MiniFluxDiv stand-in.
extern const char *const Fig1Chain;
extern const char *const FluxChain;

/// How a random chain's transform script is chosen.
enum class ScriptKind { Either, Autoschedule, FusePrefix };

/// Shape of a random chain. The default is the chain-compile stream's mix;
/// Uniform chains all cost about the same to compile and run.
struct ChainShape {
  unsigned MinNests = 2, MaxNests = 8; ///< at most 8
  unsigned Rank = 0;                   ///< 2 or 3; 0 draws one
  ScriptKind Script = ScriptKind::Either;
  /// 2D, one input; every nest reads the previous value and the input at
  /// two random offsets each; the script fuses the whole chain.
  bool Uniform = false;
};

/// A random stencil chain in pragma text. Nest k reads the value nest k-1
/// wrote (so fusing a prefix is always a legal producer-consumer fusion)
/// plus random earlier values and inputs; domains are trapezoidal so every
/// read lies inside its producer's footprint.
ChainInput randomChainInput(std::mt19937_64 &Rng, std::uint64_t Id,
                            const ChainShape &Shape = {});

/// Chains per round of the chain-compile stream: fig1, the flux chain, and
/// one random chain per stratum (rank 2 or 3, 2 to 8 nests, autoschedule
/// or a fusion prefix).
inline constexpr unsigned StreamRound = 2 + 2 * 7 * 2;

/// Chain \p Id of the chain-compile stream. Chain Id sits in stratum
/// Id % StreamRound, so every round has the same mix of shapes and
/// transforms and only the accesses, offsets and script details come from
/// \p Rng. Compile times span three orders of magnitude across strata; a
/// mix drawn at random would move the stream's median with the seed.
ChainInput drawChainInput(std::mt19937_64 &Rng, std::uint64_t Id);

/// Assigns every kernel-less nest a pure synthetic body (scalar, batched
/// and expression forms, bit-identical to one another): a bias plus a
/// scaled left-associated sum of the reads. Pure bodies never read their
/// write target, so storage reduction cannot change results.
void assignKernels(lcdfg::ir::LoopChain &Chain,
                   lcdfg::codegen::KernelRegistry &Kernels);

/// Deterministic contents for every persistent input space of \p Chain.
template <typename StoreT>
void seedInputs(const lcdfg::ir::LoopChain &Chain, StoreT &Store) {
  for (const std::string &Name : Chain.arrayNames())
    if (Chain.array(Name).Kind == lcdfg::ir::StorageKind::PersistentInput) {
      std::vector<double> &Buf = Store.spaceOf(Name);
      for (std::size_t I = 0; I < Buf.size(); ++I)
        Buf[I] = 0.001 * static_cast<double>((I * 2654435761u) % 1000u);
    }
}

} // namespace perfbench

#endif // PERFBENCH_CHAINGEN_H
