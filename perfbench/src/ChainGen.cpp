//===- perfbench/src/ChainGen.cpp -----------------------------------------===//

#include "ChainGen.h"

#include "codegen/KernelExpr.h"
#include "parser/PragmaPrinter.h"

#include <set>

using namespace lcdfg;

namespace perfbench {

const char *const Fig1Chain = R"(
#pragma omplc parallel(fuse)
{
#pragma omplc for domain(0:N, 0:N-1) with (x, y) \
    write VAL_1{(x,y)} read VAL_0{(x,y)}
S1: VAL_1(x,y) = func1(VAL_0(x,y));
#pragma omplc for domain(0:N-1, 0:N-1) with (x, y) \
    write VAL_2{(x,y)} read VAL_1{(x,y),(x+1,y)}
S2: VAL_2(x,y) = func2(VAL_1(x,y), VAL_1(x+1,y));
}
)";

const char *const FluxChain = R"(
#pragma omplc parallel(fuse)
{
#pragma omplc for domain(0:N, 0:N, 0:N) with (x, y, z) \
    write FX{(x,y,z)} read U{(x,y,z),(x+1,y,z)}
S1: FX(x,y,z) = flux(U(x,y,z), U(x+1,y,z));
#pragma omplc for domain(0:N, 0:N, 0:N) with (x, y, z) \
    write V{(x,y,z)} read FX{(x,y,z)}
S2: V(x,y,z) = acc(FX(x,y,z));
}
)";

namespace {

int pick(std::mt19937_64 &Rng, int Lo, int Hi) {
  return static_cast<int>(Lo + Rng() % static_cast<unsigned>(Hi - Lo + 1));
}

/// "fusepc S0 S1", "fusepc S0+S1 S2", ... over the first \p Count nests.
std::string fusePrefixScript(unsigned Count) {
  std::string Script, Fused = "S0";
  for (unsigned K = 1; K < Count; ++K) {
    std::string Next = "S" + std::to_string(K);
    Script += "fusepc " + Fused + " " + Next + "\n";
    Fused += "+" + Next;
  }
  return Script;
}

} // namespace

ChainInput randomChainInput(std::mt19937_64 &Rng, std::uint64_t Id,
                            const ChainShape &Shape) {
  ChainInput In;
  In.Rank = Shape.Rank     ? Shape.Rank
            : Shape.Uniform ? 2
                            : static_cast<unsigned>(pick(Rng, 2, 3));
  const unsigned Nests = static_cast<unsigned>(pick(
      Rng, static_cast<int>(Shape.MinNests), static_cast<int>(Shape.MaxNests)));
  In.Name = "random-" + std::to_string(Id);
  const unsigned NumInputs =
      Shape.Uniform ? 1 : static_cast<unsigned>(pick(Rng, 1, 2));

  ir::LoopChain Chain(In.Name, "fuse");
  poly::AffineExpr N = poly::AffineExpr::var("N");
  const char *AllDims[] = {"z", "y", "x"};
  std::vector<std::string> Dims(AllDims + (3 - In.Rank), AllDims + 3);

  std::vector<std::string> Sources;
  for (unsigned I = 0; I < NumInputs; ++I)
    Sources.push_back("in" + std::to_string(I));

  auto RandomAccess = [&](const std::string &Array) {
    const int Span = Array.rfind("in", 0) == 0 ? 2 : 1;
    std::set<std::vector<std::int64_t>> Points;
    const int NumPoints = Shape.Uniform ? 2 : pick(Rng, 1, 3);
    // Uniform draws until the points are distinct, so every access has two.
    for (int P = 0; static_cast<int>(Points.size()) < NumPoints &&
                    (Shape.Uniform || P < NumPoints);
         ++P) {
      std::vector<std::int64_t> Off(In.Rank);
      for (std::int64_t &O : Off)
        O = pick(Rng, -Span, Span);
      Points.insert(std::move(Off));
    }
    return ir::Access{Array, {Points.begin(), Points.end()}};
  };

  for (unsigned K = 0; K < Nests; ++K) {
    ir::LoopNest Nest;
    Nest.Name = "S" + std::to_string(K);
    // Nest k's domain is widened by (Nests - k) cells on every side, so a
    // read at offset <= 1 of an earlier value stays inside its footprint.
    const std::int64_t Expand = static_cast<std::int64_t>(Nests - K);
    std::vector<poly::Dim> Bounds;
    for (const std::string &D : Dims)
      Bounds.push_back(poly::Dim{D, poly::AffineExpr(-Expand),
                                 N - poly::AffineExpr(1 - Expand)});
    Nest.Domain = poly::BoxSet(std::move(Bounds));
    Nest.Write = ir::Access{"tmp" + std::to_string(K),
                            {std::vector<std::int64_t>(In.Rank, 0)}};

    std::set<std::string> Used;
    if (K > 0) {
      Used.insert(Sources.back());
      Nest.Reads.push_back(RandomAccess(Sources.back()));
    }
    if (Shape.Uniform)
      Nest.Reads.push_back(RandomAccess("in0"));
    const int Extra = Shape.Uniform ? 0 : pick(Rng, K > 0 ? 0 : 1, 2);
    for (int R = 0; R < Extra; ++R) {
      const std::string &Array = Sources[Rng() % Sources.size()];
      if (Used.insert(Array).second)
        Nest.Reads.push_back(RandomAccess(Array));
    }
    Chain.addNest(std::move(Nest));
    Sources.push_back("tmp" + std::to_string(K));
  }
  Chain.finalize();
  In.Text = parser::printPragmas(Chain);

  // Otherwise the cost-model search or a fusion prefix, as the shape asks
  // or one of the two at random.
  if (Shape.Uniform)
    In.Script = fusePrefixScript(Nests);
  else if (Shape.Script == ScriptKind::Autoschedule ||
           (Shape.Script == ScriptKind::Either && Rng() % 2))
    In.Script = "autoschedule " + std::to_string(pick(Rng, 2, 6)) + "\n";
  else
    In.Script = fusePrefixScript(static_cast<unsigned>(
        pick(Rng, 2, static_cast<int>(Nests))));
  return In;
}

ChainInput drawChainInput(std::mt19937_64 &Rng, std::uint64_t Id) {
  const unsigned Slot = static_cast<unsigned>(Id % StreamRound);
  if (Slot == 0)
    return ChainInput{"fig1", Fig1Chain, "fusepc S1 S2\n", 2};
  if (Slot == 1)
    return ChainInput{"flux", FluxChain, "fusepc S1 S2\n", 3};
  const unsigned Stratum = Slot - 2;
  ChainShape Shape;
  Shape.Rank = 2 + Stratum % 2;
  Shape.MinNests = Shape.MaxNests = 2 + Stratum / 2 % 7;
  Shape.Script =
      Stratum / 14 ? ScriptKind::Autoschedule : ScriptKind::FusePrefix;
  return randomChainInput(Rng, Id, Shape);
}

namespace {

constexpr double Bias = 0.125;
constexpr double Scale = 0.25;

template <int Arity>
void batchedBody(double *W, const double *const *R, const std::int64_t *S,
                 std::int64_t WS, std::int64_t N) {
  for (std::int64_t I = 0; I < N; ++I) {
    double Sum = R[0][I * S[0]];
    for (int J = 1; J < Arity; ++J)
      Sum = Sum + R[J][I * S[J]];
    W[I * WS] = Bias + Scale * Sum;
  }
}

template <int... A>
constexpr codegen::BatchedKernel
batchedFor(std::size_t Arity, std::integer_sequence<int, A...>) {
  constexpr codegen::BatchedKernel Table[] = {batchedBody<A + 1>...};
  return Arity >= 1 && Arity <= sizeof...(A) ? Table[Arity - 1] : nullptr;
}

} // namespace

void assignKernels(ir::LoopChain &Chain, codegen::KernelRegistry &Kernels) {
  std::map<std::size_t, int> ByArity;
  for (unsigned N = 0; N < Chain.numNests(); ++N) {
    ir::LoopNest &Nest = Chain.nest(N);
    if (Nest.KernelId >= 0)
      continue;
    std::size_t Arity = 0;
    for (const ir::Access &A : Nest.Reads)
      Arity += A.Offsets.size();
    auto It = ByArity.find(Arity);
    if (It == ByArity.end()) {
      codegen::KernelExpr Sum = codegen::read(0);
      for (unsigned J = 1; J < Arity; ++J)
        Sum = Sum + codegen::read(J);
      int Id = Kernels.add(
          [](const std::vector<double> &R, double) {
            double Sum = R[0];
            for (std::size_t J = 1; J < R.size(); ++J)
              Sum = Sum + R[J];
            return Bias + Scale * Sum;
          },
          batchedFor(Arity, std::make_integer_sequence<int, 16>{}),
          codegen::lit(Bias) + codegen::lit(Scale) * Sum);
      It = ByArity.emplace(Arity, Id).first;
    }
    Nest.KernelId = It->second;
  }
}

} // namespace perfbench
