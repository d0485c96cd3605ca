//===- tests/exec/ExecutableTest.cpp --------------------------------------===//
//
// The compile-once executable a plan memoizes for runPlan and the
// recovery ladder. Row analysis, K-checks and JIT lookup must happen once
// per (plan, kernel registry, engine): concurrent first runs build it
// exactly once and stay bit-identical to the scalar-serial oracle, later
// runs leave the engine's cache untouched, a registry rebuilt at the same
// address or a copied plan never reuses a stale artifact, and while the
// jitval fault site is armed every selection re-probes the gate.
//
// The JIT tests run with or without a host compiler: a dead engine keeps
// the interpreted bodies, and every property below still holds.
//
//===----------------------------------------------------------------------===//

#include "exec/Executable.h"

#include "codegen/Generator.h"
#include "exec/FaultInjector.h"
#include "exec/PlanRunner.h"
#include "exec/Recovery.h"
#include "exec/ThreadPool.h"
#include "graph/GraphBuilder.h"
#include "jit/JitEngine.h"
#include "minifluxdiv/Spec.h"
#include "obs/Trace.h"
#include "parser/PragmaParser.h"
#include "storage/ReuseDistance.h"
#include "storage/StorageMap.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace lcdfg;
using namespace lcdfg::exec;

namespace {

std::string freshCacheDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "lcdfg-exe-test-" + Name + "-" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(Dir);
  return Dir;
}

/// The MiniFluxDiv 2D chain fused at every level over reduced (modulo)
/// storage — the mfd-steps shape at test size: row plans with segment
/// caps, fused row kernels under the JIT.
struct FusedMfd {
  ir::LoopChain Chain = mfd::buildChain2D();
  codegen::KernelRegistry Kernels;
  graph::Graph G = graph::buildGraph(Chain);
  ParamEnv Env{{"N", 8}};
  std::optional<storage::StoragePlan> SPlan;
  ExecutionPlan Plan;

  FusedMfd() {
    mfd::registerKernels(Chain, Kernels);
    mfd::applyFuseAllLevels(G);
    storage::reduceStorage(G);
    SPlan.emplace(storage::StoragePlan::build(G, /*UseAllocation=*/false));
    codegen::AstPtr Ast = codegen::generate(G);
    storage::ConcreteStorage Probe(*SPlan, Env);
    Plan = ExecutionPlan::fromAst(G, *Ast, Probe, Env);
  }

  /// A store whose persistent inputs are seeded from \p Seed.
  storage::ConcreteStorage store(std::uint64_t Seed) const {
    storage::ConcreteStorage Store(*SPlan, Env);
    for (const std::string &Name : Chain.arrayNames()) {
      if (Chain.array(Name).Kind != ir::StorageKind::PersistentInput)
        continue;
      Chain.array(Name).Extent->forEachPoint(
          Env, [&](const std::vector<std::int64_t> &P) {
            Seed = Seed * 6364136223846793005ull + 1442695040888963407ull;
            Store.at(Name, P) = 1.0 + static_cast<double>(Seed >> 40) * 1e-7;
          });
    }
    return Store;
  }

  /// FNV-1a of every persistent space, in space order.
  std::vector<std::uint64_t> hashes(const storage::ConcreteStorage &S) const {
    std::vector<std::uint64_t> H;
    for (std::size_t Sp = 0; Sp < Plan.NumSpaces; ++Sp) {
      if (!Plan.SpacePersistent[Sp])
        continue;
      std::uint64_t V = 1469598103934665603ull;
      for (double D : S.space(Sp)) {
        unsigned char B[sizeof(double)];
        std::memcpy(B, &D, sizeof D);
        for (unsigned char C : B)
          V = (V ^ C) * 1099511628211ull;
      }
      H.push_back(V);
    }
    return H;
  }

  std::vector<std::uint64_t> oracle(std::uint64_t Seed) const {
    storage::ConcreteStorage S = store(Seed);
    RunOptions O;
    O.Threads = 1;
    O.Batched = false;
    runPlan(Plan, Kernels, S, O);
    return hashes(S);
  }
};

jit::EngineOptions engineIn(const std::string &Name,
                           std::string Compiler = "cc") {
  jit::EngineOptions O;
  O.Compiler = std::move(Compiler);
  O.CacheDir = freshCacheDir(Name);
  return O;
}

RunOptions jitRun(jit::Engine &Eng) {
  RunOptions O;
  O.Threads = 1;
  O.Kernels = KernelMode::Jit;
  O.Jit = &Eng;
  return O;
}

/// Enables the global tracer for one test and drains it on request.
struct TraceScope {
  TraceScope() { obs::Tracer::global().enable(1 << 14); }
  ~TraceScope() { obs::Tracer::global().disable(); }
  obs::Trace drain() { return obs::Tracer::global().drain(); }
};

//===----------------------------------------------------------------------===//
// One-nest plans with swappable kernels for the stale-artifact cases.
//===----------------------------------------------------------------------===//

template <int Factor>
void batchedScale(double *W, const double *const *R, const std::int64_t *S,
                  std::int64_t WS, std::int64_t N) {
  for (std::int64_t I = 0; I < N; ++I)
    W[I * WS] = Factor * R[0][I * S[0]];
}

template <int Factor>
int addScale(codegen::KernelRegistry &K) {
  return K.add(
      [](const std::vector<double> &R, double) { return Factor * R[0]; },
      &batchedScale<Factor>);
}

/// OUT(x) = kernel(IN(x)) over 16 elements, lowered from pragma text.
struct ScaleChain {
  ir::LoopChain Chain = *parser::parseLoopChain(
                             "#pragma omplc for domain(0:N) with (x) "
                             "write OUT{(x)} read IN{(x)}\n"
                             "S: OUT(x) = g(IN(x));\n")
                             .Chain;
  graph::Graph G = graph::buildGraph(Chain);
  storage::StoragePlan SPlan = storage::StoragePlan::build(G);
  ParamEnv Env{{"N", 15}};

  ExecutionPlan plan(int KernelId) {
    Chain.nest(0).KernelId = KernelId;
    storage::ConcreteStorage Probe(SPlan, Env);
    return ExecutionPlan::fromChain(Chain, Probe, Env);
  }

  /// Runs \p P batched on IN(x) = x and returns OUT.
  std::vector<double> run(const ExecutionPlan &P,
                          const codegen::KernelRegistry &K) {
    storage::ConcreteStorage Store(SPlan, Env);
    for (std::int64_t X = 0; X < 16; ++X)
      Store.at("IN", {X}) = static_cast<double>(X);
    runPlan(P, K, Store);
    std::vector<double> Out;
    for (std::int64_t X = 0; X < 16; ++X)
      Out.push_back(Store.at("OUT", {X}));
    return Out;
  }
};

std::vector<double> scaled(double Factor) {
  std::vector<double> V(16);
  for (int I = 0; I < 16; ++I)
    V[static_cast<std::size_t>(I)] = Factor * I;
  return V;
}

} // namespace

TEST(Executable, ThreeRunsBuildOnceAndLeaveTheEngineCacheAlone) {
  FusedMfd M;
  jit::Engine Eng(engineIn("three"));
  TraceScope TS;
  std::int64_t After1 = -1;
  for (int Run = 0; Run < 3; ++Run) {
    storage::ConcreteStorage S = M.store(7);
    runPlan(M.Plan, M.Kernels, S, jitRun(Eng));
    EXPECT_EQ(M.hashes(S), M.oracle(7)) << "run " << Run;
    const jit::Engine::Stats St = Eng.stats();
    if (Run == 0)
      After1 = St.Compiled + St.CacheHits;
    else
      EXPECT_EQ(After1, St.Compiled + St.CacheHits) << "run " << Run;
  }
  obs::Trace T = TS.drain();
  EXPECT_EQ(1, T.counter(obs::Counter::RowsBuilt));
  // The stored fallback count is still reported on every run.
  const std::shared_ptr<const Executable> Exe =
      M.Plan.executable(M.Kernels, &Eng);
  std::int64_t PerRun = 0;
  for (std::int64_t F : Exe->JitFallbacks)
    PerRun += F;
  EXPECT_EQ(3 * PerRun, T.counter(obs::Counter::JitFallbacks));
}

TEST(Executable, DeadEngineFallbacksAreReportedOnEveryRun) {
  FusedMfd M;
  jit::Engine Dead(engineIn("dead", "/bin/false"));
  TraceScope TS;
  for (int Run = 0; Run < 3; ++Run) {
    storage::ConcreteStorage S = M.store(3);
    runPlan(M.Plan, M.Kernels, S, jitRun(Dead));
    EXPECT_EQ(M.hashes(S), M.oracle(3)) << "run " << Run;
  }
  obs::Trace T = TS.drain();
  EXPECT_EQ(1, T.counter(obs::Counter::RowsBuilt));
  std::int64_t Stmts = 0;
  for (const RowAnalysis &RA : M.Plan.executable(M.Kernels, &Dead)->Rows)
    if (RA.Plan)
      Stmts += static_cast<std::int64_t>(RA.Plan->Stmts.size());
  ASSERT_GT(Stmts, 0);
  EXPECT_EQ(3 * Stmts, T.counter(obs::Counter::JitFallbacks));
}

TEST(Executable, ConcurrentFirstRunsBuildOnceAndMatchTheOracle) {
  // Many boxes, one never-run plan, two pool participants calling runPlan
  // at once — the mfd-steps shape.
  FusedMfd M;
  jit::Engine Eng(engineIn("conc"));
  constexpr int Boxes = 12;
  std::vector<storage::ConcreteStorage> Stores;
  for (int B = 0; B < Boxes; ++B)
    Stores.push_back(M.store(100 + static_cast<std::uint64_t>(B)));
  TraceScope TS;
  ThreadPool::global().parallelFor(Boxes, 2, [&](int B) {
    runPlan(M.Plan, M.Kernels, Stores[static_cast<std::size_t>(B)],
            jitRun(Eng));
  });
  obs::Trace T = TS.drain();
  EXPECT_EQ(1, T.counter(obs::Counter::RowsBuilt));
  for (int B = 0; B < Boxes; ++B)
    EXPECT_EQ(M.hashes(Stores[static_cast<std::size_t>(B)]),
              M.oracle(100 + static_cast<std::uint64_t>(B)))
        << "box " << B;
}

TEST(Executable, ConcurrentClosureReadersAgree) {
  FusedMfd M;
  std::vector<std::vector<std::vector<bool>>> Seen(4);
  std::vector<std::thread> Readers;
  for (std::size_t R = 0; R < Seen.size(); ++R)
    Readers.emplace_back([&, R] { Seen[R] = M.Plan.dependenceClosure(); });
  for (std::thread &Th : Readers)
    Th.join();
  for (const auto &C : Seen)
    EXPECT_EQ(C, Seen[0]);
  EXPECT_EQ(Seen[0].size(), M.Plan.Tasks.size());
}

TEST(Executable, RegistryRebuiltAtTheSameAddressGetsAFreshArtifact) {
  ScaleChain C;
  std::optional<codegen::KernelRegistry> K;
  K.emplace();
  const ExecutionPlan P = C.plan(addScale<2>(*K));
  const codegen::KernelRegistry *Addr = &*K;
  const std::uint64_t FirstId = K->id();
  EXPECT_EQ(C.run(P, *K), scaled(2));

  K.reset();
  K.emplace();
  ASSERT_EQ(Addr, &*K);
  EXPECT_NE(FirstId, K->id());
  ASSERT_EQ(0, addScale<3>(*K));
  EXPECT_EQ(C.run(P, *K), scaled(3));

  // Copies and growth take fresh identities too.
  codegen::KernelRegistry Copy = *K;
  EXPECT_NE(Copy.id(), K->id());
  const std::uint64_t Before = K->id();
  addScale<5>(*K);
  EXPECT_NE(Before, K->id());
}

TEST(Executable, CopiedPlanStartsWithoutTheOriginalsArtifact) {
  ScaleChain C;
  codegen::KernelRegistry K;
  const int Double = addScale<2>(K);
  const int Triple = addScale<3>(K);
  ExecutionPlan P = C.plan(Double);
  EXPECT_EQ(C.run(P, K), scaled(2));

  ExecutionPlan Copy = P;
  Copy.Instrs[0].Stmts[0].KernelId = Triple;
  EXPECT_EQ(C.run(Copy, K), scaled(3));
  EXPECT_NE(Copy.executable(K, nullptr), P.executable(K, nullptr));

  // Assignment over a plan that already ran (the recovery ladder's
  // `Corrupted = Plan`) drops the target's artifact as well.
  ExecutionPlan Target = C.plan(Triple);
  EXPECT_EQ(C.run(Target, K), scaled(3));
  Target = P;
  EXPECT_EQ(C.run(Target, K), scaled(2));
  EXPECT_EQ(C.run(P, K), scaled(2));
}

TEST(Executable, BuildUnderAnArmedJitvalSiteIsNotMemoized) {
  FusedMfd M;
  jit::Engine Eng(engineIn("jitval"));
  FaultInjector &FI = FaultInjector::global();
  FI.arm(FaultSpec{FaultSite::JitValidate, FaultKind::Reject, 1});
  const std::shared_ptr<const Executable> Faulted =
      M.Plan.executable(M.Kernels, &Eng);
  FI.disarm();
  bool Rejected = false;
  for (const RowAnalysis &RA : Faulted->Rows)
    Rejected = Rejected || RA.Jit == JitRefusal::ValidationRejected;
  EXPECT_TRUE(Rejected);

  const std::shared_ptr<const Executable> Clean =
      M.Plan.executable(M.Kernels, &Eng);
  EXPECT_NE(Faulted, Clean);
  for (const RowAnalysis &RA : Clean->Rows)
    EXPECT_NE(RA.Jit, JitRefusal::ValidationRejected) << RA.JitDetail;
  EXPECT_EQ(Clean, M.Plan.executable(M.Kernels, &Eng));
}

TEST(Executable, JitvalFaultStillDescendsOnAWarmPlan) {
  // A warm plan (its JIT executable memoized) must still see the gate
  // when a fault campaign arms it: the ladder rebuilds, the fault fires,
  // L008 is reported and the run stays bit-identical.
  FusedMfd M;
  jit::Engine Eng(engineIn("warm"));
  storage::ConcreteStorage Warm = M.store(5);
  runPlan(M.Plan, M.Kernels, Warm, jitRun(Eng));

  FaultInjector &FI = FaultInjector::global();
  FI.arm(FaultSpec{FaultSite::JitValidate, FaultKind::Reject, 1});
  storage::ConcreteStorage S = M.store(5);
  RecoverOptions RO;
  RO.Run = jitRun(Eng);
  RunReport R = runWithRecovery(M.Plan, M.Kernels, S, RO);
  FI.disarm();
  EXPECT_TRUE(R.Completed) << R.toString();
  ASSERT_EQ(1u, R.Descents.size()) << R.toString();
  EXPECT_EQ(ReasonJitUnavailable, R.Descents[0].Reason);
  EXPECT_EQ(M.hashes(S), M.oracle(5));
}
