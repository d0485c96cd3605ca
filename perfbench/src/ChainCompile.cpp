//===- perfbench/src/ChainCompile.cpp - Serial chain compilation ----------===//
//
// The chain-compile workload: a seeded stream of distinct chains in pragma
// text, compiled one after another on one thread from text to a verified,
// runnable plan — parse, graph build, transform script, storage reduction,
// storage plan, allocation, code generation, lowering, strict static
// verification. Each plan then runs once at a small size with interpreted
// kernels and is checked against the untransformed chain run scalar-serial.
// Execution is a small share here, so this is where moving per-run work
// into compilation shows its cost.
//
//===----------------------------------------------------------------------===//

#include "ChainGen.h"
#include "Common.h"

#include "codegen/Generator.h"
#include "exec/ExecutionPlan.h"
#include "exec/PlanRunner.h"
#include "exec/RowPlan.h"
#include "graph/GraphBuilder.h"
#include "parser/PragmaParser.h"
#include "parser/ScriptRunner.h"
#include "storage/ReuseDistance.h"
#include "verify/PlanVerifier.h"

#include <cstring>
#include <optional>

using namespace lcdfg;

namespace perfbench {
namespace {

/// Times consecutive phases; each lap() charges the time since the last
/// lap to one layer.
class Laps {
public:
  explicit Laps(Layers *L) : L(L), T(Clock::now()) {}
  void lap(const char *Layer) {
    Clock::time_point Now = Clock::now();
    if (L)
      L->add(Layer, std::chrono::duration<double>(Now - T).count());
    T = Now;
  }

private:
  Layers *L;
  Clock::time_point T;
};

exec::ParamEnv envFor(unsigned Rank) {
  return exec::ParamEnv{{"N", Rank == 2 ? 12 : 6}};
}

/// One chain from text to a checked run. Returns the compile wall time
/// (text to verified plan), or nullopt after recording why it failed.
std::optional<double> compileAndCheck(const ChainInput &In, bool Flip,
                                      Layers *L, Result &R) {
  auto Fail = [&](const std::string &Why) -> std::optional<double> {
    R.Problems.push_back(In.Name + ": " + Why);
    return std::nullopt;
  };
  Clock::time_point T0 = Clock::now();
  Laps P(L);
  parser::ParseResult Parsed = parser::parseLoopChain(In.Text);
  P.lap("parser.parse_s");
  if (!Parsed)
    return Fail("parse: " + Parsed.status().toString());
  ir::LoopChain &Chain = *Parsed.Chain;
  codegen::KernelRegistry Kernels;
  assignKernels(Chain, Kernels);
  P.lap("bench.compile_residual_s");
  graph::Graph G = graph::buildGraph(Chain);
  P.lap("graph.build_s");
  parser::ScriptResult SR = parser::runScript(G, In.Script);
  P.lap("graph.transform_s");
  if (!SR)
    return Fail("script line " + std::to_string(SR.Line) + ": " + SR.Error);
  storage::reduceStorage(G);
  P.lap("storage.reduce_s");
  storage::StoragePlan SPlan = storage::StoragePlan::build(G);
  P.lap("storage.plan_s");
  const exec::ParamEnv Env = envFor(In.Rank);
  storage::ConcreteStorage Store(SPlan, Env);
  P.lap("storage.alloc_s");
  codegen::AstPtr Ast = codegen::generate(G);
  P.lap("codegen.generate_s");
  exec::ExecutionPlan Plan = exec::ExecutionPlan::fromAst(G, *Ast, Store, Env);
  P.lap("exec.lower_s");
  verify::VerifyOptions VO;
  VO.Kernels = &Kernels;
  verify::PlanVerifier Verifier(Plan, VO);
  verify::Diagnostics Diags = Verifier.verify();
  verify::checkGraphSchedule(G, Diags);
  P.lap("verify.plan_s");
  const double Compile = secondsSince(T0);
  if (Diags.hasErrors())
    return Fail("strict verification: " + Diags.toString());

  double RowPlanS = 0;
  if (L) {
    L->add("bench.op_wall_s", Compile);
    unsigned Live = 0;
    for (unsigned S = 0; S < G.numStmtNodes(); ++S)
      Live += !G.stmt(S).Dead;
    L->add("graph.stmt_nodes", Live);
    L->add("exec.plan_instrs", static_cast<double>(Plan.Instrs.size()));
    L->add("exec.plan_tasks", static_cast<double>(Plan.Tasks.size()));
    Clock::time_point A0 = Clock::now();
    for (const exec::NestInstr &I : Plan.Instrs)
      (void)exec::RowPlan::analyze(I, Kernels);
    RowPlanS = secondsSince(A0);
    L->add("exec.rowplan_s", RowPlanS);
  }

  seedInputs(Chain, Store);
  obs::Tracer &Tr = obs::Tracer::global();
  if (L)
    Tr.enable(4096);
  Clock::time_point R0 = Clock::now();
  exec::PlanStats PS = exec::runPlan(Plan, Kernels, Store);
  if (L) {
    L->addCounters(Tr.drain());
    Tr.disable();
    double Kernel = 0;
    for (const exec::PlanStats::NodeStat &N : PS.Nodes)
      Kernel += N.Seconds;
    const double Run = secondsSince(R0);
    L->add("exec.run_s", Run);
    L->add("exec.kernel_s", Kernel);
    L->add("exec.dispatch_s", Run - Kernel - RowPlanS);
  }

  // Oracle: the untransformed chain on the scalar-serial path.
  graph::Graph RefG = graph::buildGraph(Chain);
  storage::StoragePlan RefPlan = storage::StoragePlan::build(RefG, false);
  storage::ConcreteStorage RefStore(RefPlan, Env);
  seedInputs(Chain, RefStore);
  exec::ExecutionPlan Oracle =
      exec::ExecutionPlan::fromChain(Chain, RefStore, Env);
  exec::RunOptions Serial;
  Serial.Batched = false;
  exec::runPlan(Oracle, Kernels, RefStore, Serial);

  bool Flipped = false;
  for (const std::string &Name : Chain.arrayNames()) {
    if (Chain.array(Name).Kind == ir::StorageKind::Temporary)
      continue;
    std::vector<double> &Got = Store.spaceOf(Name);
    if (Flip && !Flipped &&
        Chain.array(Name).Kind == ir::StorageKind::PersistentOutput) {
      Got[Got.size() / 2] += 1.0;
      Flipped = true;
    }
    const std::vector<double> &Want = RefStore.spaceOf(Name);
    if (Got.size() != Want.size() ||
        std::memcmp(Got.data(), Want.data(), Got.size() * sizeof(double)) != 0)
      return Fail("output " + Name + " differs from the untransformed oracle");
  }
  return Compile;
}

struct LoopStats {
  std::vector<double> Compile;
  std::int64_t Attempted = 0, Failed = 0;
};

/// With \p Rng, draws chains and appends them to \p Inputs for \p Seconds
/// (and at least \p MinChains); without, replays \p Inputs in order.
LoopStats compileStream(std::vector<ChainInput> &Inputs, std::mt19937_64 *Rng,
                        std::uint64_t &Id, double Seconds,
                        std::size_t MinChains, bool FlipOne, HostSpeed &HS,
                        Layers *L, Result &R) {
  LoopStats LS;
  Clock::time_point Start = Clock::now();
  for (std::size_t I = 0;; ++I) {
    if (Rng) {
      if ((secondsSince(Start) >= Seconds && LS.Compile.size() >= MinChains) ||
          secondsSince(Start) >= 4 * Seconds + 30)
        break;
      Inputs.push_back(drawChainInput(*Rng, Id++));
    } else if (I == Inputs.size()) {
      break;
    }
    std::optional<double> C =
        compileAndCheck(Inputs[I], FlipOne && LS.Attempted == 0, L, R);
    ++LS.Attempted;
    if (C)
      LS.Compile.push_back(*C);
    else
      ++LS.Failed;
    HS.sampleEvery();
  }
  return LS;
}

} // namespace

Result runChainCompile(const Args &A) {
  Result R;
  // Set-up: a warm-up pass over fig1, the flux chain and a fixed set of
  // random chains (first-touch allocations, code paging), repeated. The
  // set does not depend on --seed, so set-up time compares across seeds.
  std::vector<double> SetupSeconds;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    Clock::time_point T0 = Rep == 0 ? A.ProcessStart : Clock::now();
    std::mt19937_64 Warm(0x5eedull);
    std::vector<ChainInput> Inputs = {
        {"fig1", Fig1Chain, "fusepc S1 S2\n", 2},
        {"flux", FluxChain, "fusepc S1 S2\n", 3}};
    for (std::uint64_t I = 0; I < 46; ++I)
      Inputs.push_back(randomChainInput(Warm, I));
    for (const ChainInput &In : Inputs)
      if (!compileAndCheck(In, false, nullptr, R))
        R.problem("warm-up chain " + In.Name + " failed");
    SetupSeconds.push_back(secondsSince(T0));
  }

  std::mt19937_64 Rng(A.Seed);
  std::uint64_t Id = 0;
  const std::size_t MinChains = samplesFor(0.9);
  std::vector<ChainInput> Inputs;
  LoopStats Timed;
  HostSpeed HS;
  HS.sample();
  if (!A.Trace) {
    Timed = compileStream(Inputs, &Rng, Id, A.Seconds, MinChains, A.FlipOne,
                          HS, nullptr, R);
  } else {
    // The traced pass replays the untraced pass's chains, so the two mean
    // compile walls differ only by the tracing.
    Layers L;
    LoopStats Plain = compileStream(Inputs, &Rng, Id, A.Seconds / 2, 10,
                                    A.FlipOne, HS, nullptr, R);
    Timed = compileStream(Inputs, nullptr, Id, 0, 0, false, HS, &L, R);
    L.report(R, static_cast<double>(Timed.Compile.size()));
    R.Metrics["bench.trace_overhead_s"] =
        mean(Timed.Compile) - mean(Plain.Compile);
    Timed.Attempted += Plain.Attempted;
    Timed.Failed += Plain.Failed;
  }
  R.Attempted = Timed.Attempted;
  R.Failed = Timed.Failed;

  double Wall = 0;
  for (double S : Timed.Compile)
    Wall += S;
  const double SetupS = percentile(SetupSeconds, 0.5);
  const double P50 = percentile(Timed.Compile, 0.5);
  const double P90 = percentile(Timed.Compile, 0.9);
  const double PerS = static_cast<double>(Timed.Compile.size()) / Wall;
  const double Speed = HS.speed();
  if (!A.Trace) {
    R.Metrics["setup_s"] = SetupS * Speed;
    R.Metrics["p50_s"] = P50 * Speed;
    R.Metrics["tail_s"] = P90 * Speed;
    R.Metrics["work_per_s"] = PerS / Speed;
  }
  HS.record(R);
  R.Record["setup_s"] = SetupS;
  R.Record["compile_p50_s"] = P50;
  R.Record["compile_p90_s"] = P90;
  R.Record["chains_per_s"] = PerS;
  R.Record["chains"] = static_cast<double>(Timed.Compile.size());
  return R;
}

} // namespace perfbench
