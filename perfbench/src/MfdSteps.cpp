//===- perfbench/src/MfdSteps.cpp - Generated-plan time stepping ----------===//
//
// The mfd-steps workload: the paper's Fig 6 computation through code
// generated from the transformed M2DFG. The 3D MiniFluxDiv chain is fused
// at every level, storage-reduced and modulo-widened, lowered once, and
// then time-stepped over a periodic grid of 16^3 boxes. Each step is a
// ghost exchange followed by one JIT-kernel run of the compiled plan per
// box, parallel over boxes on the program's own pool; the next step waits
// for the previous one (closed loop).
//
// Between steps the benchmark copies each box into its plan storage (the
// inputs with ghosts, the output initialised to the current state) and
// back (the new state, wrapped into [0, 1) so the explicit update stays
// bounded over any number of steps).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "codegen/Generator.h"
#include "exec/ExecutionPlan.h"
#include "exec/PlanRunner.h"
#include "exec/RowPlan.h"
#include "exec/ThreadPool.h"
#include "graph/GraphBuilder.h"
#include "jit/JitEngine.h"
#include "minifluxdiv/Spec.h"
#include "runtime/BoxGrid.h"
#include "runtime/GhostExchange.h"
#include "storage/ReuseDistance.h"
#include "verify/KernelVerifier.h"
#include "verify/PlanVerifier.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>

using namespace lcdfg;

namespace perfbench {
namespace {

constexpr int BoxSize = 16;
constexpr int Ghost = 2;
constexpr int Comps = 5;
constexpr unsigned ModuloWiden = 8;
/// 4 x 3 x 2 periodic boxes, twelve per participant: a step of about
/// 0.15 s, so the 100 steps a p90 needs fit in a run even at half speed.
const rt::GridLayout Layout{2, 3, 4};
/// Participants of each step's parallel region. Two, not one per core: on
/// a shared virtual host a step waits for its slowest participant, and with
/// every core busy any other process (or a preempted virtual CPU) stalls
/// one of them; with two, the scheduler has idle cores to move work to.
constexpr int StepThreads = 2;
const char *const CompNames[Comps] = {"rho", "u", "v", "w", "e"};

/// Everything one set-up builds. Held by pointer: the graph binds to the
/// chain it was built from.
struct Setup {
  ir::LoopChain Chain;
  codegen::KernelRegistry Kernels;
  std::optional<graph::Graph> G;
  storage::StoragePlan SPlan;
  codegen::AstPtr Ast;
  exec::ExecutionPlan Plan;
  std::unique_ptr<jit::Engine> Jit;
  std::vector<rt::Box> Boxes;
  std::vector<storage::ConcreteStorage> Stores;
  unsigned InSpace[Comps] = {};
  unsigned OutSpace[Comps] = {};
  std::vector<unsigned> Persistent; ///< Persistent space ids, in order.
};

/// Per-box times of one step (traced runs read them).
struct BoxTimes {
  double Copy = 0, Run = 0, Kernel = 0;
};

double *ghostOrigin(rt::Box &B, int C) {
  return &B.at(C, -Ghost, -Ghost, -Ghost);
}

void copyIn(rt::Box &B, storage::ConcreteStorage &S, const Setup &St) {
  const std::size_t Padded = static_cast<std::size_t>(B.padded());
  for (int C = 0; C < Comps; ++C) {
    std::memcpy(S.space(St.InSpace[C]).data(), ghostOrigin(B, C),
                Padded * Padded * Padded * sizeof(double));
    double *Out = S.space(St.OutSpace[C]).data();
    for (int Z = 0; Z < BoxSize; ++Z)
      for (int Y = 0; Y < BoxSize; ++Y)
        std::memcpy(Out + (Z * BoxSize + Y) * BoxSize, &B.at(C, Z, Y, 0),
                    BoxSize * sizeof(double));
  }
}

void copyOut(const storage::ConcreteStorage &S, rt::Box &B, const Setup &St) {
  for (int C = 0; C < Comps; ++C) {
    const double *Out = S.space(St.OutSpace[C]).data();
    for (int Z = 0; Z < BoxSize; ++Z)
      for (int Y = 0; Y < BoxSize; ++Y) {
        const double *Row = Out + (Z * BoxSize + Y) * BoxSize;
        double *Dst = &B.at(C, Z, Y, 0);
        for (int X = 0; X < BoxSize; ++X)
          Dst[X] = Row[X] - std::floor(Row[X]);
      }
  }
}

std::vector<std::uint64_t> hashBox(const storage::ConcreteStorage &S,
                                   const Setup &St) {
  std::vector<std::uint64_t> H;
  for (unsigned Sp : St.Persistent)
    H.push_back(fnv1a(S.space(Sp).data(), S.space(Sp).size() * sizeof(double)));
  return H;
}

exec::RunOptions jitRun(const Setup &St) {
  exec::RunOptions O;
  O.Threads = 1; // parallelism is over boxes
  O.Kernels = exec::KernelMode::Jit;
  O.Jit = St.Jit.get();
  return O;
}

/// One time step: ghost exchange, then every box's plan on the pool.
/// Returns (exchange seconds, parallel-region seconds).
std::pair<double, double> step(Setup &St, int Threads,
                               std::vector<BoxTimes> *Times) {
  Clock::time_point T0 = Clock::now();
  support::Status S = rt::exchangeGhosts(St.Boxes, Layout, Threads);
  if (!S)
    throw support::StatusError(S);
  const double Exchange = secondsSince(T0);
  const exec::RunOptions Opts = jitRun(St);
  Clock::time_point T1 = Clock::now();
  exec::ThreadPool::global().parallelFor(
      static_cast<int>(St.Boxes.size()), Threads, [&](int I) {
        rt::Box &B = St.Boxes[I];
        storage::ConcreteStorage &Store = St.Stores[I];
        if (!Times) {
          copyIn(B, Store, St);
          exec::runPlan(St.Plan, St.Kernels, Store, Opts);
          copyOut(Store, B, St);
          return;
        }
        BoxTimes &BT = (*Times)[I];
        Clock::time_point C0 = Clock::now();
        copyIn(B, Store, St);
        BT.Copy = secondsSince(C0);
        Clock::time_point R0 = Clock::now();
        exec::PlanStats PS = exec::runPlan(St.Plan, St.Kernels, Store, Opts);
        BT.Run = secondsSince(R0);
        BT.Kernel = 0;
        for (const exec::PlanStats::NodeStat &N : PS.Nodes)
          BT.Kernel += N.Seconds;
        C0 = Clock::now();
        copyOut(Store, B, St);
        BT.Copy += secondsSince(C0);
      });
  return {Exchange, secondsSince(T1)};
}

/// Builds the plan, a cold private JIT engine, the boxes and their stores,
/// and runs one warm-up step (which fills the JIT cache).
std::unique_ptr<Setup> setUp(const Args &A, int Rep, int Threads,
                             Result &R) {
  auto St = std::make_unique<Setup>();
  St->Chain = mfd::buildChain3D();
  mfd::registerKernels(St->Chain, St->Kernels);
  St->G.emplace(graph::buildGraph(St->Chain));
  mfd::applyFuseAllLevels(*St->G);
  storage::reduceStorage(*St->G);
  St->SPlan = storage::StoragePlan::build(*St->G, /*UseAllocation=*/false,
                                          ModuloWiden);
  const exec::ParamEnv Env{{"N", BoxSize}};
  for (int I = 0; I < Layout.numBoxes(); ++I)
    St->Stores.emplace_back(St->SPlan, Env);
  St->Ast = codegen::generate(*St->G);
  St->Plan = exec::ExecutionPlan::fromAst(*St->G, *St->Ast, St->Stores[0], Env);

  verify::VerifyOptions VO;
  VO.Kernels = &St->Kernels;
  verify::PlanVerifier Verifier(St->Plan, VO);
  verify::Diagnostics Diags = Verifier.verify();
  if (Diags.hasErrors())
    R.problem("strict verification rejected the plan: " + Diags.toString());

  for (int C = 0; C < Comps; ++C) {
    const std::string Comp = CompNames[C];
    auto In = St->Stores[0].resolve("in_" + Comp);
    auto Out = St->Stores[0].resolve("out_" + Comp);
    using Vec = std::vector<std::int64_t>;
    const std::int64_t P = BoxSize + 2 * Ghost;
    if (In.Modulo || Out.Modulo || In.Strides != Vec{P * P, P, 1} ||
        In.Lowers != Vec{-Ghost, -Ghost, -Ghost} ||
        Out.Strides != Vec{BoxSize * BoxSize, BoxSize, 1})
      throw support::StatusError(support::Status::error(
          support::ErrorCode::InvalidChain,
          "unexpected storage layout for component " + Comp));
    St->InSpace[C] = In.Space;
    St->OutSpace[C] = Out.Space;
  }
  for (unsigned S = 0; S < St->Plan.NumSpaces; ++S)
    if (St->Plan.SpacePersistent[S])
      St->Persistent.push_back(S);

  jit::EngineOptions EO = jit::EngineOptions::fromEnvironment();
  EO.CacheDir = A.WorkDir + "/jit-setup-" + std::to_string(Rep);
  St->Jit = std::make_unique<jit::Engine>(EO);
  if (!St->Jit->available()) {
    R.problem("JIT unavailable: " + St->Jit->unavailableReason());
    return nullptr;
  }
  for (const exec::NestInstr &I : St->Plan.Instrs) {
    exec::RowAnalysis RA =
        exec::RowPlan::analyze(I, St->Kernels, St->Jit.get());
    if (RA.Plan && RA.Jit != exec::JitRefusal::Specialized) {
      R.problem("instruction " + I.Label + " fell back from JIT: " +
                std::string(exec::jitRefusalName(RA.Jit)) + " " + RA.JitDetail);
      return nullptr;
    }
  }

  for (int I = 0; I < Layout.numBoxes(); ++I) {
    St->Boxes.emplace_back(BoxSize, Ghost, Comps);
    St->Boxes.back().fillPseudoRandom(A.Seed * 1000003ull +
                                      static_cast<std::uint64_t>(I));
  }
  step(*St, Threads, nullptr);
  return St;
}

/// The scalar-serial oracle for one step: from \p Before (the boxes as
/// they were before the step), exchange ghosts and run every box's plan on
/// the interpreted scalar path; returns the per-box persistent-space hashes.
std::vector<std::vector<std::uint64_t>>
oracleStep(const Setup &St, std::vector<rt::Box> Before) {
  support::Status S = rt::exchangeGhosts(Before, Layout, 1);
  if (!S)
    throw support::StatusError(S);
  storage::ConcreteStorage Store(St.SPlan, exec::ParamEnv{{"N", BoxSize}});
  exec::RunOptions Serial;
  Serial.Threads = 1;
  Serial.Batched = false;
  std::vector<std::vector<std::uint64_t>> Hashes;
  for (rt::Box &B : Before) {
    copyIn(B, Store, St);
    exec::runPlan(St.Plan, St.Kernels, Store, Serial);
    Hashes.push_back(hashBox(Store, St));
  }
  return Hashes;
}

bool isPow2(std::int64_t V) { return V > 0 && (V & (V - 1)) == 0; }

struct LoopStats {
  std::vector<double> StepSeconds;
  std::int64_t Failed = 0;
};

/// Runs checked time steps for \p Seconds of step wall time (and at least
/// \p MinSteps steps). Checked steps — the first, every power-of-two index
/// and the predicted last — are compared box by box against the oracle.
LoopStats runSteps(Setup &St, int Threads, double Seconds,
                   std::size_t MinSteps, bool FlipOne, HostSpeed &HS,
                   Layers *L) {
  LoopStats LS;
  const int NB = static_cast<int>(St.Boxes.size());
  std::vector<BoxTimes> Times(L ? NB : 0);
  double Timed = 0.0;
  Clock::time_point Start = Clock::now();
  for (std::int64_t Step = 0;; ++Step) {
    const double Estimate =
        LS.StepSeconds.empty() ? 0.0 : LS.StepSeconds.back();
    const bool Last = (LS.StepSeconds.size() + 1 >= MinSteps &&
                       Timed + Estimate >= Seconds) ||
                      secondsSince(Start) > 4 * Seconds + 30;
    const bool Check = Step == 0 || isPow2(Step) || Last;
    std::vector<rt::Box> Before;
    if (Check)
      Before = St.Boxes;

    obs::Tracer &Tr = obs::Tracer::global();
    if (L)
      Tr.enable(4096);
    Clock::time_point T0 = Clock::now();
    auto [Exchange, Region] = step(St, Threads, L ? &Times : nullptr);
    const double Wall = secondsSince(T0);
    LS.StepSeconds.push_back(Wall);
    Timed += Wall;
    HS.sampleEvery();

    if (L) {
      obs::Trace T = Tr.drain();
      Tr.disable();
      L->addCounters(T);
      double Copy = 0, Run = 0, Kernel = 0;
      for (const BoxTimes &BT : Times) {
        Copy += BT.Copy;
        Run += BT.Run;
        Kernel += BT.Kernel;
      }
      // Row analysis and the K-check run inside runPlan; time them once per
      // step on the shared plan and attribute them to every box run.
      Clock::time_point A0 = Clock::now();
      for (const exec::NestInstr &I : St.Plan.Instrs)
        (void)exec::RowPlan::analyze(I, St.Kernels, St.Jit.get());
      const double RowPlan = secondsSince(A0);
      A0 = Clock::now();
      (void)verify::verifyPlanKernels(St.Plan, St.Kernels);
      const double KVerify = secondsSince(A0);

      const double W = Threads;
      const double RowShare = std::min(RowPlan * NB / W, (Run - Kernel) / W);
      L->add("bench.op_wall_s", Wall);
      L->add("runtime.exchange_s", Exchange);
      L->add("bench.copy_s", Copy / W);
      L->add("exec.run_s", Run / W);
      L->add("exec.kernel_s", Kernel / W);
      L->add("exec.rowplan_s", RowShare);
      L->add("verify.kernels_s", KVerify * NB / W);
      L->add("exec.dispatch_s", (Run - Kernel) / W - RowShare);
      L->add("exec.idle_s", Region - (Copy + Run) / W);
      L->add("exec.idle_share", 1.0 - (Copy + Run) / (W * Region));
      L->add("bench.step_residual_s", Wall - Exchange - Region);
    }

    if (Check) {
      if (FlipOne && Step == 0)
        St.Stores[0].space(St.OutSpace[0])[7] += 1.0;
      std::vector<std::vector<std::uint64_t>> Expected =
          oracleStep(St, std::move(Before));
      for (int I = 0; I < NB; ++I)
        if (hashBox(St.Stores[I], St) != Expected[I]) {
          ++LS.Failed;
          break;
        }
    }
    if (Last)
      break;
  }
  return LS;
}

} // namespace

Result runMfdSteps(const Args &A) {
  Result R;
  const int Threads = std::min(StepThreads, poolThreads());
  std::vector<double> SetupSeconds;
  std::unique_ptr<Setup> St;
  for (int Rep = 0; Rep < MfdSetupRepeats; ++Rep) {
    Clock::time_point T0 = Rep == 0 ? A.ProcessStart : Clock::now();
    St = setUp(A, Rep, Threads, R);
    if (!St)
      return R;
    SetupSeconds.push_back(secondsSince(T0));
  }
  HostSpeed HS;
  HS.sample();
  const std::int64_t CompiledBefore = St->Jit->stats().Compiled;
  const std::int64_t FailuresBefore = St->Jit->stats().Failures;

  const double Cells = static_cast<double>(St->Boxes.size()) * BoxSize *
                       BoxSize * BoxSize;
  const std::size_t MinSteps = samplesFor(0.9);
  LoopStats Timed;
  if (!A.Trace) {
    Timed = runSteps(*St, Threads, A.Seconds, MinSteps, A.FlipOne, HS,
                     nullptr);
  } else {
    // Untraced then traced steps in one process: the difference of their
    // mean step walls is the tracing overhead.
    Layers L;
    LoopStats Plain =
        runSteps(*St, Threads, A.Seconds / 3, 10, A.FlipOne, HS, nullptr);
    Timed = runSteps(*St, Threads, A.Seconds * 2 / 3, 10, false, HS, &L);
    const double Steps = static_cast<double>(Timed.StepSeconds.size());
    L.report(R, Steps);
    R.Metrics["bench.trace_overhead_s"] =
        mean(Timed.StepSeconds) - mean(Plain.StepSeconds);
    Timed.Failed += Plain.Failed;
    R.Attempted += static_cast<std::int64_t>(Plain.StepSeconds.size());
  }

  const std::int64_t JitCompiled = St->Jit->stats().Compiled - CompiledBefore;
  if (JitCompiled != 0)
    R.problem("the JIT compiled " + std::to_string(JitCompiled) +
              " kernels during timed steps");
  if (St->Jit->stats().Failures != FailuresBefore)
    R.problem("JIT requests failed during timed steps");

  R.Attempted += static_cast<std::int64_t>(Timed.StepSeconds.size());
  R.Failed = Timed.Failed;
  double Wall = 0;
  for (double S : Timed.StepSeconds)
    Wall += S;
  const double SetupS = percentile(SetupSeconds, 0.5);
  const double P50 = percentile(Timed.StepSeconds, 0.5);
  const double P90 = percentile(Timed.StepSeconds, 0.9);
  const double CellsPerS =
      Cells * static_cast<double>(Timed.StepSeconds.size()) / Wall;
  const double Speed = HS.speed();
  if (!A.Trace) {
    R.Metrics["setup_s"] = SetupS * Speed;
    R.Metrics["p50_s"] = P50 * Speed;
    R.Metrics["tail_s"] = P90 * Speed;
    R.Metrics["work_per_s"] = CellsPerS / Speed;
  }
  HS.record(R);
  R.Record["setup_s"] = SetupS;
  R.Record["step_p50_s"] = P50;
  R.Record["step_p90_s"] = P90;
  R.Record["cells_per_s"] = CellsPerS;
  R.Record["steps"] = static_cast<double>(Timed.StepSeconds.size());
  R.Record["jit_compiled_timed"] = static_cast<double>(JitCompiled);
  R.Record["feature.boxes"] = static_cast<double>(St->Boxes.size());
  R.Record["feature.box_cells"] = BoxSize * BoxSize * BoxSize;
  R.Record["feature.components"] = Comps;
  R.Record["feature.threads"] = Threads;
  R.Record["feature.plan_instrs"] = static_cast<double>(St->Plan.Instrs.size());
  R.Record["feature.plan_tasks"] = static_cast<double>(St->Plan.Tasks.size());
  R.Record["feature.modulo_widen"] = ModuloWiden;
  return R;
}

} // namespace perfbench
