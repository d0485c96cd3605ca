//===- perfbench/src/Common.cpp -------------------------------------------===//

#include "Common.h"

#include "exec/ThreadPool.h"
#include "runtime/Parallel.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>

using namespace lcdfg;

namespace perfbench {

double percentile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const double Rank = std::ceil(Q * static_cast<double>(Values.size()));
  const std::size_t Index =
      static_cast<std::size_t>(std::max(Rank, 1.0)) - 1;
  return Values[std::min(Index, Values.size() - 1)];
}

double mean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  return std::accumulate(Values.begin(), Values.end(), 0.0) /
         static_cast<double>(Values.size());
}

std::size_t samplesFor(double Q) {
  return static_cast<std::size_t>(std::ceil(10.0 / (1.0 - Q)));
}

std::uint64_t fnv1a(const void *Data, std::size_t Bytes, std::uint64_t H) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (std::size_t I = 0; I < Bytes; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

int poolThreads() {
  return exec::ThreadPool::effectiveThreads(rt::hardwareThreads());
}

namespace {
constexpr int ProbeFpSteps = 60000;
constexpr int ProbeChaseSteps = 60000;
constexpr std::uint32_t RingSize = 64 * 1024; // 256 KiB of indices
volatile double ProbeSink;
} // namespace

HostSpeed::HostSpeed() : Ring(RingSize), Last(Clock::now()) {
  // Sattolo's shuffle: one cycle through every slot, in an order the
  // prefetcher cannot follow.
  std::iota(Ring.begin(), Ring.end(), 0u);
  std::mt19937 Rng(12345);
  for (std::uint32_t I = RingSize - 1; I > 0; --I)
    std::swap(Ring[I], Ring[std::uniform_int_distribution<std::uint32_t>(
                           0, I - 1)(Rng)]);
}

void HostSpeed::sample(int Reps) {
  double Best = 0;
  for (int R = 0; R < Reps; ++R) {
    Clock::time_point T0 = Clock::now();
    double X = 1.0;
    for (int I = 0; I < ProbeFpSteps; ++I)
      X = X * 1.0000001 + 1e-9;
    std::uint32_t P = 0;
    for (int I = 0; I < ProbeChaseSteps; ++I)
      P = Ring[P];
    ProbeSink = X + P;
    const double T = secondsSince(T0);
    Best = R == 0 ? T : std::min(Best, T);
  }
  Samples.push_back(Best);
  Last = Clock::now();
}

void HostSpeed::sampleEvery() {
  if (secondsSince(Last) >= SampleInterval)
    sample();
}

double HostSpeed::speed() const {
  return ReferenceProbeSeconds / percentile(Samples, 0.5);
}

void HostSpeed::record(Result &R) const {
  R.Record["host.speed"] = speed();
  R.Record["host.probe_s"] = percentile(Samples, 0.5);
  R.Record["host.probes"] = static_cast<double>(Samples.size());
}

void Layers::addCounters(const obs::Trace &T) {
  static const std::pair<obs::Counter, const char *> Named[] = {
      {obs::Counter::BatchedSegments, "exec.segments.batched"},
      {obs::Counter::ModuloWraps, "exec.modulo.wraps"},
      {obs::Counter::BatchedInstrs, "exec.instrs.batched"},
      {obs::Counter::ScalarInstrs, "exec.instrs.scalar"},
      {obs::Counter::PointsExecuted, "exec.points"},
      {obs::Counter::BytesMoved, "exec.bytes.moved"},
      {obs::Counter::JitCompiled, "jit.compiled"},
      {obs::Counter::JitCacheHits, "jit.cache_hits"},
      {obs::Counter::JitFallbacks, "jit.fallbacks"},
      {obs::Counter::GhostCells, "rt.ghost.cells"},
  };
  for (const auto &[C, Name] : Named)
    add(Name, static_cast<double>(T.counter(C)));
}

void Layers::report(Result &R, double Ops) const {
  for (const auto &[Name, Sum] : Sums)
    R.Metrics[Name] = Ops > 0 ? Sum / Ops : 0.0;
}

} // namespace perfbench
