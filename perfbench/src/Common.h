//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Command-line arguments, the result every workload fills in, percentile
// helpers and the FNV checksum the output checks compare.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "obs/Trace.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

struct Args {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Self-test: corrupt one output value of one checked operation; the
  /// output checks must count it as a failure.
  bool FlipOne = false;
  /// Private scratch directory for this run (JIT objects, the socket).
  std::string WorkDir = ".";
  /// Process start, where the first set-up's clock begins.
  Clock::time_point ProcessStart;
};

/// One run's outcome. Metrics holds the end-to-end values of an untraced
/// run and the per-layer values of a traced one; Record holds the flat
/// LOOPerSet-style row (input features and phases under the workload's own
/// metric names) printed beside the result.
struct Result {
  bool Correct = true;
  std::int64_t Attempted = 0;
  std::int64_t Failed = 0;
  std::map<std::string, double> Metrics;
  std::map<std::string, double> Record;
  /// Failed operations and reasons the run is not correct, one line each
  /// (printed to stderr).
  std::vector<std::string> Problems;

  /// Marks the run as not correct (as opposed to one failed operation).
  void problem(std::string Why) {
    Correct = false;
    Problems.push_back(std::move(Why));
  }
};

/// Nearest-rank percentile (Q in (0, 1]) of \p Values; 0 when empty.
double percentile(std::vector<double> Values, double Q);
double mean(const std::vector<double> &Values);

/// Fewest samples for which percentile \p Q has ten samples beyond it.
std::size_t samplesFor(double Q);

/// FNV-1a-64 over raw bytes, chained from \p H.
std::uint64_t fnv1a(const void *Data, std::size_t Bytes,
                    std::uint64_t H = 0xcbf29ce484222325ull);

/// Participants of the program's own pool for one parallel region.
int poolThreads();

/// Set-up is repeated this many times per run and reported as the median,
/// so one slow host-compiler call or page-cache miss does not set it.
/// mfd-steps repeats only MfdSetupRepeats times: each of its set-ups is a
/// cold host-compiler run of several seconds.
inline constexpr int SetupRepeats = 5;
inline constexpr int MfdSetupRepeats = 3;

/// How fast the host runs right now, measured by a probe kernel of the
/// benchmark's own: a dependent floating-point chain (core clock) and a
/// pointer chase through a 256 KiB ring (cache latency). It calls no code
/// of the program under test, so no change to the program can move it.
///
/// The shared host this benchmark was sized on switches for minutes at a
/// time between full speed and about half of it, with little steal time
/// reported: the clock drops, and everything, the probe included, runs
/// uniformly slower. The end-to-end times are therefore reported at
/// reference speed: raw time * speed(), where speed() is 1 when the probe
/// takes ReferenceProbeSeconds. The raw times stay in the record line.
class HostSpeed {
public:
  HostSpeed();
  /// Runs the probe \p Reps times and keeps the fastest run, so an
  /// interrupt or a preemption does not count as a slow host.
  void sample(int Reps = 5);
  /// Samples when SampleInterval has passed since the last sample.
  void sampleEvery();
  /// ReferenceProbeSeconds over the median probe time of this run.
  double speed() const;
  /// Adds host.speed and host.probe_s to \p R's record line.
  void record(Result &R) const;

  /// About the probe's time at full speed on the reference host (4-vCPU
  /// Intel Xeon, GCC 12.2, -O3). It only sets the scale: at this value the
  /// reported times read as that host's full-speed times.
  static constexpr double ReferenceProbeSeconds = 0.00034;
  static constexpr double SampleInterval = 0.25;

private:
  std::vector<std::uint32_t> Ring;
  std::vector<double> Samples;
  Clock::time_point Last;
};

/// Named per-layer sums of a traced run; reported per operation.
class Layers {
public:
  void add(const std::string &Name, double V) { Sums[Name] += V; }
  /// Adds the obs counters the per-layer table names from \p T.
  void addCounters(const lcdfg::obs::Trace &T);
  /// Writes every sum divided by \p Ops into \p R's metrics.
  void report(Result &R, double Ops) const;

private:
  std::map<std::string, double> Sums;
};

Result runMfdSteps(const Args &A);
Result runChainCompile(const Args &A);
Result runServeMix(const Args &A);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
