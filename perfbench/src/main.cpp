//===- perfbench/src/main.cpp - Benchmark driver entry point --------------===//
//
// perfbench-driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--workdir <dir>] [--flip-one]
//
// Runs one workload against the library and prints one JSON line on
// stdout: the correctness tallies, the measured metrics, the flat record
// and the host fingerprint. perfbench/run.py builds this program, runs it
// and turns that line into the benchmark's result line. Exit status: 0 when
// every output check passed, 1 when a check failed, 2 on bad usage.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "jit/JitEngine.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

using namespace perfbench;
using namespace lcdfg;

namespace {

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonObject(const std::map<std::string, double> &M) {
  std::string Out = "{";
  for (const auto &[K, V] : M) {
    if (Out.size() > 1)
      Out += ",";
    Out += jsonString(K) + ":" + jsonNumber(V);
  }
  return Out + "}";
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      std::size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        return Line.substr(Line.find_first_not_of(' ', Colon + 1));
    }
  return "unknown";
}

/// Cumulative (steal, total) jiffies over all CPUs, from /proc/stat.
std::pair<double, double> cpuJiffies() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  double Steal = 0, Total = 0, V = 0;
  In >> Cpu;
  for (int Field = 0; Field < 8 && In >> V; ++Field) {
    Total += V;
    if (Field == 7)
      Steal = V;
  }
  return {Steal, Total};
}

/// The host fields two runs must share before their numbers compare.
std::string hostFingerprint(const Args &A) {
  jit::EngineOptions EO = jit::EngineOptions::fromEnvironment();
  EO.CacheDir = A.WorkDir + "/jit-probe";
  jit::Engine Probe(EO);
  const bool Jit = Probe.available();
  std::string Out = "{";
  Out += "\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  Out += ",\"pool_threads\":" + std::to_string(poolThreads());
  Out += ",\"cpu\":" + jsonString(cpuModel());
  Out += ",\"compiler\":" + jsonString(std::string("gcc ") + __VERSION__);
  Out += ",\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE);
  Out += ",\"cxx_flags\":" + jsonString(PERFBENCH_CXX_FLAGS);
  Out += ",\"jit_available\":" + std::string(Jit ? "true" : "false");
  Out += ",\"jit_compiler\":" + jsonString(Probe.compilerVersion());
  return Out + "}";
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench-driver: %s\nusage: perfbench-driver --workload "
               "<mfd-steps|chain-compile|serve-mix> --seed <n> --seconds <s> "
               "--trace <0|1> [--workdir <dir>] [--flip-one]\n",
               Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  A.ProcessStart = Clock::now();
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (Arg == "--flip-one") {
      A.FlipOne = true;
      continue;
    }
    if (!(V = Value()))
      return usage(("missing value for " + Arg).c_str());
    if (Arg == "--workload")
      A.Workload = V;
    else if (Arg == "--seed")
      A.Seed = std::strtoull(V, nullptr, 10);
    else if (Arg == "--seconds")
      A.Seconds = std::strtod(V, nullptr);
    else if (Arg == "--trace")
      A.Trace = std::string(V) == "1";
    else if (Arg == "--workdir")
      A.WorkDir = V;
    else
      return usage(("unknown argument " + Arg).c_str());
  }
  if (!(A.Seconds > 0.0))
    return usage("--seconds must be positive");

  Result (*Run)(const Args &) = nullptr;
  if (A.Workload == "mfd-steps")
    Run = runMfdSteps;
  else if (A.Workload == "chain-compile")
    Run = runChainCompile;
  else if (A.Workload == "serve-mix")
    Run = runServeMix;
  else
    return usage(("unknown workload '" + A.Workload + "'").c_str());

  const std::string Host = hostFingerprint(A);
  const auto [Steal0, Total0] = cpuJiffies();
  Result R = Run(A);
  const auto [Steal1, Total1] = cpuJiffies();
  // How much of the run the hypervisor gave the virtual CPUs to other
  // guests: the first thing to look at when a run reads slow.
  if (Total1 > Total0)
    R.Record["host.steal_share"] = (Steal1 - Steal0) / (Total1 - Total0);
  for (const std::string &P : R.Problems)
    std::fprintf(stderr, "perfbench: %s: %s\n", A.Workload.c_str(),
                 P.c_str());

  std::string Out = "{\"correct\":" + std::string(R.Correct ? "true" : "false");
  Out += ",\"attempted\":" + std::to_string(R.Attempted);
  Out += ",\"failed\":" + std::to_string(R.Failed);
  Out += ",\"metrics\":" + jsonObject(R.Metrics);
  Out += ",\"record\":" + jsonObject(R.Record);
  Out += ",\"host\":" + Host + "}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
  return R.Correct && R.Failed == 0 ? 0 : 1;
}
