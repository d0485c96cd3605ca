//===- perfbench/src/ServeMix.cpp - Open-loop serve traffic ---------------===//
//
// The serve-mix workload: an in-process lcdfg-serve on a unix socket,
// driven open-loop by seeded Poisson arrivals over at most one connection
// per pool thread from this process. Most requests hit a working set of
// keys smaller than the plan cache; one in forty names a key never
// seen before and forces a compile, so cache reads (hits) run beside cache
// writes (miss compiles). Kernels are interpreted.
//
// Latency is timed from each request's due time, so a stall also charges
// the requests queued behind it. Load runs at two fixed offered rates, lo
// (well under capacity) and hi (near the knee), then climbs a fixed rate
// ladder for the highest rate whose p99 meets LatencyLimit without a
// growing backlog.
//
//===----------------------------------------------------------------------===//

#include "ChainGen.h"
#include "Common.h"

#include "exec/PlanRunner.h"
#include "serve/PlanCache.h"
#include "serve/Server.h"

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace lcdfg;
using serve::jsonField;

namespace perfbench {
namespace {

// Rates were chosen on a 4-core host where the knee (p99 rising, backlog
// starting) sits between 5000 and 9000 requests/s depending on how busy the
// machine is: lo is a tenth of the low end, hi half of it, so neither
// phase tips over the knee when the host slows down.
constexpr double LoRate = 500.0;     ///< requests/s
constexpr double HiRate = 2500.0;    ///< requests/s
constexpr double LatencyLimit = 0.05; ///< p99 limit of the rate ladder, s
constexpr double RungShare = 0.02;   ///< of --seconds, per ladder rung
constexpr int WorkingSet = 48;     ///< keys; the plan cache holds 64
/// One request in 40 is a new key. The p99 then sits near the middle of
/// the misses' latencies (1 in 100 of all requests is 2 in 5 of the
/// misses) rather than in their upper fifth, which a few preempted miss
/// compiles would move from run to run.
constexpr unsigned MissEvery = 40;
/// Every eighth hit asks for a checksum, and every 25th miss: a miss
/// key is new, so checking it costs a local compile.
constexpr unsigned ChecksumEvery = 8;
constexpr unsigned MissChecksumEvery = 25;
constexpr std::size_t MinRequests = 1000; ///< ten beyond p99

struct Key {
  std::string Chain, Script;
  std::int64_t Size = 8;
};

std::string requestLine(const Key &K, bool Checksum) {
  std::string L = "{" + jsonField("chain", std::string_view(K.Chain)) + "," +
                  jsonField("script", std::string_view(K.Script)) + "," +
                  jsonField("size", K.Size);
  if (Checksum)
    L += "," + jsonField("checksum", true);
  return L + "}";
}

/// A working-set or miss key: a uniform three-nest 2D chain, fully fused,
/// at a size that keeps one interpreted run well under a millisecond.
/// Uniform keys cost alike, so p50 and p99 measure queueing and caching
/// rather than which chain shapes a seed happened to draw.
Key drawKey(std::mt19937_64 &Rng, std::uint64_t Id) {
  ChainShape Shape;
  Shape.MinNests = Shape.MaxNests = 3;
  Shape.Uniform = true;
  ChainInput In = randomChainInput(Rng, Id, Shape);
  // Storage reduction is left out: the synthetic serve kernels accumulate
  // into their target, which a reduced (reused) buffer would make depend
  // on the schedule.
  return Key{In.Text, In.Script, 32};
}

/// A load-generator connection that never sleeps. It waits for due times
/// and replies by polling without blocking, yielding the CPU between polls.
/// A client that blocks lets its virtual CPU halt, and on a shared host
/// waking a halted virtual CPU takes tens of microseconds to milliseconds,
/// depending on the neighbours' load; that wake-up, not the server, then
/// sets a warm request's latency (its p50 read 76 to 1090 us across runs
/// of one binary). With every connection polling, every virtual CPU keeps
/// running, and the server's connection threads are woken onto a running
/// CPU by the guest's own scheduler.
class SpinClient {
public:
  explicit SpinClient(const std::string &Path)
      : Fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0)) {
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s", Path.c_str());
    if (Fd < 0 ||
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
      if (Fd >= 0)
        ::close(Fd);
      throw support::StatusError(support::Status::error(
          support::ErrorCode::PeerLost, "cannot connect to " + Path));
    }
  }
  SpinClient(SpinClient &&O) noexcept
      : Fd(std::exchange(O.Fd, -1)), Buf(std::move(O.Buf)) {}
  SpinClient(const SpinClient &) = delete;
  SpinClient &operator=(const SpinClient &) = delete;
  ~SpinClient() {
    if (Fd >= 0)
      ::close(Fd);
  }

  /// Sends \p Line and polls until the reply line arrives. False when the
  /// connection fails or no reply comes within ReplyTimeout.
  bool request(const std::string &Line, std::string &Reply) {
    const std::string Out = Line + "\n";
    for (std::size_t Sent = 0; Sent < Out.size();) {
      const ssize_t N =
          ::send(Fd, Out.data() + Sent, Out.size() - Sent, MSG_NOSIGNAL);
      if (N < 0 && errno != EINTR)
        return false;
      Sent += N > 0 ? static_cast<std::size_t>(N) : 0;
    }
    const Clock::time_point Deadline = Clock::now() + ReplyTimeout;
    for (;;) {
      const std::size_t End = Buf.find('\n');
      if (End != std::string::npos) {
        Reply = Buf.substr(0, End);
        Buf.erase(0, End + 1);
        return true;
      }
      char Chunk[4096];
      const ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), MSG_DONTWAIT);
      if (N > 0) {
        Buf.append(Chunk, static_cast<std::size_t>(N));
        continue;
      }
      if (N == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) ||
          Clock::now() > Deadline)
        return false;
      ::sched_yield();
    }
  }

private:
  static constexpr std::chrono::seconds ReplyTimeout{60};
  int Fd;
  std::string Buf; ///< Bytes read past the last returned line.
};

struct Request {
  double Due = 0;   ///< seconds after the phase start
  int KeyIndex = 0; ///< into the key table
  bool Checksum = false;
};

struct Reply {
  double Latency = 0, Late = 0;
  double Wait = 0, Compile = 0, Run = 0;
  bool Ok = false, Hit = false;
  std::string Fnv;
};

struct PhaseStats {
  std::vector<Reply> Replies;
  double Elapsed = 0; ///< Phase start to the last reply.
  double LastDue = 0; ///< When the last request was due.
  std::vector<double> latencies() const {
    std::vector<double> V;
    for (const Reply &R : Replies)
      V.push_back(R.Latency);
    return V;
  }
};

class Traffic {
public:
  Traffic(const Args &A, std::uint64_t Seed) : A(A), Rng(Seed) {
    for (int I = 0; I < WorkingSet; ++I)
      Keys.push_back(drawKey(Rng, NextId++));
  }

  /// Starts a fresh server and warms it: one compile and one hit per
  /// working-set key.
  void setUp(Result &R) {
    Clients.clear();
    if (Srv)
      Srv->stop();
    serve::ServerOptions SO;
    SO.UnixPath = A.WorkDir + "/serve.sock";
    Srv = std::make_unique<serve::Server>(SO);
    if (support::Status S = Srv->start(); !S)
      throw support::StatusError(S);
    for (int C = 0; C < poolThreads(); ++C)
      Clients.emplace_back(SO.UnixPath);
    for (int Pass = 0; Pass < 2; ++Pass)
      for (int I = 0; I < WorkingSet; ++I) {
        std::string Reply;
        support::Expected<serve::JsonValue> Resp =
            Clients[0].request(requestLine(Keys[I], false), Reply)
                ? serve::parseJson(Reply)
                : support::Expected<serve::JsonValue>(support::Status::error(
                      support::ErrorCode::PeerLost, "no reply"));
        if (!Resp || !Resp->find("ok") || !Resp->find("ok")->asBool())
          R.problem("warm-up request for key " + std::to_string(I) + " failed");
      }
  }

  /// A Poisson schedule at \p Rate for \p Seconds (at least MinRequests).
  std::vector<Request> schedule(double Rate, double Seconds) {
    std::exponential_distribution<double> Gap(Rate);
    std::uniform_int_distribution<int> Pick(0, WorkingSet - 1);
    const std::size_t Count = std::max<std::size_t>(
        MinRequests, static_cast<std::size_t>(Rate * Seconds));
    std::vector<Request> Plan;
    double T = 0;
    for (std::size_t I = 0; I < Count; ++I) {
      T += Gap(Rng);
      Request Q;
      Q.Due = T;
      if (++Counter % MissEvery == 0) {
        Q.KeyIndex = static_cast<int>(Keys.size());
        Keys.push_back(drawKey(Rng, NextId++));
        Q.Checksum = Counter / MissEvery % MissChecksumEvery == 0;
      } else {
        Q.KeyIndex = Pick(Rng);
        Q.Checksum = Counter % ChecksumEvery == 0;
      }
      Plan.push_back(Q);
    }
    return Plan;
  }

  /// Plays \p Plan against the server: each connection claims the next
  /// due request, polls until it is due, sends it and polls for the reply.
  PhaseStats play(const std::vector<Request> &Plan) {
    PhaseStats PS;
    PS.Replies.resize(Plan.size());
    std::atomic<std::size_t> Next{0};
    const Clock::time_point Start = Clock::now() + std::chrono::milliseconds(5);
    auto Worker = [&](SpinClient &Cl) {
      for (std::size_t I; (I = Next.fetch_add(1)) < Plan.size();) {
        const std::string Line =
            requestLine(Keys[Plan[I].KeyIndex], Plan[I].Checksum);
        const Clock::time_point Due =
            Start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(Plan[I].Due));
        while (Clock::now() < Due)
          ::sched_yield();
        Reply &Rp = PS.Replies[I];
        Rp.Late = std::chrono::duration<double>(Clock::now() - Due).count();
        std::string Got;
        const bool Answered = Cl.request(Line, Got);
        Rp.Latency = std::chrono::duration<double>(Clock::now() - Due).count();
        if (!Answered)
          continue;
        support::Expected<serve::JsonValue> Resp = serve::parseJson(Got);
        if (!Resp)
          continue;
        const serve::JsonValue *Ok = Resp->find("ok");
        Rp.Ok = Ok && Ok->asBool();
        if (const serve::JsonValue *C = Resp->find("cache"))
          Rp.Hit = C->asString() == "hit";
        if (const serve::JsonValue *M = Resp->find("metrics")) {
          if (const serve::JsonValue *V = M->find("wait_seconds"))
            Rp.Wait = V->asDouble();
          if (const serve::JsonValue *V = M->find("compile_seconds"))
            Rp.Compile = V->asDouble();
          if (const serve::JsonValue *V = M->find("seconds"))
            Rp.Run = V->asDouble();
        }
        if (const serve::JsonValue *F = Resp->find("result_fnv"))
          Rp.Fnv = F->asString();
      }
    };
    std::vector<std::thread> Threads;
    for (SpinClient &Cl : Clients)
      Threads.emplace_back(Worker, std::ref(Cl));
    for (std::thread &T : Threads)
      T.join();
    PS.Elapsed = secondsSince(Start);
    PS.LastDue = Plan.empty() ? 0.0 : Plan.back().Due;
    return PS;
  }

  /// Checks one phase's replies: every request must succeed, and every
  /// checksum must match a local scalar-serial run of the same plan.
  /// Returns the failed count.
  std::int64_t check(const std::vector<Request> &Plan, const PhaseStats &PS,
                     bool FlipOne, Result &R) {
    std::int64_t Failed = 0;
    bool Flipped = false;
    for (std::size_t I = 0; I < Plan.size(); ++I) {
      const Reply &Rp = PS.Replies[I];
      bool Good = Rp.Ok;
      if (Good && Plan[I].Checksum) {
        std::string Want = expectedFnv(Plan[I].KeyIndex);
        if (FlipOne && !Flipped) {
          Want[0] = Want[0] == '0' ? '1' : '0';
          Flipped = true;
        }
        Good = Rp.Fnv == Want;
      }
      if (!Good) {
        ++Failed;
        if (R.Problems.size() < 20)
          R.Problems.push_back("request " + std::to_string(I) + " (key " +
                               std::to_string(Plan[I].KeyIndex) + ") " +
                               (Rp.Ok ? "checksum mismatch" : "failed"));
      }
    }
    return Failed;
  }

  serve::ServerStats stats() const { return Srv->stats(); }

  ~Traffic() {
    Clients.clear();
    if (Srv)
      Srv->stop();
  }

private:
  /// FNV over the persistent spaces after a scalar-serial interpreted run,
  /// as the server computes result_fnv.
  std::string expectedFnv(int KeyIndex) {
    auto It = Expected.find(KeyIndex);
    if (It != Expected.end())
      return It->second;
    serve::RequestSpec Spec;
    Spec.Chain = Keys[KeyIndex].Chain;
    Spec.Script = Keys[KeyIndex].Script;
    Spec.Size = Keys[KeyIndex].Size;
    std::string Hex = "compile-failed";
    if (auto CP = serve::PlanCache::compile(Spec)) {
      const serve::CompiledPlan &P = **CP;
      storage::ConcreteStorage Store(P.SPlan, P.Env);
      P.seedStore(Store);
      exec::RunOptions Serial;
      Serial.Batched = false;
      exec::runPlan(P.Plan, P.Kernels, Store, Serial);
      std::uint64_t H = 0xcbf29ce484222325ull;
      for (std::size_t S = 0; S < P.Plan.NumSpaces; ++S)
        if (P.Plan.SpacePersistent[S])
          H = fnv1a(Store.space(S).data(),
                    Store.space(S).size() * sizeof(double), H);
      char Buf[19];
      std::snprintf(Buf, sizeof(Buf), "%016llx",
                    static_cast<unsigned long long>(H));
      Hex = Buf;
    }
    return Expected[KeyIndex] = Hex;
  }

  const Args &A;
  std::mt19937_64 Rng;
  std::uint64_t NextId = 0;
  std::uint64_t Counter = 0;
  std::vector<Key> Keys;
  std::map<int, std::string> Expected;
  std::unique_ptr<serve::Server> Srv;
  std::vector<SpinClient> Clients;
};

/// True when every request of the phase succeeded, its p99 met the
/// latency limit and no backlog built up: the last reply arrived within
/// the limit of when the last request was due.
bool meetsLimit(const PhaseStats &PS) {
  for (const Reply &R : PS.Replies)
    if (!R.Ok)
      return false;
  return percentile(PS.latencies(), 0.99) <= LatencyLimit &&
         PS.Elapsed <= PS.LastDue + LatencyLimit;
}

} // namespace

Result runServeMix(const Args &A) {
  Result R;
  Traffic Tr(A, A.Seed);
  std::vector<double> SetupSeconds;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    Clock::time_point T0 = Rep == 0 ? A.ProcessStart : Clock::now();
    Tr.setUp(R);
    SetupSeconds.push_back(secondsSince(T0));
  }

  std::int64_t Attempted = 0, Failed = 0;
  bool Flip = A.FlipOne;
  // Phases run back to back; their replies are checked after the last one,
  // so the local reference compiles never open a gap in the traffic.
  std::vector<std::pair<std::vector<Request>, PhaseStats>> Played;
  // The host is probed between phases, while the connections are idle, so
  // the probe neither competes with the traffic nor delays a request.
  HostSpeed HS;
  auto Run = [&](double Rate, double Seconds) {
    HS.sample(20);
    std::vector<Request> Plan = Tr.schedule(Rate, Seconds);
    PhaseStats PS = Tr.play(Plan);
    Played.emplace_back(std::move(Plan), PS);
    return PS;
  };

  const serve::ServerStats Before = Tr.stats();
  if (!A.Trace) {
    const PhaseStats Lo = Run(LoRate, A.Seconds * 0.3);
    const PhaseStats Hi = Run(HiRate, A.Seconds * 0.5);
    // The ladder: rates HiRate * 2^(k/16). A coarse pass over every fourth
    // rung finds the bracket, then the fine rungs inside it are tried.
    const double RungSeconds = A.Seconds * RungShare;
    double Best = 0;
    // A rung that misses is tried once more, so one host hiccup does not
    // end the climb.
    auto Try = [&](int K) {
      const double Rate = HiRate * std::exp2(K / 16.0);
      for (int Attempt = 0; Attempt < 2; ++Attempt) {
        const PhaseStats Rung = Run(Rate, RungSeconds);
        const bool Meets = meetsLimit(Rung);
        std::fprintf(stderr,
                     "perfbench: serve-mix rung %.0f/s: p99 %.4f s, %s\n",
                     Rate, percentile(Rung.latencies(), 0.99),
                     Meets ? "meets the limit" : "misses the limit");
        if (Meets) {
          Best = static_cast<double>(Rung.Replies.size()) / Rung.Elapsed;
          return true;
        }
      }
      return false;
    };
    int Pass = 0;
    if (meetsLimit(Hi)) {
      Best = static_cast<double>(Hi.Replies.size()) / Hi.Elapsed;
    } else {
      for (Pass = -4; Pass > -64 && !Try(Pass); Pass -= 4) {
      }
    }
    while (Pass < 64 && Try(Pass + 4))
      Pass += 4;
    for (int K = Pass + 1; K < Pass + 4 && Try(K); ++K) {
    }
    const std::vector<double> LoLat = Lo.latencies(), HiLat = Hi.latencies();
    double Good = 0;
    for (const Reply &Rp : Hi.Replies)
      Good += Rp.Ok;
    R.Record["lo.latency_p50_s"] = percentile(LoLat, 0.5);
    R.Record["lo.latency_p99_s"] = percentile(LoLat, 0.99);
    R.Record["hi.latency_p50_s"] = percentile(HiLat, 0.5);
    R.Record["hi.latency_p99_s"] = percentile(HiLat, 0.99);
    R.Record["hi.goodput_per_s"] = Good / Hi.Elapsed;
    // Goodput at a fixed offered rate is not scaled: it only drops when
    // the server falls behind, and host speed does not change the rate.
    R.Metrics["p50_s"] = R.Record["hi.latency_p50_s"] * HS.speed();
    R.Metrics["tail_s"] = R.Record["hi.latency_p99_s"] * HS.speed();
    R.Metrics["work_per_s"] = R.Record["hi.goodput_per_s"];
    R.Record["max_rps"] = Best;
  } else {
    Layers L;
    const PhaseStats Plain = Run(LoRate, A.Seconds / 3);
    obs::Tracer &T = obs::Tracer::global();
    T.enable(1 << 14);
    const serve::ServerStats S0 = Tr.stats();
    const PhaseStats Lo = Run(LoRate, A.Seconds / 3);
    const PhaseStats Hi = Run(HiRate, A.Seconds / 3);
    const serve::ServerStats S1 = Tr.stats();
    L.addCounters(T.drain());
    T.disable();
    double Hits = 0, N = 0;
    for (const PhaseStats *P : {&Lo, &Hi})
      for (const Reply &Rp : P->Replies) {
        L.add("bench.op_wall_s", Rp.Latency);
        L.add("serve.wait_s", Rp.Wait);
        L.add("serve.compile_s", Rp.Compile);
        L.add("serve.run_s", Rp.Run);
        L.add("serve.overhead_s", Rp.Latency - Rp.Wait - Rp.Compile - Rp.Run);
        Hits += Rp.Hit;
        N += 1;
      }
    L.report(R, N);
    R.Metrics["serve.hit_rate"] = Hits / N;
    R.Metrics["serve.evictions"] =
        static_cast<double>(S1.Evictions - S0.Evictions);
    R.Metrics["serve.rejected"] =
        static_cast<double>(S1.Rejected - S0.Rejected);
    std::vector<double> Late;
    for (const Reply &Rp : Hi.Replies)
      Late.push_back(Rp.Late);
    R.Metrics["gen.late_p99_s"] = percentile(Late, 0.99);
    R.Metrics["serve.lo.p50_s"] = percentile(Lo.latencies(), 0.5);
    R.Metrics["serve.lo.p99_s"] = percentile(Lo.latencies(), 0.99);
    R.Metrics["bench.trace_overhead_s"] =
        mean(Lo.latencies()) - mean(Plain.latencies());
  }
  const serve::ServerStats After = Tr.stats();
  for (const auto &[Plan, PS] : Played) {
    Attempted += static_cast<std::int64_t>(Plan.size());
    Failed += Tr.check(Plan, PS, Flip, R);
    Flip = false;
  }
  R.Attempted = Attempted;
  R.Failed = Failed;
  const double SetupS = percentile(SetupSeconds, 0.5);
  if (!A.Trace)
    R.Metrics["setup_s"] = SetupS * HS.speed();
  R.Record["setup_s"] = SetupS;
  HS.record(R);
  R.Record["requests"] = static_cast<double>(Attempted);
  R.Record["hit_rate"] =
      static_cast<double>(After.Hits - Before.Hits) /
      static_cast<double>(std::max<std::int64_t>(
          1, After.Hits + After.Misses - Before.Hits - Before.Misses));
  R.Record["feature.working_set"] = WorkingSet;
  R.Record["feature.miss_every"] = MissEvery;
  R.Record["feature.connections"] = poolThreads();
  R.Record["feature.lo_rate"] = LoRate;
  R.Record["feature.hi_rate"] = HiRate;
  R.Record["feature.latency_limit_s"] = LatencyLimit;
  return R;
}

} // namespace perfbench
