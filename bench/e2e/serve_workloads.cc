// The two serving workloads: a loopback RpcServer over a ServingRuntime
// (2 workers, 256-entry response memo, coalescing on) on a 10k-node
// Barabási–Albert graph (m = 4), driven from this process by at most 4
// load threads and 4 connections. Forward push, p = 0.5, epsilon 1e-5,
// 250 ms deadline.
//
//   serve_zipf_full     Zipf(s=1.3) seeds over node ids (a BA graph's low
//                       ids are its hubs), full ~80 KB score vectors at
//                       300 req/s. Most replies are memo hits or coalesced
//                       joins, so p50 is the front door; p90 is a cold
//                       push and the queue behind it.
//   serve_uniform_topk  uniform seeds, top_k = 10 (bounded push), ~200 B
//                       replies at 80 req/s. Nearly every request misses
//                       the memo and runs a real solve: the bypass twin of
//                       the first.
//
// A run is five rounds, each on its own graph and request streams drawn
// from --seed and its own freshly started server: set-up (five times,
// keeping the last), a closed-loop warmup (fills the memo with the Zipf
// head; without it the tail swings by several times between runs), the
// measured open loop (latency from each request's due time) and one
// closed-loop repetition over 4 connections (throughput). Each metric is
// the median over the rounds, so one server whose threads the scheduler
// happened to place badly, or one slow stretch of the host, moves no
// metric. The measured phases split --seconds evenly over the rounds.
//
// The load generator has a CPU of its own, as a remote client would:
// the server's threads run on the others.

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "common/rng.h"
#include "common.h"
#include "datagen/classic_generators.h"
#include "datagen/distributions.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "serve/serving_runtime.h"
#include "trace.h"

namespace d2pr::e2e {
namespace {

constexpr int32_t kEdgesPerNode = 4;
constexpr size_t kWorkers = 2;
constexpr size_t kMemoEntries = 256;
constexpr uint64_t kDeadlineMs = 250;
constexpr size_t kWarmupConnections = 2;
constexpr size_t kOpenConnections = 2;
constexpr size_t kClosedConnections = 4;
constexpr int kRounds = 5;
constexpr int kSetupsPerRound = 5;
/// Share of a round's measured time in the open loop; the closed loop
/// has the rest.
constexpr double kOpenShare = 0.7;
/// Served replies compared with an in-process engine, per round.
constexpr size_t kSpotChecks = 8;
/// How long after the last due time a reply may still arrive.
constexpr int64_t kGraceNs = 2'000'000'000;

struct ServeSpec {
  NodeId nodes;
  bool zipf;    ///< Zipf seeds over node ids; uniform otherwise.
  int top_k;    ///< 0 = full score vector.
  double rate;  ///< Open-loop requests per second.
  size_t warmup_requests;
};

RankRequest RequestFor(const ServeSpec& spec, NodeId seed) {
  RankRequest request;
  request.p = 0.5;
  request.method = SolverMethod::kForwardPush;
  request.push_epsilon = 1e-5;
  request.top_k = spec.top_k;
  request.seeds = {seed};
  return request;
}

/// The seed nodes one load stream asks about.
class SeedStream {
 public:
  SeedStream(const ServeSpec& spec, uint64_t seed)
      : spec_(spec), zipf_(spec.zipf ? spec.nodes : 1, 1.3), rng_(seed) {}

  NodeId Next() {
    if (spec_.zipf) return static_cast<NodeId>(zipf_.Sample(&rng_) - 1);
    return static_cast<NodeId>(rng_.Below(static_cast<uint64_t>(spec_.nodes)));
  }

 private:
  const ServeSpec& spec_;
  ZipfSampler zipf_;
  Rng rng_;
};

/// The reply shape a request of `spec` must get.
bool WellFormed(const ServeSpec& spec, const RankResponse& response) {
  if (!response.converged) return false;
  if (spec.top_k == 0) {
    return !response.truncated &&
           response.scores.size() == static_cast<size_t>(spec.nodes);
  }
  return response.truncated && response.scores.empty() &&
         response.top.size() ==
             std::min<size_t>(spec.top_k, static_cast<size_t>(spec.nodes));
}

/// RankBackend decorator: times each backend call from submission to the
/// worker's gate (queue wait), gate to completion callback (execute:
/// memo lookup plus solve), and the server's completion callback itself
/// (deliver: encode plus enqueue on the connection).
class TracingBackend : public RankBackend {
 public:
  explicit TracingBackend(std::unique_ptr<RankBackend> inner)
      : inner_(std::move(inner)) {}

  void RankAsync(RankRequest request,
                 std::function<void(Result<RankResponse>)> done,
                 std::function<Status()> gate) override {
    const uint64_t id = GlobalTracer().NewId();
    // Gate and completion run in turn on the same pool worker.
    auto gate_ns = std::make_shared<int64_t>(0);
    const int64_t submit_ns = NowNs();
    inner_->RankAsync(
        std::move(request),
        [id, submit_ns, gate_ns,
         done = std::move(done)](Result<RankResponse> result) {
          const int64_t start_ns = NowNs();
          done(std::move(result));
          const int64_t end_ns = NowNs();
          const uint32_t tid = ThreadTag();
          Tracer& tracer = GlobalTracer();
          tracer.Record({"RankBackend::RankAsync", "serve", submit_ns, end_ns,
                         id, 0, tid, 0});
          tracer.Record({"serve.queue_wait", "serve", submit_ns, *gate_ns, 0,
                         id, tid, 0});
          tracer.Record({"serve.execute", "serve", *gate_ns, start_ns, 0, id,
                         tid, 0});
          tracer.Record({"net.deliver", "net", start_ns, end_ns, 0, id, tid,
                         0});
        },
        [gate_ns, gate = std::move(gate)]() -> Status {
          *gate_ns = NowNs();
          return gate ? gate() : Status::OK();
        });
  }

  int64_t queue_depth() override { return inner_->queue_depth(); }
  ServerInfo info() override { return inner_->info(); }

 private:
  std::unique_ptr<RankBackend> inner_;
};

/// Everything the server side of a serve workload owns. Members are
/// destroyed bottom-up: the server stops before its backend goes away.
struct ServerStack {
  std::shared_ptr<const CsrGraph> graph;
  std::shared_ptr<D2prEngine> engine;
  std::unique_ptr<ServingRuntime> runtime;
  std::unique_ptr<RankBackend> backend;
  std::unique_ptr<RpcServer> server;
};

/// Generates the graph, stands the server up and waits for the reply to
/// a first request — one set-up, as setup_s times it. The first request
/// asks about node 0, in a BA graph always one of the founding hubs, so
/// every seed's set-up pays a comparable cold build and push.
std::unique_ptr<ServerStack> StartServer(const ServeSpec& spec,
                                         uint64_t graph_seed, Report* result) {
  auto stack = std::make_unique<ServerStack>();
  Rng rng(graph_seed);
  auto graph = BarabasiAlbert(spec.nodes, kEdgesPerNode, &rng);
  result->Check(graph.ok(), "graph generation: " + graph.status().ToString());
  if (!graph.ok()) return nullptr;
  stack->graph = std::make_shared<const CsrGraph>(std::move(graph).value());
  stack->engine = std::make_shared<D2prEngine>(stack->graph);
  ServingOptions serving;
  serving.num_threads = kWorkers;
  serving.score_cache_capacity = kMemoEntries;
  stack->runtime = std::make_unique<ServingRuntime>(stack->engine, serving);
  stack->backend = MakeBackend(*stack->runtime);
  if constexpr (kTraced) {
    stack->backend =
        std::make_unique<TracingBackend>(std::move(stack->backend));
  }
  ServerOptions server_options;
  server_options.coalesce = true;
  stack->server = std::make_unique<RpcServer>(*stack->backend, server_options);
  const Status started = stack->server->Start();
  result->Check(started.ok(), "server start: " + started.ToString());
  if (!started.ok()) return nullptr;

  auto client = RpcClient::Connect("127.0.0.1", stack->server->port());
  result->Check(client.ok(), "connect: " + client.status().ToString());
  if (!client.ok()) return nullptr;
  auto first = client->Rank(RequestFor(spec, 0), kDeadlineMs);
  result->Check(first.ok() && WellFormed(spec, *first),
                "first request: " + first.status().ToString());
  return stack;
}

/// Keeps the first kSpotChecks distinct seeds' replies for comparison
/// against an in-process engine after the round.
class SpotChecker {
 public:
  void Offer(NodeId seed, const RankResponse& response) {
    if (replies_.size() < kSpotChecks) replies_.emplace(seed, response);
  }

  /// Bitwise comparison of payload and solver counts with a fresh
  /// engine's answer to the same request.
  void Verify(const ServeSpec& spec, D2prEngine& reference, Report* result) {
    for (const auto& [seed, served] : replies_) {
      auto want = reference.Rank(RequestFor(spec, seed));
      const bool same =
          want.ok() && want->pushes == served.pushes &&
          want->converged == served.converged &&
          want->scores.size() == served.scores.size() &&
          (served.scores.empty() ||  // an empty vector's data() may be null
           std::memcmp(want->scores.data(), served.scores.data(),
                       served.scores.size() * sizeof(double)) == 0) &&
          want->top.size() == served.top.size() &&
          std::memcmp(&want->uncertainty_gap, &served.uncertainty_gap,
                      sizeof(double)) == 0 &&
          std::equal(want->top.begin(), want->top.end(), served.top.begin(),
                     [](const RankedEntry& a, const RankedEntry& b) {
                       return a.node == b.node && a.certified == b.certified &&
                              std::memcmp(&a.score, &b.score,
                                          sizeof(double)) == 0;
                     });
      result->Check(same, "spot check: served reply for seed " +
                              std::to_string(seed) +
                              " differs from in-process D2prEngine::Rank");
    }
  }

  size_t size() const { return replies_.size(); }

 private:
  std::map<NodeId, RankResponse> replies_;
};

enum class Outcome : uint8_t { kPending, kOk, kError, kMalformed };

struct OpenSample {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  int64_t reply_bytes = 0;
  int64_t pushes = 0;
  int64_t entries = 0;
  int64_t certified = 0;
  bool sent = false;
  Outcome outcome = Outcome::kPending;
};

struct OpenLoopRun {
  std::vector<OpenSample> samples;
  int64_t start_ns = 0;
  int64_t end_ns = 0;  ///< Last reply or end of grace.

  int64_t ok() const {
    return std::count_if(samples.begin(), samples.end(),
                         [](const OpenSample& s) {
                           return s.outcome == Outcome::kOk;
                         });
  }
  int64_t sent() const {
    return std::count_if(samples.begin(), samples.end(),
                         [](const OpenSample& s) { return s.sent; });
  }
  /// Requests that got any reply frame (OK, error status or malformed).
  int64_t replied() const {
    return std::count_if(samples.begin(), samples.end(),
                         [](const OpenSample& s) {
                           return s.outcome != Outcome::kPending;
                         });
  }
  /// Latency from due time; a request without an OK reply counts as
  /// missing every limit (+inf).
  std::vector<double> LatenciesMs() const {
    std::vector<double> out;
    for (const OpenSample& s : samples) {
      out.push_back(s.outcome == Outcome::kOk
                        ? NsToMs(s.done_ns - s.due_ns)
                        : std::numeric_limits<double>::infinity());
    }
    return out;
  }
};

/// The receive side of one open-loop connection: bytes read and not yet
/// consumed as whole frames.
struct Inbound {
  std::vector<uint8_t> buffer;
  size_t filled = 0;
  bool closed = false;  ///< EOF, a read error or bad framing: no more.
};

/// Reads what `socket` holds, without blocking, and records every whole
/// reply frame among the bytes read. Returns the number of replies.
size_t DrainReplies(const Socket& socket, const ServeSpec& spec,
                    const std::vector<NodeId>& seeds, Inbound& in,
                    std::vector<OpenSample>& samples, SpotChecker* spot) {
  constexpr size_t kReadChunk = 256 * 1024;
  for (;;) {
    if (in.buffer.size() - in.filled < kReadChunk) {
      in.buffer.resize(in.filled + kReadChunk);
    }
    const ssize_t n = ::recv(socket.fd(), in.buffer.data() + in.filled,
                             in.buffer.size() - in.filled, MSG_DONTWAIT);
    if (n > 0) {
      in.filled += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) in.closed = true;
    break;
  }
  const int64_t now = NowNs();
  size_t replies = 0;
  size_t offset = 0;
  while (in.filled - offset >= kFrameHeaderBytes) {
    const std::span<const uint8_t> rest(in.buffer.data() + offset,
                                        in.filled - offset);
    auto header = DecodeFrameHeader(rest.first(kFrameHeaderBytes));
    const uint64_t index = header.ok() ? header->request_id - 1 : 0;
    if (!header.ok() || index >= samples.size()) {
      in.closed = true;
      break;
    }
    const size_t frame_bytes = kFrameHeaderBytes + header->payload_len;
    if (rest.size() < frame_bytes) break;
    offset += frame_bytes;
    ++replies;
    OpenSample& sample = samples[index];
    sample.done_ns = now;
    sample.reply_bytes = static_cast<int64_t>(frame_bytes);
    sample.outcome = Outcome::kError;
    if (header->type != FrameType::kRankResponse) continue;
    auto response = DecodeRankResponse(
        rest.subspan(kFrameHeaderBytes, header->payload_len));
    if (!response.ok() || !WellFormed(spec, *response)) {
      sample.outcome = Outcome::kMalformed;
      continue;
    }
    sample.outcome = Outcome::kOk;
    sample.pushes = response->pushes;
    sample.entries = static_cast<int64_t>(response->top.size());
    sample.certified =
        std::count_if(response->top.begin(), response->top.end(),
                      [](const RankedEntry& e) { return e.certified; });
    spot->Offer(seeds[index], *response);
  }
  if (offset > 0) {
    std::memmove(in.buffer.data(), in.buffer.data() + offset,
                 in.filled - offset);
    in.filled -= offset;
  }
  return replies;
}

/// Open loop: request i is due at start + i / rate on connection
/// i % kOpenConnections, whatever happened to earlier requests. One
/// thread sends and receives and polls instead of sleeping, so neither a
/// timer nor a thread wake-up on the load side adds to the latencies.
OpenLoopRun RunOpenLoop(uint16_t port, const ServeSpec& spec,
                        const std::vector<NodeId>& seeds, SpotChecker* spot) {
  OpenLoopRun run;
  run.samples.resize(seeds.size());
  std::vector<std::vector<uint8_t>> frames;
  frames.reserve(seeds.size());
  for (size_t i = 0; i < seeds.size(); ++i) {
    frames.push_back(EncodeFrame(
        FrameType::kRankRequest, i + 1,
        EncodeRankRequest({RequestFor(spec, seeds[i]), kDeadlineMs})));
  }
  std::vector<Socket> sockets;
  for (size_t c = 0; c < kOpenConnections; ++c) {
    auto socket = Socket::Connect("127.0.0.1", port);
    if (!socket.ok()) return run;  // every sample stays pending: failed
    sockets.push_back(std::move(socket).value());
  }
  std::vector<Inbound> inbound(kOpenConnections);

  run.start_ns = NowNs() + 10'000'000;
  for (size_t i = 0; i < seeds.size(); ++i) {
    run.samples[i].due_ns =
        run.start_ns + static_cast<int64_t>(static_cast<double>(i) /
                                            spec.rate * 1e9);
  }
  const int64_t grace_end = run.samples.empty()
                                ? NowNs()
                                : run.samples.back().due_ns + kGraceNs;
  size_t next = 0;
  size_t received = 0;
  while (received < seeds.size() && NowNs() < grace_end) {
    if (next < seeds.size() && NowNs() >= run.samples[next].due_ns) {
      OpenSample& sample = run.samples[next];
      sample.sent_ns = NowNs();
      // A failed send leaves the sample pending: it counts as failed.
      sample.sent = sockets[next % kOpenConnections]
                        .SendAll(frames[next].data(), frames[next].size())
                        .ok();
      ++next;
    }
    for (size_t c = 0; c < kOpenConnections; ++c) {
      if (inbound[c].closed) continue;
      received += DrainReplies(sockets[c], spec, seeds, inbound[c],
                               run.samples, spot);
    }
  }
  for (Socket& socket : sockets) socket.ShutdownBoth();
  run.end_ns = NowNs();
  return run;
}

/// One closed-loop repetition: each connection sends its next request
/// when the previous reply arrived, until the time is up. Returns OK
/// replies per second.
double RunClosedLoop(uint16_t port, const ServeSpec& spec, uint64_t seed,
                     double seconds, int64_t* attempted, int64_t* failed) {
  std::vector<RpcClient> clients;
  for (size_t c = 0; c < kClosedConnections; ++c) {
    auto client = RpcClient::Connect("127.0.0.1", port);
    if (!client.ok()) {
      ++*attempted;
      ++*failed;
      return 0.0;
    }
    clients.push_back(std::move(client).value());
  }
  std::vector<int64_t> ok(kClosedConnections, 0);
  std::vector<int64_t> sent(kClosedConnections, 0);
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClosedConnections; ++c) {
    threads.emplace_back([&, c] {
      SeedStream stream(spec, SubSeed(seed, c));
      while (NowNs() < end) {
        auto reply = clients[c].Rank(RequestFor(spec, stream.Next()),
                                     kDeadlineMs);
        ++sent[c];
        if (reply.ok() && WellFormed(spec, *reply)) ++ok[c];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  int64_t total_ok = 0;
  for (size_t c = 0; c < kClosedConnections; ++c) {
    *attempted += sent[c];
    *failed += sent[c] - ok[c];
    total_ok += ok[c];
  }
  return static_cast<double>(total_ok) / elapsed_s;
}

/// Waits (up to a second) until the server has answered every request it
/// received: it bumps responses_sent just after queueing a reply, so a
/// client can hold the reply before the counter moves.
void WaitUntilAnswered(const ServerStats& stats) {
  const int64_t give_up = NowNs() + 1'000'000'000;
  while (stats.responses_sent.load() < stats.requests_received.load() &&
         NowNs() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::vector<NodeId> DrawSeeds(const ServeSpec& spec, uint64_t seed,
                              size_t count) {
  SeedStream stream(spec, seed);
  std::vector<NodeId> seeds(count);
  for (NodeId& s : seeds) s = stream.Next();
  return seeds;
}

/// Per-layer metrics of the measured open loop, from the backend spans
/// and the server/memo/engine counters' change over the phase.
void AddServeLayerMetrics(const ServeSpec& spec, const OpenLoopRun& run,
                          const ServerStack& stack,
                          const ScoreCacheStats& memo_before,
                          const EngineStats& engine_before,
                          int64_t received_before, int64_t joins_before,
                          Report* result) {
  const std::vector<Span> spans = GlobalTracer().Snapshot();
  auto window = [&](const char* name) {
    return DurationsMs(SpansNamed(spans, name, run.start_ns, run.end_ns));
  };
  const std::vector<double> queue = window("serve.queue_wait");
  const std::vector<double> execute = window("serve.execute");
  const std::vector<double> deliver = window("net.deliver");
  const std::vector<double> backend = window("RankBackend::RankAsync");
  result->AddLayer("serve.queue_wait_ms.p50", Percentile(queue, 0.5), "ms");
  result->AddLayer("serve.queue_wait_ms.p99", Percentile(queue, 0.99), "ms");
  result->AddLayer("serve.execute_ms.p50", Percentile(execute, 0.5), "ms");
  result->AddLayer("serve.execute_ms.p99", Percentile(execute, 0.99), "ms");
  result->AddLayer("net.deliver_ms.p50", Percentile(deliver, 0.5), "ms");

  std::vector<double> ok_latency;
  std::vector<double> reply_bytes;
  std::vector<double> lag;
  int64_t pushes = 0, entries = 0, certified = 0, ok = 0;
  for (const OpenSample& s : run.samples) {
    lag.push_back(NsToMs(s.sent_ns - s.due_ns));
    if (s.outcome != Outcome::kOk) continue;
    ++ok;
    ok_latency.push_back(NsToMs(s.done_ns - s.due_ns));
    reply_bytes.push_back(static_cast<double>(s.reply_bytes));
    pushes += s.pushes;
    entries += s.entries;
    certified += s.certified;
  }
  result->AddLayer("net.reply_bytes.mean", Mean(reply_bytes), "bytes");
  // What the backend spans do not cover: generator lag, socket, reader
  // decode, admission and client decode. Defined as the remainder, so
  // queue + execute + deliver + transport = mean latency by construction.
  result->AddLayer("net.transport_ms.mean", Mean(ok_latency) - Mean(backend),
                   "ms");

  const ScoreCacheStats memo = stack.runtime->score_cache().stats();
  const int64_t lookups =
      (memo.hits - memo_before.hits) + (memo.misses - memo_before.misses);
  result->AddLayer(
      "serve.memo_hit_ratio",
      lookups > 0 ? static_cast<double>(memo.hits - memo_before.hits) / lookups
                  : 0.0,
      "ratio");
  const ServerStats& server = stack.server->stats();
  const int64_t received = server.requests_received.load() - received_before;
  result->AddLayer("net.coalesce_ratio",
                   received > 0 ? static_cast<double>(
                                      server.coalesce_joins.load() -
                                      joins_before) /
                                      received
                                : 0.0,
                   "ratio");
  const EngineStats engine = stack.engine->stats();
  const int64_t solves = engine.requests.load() - engine_before.requests.load();
  const int64_t solve_pushes =
      engine.push_operations.load() - engine_before.push_operations.load();
  result->AddLayer("api.solves", static_cast<double>(solves), "count");
  result->AddLayer("core.pushes_per_solve",
                   solves > 0 ? static_cast<double>(solve_pushes) / solves : 0,
                   "count");
  if (spec.top_k > 0) {
    result->AddLayer("topk.pushes_per_query",
                     ok > 0 ? static_cast<double>(pushes) / ok : 0.0, "count");
    result->AddLayer("topk.certified_ratio",
                     entries > 0 ? static_cast<double>(certified) / entries
                                 : 0.0,
                     "ratio");
  }
  result->AddLayer("bench.gen_lag_ms.p99", Percentile(lag, 0.99), "ms");
}

/// Closed-loop warmup: `seeds` in order over kWarmupConnections
/// connections, each sending its next request when the last reply came.
/// Returns the number of OK replies.
int64_t RunWarmup(uint16_t port, const ServeSpec& spec,
                  const std::vector<NodeId>& seeds) {
  std::vector<int64_t> ok(kWarmupConnections, 0);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kWarmupConnections; ++c) {
    threads.emplace_back([&, c] {
      auto client = RpcClient::Connect("127.0.0.1", port);
      if (!client.ok()) return;
      for (size_t i = c; i < seeds.size(); i += kWarmupConnections) {
        auto reply = client->Rank(RequestFor(spec, seeds[i]), kDeadlineMs);
        if (reply.ok() && WellFormed(spec, *reply)) ++ok[c];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return std::accumulate(ok.begin(), ok.end(), int64_t{0});
}

/// Adds each layer metric of `rounds` (all of them report the same list)
/// as its median over the rounds.
void AddLayerMedians(const std::vector<Report>& rounds, Report* result) {
  if (rounds.empty()) return;
  for (size_t m = 0; m < rounds.front().layer.size(); ++m) {
    std::vector<double> values;
    for (const Report& round : rounds) values.push_back(round.layer[m].value);
    result->AddLayer(rounds.front().layer[m].name, Median(values),
                     rounds.front().layer[m].unit);
  }
}

Report RunServe(const ServeSpec& spec, const Options& options) {
  Report result;
  const double round_seconds = options.seconds / kRounds;
  const size_t open_requests =
      static_cast<size_t>(spec.rate * round_seconds * kOpenShare);
  std::vector<double> setup_s, p50_ms, p90_ms, throughput;
  std::vector<Report> layer_rounds;
  int64_t warmup_failed = 0, open_failed = 0;
  int64_t closed_attempted = 0, closed_failed = 0, spot_checks = 0;
  const int64_t run_start = NowNs();
  const size_t spans_before = GlobalTracer().size();
  std::unique_ptr<ServerStack> stack;
  for (int round = 0; round < kRounds; ++round) {
    const uint64_t round_seed = SubSeed(options.seed, round);
    const uint64_t graph_seed = SubSeed(round_seed, 1);
    const std::vector<NodeId> warmup_seeds =
        DrawSeeds(spec, SubSeed(round_seed, 2), spec.warmup_requests);
    const std::vector<NodeId> open_seeds =
        DrawSeeds(spec, SubSeed(round_seed, 3), open_requests);

    // The server, and every thread it starts, on all CPUs but the last;
    // the load generator on that one.
    PinToOtherCpus();
    setup_s.push_back(MedianSetupSeconds(
        kSetupsPerRound, [&] { stack.reset(); },
        [&] { stack = StartServer(spec, graph_seed, &result); }));
    if (stack == nullptr) return result;
    PinToLastCpu();
    const uint16_t port = stack->server->port();
    const ServerStats& server_stats = stack->server->stats();

    WaitUntilAnswered(server_stats);
    const int64_t warmup_ok = RunWarmup(port, spec, warmup_seeds);
    result.attempted += static_cast<int64_t>(warmup_seeds.size());
    warmup_failed += static_cast<int64_t>(warmup_seeds.size()) - warmup_ok;

    WaitUntilAnswered(server_stats);
    const int64_t server_in_before = server_stats.requests_received.load();
    const int64_t server_out_before = server_stats.responses_sent.load();
    const int64_t joins_before = server_stats.coalesce_joins.load();
    const ScoreCacheStats memo_before = stack->runtime->score_cache().stats();
    const EngineStats engine_before = stack->engine->stats();
    SpotChecker spot;
    const OpenLoopRun open = RunOpenLoop(port, spec, open_seeds, &spot);
    result.attempted += static_cast<int64_t>(open.samples.size());
    open_failed += static_cast<int64_t>(open.samples.size()) - open.ok();
    for (const OpenSample& s : open.samples) {
      result.Check(s.outcome != Outcome::kMalformed,
                   "open loop: malformed or wrong-shape reply");
    }
    if (kTraced) {
      layer_rounds.emplace_back();
      AddServeLayerMetrics(spec, open, *stack, memo_before, engine_before,
                           server_in_before, joins_before,
                           &layer_rounds.back());
    }

    // Reconcile the open loop's tallies with the server's counters: every
    // request sent was received, and when every request got a reply, the
    // server sent exactly those.
    WaitUntilAnswered(server_stats);
    result.Check(server_stats.requests_received.load() - server_in_before ==
                     open.sent(),
                 "server received a different number of requests than sent");
    result.Check(open.replied() != open.sent() ||
                     server_stats.responses_sent.load() - server_out_before ==
                         open.replied(),
                 "server sent a different number of replies than arrived");

    throughput.push_back(RunClosedLoop(port, spec, SubSeed(round_seed, 4),
                                       round_seconds * (1.0 - kOpenShare),
                                       &closed_attempted, &closed_failed));

    D2prEngine reference(stack->graph);
    spot.Verify(spec, reference, &result);
    result.Check(spot.size() > 0, "spot check: no OK reply to compare");
    spot_checks += static_cast<int64_t>(spot.size());

    const std::vector<double> latency = open.LatenciesMs();
    p50_ms.push_back(Percentile(latency, 0.5));
    p90_ms.push_back(Percentile(latency, 0.9));
    stack->server->Stop();
  }
  result.attempted += closed_attempted;
  result.failed += warmup_failed + open_failed + closed_failed;
  const int64_t run_end = NowNs();

  result.Add("setup_s", Median(setup_s), "s");
  result.Add("latency_p50_ms", Median(p50_ms), "ms");
  result.Add("latency_p90_ms", Median(p90_ms), "ms");
  result.Add("throughput_per_s", Median(throughput), "1/s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.samples = {
      {"rounds", kRounds},
      {"setup_reps", kRounds * kSetupsPerRound},
      {"warmup_requests",
       kRounds * static_cast<int64_t>(spec.warmup_requests)},
      {"warmup_failed", warmup_failed},
      {"open_loop_requests", kRounds * static_cast<int64_t>(open_requests)},
      {"open_loop_failed", open_failed},
      {"closed_loop_requests", closed_attempted},
      {"closed_loop_failed", closed_failed},
      {"spot_checks", spot_checks}};
  result.info = {{"nodes", stack->graph->num_nodes()},
                 {"arcs", static_cast<double>(stack->graph->num_arcs())},
                 {"open_loop_rate_per_s", spec.rate}};
  if (kTraced) {
    AddLayerMedians(layer_rounds, &result);
    result.AddLayer("bench.trace_overhead_ratio",
                    TraceOverheadRatio(GlobalTracer().size() - spans_before,
                                       run_end - run_start),
                    "ratio");
  }
  return result;
}

}  // namespace

Report RunServeZipfFull(const Options& options) {
  const ServeSpec spec{options.smoke ? NodeId{2000} : NodeId{10000},
                       /*zipf=*/true,
                       /*top_k=*/0,
                       /*rate=*/300.0,
                       /*warmup_requests=*/600};
  return RunServe(spec, options);
}

Report RunServeUniformTopK(const Options& options) {
  const ServeSpec spec{options.smoke ? NodeId{2000} : NodeId{10000},
                       /*zipf=*/false,
                       /*top_k=*/10,
                       /*rate=*/80.0,
                       /*warmup_requests=*/40};
  return RunServe(spec, options);
}

}  // namespace d2pr::e2e
