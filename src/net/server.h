// RpcServer: the network front door over a ServingRuntime.
//
// One accept thread plus one reader/writer thread pair per connection,
// all speaking the length-prefixed frame protocol of net/wire.h. Solves
// never run on connection threads: a decoded RankRequest is handed to the
// backend's completion-queue RankAsync — the callback encodes the
// response on the worker that solved it and drops the bytes onto the
// owning connection's write queue. N in-flight requests therefore cost
// zero parked threads (the old fan-in was one future.get() per request),
// and responses leave in completion order, matched by request id.
//
// Three protections stand between the socket and the solver:
//
//   * Admission control — a request arriving while the backend pool's
//     queue_depth() is at or past ServerOptions::max_queue_depth is
//     answered immediately with a kUnavailable frame and never enqueued.
//     Shedding at the door keeps queue wait (the dominant latency term
//     past saturation) bounded for everything already admitted.
//   * Deadlines — a request carrying deadline_ms > 0 gets an absolute
//     deadline stamped at admission. It is checked twice more: on the
//     worker immediately before the solve (an expired request is dropped
//     without the engine ever seeing it — the gate) and at response
//     delivery (a response that can no longer arrive in time is replaced
//     by DeadlineExceeded). Exactly three clock reads per deadlined
//     request — stamp, gate, delivery — all through the injectable
//     ServerOptions::clock_ms, which is what makes deadline behavior
//     deterministically testable.
//   * Coalescing — identical cacheable requests (same ScoreCache key, no
//     warm tag) already in flight are joined, not re-enqueued: the new
//     (connection, request id, deadline) triple is appended to the
//     in-flight entry's waiter list and the single solve fans out to all
//     waiters, each under its own deadline. Joins skip admission — they
//     add no pool work.
//
// Framing errors (bad magic/version/type, oversize length, truncation)
// close the connection; a well-formed frame whose payload fails to decode
// gets a kStatus InvalidArgument reply and the connection lives on. The
// distinction mirrors wire.h: broken stream vs broken request.

#ifndef D2PR_NET_SERVER_H_
#define D2PR_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/rank_request.h"
#include "common/result.h"
#include "net/socket.h"
#include "net/wire.h"

namespace d2pr {

class ServingRuntime;

/// \brief The serving surface RpcServer needs from its backend: a
/// ServingRuntime in d2pr_server, a tracing wrapper around one in the
/// end-to-end benchmark.
class RankBackend {
 public:
  virtual ~RankBackend() = default;

  /// Completion-queue solve: runs `request` on the backend's pool; `gate`
  /// (if non-null) runs on the worker immediately before the solve and a
  /// non-OK return skips the solve; `done` receives the result on the
  /// worker.
  virtual void RankAsync(RankRequest request,
                         std::function<void(Result<RankResponse>)> done,
                         std::function<Status()> gate) = 0;

  /// Tasks waiting in the backend pool's queue (the admission signal).
  virtual int64_t queue_depth() = 0;

  /// What the server reports in kInfoResponse frames.
  virtual ServerInfo info() = 0;
};

/// \brief Backend adapter over a ServingRuntime (caller keeps it alive).
std::unique_ptr<RankBackend> MakeBackend(ServingRuntime& runtime);

/// \brief RpcServer construction knobs.
struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 (default) binds an ephemeral port, reported
  /// by port() after Start().
  uint16_t port = 0;
  /// Admission bound: a non-coalesced rank request arriving while the
  /// backend queue_depth() >= this is shed with kUnavailable.
  int64_t max_queue_depth = 256;
  /// Join identical in-flight cacheable requests instead of re-solving.
  bool coalesce = true;
  /// Monotonic milliseconds for deadline arithmetic; defaults to
  /// std::chrono::steady_clock. Injectable so tests can step time
  /// deterministically (see the three-read discipline in the file
  /// comment).
  std::function<int64_t()> clock_ms;
};

/// \brief Cumulative server counters (atomic; read individually exact).
struct ServerStats {
  std::atomic<int64_t> connections_accepted{0};
  std::atomic<int64_t> requests_received{0};  ///< Rank frames decoded OK.
  std::atomic<int64_t> responses_sent{0};     ///< Any reply frame enqueued.
  std::atomic<int64_t> shed_unavailable{0};   ///< Admission rejections.
  /// Deadline expiries caught by the pre-solve gate (the engine never ran)
  /// vs at response delivery (the solve ran but the reply was too late).
  std::atomic<int64_t> deadline_expired_presolve{0};
  std::atomic<int64_t> deadline_expired_delivery{0};
  std::atomic<int64_t> coalesce_joins{0};  ///< Requests joined in flight.
  /// Framing violations (each closed its connection).
  std::atomic<int64_t> protocol_errors{0};
  /// Well-formed frames whose payload failed to decode (kStatus replied).
  std::atomic<int64_t> decode_errors{0};
};

/// \brief Length-prefixed RPC server over one RankBackend.
class RpcServer {
 public:
  /// `backend` must outlive the server.
  RpcServer(RankBackend& backend, const ServerOptions& options = {});

  /// Stops and joins everything (see Stop()).
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Binds, listens, and starts the accept loop. IoError when the port
  /// cannot be bound; FailedPrecondition when already started.
  Status Start();

  /// Stops accepting, tears down every connection, waits for in-flight
  /// backend callbacks to finish, and joins all threads. Idempotent.
  void Stop();

  /// The bound port; valid after a successful Start().
  uint16_t port() const { return port_; }

  const ServerStats& stats() const { return stats_; }

 private:
  /// Per-connection state. Reader and writer threads plus a write queue;
  /// completion callbacks touch only EnqueueWrite, so a connection that
  /// died early just swallows its late responses.
  struct Connection {
    Socket socket;
    std::thread reader;
    std::thread writer;

    std::mutex write_mu;
    std::condition_variable write_cv;
    std::deque<std::vector<uint8_t>> write_queue;
    bool closed = false;  ///< Guarded by write_mu.

    /// Queues `frame` for the writer thread; dropped when closed.
    void EnqueueWrite(std::vector<uint8_t> frame);
    /// Rejects further enqueues and lets the writer drain what is queued
    /// and exit — the graceful half of Close(), used by Stop() so
    /// admitted responses flush before the socket goes down.
    void SealWrites();
    /// SealWrites plus socket shutdown: unblocks a writer mid-send and
    /// shows the peer EOF. Queued-but-unsent frames may be lost.
    void Close();
  };

  /// One response destination of an in-flight solve.
  struct Waiter {
    std::shared_ptr<Connection> connection;
    uint64_t request_id = 0;
    /// Absolute deadline in clock_ms units; INT64_MAX = none.
    int64_t deadline_ms = 0;
  };
  /// An in-flight (possibly coalesced) solve.
  struct Inflight {
    std::vector<Waiter> waiters;
  };

  void AcceptLoop();
  void ReaderLoop(const std::shared_ptr<Connection>& connection);
  void WriterLoop(const std::shared_ptr<Connection>& connection);

  /// Dispatches one decoded rank request: stamp deadline, coalesce-join
  /// or admit, submit to the backend with the deadline gate.
  void HandleRank(const std::shared_ptr<Connection>& connection,
                  uint64_t request_id, WireRankRequest wire);

  /// Completion path: fans the solve result out to every waiter of
  /// `key`, enforcing each waiter's delivery deadline.
  void CompleteRank(const std::string& key,
                    const Result<RankResponse>& result);

  /// Sends one reply frame (response, status, or unavailable) to a
  /// single waiter, applying the delivery deadline check.
  void DeliverTo(const Waiter& waiter, const Result<RankResponse>& result);

  int64_t NowMs() const;

  RankBackend& backend_;
  ServerOptions options_;
  ServerStats stats_;

  ListenSocket listener_;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};

  std::mutex connections_mu_;
  std::vector<std::shared_ptr<Connection>> connections_;

  /// Guards inflight_: the find + admission check + insert sequence in
  /// HandleRank holds it across all three, so two identical concurrent
  /// requests can never both miss the map and double-solve.
  std::mutex inflight_mu_;
  std::unordered_map<std::string, Inflight> inflight_;

  /// Backend submissions whose completion callback has not finished.
  /// Stop() waits for this to drain before joining writers, so every
  /// admitted request gets its response (or deadline status) even across
  /// shutdown.
  std::mutex pending_mu_;
  std::condition_variable pending_cv_;
  int64_t pending_ = 0;
};

}  // namespace d2pr

#endif  // D2PR_NET_SERVER_H_
