// The range-request daemon: HTTP/1.1 byte ranges mapped onto
// DecodeSession::read_at over one shared ThreadPool and BufferPool.
//
// Robustness is the design driver, and every limit is explicit:
//
//   * Admission control. Connections above max_connections are shed at
//     accept with a best-effort 503. Parsed requests enter a bounded
//     queue via try_push — a full queue sheds with 503 instead of
//     queueing unboundedly. Response bytes are admitted against
//     queued_bytes_budget before a body is materialized, so the
//     daemon's response memory is bounded no matter how many clients
//     ask for how much.
//   * Deadlines. A request that waited in the queue past
//     request_deadline_ms is shed (the client has likely given up; the
//     decode work would be wasted). The remaining deadline seeds the
//     per-connection session's RetryPolicy::deadline_us, so retry
//     backoff can never outlive the request that wanted the block.
//   * Slow clients. Every response write carries write_timeout_ms; a
//     stalled peer gets its connection reaped instead of pinning a
//     worker. Idle and half-header connections are reaped on
//     idle_timeout_ms / header_timeout_ms by the poller.
//   * Graceful drain. stop() stops accepting, lets queued and in-flight
//     requests finish, sheds everything else, joins all threads, and
//     returns — deterministically, with no sleeps-and-hope.
//   * Degraded service. A read that hits damaged blocks is a 502 by
//     default; with ServeOptions::degraded it is served zero-filled
//     with an X-Gomp-Degraded header so a mirror client can re-fetch
//     exactly the damaged ranges.
//
// Threads: one poller (accept + idle-connection readiness + timeout
// reaping) and worker_threads request servers. A connection lives on
// exactly one thread at a time: the poller owns it while idle, a worker
// owns it while a request is served, and ownership moves through the
// bounded queue (poller -> worker) and the returned_ list (worker ->
// poller, signalled over a wake pipe). Decode parallelism is separate:
// all per-connection DecodeSessions share one decode ThreadPool and one
// BufferPool, whose peak counters remain the memory-bound witness.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/http.hpp"
#include "serve/backend.hpp"
#include "serve/decode_session.hpp"
#include "util/bounded_queue.hpp"
#include "util/buffer_pool.hpp"
#include "util/socket.hpp"
#include "util/thread_annotations.hpp"

namespace gompresso::net {

/// Produces one ByteSource view of the archive per call. Called once per
/// connection (each session needs its own source) plus once at startup
/// when no pre-built backend is given. Must be callable concurrently.
using SourceFactory = std::function<std::unique_ptr<serve::ByteSource>()>;

struct ServeOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (see Server::port).
  std::uint16_t port = 8080;
  /// Threads serving parsed requests (decode work runs on the shared
  /// decode pool, so these mostly wait on decode + socket writes).
  std::size_t worker_threads = 4;
  /// Live-connection ceiling; accepts beyond it are shed with 503.
  std::size_t max_connections = 128;
  /// Bounded parsed-request queue between poller and workers; try_push
  /// failure is the load-shedding signal.
  std::size_t pending_requests = 32;
  /// Ceiling on response bytes admitted but not yet flushed to sockets.
  std::uint64_t queued_bytes_budget = 64ull << 20;
  /// Largest single response body; bigger ranges are shed with 503 (a
  /// client can always re-ask in smaller ranges).
  std::uint64_t max_response_bytes = 16ull << 20;
  /// Queue-wait + decode budget per request. Requests older than this
  /// when a worker picks them up are shed; it also seeds each session's
  /// RetryPolicy::deadline_us (unless the caller set one).
  int request_deadline_ms = 10'000;
  /// Reap a connection that sent a partial request head and stalled.
  int header_timeout_ms = 5'000;
  /// Reap a keep-alive connection with no request in flight.
  int idle_timeout_ms = 30'000;
  /// Per-chunk response write timeout; exceeding it reaps the client.
  int write_timeout_ms = 5'000;
  /// Serve reads over damaged blocks zero-filled (206/200 +
  /// X-Gomp-Degraded) instead of failing them with 502.
  bool degraded = false;
  /// Per-connection DecodeSession tuning. num_threads is ignored — all
  /// sessions share the server's decode pool.
  serve::SessionOptions session;
  /// Workers on the shared decode pool (0 = hardware concurrency).
  std::size_t decode_threads = 0;
};

/// Monotonic per-server counters (the process-wide net.* metrics
/// aggregate across servers; tests run several servers, so assertions
/// use these).
struct ServerStats {
  std::uint64_t accepted = 0;          // connections accepted
  std::uint64_t shed_connections = 0;  // 503-at-accept (over max_connections)
  std::uint64_t requests = 0;          // complete request heads parsed
  std::uint64_t ok_200 = 0;
  std::uint64_t partial_206 = 0;
  std::uint64_t client_4xx = 0;        // 400/404/405/408/416/431
  std::uint64_t shed_503 = 0;          // admission sheds (queue/deadline/bytes)
  std::uint64_t failed_502 = 0;        // damaged reads surfaced as errors
  std::uint64_t error_500 = 0;
  std::uint64_t degraded_responses = 0;  // 200/206 with X-Gomp-Degraded
  std::uint64_t reaped_slow = 0;       // write timeout mid-response
  std::uint64_t reaped_idle = 0;       // idle/header timeout
  std::uint64_t bytes_sent = 0;        // response body bytes delivered
  std::uint64_t peak_queued_bytes = 0; // high-water admitted response bytes
};

class Server {
 public:
  /// Serves the archive `factory` opens through a pre-built container
  /// backend (the robust path: build the geometry from a trusted
  /// source, then even a fault-injected data plane cannot corrupt it).
  /// The backend is shared by every per-connection session — GMPZ/GMPS
  /// and gzip backends alike.
  Server(SourceFactory factory, std::shared_ptr<serve::ContainerBackend> backend,
         ServeOptions options = {});
  /// Convenience: sniffs one factory() source and builds the matching
  /// backend (gompresso::open_backend, default decode knobs), so
  /// `gomp serve any.gz` works.
  explicit Server(SourceFactory factory, ServeOptions options = {});

  /// Drains and joins (equivalent to stop()).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and launches the poller + workers. Throws IoError
  /// if the port cannot be bound.
  void start();

  /// The bound port (after start(); resolves port 0 to the kernel's
  /// choice).
  std::uint16_t port() const { return port_; }

  /// Graceful drain: stop accepting, serve or shed everything in
  /// flight, join all threads. Idempotent; safe to call from a signal-
  /// observing thread while clients are mid-request.
  void stop();

  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  ServerStats stats() const;

  /// Total uncompressed bytes of the served archive.
  std::uint64_t archive_size() const { return backend_->total_uncompressed(); }

 private:
  /// One client connection. Owned by exactly one thread at a time; the
  /// owning thread needs no lock to touch it.
  struct Conn {
    util::Fd fd;
    std::string inbuf;  // bytes received, not yet consumed as a head
    std::unique_ptr<serve::DecodeSession> session;  // lazy, first archive read
    std::chrono::steady_clock::time_point last_activity{};
    std::uint64_t id = 0;  // per-connection retry-jitter salt
    bool close_after = false;
  };

  /// A parsed-off request head travelling poller -> worker with its
  /// connection and its admission timestamp (the deadline anchor).
  struct Job {
    std::unique_ptr<Conn> conn;
    std::string head;
    std::chrono::steady_clock::time_point enqueued{};
  };

  /// ServerStats as relaxed atomics (workers and the poller bump
  /// concurrently; stats() loads without a lock).
  struct AtomicStats {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> shed_connections{0};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> ok_200{0};
    std::atomic<std::uint64_t> partial_206{0};
    std::atomic<std::uint64_t> client_4xx{0};
    std::atomic<std::uint64_t> shed_503{0};
    std::atomic<std::uint64_t> failed_502{0};
    std::atomic<std::uint64_t> error_500{0};
    std::atomic<std::uint64_t> degraded_responses{0};
    std::atomic<std::uint64_t> reaped_slow{0};
    std::atomic<std::uint64_t> reaped_idle{0};
    std::atomic<std::uint64_t> bytes_sent{0};
    std::atomic<std::uint64_t> peak_queued_bytes{0};
  };

  void poller_loop();
  void worker_loop();

  /// Hands a complete head to the workers, or sheds. Returns the
  /// connection when it was shed-but-kept (per-request overload, client
  /// may retry on the same socket); returns nullptr when consumed.
  std::unique_ptr<Conn> dispatch(std::unique_ptr<Conn> conn,
                                 std::string head);
  /// Serves one request on a worker; returns false when the connection
  /// must close (error, write failure, Connection: close).
  bool serve_request(Conn& conn, const std::string& head,
                     std::chrono::steady_clock::time_point enqueued);
  /// Worker -> poller handoff of a connection going back to idle.
  void return_to_poller(std::unique_ptr<Conn> conn) EXCLUDES(return_mutex_);

  /// Sends a body-less error/shed response without ever blocking the
  /// calling thread (best-effort; shedding must not create new waits).
  /// `keep` advertises keep-alive: per-request sheds leave the socket
  /// usable so overloaded clients retry without a reconnect storm;
  /// connection-level sheds (cap, drain, bad head) advertise close.
  static void shed_response(Conn& conn, int status, const char* reason,
                            bool keep = false);

  static std::shared_ptr<serve::ContainerBackend> build_backend(
      const SourceFactory& factory, const ServeOptions& options);
  void bump_2xx(int status);

  bool admit_bytes(std::uint64_t n);
  void release_bytes(std::uint64_t n);

  SourceFactory factory_;
  std::shared_ptr<serve::ContainerBackend> backend_;
  ServeOptions options_;

  ThreadPool decode_pool_;
  util::BufferPool buffers_;

  std::unique_ptr<util::TcpListener> listener_;  // bound in start()
  std::uint16_t port_ = 0;

  util::BoundedQueue<Job> queue_;
  util::WakePipe wake_;

  std::thread poller_;
  std::vector<std::thread> workers_;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_poller_{false};

  /// Connections idle between requests; poller-owned, no lock needed.
  std::vector<std::unique_ptr<Conn>> idle_;

  util::Mutex return_mutex_;
  std::vector<std::unique_ptr<Conn>> returned_ GUARDED_BY(return_mutex_);

  std::atomic<std::size_t> live_conns_{0};
  std::atomic<std::uint64_t> queued_bytes_{0};
  std::atomic<std::uint64_t> next_conn_id_{1};
  AtomicStats stats_;

  util::Mutex stop_mutex_;  // serializes concurrent stop() calls
};

}  // namespace gompresso::net
