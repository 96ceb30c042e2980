/// \file server.hpp
/// `pilot serve`: the long-running Unix-socket front door of the serving
/// layer — tier 2 of "pilot-serve".
///
/// A stream socket accepts one request per connection, line-oriented:
///
///   ping\n                 → "ok pong\n"
///   stats\n                → "ok entries=… hits=… misses=… …\n"
///   stop\n                 → "ok draining\n"  (graceful drain, see below)
///   check <nbytes>\n<AIGER> → "ok verdict=… cached=0|1 engine=… seconds=… hash=…\n"
///                             or "error <message>\n"
///
/// Accepted connections flow through a *bounded* queue into a worker pool;
/// when the queue is full the connection is answered "error queue full"
/// immediately instead of piling up unbounded memory — backpressure is the
/// client's signal to retry.  Each job runs the same cache → engine
/// pipeline as the batch runner (literally: a one-case run_matrix call with
/// the shared VerdictCache attached), so a served verdict is certified and
/// cached exactly like a campaign verdict.
///
/// Graceful drain: SIGTERM (wired by the CLI via request_stop()) or a
/// client "stop" command closes the listening socket, lets the workers
/// finish every queued job, then exits — no accepted request is dropped.
///
/// POSIX-only (AF_UNIX); on other platforms start() fails with an error.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/verdict_cache.hpp"

namespace pilot::serve {

struct ServerOptions {
  /// Filesystem path of the Unix socket; created on start(), unlinked on
  /// drain.  A stale file from a crashed server is replaced.
  std::string socket_path;
  /// Engine spec jobs run under on a cache miss.
  std::string engine_spec = "portfolio";
  std::int64_t budget_ms = 10000;
  std::uint64_t seed = 0;
  /// Bounded-queue capacity; a full queue answers "error queue full".
  std::size_t queue_capacity = 64;
  /// Worker threads; 0 = hardware concurrency.
  std::size_t workers = 0;
  /// Shared cache (non-owning, nullable).
  VerdictCache* cache = nullptr;
};

struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t served = 0;
  std::uint64_t errors = 0;
  std::uint64_t rejected_queue_full = 0;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and spawns the accept loop + worker pool.  Returns
  /// false (with `error` set) on bind/listen failure or a bad engine spec.
  bool start(std::string* error);

  /// Begins a graceful drain: stop accepting, finish queued jobs.  Safe to
  /// call from any thread, and — being async-signal-unsafe-free aside from
  /// a flag store — from the CLI's SIGTERM trampoline via a polled flag.
  void request_stop();

  /// Joins every thread; returns once the drain completes.
  void wait();

  [[nodiscard]] bool draining() const;
  [[nodiscard]] ServerStats stats() const;

 private:
  void accept_loop();
  void worker_loop();
  void handle_connection(int fd);

  ServerOptions options_;
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::deque<int> queue_;  // accepted connection fds awaiting a worker
  bool stop_ = false;
  ServerStats stats_;
};

/// Blocking client helper (tests, `pilot submit`): connects to
/// `socket_path`, sends `request` verbatim, returns the full response or
/// nullopt with `error` set.
[[nodiscard]] std::optional<std::string> client_request(
    const std::string& socket_path, const std::string& request,
    std::string* error);

/// Convenience: frames `aiger_text` as a "check" request.
[[nodiscard]] std::string make_check_request(const std::string& aiger_text);

}  // namespace pilot::serve
