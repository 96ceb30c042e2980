#include "serve/server.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#include "aig/aiger_io.hpp"
#include "check/runner.hpp"
#include "corpus/corpus.hpp"
#include "obs/trace.hpp"

#if !defined(_WIN32)
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace pilot::serve {

Server::Server(ServerOptions options) : options_(std::move(options)) {}

Server::~Server() {
  request_stop();
  wait();
}

#if defined(_WIN32)

bool Server::start(std::string* error) {
  if (error != nullptr) *error = "pilot serve requires AF_UNIX sockets";
  return false;
}
void Server::request_stop() {}
void Server::wait() {}
bool Server::draining() const { return true; }
ServerStats Server::stats() const { return {}; }

std::optional<std::string> client_request(const std::string&,
                                          const std::string&,
                                          std::string* error) {
  if (error != nullptr) *error = "AF_UNIX sockets unsupported";
  return std::nullopt;
}

#else  // POSIX

namespace {

/// Reads one '\n'-terminated header line (bounded; a client that sends no
/// newline within the cap is malformed).
bool read_line(int fd, std::string* line) {
  line->clear();
  char c = 0;
  while (line->size() < 4096) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n <= 0) return false;
    if (c == '\n') return true;
    line->push_back(c);
  }
  return false;
}

bool read_exact(int fd, std::string* out, std::size_t nbytes) {
  out->resize(nbytes);
  std::size_t got = 0;
  while (got < nbytes) {
    const ssize_t n = ::read(fd, out->data() + got, nbytes - got);
    if (n <= 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void write_all(int fd, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n = ::write(fd, text.data() + sent, text.size() - sent);
    if (n <= 0) return;
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

bool Server::start(std::string* error) {
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = "socket() failed";
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) *error = "socket path too long";
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                options_.socket_path.c_str());
  ::unlink(options_.socket_path.c_str());  // replace a stale socket file
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 64) != 0) {
    if (error != nullptr) {
      *error = "cannot bind/listen on " + options_.socket_path;
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  std::size_t n_workers = options_.workers;
  if (n_workers == 0) {
    n_workers = std::max(1u, std::thread::hardware_concurrency());
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  workers_.reserve(n_workers);
  for (std::size_t i = 0; i < n_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  return true;
}

void Server::request_stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  queue_cv_.notify_all();
}

void Server::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
}

bool Server::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stop_;
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void Server::accept_loop() {
  for (;;) {
    // Poll with a timeout so request_stop() is observed promptly even when
    // no client ever connects again.
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rv = ::poll(&pfd, 1, /*timeout_ms=*/200);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stop_) return;
    }
    if (rv <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    bool rejected = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.accepted;
      if (queue_.size() >= options_.queue_capacity) {
        ++stats_.rejected_queue_full;
        rejected = true;
      } else {
        queue_.push_back(fd);
      }
    }
    if (rejected) {
      // Backpressure: answer immediately instead of queueing unboundedly.
      write_all(fd, "error queue full (capacity " +
                        std::to_string(options_.queue_capacity) + ")\n");
      ::close(fd);
    } else {
      queue_cv_.notify_one();
    }
  }
}

void Server::worker_loop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;  // drained: every accepted job was served
        continue;
      }
      fd = queue_.front();
      queue_.pop_front();
    }
    handle_connection(fd);
    ::close(fd);
  }
}

void Server::handle_connection(int fd) {
  PILOT_TRACE_ZONE("serve.request");
  std::string header;
  if (!read_line(fd, &header)) {
    write_all(fd, "error malformed request\n");
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.errors;
    return;
  }

  if (header == "ping") {
    write_all(fd, "ok pong\n");
    return;
  }
  if (header == "stop") {
    write_all(fd, "ok draining\n");
    request_stop();
    return;
  }
  if (header == "stats") {
    std::ostringstream out;
    const ServerStats s = stats();
    out << "ok served=" << s.served << " errors=" << s.errors
        << " rejected=" << s.rejected_queue_full;
    if (options_.cache != nullptr) {
      const CacheStats& cs = options_.cache->stats();
      out << " entries=" << options_.cache->size()
          << " hits=" << cs.hits.load() << " misses=" << cs.misses.load()
          << " revalidation_failures=" << cs.revalidation_failures.load();
    }
    out << "\n";
    write_all(fd, out.str());
    return;
  }

  if (header.rfind("check ", 0) != 0) {
    write_all(fd, "error unknown command\n");
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.errors;
    return;
  }

  std::size_t nbytes = 0;
  try {
    nbytes = static_cast<std::size_t>(std::stoull(header.substr(6)));
  } catch (const std::exception&) {
    write_all(fd, "error malformed check header\n");
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.errors;
    return;
  }
  constexpr std::size_t kMaxRequestBytes = 256u << 20;  // 256 MiB
  std::string payload;
  if (nbytes > kMaxRequestBytes || !read_exact(fd, &payload, nbytes)) {
    write_all(fd, "error truncated payload\n");
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.errors;
    return;
  }

  // One-case run through the exact batch pipeline: canonical hash → cache
  // lookup (revalidated) → engine → certified store.
  try {
    corpus::Case cc;
    cc.name = "serve";
    cc.family = "aiger";
    cc.load = [payload]() { return aig::read_aiger_string(payload); };

    check::RunMatrixOptions mo;
    mo.budget_ms = options_.budget_ms;
    mo.seed = options_.seed;
    mo.jobs = 1;          // already on a worker thread
    mo.strict = false;    // a bad client input must not abort the server
    mo.cache = options_.cache;
    const std::vector<check::RunRecord> records =
        check::run_matrix(std::vector<corpus::Case>{cc},
                          {options_.engine_spec}, mo);
    const check::RunRecord& r = records.front();
    if (!r.error.empty()) {
      write_all(fd, "error " + r.error + "\n");
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.errors;
      return;
    }
    std::ostringstream out;
    out << "ok verdict=" << ic3::to_string(r.verdict)
        << " cached=" << (r.cache_status == "hit" ? 1 : 0)
        << " engine=" << r.engine << " seconds=" << r.seconds
        << " hash=" << r.content_hash << "\n";
    write_all(fd, out.str());
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.served;
  } catch (const std::exception& e) {
    write_all(fd, std::string("error ") + e.what() + "\n");
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.errors;
  }
}

std::optional<std::string> client_request(const std::string& socket_path,
                                          const std::string& request,
                                          std::string* error) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = "socket() failed";
    return std::nullopt;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) *error = "socket path too long";
    ::close(fd);
    return std::nullopt;
  }
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                socket_path.c_str());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error != nullptr) *error = "cannot connect to " + socket_path;
    ::close(fd);
    return std::nullopt;
  }
  write_all(fd, request);
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

#endif  // POSIX

std::string make_check_request(const std::string& aiger_text) {
  return "check " + std::to_string(aiger_text.size()) + "\n" + aiger_text;
}

}  // namespace pilot::serve
