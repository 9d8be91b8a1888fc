#pragma once

/// \file engine.hpp
/// The socket engine: a single-threaded epoll event loop carrying framed
/// Gnutella messages over real TCP connections.
///
/// This is the deployment-side counterpart of the simulation engines. It
/// implements everything below the overlay protocol and nothing above it:
///
///   - nonblocking listen / accept / connect on loopback TCP;
///   - per-connection incremental framing (net::StreamDecoder), so
///     messages are reassembled across arbitrary read boundaries;
///   - per-connection bounded write queues: a peer that cannot drain its
///     queue (slow reader) is disconnected rather than allowed to grow
///     the queue without bound — backpressure by eviction, which is the
///     only kind a flooding defense can afford (blocking the loop on one
///     peer would let that peer DoS the engine);
///   - a timer wheel driving the owner's cadences (the DD-POLICE minute,
///     the police tick, issue pacing, half-open timeouts);
///   - half-open sweep: a connection that has not produced a single
///     complete message within the handshake window is dropped;
///   - SIGTERM/SIGINT via signalfd: the loop wakes, stops, and the owner
///     runs an orderly shutdown (flush the trace, close every fd) — no
///     handler-context trickery, no leaked descriptors.
///
/// Ownership: the engine owns fds and buffers; protocol state (who a
/// connection is, what the messages mean) lives in the owner (node.hpp)
/// behind the Handler callbacks. Connections are identified by an opaque
/// 64-bit id that is never reused within a run.
///
/// Determinism for tests: poll_once() runs exactly one poll/dispatch
/// round, so loopback tests can single-step two engines in one thread
/// without races or background threads.

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/message.hpp"
#include "net/stream.hpp"
#include "netengine/poller.hpp"
#include "netengine/socket.hpp"
#include "netengine/timer_wheel.hpp"

namespace ddp::netengine {

using ConnId = std::uint64_t;
inline constexpr ConnId kInvalidConn = 0;

enum class CloseReason : std::uint8_t {
  kLocal,          ///< closed by the owner (cut verdict, shutdown)
  kPeerClosed,     ///< orderly EOF from the peer
  kError,          ///< socket error (reset, refused, poll error)
  kBadFrame,       ///< stream decoder latched a framing error
  kSlowPeer,       ///< write queue exceeded the backpressure bound
  kHandshakeTimeout,  ///< no complete message within the half-open window
};

std::string_view close_reason_name(CloseReason r) noexcept;

struct EngineConfig {
  std::uint16_t listen_port = 0;  ///< 0 = kernel-assigned (read back)
  /// Backpressure bound per connection, bytes. A queue pushed past this
  /// closes the connection with kSlowPeer.
  std::size_t max_write_queue = 1u << 20;
  /// Half-open window, ms: a connection (either direction) must deliver
  /// one complete message within this or be dropped. 0 disables.
  std::uint64_t handshake_timeout_ms = 5000;
  /// Timer wheel resolution.
  std::uint64_t tick_ms = 10;
  /// Milliseconds between half-open sweeps.
  std::uint64_t sweep_period_ms = 250;
};

/// Owner-side callbacks. All fire from inside poll_once(), on its thread.
struct EngineHandler {
  /// Inbound connection accepted (transport-level; the peer is unknown
  /// until it introduces itself in-protocol).
  std::function<void(ConnId)> on_accept;
  /// Outbound connect resolved. `ok` false means refused/failed; the
  /// connection is already gone when false.
  std::function<void(ConnId, bool ok)> on_connect;
  /// One complete framed message arrived.
  std::function<void(ConnId, const net::Message&)> on_message;
  /// Connection closed (any reason, including owner-initiated).
  std::function<void(ConnId, CloseReason)> on_close;
};

class Engine {
 public:
  explicit Engine(const EngineConfig& config);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Bind and listen. Returns false (with the engine still usable for
  /// outbound work) when the port is taken.
  bool listen();
  std::uint16_t listen_port() const noexcept { return listen_port_; }

  void set_handler(EngineHandler handler) { handler_ = std::move(handler); }

  /// Begin a nonblocking connect; on_connect fires when it resolves.
  /// kInvalidConn when the socket could not even be created.
  ConnId connect(const std::string& host, std::uint16_t port);

  /// Queue one message. False when the connection does not exist or the
  /// backpressure bound evicted it (the close callback has then already
  /// fired with kSlowPeer).
  bool send(ConnId id, const net::Message& msg);

  /// Owner-initiated close (flushes nothing: the overlay's messages are
  /// advisory, a closing peer's last words can be dropped).
  void close(ConnId id) { close_conn(id, CloseReason::kLocal); }

  bool is_open(ConnId id) const { return conns_.count(id) != 0; }
  std::size_t connection_count() const noexcept { return conns_.size(); }
  std::size_t write_queue_bytes(ConnId id) const;

  TimerWheel& timers() noexcept { return timers_; }

  /// Route SIGTERM/SIGINT into the loop via signalfd; run() then exits
  /// cleanly on delivery. Call once, before run().
  bool install_signal_handlers();

  /// One poll + dispatch round, waiting at most `timeout_ms` (capped by
  /// the next timer deadline). Returns false when the engine has been
  /// stopped. This is the unit of the event loop; tests call it directly.
  bool poll_once(int timeout_ms = 50);

  /// poll_once until stop() (or a handled signal).
  void run();

  void stop() noexcept { stopped_ = true; }
  bool stopped() const noexcept { return stopped_; }

  /// Monotonic milliseconds since engine construction (the wheel's clock).
  std::uint64_t now_ms() const;

  /// Counters for tests and stats.
  std::uint64_t accepted() const noexcept { return accepted_; }
  std::uint64_t messages_in() const noexcept { return messages_in_; }
  std::uint64_t messages_out() const noexcept { return messages_out_; }
  std::uint64_t bytes_in() const noexcept { return bytes_in_; }
  std::uint64_t bytes_out() const noexcept { return bytes_out_; }

 private:
  struct Conn {
    ConnId id = kInvalidConn;
    Fd fd;
    bool connecting = false;   ///< nonblocking connect still in flight
    bool saw_message = false;  ///< a complete frame has arrived
    std::uint64_t opened_ms = 0;
    net::StreamDecoder decoder;
    /// Outbound bytes not yet accepted by the kernel; front `write_off`
    /// bytes of the first chunk are already gone.
    std::deque<std::vector<std::uint8_t>> write_queue;
    std::size_t write_off = 0;
    std::size_t queued_bytes = 0;
  };

  Conn* conn_by_fd(int fd);
  void close_conn(ConnId id, CloseReason reason);
  void handle_accept();
  void handle_readable(Conn& conn);
  void handle_writable(Conn& conn);
  void resolve_connect(Conn& conn);
  void sweep_half_open();
  bool flush_writes(Conn& conn);
  void update_interest(Conn& conn);

  EngineConfig config_;
  EngineHandler handler_;
  Poller poller_;
  TimerWheel timers_;
  Fd listener_;
  std::uint16_t listen_port_ = 0;
  Fd signal_fd_;
  std::unordered_map<ConnId, Conn> conns_;
  std::unordered_map<int, ConnId> by_fd_;
  ConnId next_id_ = 1;
  bool stopped_ = false;
  std::uint64_t start_ms_ = 0;
  std::vector<PollEvent> events_;  ///< reused poll scratch

  std::uint64_t accepted_ = 0;
  std::uint64_t messages_in_ = 0;
  std::uint64_t messages_out_ = 0;
  std::uint64_t bytes_in_ = 0;
  std::uint64_t bytes_out_ = 0;
};

}  // namespace ddp::netengine
