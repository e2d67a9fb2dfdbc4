// UdpTransport: the live implementation of the Transport interface — one
// non-blocking UDP socket per process, driven by an event loop that maps the
// protocol's Scheduler timers onto the wall clock.
//
// This is what takes EvsNode off the simulator: the identical protocol
// state machine runs unmodified, but packets cross the kernel's UDP stack
// (real loss under load, real reordering, real syscall latency) and timers
// fire in wall-clock microseconds. Design points:
//
//   * One socket, one process. Peers are registered by address
//     (PeerAddr = {ip, port}; the loopback-port overload of add_peer keeps
//     the single-machine harness path terse), so a ring can span processes
//     and hosts, not just ports on 127.0.0.1. A "broadcast" is by default a
//     sendto() to every registered peer *including the sender itself* — the
//     loopback self-delivery the protocol expects from broadcast hardware
//     arrives through the same socket as everything else, so it is subject
//     to the same loss and queueing. Options can instead wire a real
//     multicast group (IP_ADD_MEMBERSHIP + IP_MULTICAST_{IF,TTL,LOOP}):
//     then a broadcast is ONE datagram to the group, and self-delivery
//     comes from the kernel's multicast loop.
//   * Batched, non-blocking syscalls. The datagrams one service pass
//     produces (a token visit's fan-out) leave in one sendmmsg() batch at
//     the end of the pass, never held back; the receive path drains the
//     socket with recvmmsg() into per-datagram arena buffers
//     (net/arena.hpp) that the zero-copy decode path pins.
//     EAGAIN/EWOULDBLOCK parks datagrams in a bounded backlog flushed on
//     POLLOUT; when the backlog is full the datagram is dropped and counted
//     (net.dropped_backpressure) — exactly the loss the retransmission and
//     recovery machinery already absorbs.
//     `backpressured()` exposes the saturated state so harnesses can
//     surface it through the Errc::backpressure path.
//   * Clock mapping. The transport owns a Scheduler whose virtual time is
//     microseconds since open(); every service pass advances it to the
//     wall clock, firing due timers, and the poll timeout is bounded by
//     Scheduler::next_time(). Protocol code calls schedule_after() exactly
//     as in sim.
//   * Drop filters. block_peer()/unblock_peer() discard datagrams from/to a
//     peer (by ProcessId, or by PeerAddr for sources that never resolved to
//     a pid) inside the transport, counted as net.dropped_filter — an
//     iptables DROP rule without privileges; this is how
//     testkit::LiveCluster scripts the Fig. 6 partition over real sockets.
//   * Single-consumer affinity, externally drivable. Everything except
//     post() and the stats snapshot must run on whichever thread currently
//     drives the loop. The transport can drive itself (run()/poll_once()),
//     or an Executor (net/executor.hpp) can multiplex many transports onto
//     one worker by composing the exposed pieces: fd() + wants_pollout()
//     for its pollfd set, next_deadline_us() to merge this transport's
//     timers into the worker's ppoll deadline, and service() for the
//     non-blocking work pass. service() bounds its socket drain by
//     Options::max_recv_per_poll per call, which is the fairness contract
//     that keeps one flooded node from starving a co-scheduled neighbor's
//     timers (see tests/executor/).
//   * post() is the thread-safe door into the loop: a lock-free MPSC inbox
//     (net/inbox.hpp) plus a wake of whoever is parked in poll — the
//     transport's own eventfd, or the owning worker via set_waker(). Once
//     the loop has finished (run() returned, or Executor::stop() completed)
//     the inbox is closed and post() returns false instead of stranding
//     the closure — the fail-fast half of the lifecycle-race fix.
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/inbox.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"
#include "util/status.hpp"
#include "util/types.hpp"

namespace evs {

/// A peer's socket address: dotted-quad IPv4 + UDP port. The live analogue
/// of a ProcessId — add_peer() binds the two together.
struct PeerAddr {
  std::string ip{"127.0.0.1"};
  std::uint16_t port{0};

  bool operator==(const PeerAddr& other) const {
    return ip == other.ip && port == other.port;
  }
};

class UdpTransport final : public Transport {
 public:
  struct Options {
    /// Local address to bind. Multicast mode overrides this with INADDR_ANY
    /// (required to receive group traffic on Linux).
    std::string bind_ip{"127.0.0.1"};
    std::uint16_t port{0};  ///< bind port; 0 = ephemeral
    /// Largest datagram accepted for send/receive. Protocol frames are
    /// bounded far below typical loopback MTUs.
    std::size_t max_datagram_bytes{60u * 1024};
    /// Datagrams parked after EAGAIN before further sends are dropped.
    std::size_t send_backlog_datagrams{256};
    /// Receive datagrams dispatched per service pass before control returns
    /// to the caller. This is both the anti-starvation bound for a flooded
    /// socket's own timers and the per-node fairness budget when an
    /// Executor worker multiplexes several transports: a neighbor's heavy
    /// delivery consumes at most this many dispatches before every other
    /// node on the worker gets its timers advanced again.
    int max_recv_per_poll{64};
    /// SO_RCVBUF / SO_SNDBUF request, 0 = leave the kernel default. Tests
    /// shrink these to force EAGAIN backpressure deterministically.
    int so_rcvbuf{0};
    int so_sndbuf{0};
    /// CLOCK_MONOTONIC reading (ns) to use as virtual time zero; 0 = stamp
    /// at open(). Co-located transports (LiveCluster) pass one shared
    /// reading so every member's trace timestamps sit on the same time
    /// base — the spec checker compares send/delivery times across
    /// processes, and per-open epochs would skew them by the start stagger.
    std::int64_t epoch_ns{0};

    // --- group-send wiring (real multicast sockets) ---
    /// When non-empty (e.g. "239.255.42.1"): open() joins the group on
    /// `multicast_if`, wires IP_MULTICAST_{IF,TTL,LOOP}, and broadcast()
    /// sends ONE datagram to group:multicast_port instead of fanning out
    /// per peer. Every ring member must bind the same port on its own host
    /// and join the same group; self-delivery then comes from
    /// IP_MULTICAST_LOOP instead of self-registration. Per-peer *outbound*
    /// drop filters cannot apply to a single group datagram — partition
    /// scripting over group sends relies on the inbound filters both sides
    /// install.
    std::string multicast_group{};
    /// Destination port for group sends; 0 = this socket's own bound port
    /// (the symmetric-ring case).
    std::uint16_t multicast_port{0};
    std::string multicast_if{"127.0.0.1"};
    int multicast_ttl{1};
    bool multicast_loop{true};
  };

  struct Stats {
    std::uint64_t datagrams_sent{0};
    std::uint64_t datagrams_received{0};
    std::uint64_t bytes_sent{0};
    std::uint64_t bytes_received{0};
    std::uint64_t eagain_deferrals{0};      ///< sends parked on EAGAIN
    std::uint64_t dropped_backpressure{0};  ///< sends dropped, backlog full
    std::uint64_t dropped_filter{0};        ///< drop-filtered (both directions)
    std::uint64_t dropped_unknown_peer{0};  ///< datagram from an unregistered address
    std::uint64_t dropped_detached{0};      ///< received while no endpoint attached
    std::uint64_t send_errors{0};           ///< sendto() failed hard (not EAGAIN)
    std::uint64_t posts_rejected{0};        ///< post() after the loop finished
  };

  explicit UdpTransport(Options options);
  UdpTransport() : UdpTransport(Options{}) {}
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  /// Create and bind the socket (idempotent failure: a transport that fails
  /// to open stays closed). Errc::transport_io carries the errno detail —
  /// the harnesses treat it as "sockets unavailable, skip live tests".
  Status open();
  bool is_open() const { return fd_ >= 0; }
  /// The bound port (valid after open()).
  std::uint16_t port() const { return port_; }
  /// The bound address (valid after open()): Options::bind_ip + port().
  PeerAddr local_addr() const { return PeerAddr{options_.bind_ip, port_}; }

  /// Register peer `p` at `addr`. Re-registering the same peer updates its
  /// address (its drop filter, if any, survives the move — a restarted node
  /// that rebinds an ephemeral port stays behind an existing partition
  /// filter). Registering a SECOND peer at an address already held by a
  /// different peer is an explicit Errc::invalid_argument error, not a
  /// silent overwrite: aliasing two ProcessIds onto one source address
  /// would let the aliased peer's datagrams resolve to the other pid and
  /// walk through its block filter. Errors leave the peer table unchanged.
  Status add_peer(ProcessId p, const PeerAddr& addr);
  /// Loopback convenience: peer at 127.0.0.1:port. Registering self is what
  /// enables broadcast loopback in per-peer fan-out mode.
  Status add_peer(ProcessId p, std::uint16_t port) {
    return add_peer(p, PeerAddr{"127.0.0.1", port});
  }

  // --- partition scripting (drop filters, both directions) ---
  void block_peer(ProcessId p);
  void unblock_peer(ProcessId p);
  bool peer_blocked(ProcessId p) const { return blocked_.count(p) > 0; }
  /// Address-form filters, for sources that never resolved to a ProcessId
  /// (or to pre-block an address before its peer registers). Invalid
  /// addresses are rejected.
  Status block_peer(const PeerAddr& addr);
  Status unblock_peer(const PeerAddr& addr);

  // Transport:
  void attach(ProcessId p, Endpoint* endpoint) override;
  void detach(ProcessId p) override;
  bool attached(ProcessId p) const override;
  void broadcast(ProcessId from, std::vector<std::uint8_t> payload) override;
  void unicast(ProcessId from, ProcessId to,
               std::vector<std::uint8_t> payload) override;
  Scheduler& scheduler() override { return scheduler_; }
  /// Poll without sleeping for the next `us` (next_deadline_us() reads
  /// "now" until then). Called by the driving thread only.
  void expect_traffic(SimTime us) override;

  // --- event loop (self-driven mode) ---
  /// One iteration: service the transport, park in ppoll for at most
  /// `max_wait_us` (clamped to the next timer deadline), service
  /// again. Returns the number of datagrams dispatched.
  int poll_once(SimTime max_wait_us);

  /// Loop until stop() is called (from any thread). On exit the posting
  /// door closes: queued closures run (a stop posted together with work
  /// does not strand it), later post() calls return false.
  void run();
  void stop();

  // --- event loop (executor-driven mode; see net/executor.hpp) ---
  /// The socket fd to poll for POLLIN (and POLLOUT while wants_pollout()).
  int fd() const { return fd_; }
  bool wants_pollout() const { return !backlog_.empty(); }
  /// Absolute time (in this transport's wall_now_us() base) by which the
  /// driver must service this transport again: the next scheduler timer,
  /// or "now" while queued sends wait for a flush (or a backlog for
  /// POLLOUT) or while expect_traffic() keeps the transport awake.
  /// nullopt = nothing time-bounded pending.
  std::optional<SimTime> next_deadline_us();
  /// Non-blocking work pass: posted closures, clock advance + due timers,
  /// backlog flush, bounded socket drain (Options::max_recv_per_poll),
  /// batch flush. Returns the number of datagrams dispatched. Must only be
  /// called by the single driving thread.
  int service();
  /// Replace the post() wake mechanism: instead of writing this transport's
  /// own eventfd, call `waker` (the executor points it at the owning
  /// worker's eventfd). Set before the loop starts; not thread-safe against
  /// a running loop.
  void set_waker(std::function<void()> waker) { waker_ = std::move(waker); }
  /// Close the posting door and run what was already accepted, then flush
  /// the out-batch — the loop's final act. run() does this itself; an
  /// Executor calls it for each member after its workers joined. Idempotent.
  void finish();

  /// Thread-safe: enqueue `fn` to run on the driving thread at the next
  /// service pass and wake the loop if it is parked. Returns false — and
  /// does NOT enqueue — once the loop has finished; the caller must handle
  /// the task itself (LiveCluster::call runs it inline, which is safe
  /// exactly because a finished loop can no longer touch the node).
  [[nodiscard]] bool post(std::function<void()> fn);

  /// Approximate depth of the post() inbox (monitoring; the executor's
  /// inbox-depth histogram).
  std::size_t inbox_depth() const { return inbox_.depth(); }

  /// Microseconds of wall clock since the epoch (open() or the shared
  /// Options::epoch_ns) — the live now().
  SimTime wall_now_us() const;

  /// Current CLOCK_MONOTONIC in nanoseconds — the reading harnesses take
  /// once and fan out through Options::epoch_ns.
  static std::int64_t monotonic_now_ns();

  /// True while the send backlog is at capacity: the kernel pushed back
  /// faster than the loop can flush. Harnesses surface this through the
  /// protocol's Errc::backpressure path.
  bool backpressured() const {
    return backpressured_.load(std::memory_order_relaxed);
  }

  /// Thread-safe snapshot (loop thread publishes with relaxed atomics).
  Stats stats() const;

  /// The transport's "net.*" instruments, mirroring the sim Network's
  /// registry shape where the concepts coincide. Only safe to read from the
  /// driving thread (or after the loop stopped); LiveCluster snapshots it
  /// via post().
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  /// Outbound datagram: the payload is shared, so a broadcast's N queue
  /// entries reference one buffer instead of carrying N copies.
  struct PendingDatagram {
    sockaddr_in to;
    net::DatagramRef payload;
  };

  /// (ip, port) packed into one map key: host-order ip in the high 32 bits.
  static std::uint64_t addr_key(const sockaddr_in& addr);

  void close_fd();
  Status wire_group_send_options();
  void flush_backlog();
  /// Queue one datagram for the next sendmmsg flush. EAGAIN at flush time
  /// parks it in backlog_.
  void send_datagram(const sockaddr_in& to, net::DatagramRef payload);
  /// sendmmsg() the out-batch.
  void flush_out_batch();
  void park_or_drop(PendingDatagram d);
  void drain_socket(int budget);
  void advance_clock();
  void drain_posted();
  void wake();
  void note_backpressure();

  Options options_;
  Scheduler scheduler_;
  SimTime awake_until_{0};  ///< expect_traffic(): poll without sleeping until then
  int fd_{-1};
  int wake_fd_{-1};       ///< eventfd the poster writes to wake poll()
  std::uint16_t port_{0};
  std::int64_t epoch_ns_{0};  ///< CLOCK_MONOTONIC at open()

  struct Peer {
    sockaddr_in addr;
    std::uint64_t key;
  };
  std::unordered_map<ProcessId, Peer> peers_;
  std::unordered_map<std::uint64_t, ProcessId> addr_peer_;
  std::unordered_set<ProcessId> blocked_;
  std::unordered_set<std::uint64_t> blocked_addrs_;
  std::unordered_map<ProcessId, Endpoint*> endpoints_;
  /// Group-send destination when multicast mode is wired.
  std::optional<sockaddr_in> group_dst_;

  std::deque<PendingDatagram> backlog_;   ///< parked on EAGAIN, FIFO
  std::vector<PendingDatagram> out_batch_;  ///< this pass's sends, for sendmmsg
  std::atomic<bool> backpressured_{false};
  std::atomic<bool> stop_{false};

  net::TaskInbox inbox_;
  std::function<void()> waker_;

  /// Receive buffers come from here: one ref-counted buffer per datagram
  /// (recvmmsg fills a batch of them), recycled when the last message view
  /// into the datagram is released.
  std::shared_ptr<net::DatagramArena> arena_{net::DatagramArena::create()};

  // Counters are written by the driving thread only; stats() reads them
  // from other threads, so each is an atomic with relaxed ordering (they
  // are monitoring data, not synchronization).
  struct AtomicStats {
    std::atomic<std::uint64_t> datagrams_sent{0};
    std::atomic<std::uint64_t> datagrams_received{0};
    std::atomic<std::uint64_t> bytes_sent{0};
    std::atomic<std::uint64_t> bytes_received{0};
    std::atomic<std::uint64_t> eagain_deferrals{0};
    std::atomic<std::uint64_t> dropped_backpressure{0};
    std::atomic<std::uint64_t> dropped_filter{0};
    std::atomic<std::uint64_t> dropped_unknown_peer{0};
    std::atomic<std::uint64_t> dropped_detached{0};
    std::atomic<std::uint64_t> send_errors{0};
    std::atomic<std::uint64_t> posts_rejected{0};
  };
  AtomicStats stats_;

  /// Cached instrument handles (same pattern as Network::Met).
  struct Met {
    obs::Counter& broadcasts;
    obs::Counter& unicasts;
    obs::Counter& deliveries;
    obs::Counter& bytes_delivered;
    obs::Counter& dropped_filter;
    obs::Counter& dropped_backpressure;
    obs::Counter& eagain_deferrals;
    obs::Histogram& packet_bytes;
    explicit Met(obs::MetricsRegistry& r);
  };
  obs::MetricsRegistry metrics_;
  Met met_{metrics_};
};

}  // namespace evs
