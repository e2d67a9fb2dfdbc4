#include "net/udp_transport.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <poll.h>
#include <string.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace evs {

namespace {

/// Parse "a.b.c.d":port into a sockaddr_in. nullopt on a malformed ip.
std::optional<sockaddr_in> parse_addr(const std::string& ip,
                                      std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    return std::nullopt;
  }
  return addr;
}

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

UdpTransport::Met::Met(obs::MetricsRegistry& r)
    : broadcasts(r.counter("net.broadcasts")),
      unicasts(r.counter("net.unicasts")),
      deliveries(r.counter("net.deliveries")),
      bytes_delivered(r.counter("net.bytes_delivered")),
      dropped_filter(r.counter("net.dropped_filter")),
      dropped_backpressure(r.counter("net.dropped_backpressure")),
      eagain_deferrals(r.counter("net.eagain_deferrals")),
      packet_bytes(r.histogram("net.packet_bytes")) {}

namespace {
/// Datagrams per sendmmsg/recvmmsg call. Bounds the stack arrays and the
/// out-batch memory; excess simply takes another syscall.
constexpr int kMmsgBatch = 64;
constexpr int kRecvBatch = 16;
}  // namespace

std::uint64_t UdpTransport::addr_key(const sockaddr_in& addr) {
  return (static_cast<std::uint64_t>(ntohl(addr.sin_addr.s_addr)) << 16) |
         ntohs(addr.sin_port);
}

UdpTransport::UdpTransport(Options options) : options_(std::move(options)) {
  out_batch_.reserve(kMmsgBatch);
}

UdpTransport::~UdpTransport() { close_fd(); }

void UdpTransport::close_fd() {
  if (fd_ >= 0) ::close(fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  fd_ = wake_fd_ = -1;
}

Status UdpTransport::wire_group_send_options() {
  if (!options_.multicast_group.empty()) {
    const std::uint16_t dst_port =
        options_.multicast_port != 0 ? options_.multicast_port : port_;
    auto group = parse_addr(options_.multicast_group, dst_port);
    if (!group.has_value() ||
        !IN_MULTICAST(ntohl(group->sin_addr.s_addr))) {
      return Status::error(Errc::invalid_argument,
                           "multicast_group is not a multicast address: " +
                               options_.multicast_group);
    }
    auto iface = parse_addr(options_.multicast_if, 0);
    if (!iface.has_value()) {
      return Status::error(Errc::invalid_argument,
                           "multicast_if is not an IPv4 address: " +
                               options_.multicast_if);
    }
    ip_mreq mreq{};
    mreq.imr_multiaddr = group->sin_addr;
    mreq.imr_interface = iface->sin_addr;
    if (::setsockopt(fd_, IPPROTO_IP, IP_ADD_MEMBERSHIP, &mreq,
                     sizeof(mreq)) != 0) {
      return Status::error(Errc::transport_io,
                           std::string("IP_ADD_MEMBERSHIP: ") +
                               strerror(errno));
    }
    if (::setsockopt(fd_, IPPROTO_IP, IP_MULTICAST_IF, &iface->sin_addr,
                     sizeof(iface->sin_addr)) != 0) {
      return Status::error(Errc::transport_io,
                           std::string("IP_MULTICAST_IF: ") + strerror(errno));
    }
    const unsigned char ttl =
        static_cast<unsigned char>(std::clamp(options_.multicast_ttl, 0, 255));
    ::setsockopt(fd_, IPPROTO_IP, IP_MULTICAST_TTL, &ttl, sizeof(ttl));
    const unsigned char loop = options_.multicast_loop ? 1 : 0;
    ::setsockopt(fd_, IPPROTO_IP, IP_MULTICAST_LOOP, &loop, sizeof(loop));
    group_dst_ = *group;
  }
  return Status::ok_status();
}

Status UdpTransport::open() {
  if (is_open()) return Status::ok_status();
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    return Status::error(Errc::transport_io,
                         std::string("socket(): ") + strerror(errno));
  }
  if (options_.so_rcvbuf > 0) {
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &options_.so_rcvbuf,
                 sizeof(options_.so_rcvbuf));
  }
  if (options_.so_sndbuf > 0) {
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &options_.so_sndbuf,
                 sizeof(options_.so_sndbuf));
  }
  sockaddr_in addr{};
  if (!options_.multicast_group.empty()) {
    // Group members must bind the wildcard (and share the port across
    // processes) to receive group traffic.
    const int on = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &on, sizeof(on));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(options_.port);
  } else {
    auto parsed = parse_addr(options_.bind_ip, options_.port);
    if (!parsed.has_value()) {
      close_fd();
      return Status::error(Errc::invalid_argument,
                           "bind_ip is not an IPv4 address: " +
                               options_.bind_ip);
    }
    addr = *parsed;
  }
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string detail = std::string("bind(") + options_.bind_ip + ":" +
                               std::to_string(options_.port) +
                               "): " + strerror(errno);
    close_fd();
    return Status::error(Errc::transport_io, detail);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const std::string detail = std::string("getsockname(): ") + strerror(errno);
    close_fd();
    return Status::error(Errc::transport_io, detail);
  }
  port_ = ntohs(bound.sin_port);
  if (Status st = wire_group_send_options(); !st.ok()) {
    close_fd();
    return st;
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    const std::string detail = std::string("eventfd(): ") + strerror(errno);
    close_fd();
    return Status::error(Errc::transport_io, detail);
  }
  epoch_ns_ = options_.epoch_ns != 0 ? options_.epoch_ns : monotonic_ns();
  return Status::ok_status();
}

std::int64_t UdpTransport::monotonic_now_ns() { return monotonic_ns(); }

SimTime UdpTransport::wall_now_us() const {
  const std::int64_t delta = monotonic_ns() - epoch_ns_;
  return delta <= 0 ? 0 : static_cast<SimTime>(delta / 1'000);
}

Status UdpTransport::add_peer(ProcessId p, const PeerAddr& addr) {
  auto parsed = parse_addr(addr.ip, addr.port);
  if (!parsed.has_value()) {
    return Status::error(Errc::invalid_argument,
                         "add_peer: not an IPv4 address: " + addr.ip);
  }
  const std::uint64_t key = addr_key(*parsed);
  if (auto holder = addr_peer_.find(key);
      holder != addr_peer_.end() && holder->second != p) {
    // Refuse to alias two peers onto one source address: inbound resolution
    // is by address, so the second registration would make the first peer's
    // datagrams arrive as the second — and sail through the first's block
    // filter. The caller meant either a different address or a remap of the
    // SAME peer; make it say which.
    return Status::error(Errc::invalid_argument,
                         "add_peer: " + addr.ip + ":" +
                             std::to_string(addr.port) +
                             " already registered to another peer");
  }
  if (auto it = peers_.find(p); it != peers_.end()) {
    addr_peer_.erase(it->second.key);
  }
  peers_[p] = Peer{*parsed, key};
  addr_peer_[key] = p;
  // Deliberately NOT touching blocked_: a re-registered peer (restarted node
  // on a fresh ephemeral port) stays behind an existing partition filter.
  return Status::ok_status();
}

void UdpTransport::block_peer(ProcessId p) { blocked_.insert(p); }
void UdpTransport::unblock_peer(ProcessId p) { blocked_.erase(p); }

Status UdpTransport::block_peer(const PeerAddr& addr) {
  auto parsed = parse_addr(addr.ip, addr.port);
  if (!parsed.has_value()) {
    return Status::error(Errc::invalid_argument,
                         "block_peer: not an IPv4 address: " + addr.ip);
  }
  blocked_addrs_.insert(addr_key(*parsed));
  return Status::ok_status();
}

Status UdpTransport::unblock_peer(const PeerAddr& addr) {
  auto parsed = parse_addr(addr.ip, addr.port);
  if (!parsed.has_value()) {
    return Status::error(Errc::invalid_argument,
                         "unblock_peer: not an IPv4 address: " + addr.ip);
  }
  blocked_addrs_.erase(addr_key(*parsed));
  return Status::ok_status();
}

void UdpTransport::attach(ProcessId p, Endpoint* endpoint) {
  EVS_ASSERT(endpoint != nullptr);
  endpoints_[p] = endpoint;
}

void UdpTransport::detach(ProcessId p) { endpoints_.erase(p); }

bool UdpTransport::attached(ProcessId p) const { return endpoints_.count(p) > 0; }

void UdpTransport::note_backpressure() {
  // Hysteresis mirrors EvsNode's drain callback: flag on at capacity, off
  // once the backlog has drained to half, so the edge does not thrash.
  if (backlog_.size() >= options_.send_backlog_datagrams) {
    backpressured_.store(true, std::memory_order_relaxed);
  } else if (backlog_.size() <= options_.send_backlog_datagrams / 2) {
    backpressured_.store(false, std::memory_order_relaxed);
  }
}

void UdpTransport::park_or_drop(PendingDatagram d) {
  if (backlog_.size() >= options_.send_backlog_datagrams) {
    stats_.dropped_backpressure.fetch_add(1, std::memory_order_relaxed);
    met_.dropped_backpressure.inc();
    note_backpressure();
    return;
  }
  backlog_.push_back(std::move(d));
  note_backpressure();
}

void UdpTransport::send_datagram(const sockaddr_in& to,
                                 net::DatagramRef payload) {
  if (!payload || payload->size() > options_.max_datagram_bytes) {
    stats_.send_errors.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  out_batch_.push_back(PendingDatagram{to, std::move(payload)});
  if (out_batch_.size() >= static_cast<std::size_t>(kMmsgBatch)) flush_out_batch();
}

void UdpTransport::flush_out_batch() {
  if (out_batch_.empty()) return;
  // Preserve per-socket send ordering: while anything is parked, everything
  // queues behind it until the backlog flushes (flush_backlog runs first in
  // every loop iteration).
  std::size_t idx = 0;
  if (backlog_.empty()) {
    while (idx < out_batch_.size()) {
      const int want = static_cast<int>(std::min<std::size_t>(
          out_batch_.size() - idx, static_cast<std::size_t>(kMmsgBatch)));
      mmsghdr msgs[kMmsgBatch];
      iovec iovs[kMmsgBatch];
      memset(msgs, 0, sizeof(mmsghdr) * static_cast<std::size_t>(want));
      for (int i = 0; i < want; ++i) {
        PendingDatagram& d = out_batch_[idx + static_cast<std::size_t>(i)];
        iovs[i].iov_base = const_cast<std::uint8_t*>(d.payload->data());
        iovs[i].iov_len = d.payload->size();
        msgs[i].msg_hdr.msg_name = &d.to;
        msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
        msgs[i].msg_hdr.msg_iov = &iovs[i];
        msgs[i].msg_hdr.msg_iovlen = 1;
      }
      const int r = ::sendmmsg(fd_, msgs, static_cast<unsigned>(want), 0);
      if (r > 0) {
        std::uint64_t bytes = 0;
        for (int i = 0; i < r; ++i) {
          bytes += out_batch_[idx + static_cast<std::size_t>(i)].payload->size();
        }
        stats_.datagrams_sent.fetch_add(static_cast<std::uint64_t>(r),
                                        std::memory_order_relaxed);
        stats_.bytes_sent.fetch_add(bytes, std::memory_order_relaxed);
        idx += static_cast<std::size_t>(r);
        // A short count means datagram `idx` failed; the retry below hits
        // the same error with r == -1 and a meaningful errno.
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) {
        // Kernel pushback: park the rest; POLLOUT (or the next loop
        // iteration, for ENOBUFS on loopback) flushes it.
        stats_.eagain_deferrals.fetch_add(1, std::memory_order_relaxed);
        met_.eagain_deferrals.inc();
        break;
      }
      // Hard per-datagram error: drop the head, keep going.
      stats_.send_errors.fetch_add(1, std::memory_order_relaxed);
      EVS_WARN("udp", "sendmmsg to port %u failed: %s",
               ntohs(out_batch_[idx].to.sin_port), strerror(errno));
      ++idx;
    }
  }
  for (; idx < out_batch_.size(); ++idx) {
    park_or_drop(std::move(out_batch_[idx]));
  }
  out_batch_.clear();
}

void UdpTransport::flush_backlog() {
  while (!backlog_.empty()) {
    const PendingDatagram& d = backlog_.front();
    const ssize_t n =
        ::sendto(fd_, d.payload->data(), d.payload->size(), 0,
                 reinterpret_cast<const sockaddr*>(&d.to), sizeof(d.to));
    if (n >= 0) {
      stats_.datagrams_sent.fetch_add(1, std::memory_order_relaxed);
      stats_.bytes_sent.fetch_add(d.payload->size(), std::memory_order_relaxed);
      backlog_.pop_front();
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) break;
    stats_.send_errors.fetch_add(1, std::memory_order_relaxed);
    backlog_.pop_front();  // unsendable; drop rather than wedge the queue
  }
  note_backpressure();
}

void UdpTransport::broadcast(ProcessId from, std::vector<std::uint8_t> payload) {
  EVS_ASSERT(is_open());
  met_.broadcasts.inc();
  net::DatagramRef shared = net::make_datagram(std::move(payload));
  if (group_dst_.has_value()) {
    // Real group send: one datagram on the wire; the kernel (or the LAN)
    // fans it out, and IP_MULTICAST_LOOP covers self-delivery. Per-peer
    // outbound filtering cannot apply to a single shared datagram —
    // partition scripting in group mode relies on inbound filters.
    send_datagram(*group_dst_, std::move(shared));
    return;
  }
  // Loopback/per-peer mode: one shared buffer; each receiver's queue entry
  // bumps a refcount.
  for (const auto& [peer, info] : peers_) {
    if ((blocked_.count(peer) > 0 || blocked_addrs_.count(info.key) > 0) &&
        peer != from) {
      stats_.dropped_filter.fetch_add(1, std::memory_order_relaxed);
      met_.dropped_filter.inc();
      continue;
    }
    send_datagram(info.addr, shared);
  }
}

void UdpTransport::unicast(ProcessId from, ProcessId to,
                           std::vector<std::uint8_t> payload) {
  EVS_ASSERT(is_open());
  (void)from;
  met_.unicasts.inc();
  auto it = peers_.find(to);
  if (it == peers_.end()) {
    stats_.dropped_unknown_peer.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if ((blocked_.count(to) > 0 || blocked_addrs_.count(it->second.key) > 0) &&
      to != from) {
    stats_.dropped_filter.fetch_add(1, std::memory_order_relaxed);
    met_.dropped_filter.inc();
    return;
  }
  send_datagram(it->second.addr, net::make_datagram(std::move(payload)));
}

void UdpTransport::drain_posted() {
  inbox_.drain([](net::TaskInbox::Task&& fn) { fn(); });
}

void UdpTransport::wake() {
  if (waker_) {
    waker_();
    return;
  }
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
}

bool UdpTransport::post(std::function<void()> fn) {
  if (!inbox_.push(std::move(fn))) {
    stats_.posts_rejected.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  wake();
  return true;
}

void UdpTransport::advance_clock() { scheduler_.run_until(wall_now_us()); }

void UdpTransport::drain_socket(int budget) {
  int received = 0;
  while (received < budget) {
    const int want = std::min(budget - received, kRecvBatch);
    // Stage one arena buffer per slot; unused ones are recycled below, used
    // ones become the ref-counted datagram the decode path pins.
    std::vector<std::vector<std::uint8_t>> bufs;
    bufs.reserve(static_cast<std::size_t>(want));
    mmsghdr msgs[kRecvBatch];
    iovec iovs[kRecvBatch];
    sockaddr_in froms[kRecvBatch];
    memset(msgs, 0, sizeof(mmsghdr) * static_cast<std::size_t>(want));
    for (int i = 0; i < want; ++i) {
      bufs.push_back(arena_->acquire(options_.max_datagram_bytes));
      iovs[i].iov_base = bufs.back().data();
      iovs[i].iov_len = bufs.back().size();
      msgs[i].msg_hdr.msg_name = &froms[i];
      msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    const int r = ::recvmmsg(fd_, msgs, static_cast<unsigned>(want), 0, nullptr);
    if (r <= 0) {
      for (auto& b : bufs) arena_->recycle(std::move(b));
      return;  // EAGAIN: drained
    }
    for (int i = r; i < want; ++i) arena_->recycle(std::move(bufs[static_cast<std::size_t>(i)]));
    received += r;
    for (int i = 0; i < r; ++i) {
      auto& buf = bufs[static_cast<std::size_t>(i)];
      const std::size_t n = msgs[i].msg_len;
      stats_.datagrams_received.fetch_add(1, std::memory_order_relaxed);
      stats_.bytes_received.fetch_add(n, std::memory_order_relaxed);
      const std::uint64_t src_key = addr_key(froms[i]);
      if (blocked_addrs_.count(src_key) > 0) {
        stats_.dropped_filter.fetch_add(1, std::memory_order_relaxed);
        met_.dropped_filter.inc();
        arena_->recycle(std::move(buf));
        continue;
      }
      auto src = addr_peer_.find(src_key);
      if (src == addr_peer_.end()) {
        stats_.dropped_unknown_peer.fetch_add(1, std::memory_order_relaxed);
        arena_->recycle(std::move(buf));
        continue;
      }
      if (blocked_.count(src->second) > 0) {
        // Inbound half of the partition filter: datagrams already in flight
        // when the filter went up die here, like packets on a cut wire.
        stats_.dropped_filter.fetch_add(1, std::memory_order_relaxed);
        met_.dropped_filter.inc();
        arena_->recycle(std::move(buf));
        continue;
      }
      if (endpoints_.empty()) {
        stats_.dropped_detached.fetch_add(1, std::memory_order_relaxed);
        arena_->recycle(std::move(buf));
        continue;
      }
      // Re-advance before every dispatch: processing a datagram can take real
      // time (token handling fans out sends and deliveries), and a peer's
      // clock keeps moving meanwhile. Stamping this dispatch with the
      // pre-drain now would let a delivery carry an earlier timestamp than
      // its sender's send — a causality inversion the spec checker rejects.
      advance_clock();
      // A live transport serves one process; dispatch to each attached
      // endpoint (normally exactly one). Snapshot first: a handler may
      // detach itself (fail-stop) mid-dispatch.
      std::vector<std::pair<ProcessId, Endpoint*>> targets(endpoints_.begin(),
                                                           endpoints_.end());
      buf.resize(n);
      Packet packet;
      packet.src = src->second;
      packet.broadcast = false;  // indistinguishable on the wire; unused by nodes
      packet.data = arena_->make(std::move(buf));
      for (auto& [pid, ep] : targets) {
        if (endpoints_.count(pid) == 0) continue;  // detached by an earlier target
        packet.dst = pid;
        met_.deliveries.inc();
        met_.bytes_delivered.inc(static_cast<std::uint64_t>(n));
        met_.packet_bytes.record(static_cast<std::int64_t>(n));
        ep->on_packet(packet);
      }
    }
    if (r < want) return;  // socket drained mid-batch
  }
}

int UdpTransport::service() {
  EVS_ASSERT_MSG(is_open(), "service on a transport that is not open");
  // Advance before the posted tasks run: they read now() (for the timers
  // they arm and the events they trace) after a sleep that may have lasted
  // milliseconds. Advance again after them, so a zero-delay timer a task
  // armed (a send releasing a held token) fires in this pass and its
  // datagrams leave in the flush below.
  advance_clock();
  drain_posted();
  advance_clock();
  flush_backlog();
  flush_out_batch();
  const std::uint64_t before =
      stats_.datagrams_received.load(std::memory_order_relaxed);
  // The budget is the fairness contract: a flooded socket hands control back
  // after max_recv_per_poll dispatches so this transport's own timers (the
  // advance_clock below) and, under an executor, every co-scheduled
  // neighbor's timers keep up with the wall clock.
  drain_socket(options_.max_recv_per_poll);
  // Sends generated while dispatching received datagrams (token fan-out)
  // flush as one sendmmsg batch — this is where the syscall batching pays.
  flush_out_batch();
  advance_clock();
  return static_cast<int>(
      stats_.datagrams_received.load(std::memory_order_relaxed) - before);
}

void UdpTransport::expect_traffic(SimTime us) {
  awake_until_ = std::max(awake_until_, wall_now_us() + us);
}

std::optional<SimTime> UdpTransport::next_deadline_us() {
  std::optional<SimTime> deadline;
  if (auto next = scheduler_.next_time(); next.has_value()) deadline = *next;
  // Sends queued by the pass's trailing timers, or parked behind a backlog,
  // want another pass now.
  if (!backlog_.empty() || !out_batch_.empty()) deadline = 0;
  if (awake_until_ != 0) {
    if (awake_until_ > wall_now_us()) {
      deadline = 0;
    } else {
      awake_until_ = 0;
    }
  }
  return deadline;
}

int UdpTransport::poll_once(SimTime max_wait_us) {
  EVS_ASSERT_MSG(is_open(), "poll_once on a transport that is not open");
  int dispatched = service();

  // Bound the wait by the next protocol timer so wall-clock timers fire on
  // time.
  SimTime wait_us = max_wait_us;
  if (auto deadline = next_deadline_us(); deadline.has_value()) {
    const SimTime now = wall_now_us();
    wait_us = std::min(wait_us, *deadline > now ? *deadline - now : 0);
  }

  pollfd fds[2];
  fds[0].fd = fd_;
  fds[0].events = POLLIN;
  if (wants_pollout()) fds[0].events |= POLLOUT;
  fds[0].revents = 0;
  fds[1].fd = wake_fd_;
  fds[1].events = POLLIN;
  fds[1].revents = 0;

  // ppoll, not poll: protocol timers are scheduled in microseconds, and a
  // millisecond timeout would round every sub-millisecond wait up to 1ms —
  // on a quiet loop nothing else wakes it, so each such timer would fire
  // late by up to a millisecond.
  const SimTime capped_us = std::min<SimTime>(wait_us, 1'000'000);
  timespec ts;
  ts.tv_sec = static_cast<time_t>(capped_us / 1'000'000);
  ts.tv_nsec = static_cast<long>((capped_us % 1'000'000) * 1'000);
  ::ppoll(fds, 2, &ts, nullptr);

  if ((fds[1].revents & POLLIN) != 0) {
    std::uint64_t drained = 0;
    [[maybe_unused]] ssize_t n = ::read(wake_fd_, &drained, sizeof(drained));
  }
  dispatched += service();
  return dispatched;
}

void UdpTransport::run() {
  while (!stop_.load(std::memory_order_acquire)) poll_once(10'000);
  finish();
}

void UdpTransport::finish() {
  // Close the posting door; run what was already accepted so a stop posted
  // together with work does not strand it. Idempotent — the TaskInbox close
  // is, and a flush of an empty batch is a no-op.
  inbox_.close([](net::TaskInbox::Task&& fn) { fn(); });
  flush_out_batch();
}

void UdpTransport::stop() {
  stop_.store(true, std::memory_order_release);
  wake();
}

UdpTransport::Stats UdpTransport::stats() const {
  Stats s;
  s.datagrams_sent = stats_.datagrams_sent.load(std::memory_order_relaxed);
  s.datagrams_received = stats_.datagrams_received.load(std::memory_order_relaxed);
  s.bytes_sent = stats_.bytes_sent.load(std::memory_order_relaxed);
  s.bytes_received = stats_.bytes_received.load(std::memory_order_relaxed);
  s.eagain_deferrals = stats_.eagain_deferrals.load(std::memory_order_relaxed);
  s.dropped_backpressure =
      stats_.dropped_backpressure.load(std::memory_order_relaxed);
  s.dropped_filter = stats_.dropped_filter.load(std::memory_order_relaxed);
  s.dropped_unknown_peer =
      stats_.dropped_unknown_peer.load(std::memory_order_relaxed);
  s.dropped_detached = stats_.dropped_detached.load(std::memory_order_relaxed);
  s.send_errors = stats_.send_errors.load(std::memory_order_relaxed);
  s.posts_rejected = stats_.posts_rejected.load(std::memory_order_relaxed);
  return s;
}

}  // namespace evs
