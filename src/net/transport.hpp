// Transport: the boundary between the protocol stack and whatever moves its
// packets.
//
// EvsNode (and everything layered on it) is written against this interface
// only: it attaches itself as an Endpoint, broadcasts/unicasts sealed wire
// frames, and schedules timers on the transport's Scheduler, which doubles
// as the stack's clock (Scheduler::now / schedule_at). Two implementations
// exist:
//
//   * sim:  Network (net/network.hpp) + a virtual-time Scheduler — the
//           deterministic discrete-event simulator every test runs on.
//   * live: UdpTransport (net/udp_transport.hpp) — real loopback UDP
//           sockets driven by a poll() event loop, with the same Scheduler
//           API mapped onto the wall clock.
//
// The protocol code cannot tell the difference; see DESIGN.md "Transport
// abstraction" for what determinism guarantees survive the move to live
// sockets.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/arena.hpp"
#include "sim/scheduler.hpp"
#include "util/types.hpp"

namespace evs {

struct Packet {
  ProcessId src;
  ProcessId dst;  // meaningful only when !broadcast
  bool broadcast{false};
  /// The datagram bytes, shared rather than owned: a broadcast dispatches
  /// ONE buffer to every receiver, and message views decoded from the packet
  /// pin `data` so their payload spans stay valid after dispatch returns
  /// (see net/arena.hpp). Copying a Packet copies a refcount, not bytes.
  net::DatagramRef data;

  std::span<const std::uint8_t> payload() const {
    return data ? std::span<const std::uint8_t>(*data)
                : std::span<const std::uint8_t>{};
  }
};

/// Implemented by every protocol node attached to a transport.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void on_packet(const Packet& packet) = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Attach a process endpoint; packets addressed to (or broadcast at) `p`
  /// are dispatched to it from then on.
  virtual void attach(ProcessId p, Endpoint* endpoint) = 0;

  /// Detach (e.g. crashed) — queued and future packets to p are dropped.
  virtual void detach(ProcessId p) = 0;

  virtual bool attached(ProcessId p) const = 0;

  /// Send to every reachable process, including the sender itself:
  /// broadcast hardware (and a UDP socket sending to its own port) loops
  /// back, and the protocol relies on hearing its own exchanges.
  virtual void broadcast(ProcessId from, std::vector<std::uint8_t> payload) = 0;

  virtual void unicast(ProcessId from, ProcessId to,
                       std::vector<std::uint8_t> payload) = 0;

  /// The transport's clock and timer wheel. In sim this is the shared
  /// virtual-time scheduler; live transports map the same API onto the wall
  /// clock (now() = microseconds since the transport opened).
  virtual Scheduler& scheduler() = 0;

  /// Hint that traffic for this process will keep arriving for the next
  /// `us` (an idle token ring is waking up; DESIGN.md "Token hold"). A live
  /// transport then polls without sleeping until that time has passed, so
  /// each hop of the rotations that follow lands on a running thread
  /// instead of paying a wake-up. The simulator has nothing to wake.
  virtual void expect_traffic(SimTime us) { (void)us; }
};

}  // namespace evs
