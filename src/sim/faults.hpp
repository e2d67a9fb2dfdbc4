// Deterministic adversarial fault injection for the simulated network.
//
// The paper's model (Sections 1-2) promises extended virtual synchrony under
// *any* network behaviour: processor crash and recovery, network partition
// and remerge, and message loss. A real LAN additionally duplicates,
// reorders and corrupts packets, delays them in bursts, and fails in one
// direction only. A FaultPlan scripts exactly those behaviours — per link,
// per direction, per virtual-time window — and a FaultInjector executes the
// plan inside Network::deliver_later, drawing every random decision from its
// own seeded stream so a run remains a pure function of
// (code, seed, scenario, plan) and any failure replays bit-for-bit.
//
// The injector sits *below* the wire codec: it mutates raw packet bytes.
// Everything above it (frame checksums, strict decoding, duplicate and
// stale-token rejection, token retransmission, membership timeouts) is the
// machinery under test.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "storage/stable_store.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace evs {

/// One adversarial rule. A rule applies to a packet when the (source,
/// destination, time, kind) tuple matches; all probabilities are evaluated
/// independently per matching packet. Rules are directional: a rule with
/// src=A, dst=B says nothing about B->A traffic, which is how asymmetric
/// link failures are expressed (drop=1.0 one way only).
struct FaultRule {
  std::optional<ProcessId> src;  ///< nullopt = any sender
  std::optional<ProcessId> dst;  ///< nullopt = any receiver
  SimTime from_us{0};            ///< active window [from_us, until_us)
  SimTime until_us{~0ull};
  bool tokens_only{false};  ///< apply only to ordering-token packets
  /// Apply only to packets that are NOT a token: data broadcasts (and the
  /// other control traffic) while token forwards pass. A token always
  /// travels alone in its datagram, so the two selectors partition the
  /// traffic.
  bool data_only{false};

  double duplicate{0};     ///< P(extra copies of the packet are delivered)
  int max_duplicates{1};   ///< copies added when duplication fires (1..n)
  double reorder{0};       ///< P(extra delay in [0, reorder_window_us])
  SimTime reorder_window_us{2'000};
  double corrupt{0};       ///< P(1..max_corrupt_bytes random byte flips)
  int max_corrupt_bytes{3};
  /// P(byte flips in the tail of the first frame's body, frame CRC then
  /// RE-SEALED so the wire layer accepts the packet). Models corruption
  /// that slips past link-level checksums — NIC offload bugs, bad RAM on a
  /// middlebox — which only application-level integrity checks (the
  /// state-transfer chunk CRC trailer) can catch. Flips land in the final
  /// quarter of the body, i.e. the application-payload tail, so protocol
  /// headers are spared and the fault stays within the delivery model the
  /// spec checker assumes.
  double corrupt_sealed{0};
  int max_sealed_bytes{2};  ///< flips when corrupt_sealed fires (1..n)
  double delay_spike{0};   ///< P(a fixed spike_us stall is added)
  SimTime spike_us{10'000};
  double drop{0};          ///< P(packet silently vanishes); 1.0 = link cut

  /// is_token: the datagram is an ordering-token forward.
  bool matches(ProcessId from, ProcessId to, SimTime now, bool is_token) const;
};

/// One stable-storage fault rule: the disk analogue of FaultRule. Applies
/// to a record append at a process when the (process, time) pair matches;
/// the probabilities are evaluated in order and at most one fires per
/// append (a single write suffers a single fate).
struct StorageFaultRule {
  std::optional<ProcessId> process;  ///< nullopt = every process's store
  SimTime from_us{0};                ///< active window [from_us, until_us)
  SimTime until_us{~0ull};

  double write_fail{0};  ///< P(clean EIO: nothing persisted, store usable)
  double torn{0};        ///< P(prefix persisted, error returned, store wedged)
  double rot{0};         ///< P(byte-flipped record persisted, error, wedged)

  bool matches(ProcessId p, SimTime now) const {
    if (process.has_value() && *process != p) return false;
    return now >= from_us && now < until_us;
  }
};

/// An ordered list of FaultRules plus the injector seed. Scripted from
/// testkit::Cluster the same way partitions are.
class FaultPlan {
 public:
  FaultPlan& add(FaultRule rule) {
    rules_.push_back(std::move(rule));
    return *this;
  }

  FaultPlan& add(StorageFaultRule rule) {
    storage_rules_.push_back(std::move(rule));
    return *this;
  }

  /// Fallible-disk storm at every process: independent write-fail / torn /
  /// corrupted-write probabilities over [from_us, until_us).
  static FaultPlan disk_faults(double write_fail, double torn, double rot,
                               SimTime from_us = 0, SimTime until_us = ~0ull);

  /// Uniform storm on every link: duplication, bounded reordering and byte
  /// corruption at the given rates, over [from_us, until_us).
  static FaultPlan storm(double duplicate, double reorder, double corrupt,
                         SimTime from_us = 0, SimTime until_us = ~0ull);

  /// One-directional link cut src->dst over [from_us, until_us).
  static FaultPlan asymmetric_cut(ProcessId src, ProcessId dst, SimTime from_us,
                                  SimTime until_us);

  /// Drop every ordering token with probability p over [from_us, until_us).
  static FaultPlan token_loss(double p, SimTime from_us = 0,
                              SimTime until_us = ~0ull);

  bool empty() const { return rules_.empty() && storage_rules_.empty(); }
  const std::vector<FaultRule>& rules() const { return rules_; }
  const std::vector<StorageFaultRule>& storage_rules() const {
    return storage_rules_;
  }

  /// Injector RNG seed. 0 means "derive from the network's seeded stream",
  /// which is still deterministic per (cluster seed, plan).
  std::uint64_t seed{0};

 private:
  std::vector<FaultRule> rules_;
  std::vector<StorageFaultRule> storage_rules_;
};

struct FaultStats {
  std::uint64_t packets_considered{0};
  std::uint64_t injected_total{0};  ///< individual fault activations
  std::uint64_t dropped{0};
  std::uint64_t token_dropped{0};  ///< subset of dropped that were tokens
  std::uint64_t duplicated{0};     ///< extra copies scheduled
  std::uint64_t corrupted{0};
  std::uint64_t sealed_corrupted{0};  ///< corrupt_sealed activations
  std::uint64_t reordered{0};
  std::uint64_t delay_spiked{0};
  // --- stable-storage faults (see StorageFaultRule) ---
  std::uint64_t writes_considered{0};
  std::uint64_t write_failed{0};
  std::uint64_t write_torn{0};
  std::uint64_t write_rotted{0};
};

/// One injected fault, for the bounded in-memory fault log that the testkit
/// liveness watchdog attaches to its failure reports.
struct FaultEvent {
  SimTime time{0};
  const char* kind{""};
  ProcessId src;
  ProcessId dst;
};

class FaultInjector {
 public:
  /// The injector's verdict for one packet about to be scheduled.
  struct Action {
    bool drop{false};
    SimTime extra_delay_us{0};  ///< added to the primary copy's base delay
    /// Extra delay of each additional duplicate copy (one entry per copy),
    /// on top of an independently drawn base network delay.
    std::vector<SimTime> duplicate_extra_delays;
    bool corrupted{false};
  };

  FaultInjector(FaultPlan plan, Rng rng) : plan_(std::move(plan)), rng_(rng) {}

  /// Decide the fate of one packet headed from `from` to `to`. May flip
  /// bytes of `payload` in place (corruption). Deterministic given the
  /// injector's seed and call sequence.
  Action apply(ProcessId from, ProcessId to, SimTime now,
               std::vector<std::uint8_t>& payload);

  /// Decide the fate of one stable-storage record append of `record_bytes`
  /// framed bytes at process `p`. Draws from the same seeded stream as
  /// apply(), so storage and network faults share one deterministic
  /// schedule. Returns the no-fault verdict when no storage rule matches
  /// (and draws nothing, so plans without storage rules leave network
  /// fault sequences untouched).
  StableStore::WriteFault apply_storage(ProcessId p, SimTime now,
                                        std::size_t record_bytes);

  const FaultPlan& plan() const { return plan_; }
  const FaultStats& stats() const { return stats_; }

  /// Most recent injected faults (bounded ring; newest last).
  const std::deque<FaultEvent>& log() const { return log_; }
  std::string format_log() const;

 private:
  static constexpr std::size_t kLogCapacity = 64;

  void note(SimTime time, const char* kind, ProcessId src, ProcessId dst);

  FaultPlan plan_;
  Rng rng_;
  FaultStats stats_;
  std::deque<FaultEvent> log_;
};

std::string to_string(const FaultStats& s);
FaultStats& operator+=(FaultStats& a, const FaultStats& b);

}  // namespace evs
