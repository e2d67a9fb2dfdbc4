// VsNode: Isis-style virtual synchrony implemented as a filter on top of
// extended virtual synchrony (Section 5 of the paper).
//
// Filter rules (Section 5, applied locally at each process):
//   1. Mask transitional configuration changes; deliveries in a
//      transitional configuration are re-tagged to the preceding regular
//      configuration's view, once the next regular configuration is known
//      to be primary (a process that instead stops never delivers them).
//   2. In a regular configuration that is not the primary component, block:
//      reject application sends and discard deliveries until merged back
//      into the primary component. A process leaving the primary emits a
//      VS `stop` event — in the fail-stop world of virtual synchrony a
//      detached process is indistinguishable from a failed one.
//   3. When a primary configuration merges several processes at once, split
//      the single configuration change into one view per joining process,
//      in ascending identifier order.
//   4. A process in a non-primary component that becomes a member of the
//      primary merges via the rule-3 views — under a NEW identity
//      (Section 5.2): its process id is paired with an incremented
//      incarnation number, so the virtually-synchronous world sees the old
//      identity stop forever and a fresh process join.
//
// Primary determination and view agreement: on installing any regular
// configuration, every member broadcasts a small state message (safe
// delivery) carrying its VS identity, its last installed view and — for
// dynamic linear voting — its primary-epoch basis. Once a member has
// delivered all |config| state messages it decides primary/non-primary and
// computes the view sequence deterministically from that common data. Safe
// delivery is what makes this sound: if any member decides, Specification
// 7.1 guarantees every other member (unless it fails) delivers the same
// state messages — in the regular or its transitional configuration — and
// reaches the identical decision, even if the network partitions again
// mid-agreement. This is the paper's own layering argument in executable
// form.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "evs/node.hpp"
#include "spec/vs_checker.hpp"
#include "vs/primary.hpp"

namespace evs {

struct VsView {
  std::uint64_t id{0};
  std::vector<ProcessId> members;  ///< synthesized VS identities, sorted
  VsOrd ord;
};

struct VsDelivery {
  MsgId id;                 ///< EVS message id (sender = raw process id)
  ProcessId vs_sender;      ///< sender's VS identity in the delivery view
  std::vector<std::uint8_t> payload;
  std::uint64_t view_id{0};
  VsOrd ord;
};

class VsNode {
 public:
  enum class Policy { StaticMajority, DynamicLinearVoting };

  struct Options {
    Policy policy{Policy::StaticMajority};
    std::size_t universe{0};  ///< static majority: total process count
    bool rename_on_rejoin{true};
  };

  enum class Mode { Down, Blocked, Exchanging, InPrimary };

  /// Snapshot of the "vs.*" counters (kept in the underlying EvsNode's
  /// obs::MetricsRegistry; assembled on demand).
  struct Stats {
    std::uint64_t views_installed{0};
    std::uint64_t delivered{0};
    std::uint64_t discarded_blocked{0};
    std::uint64_t sends_rejected{0};
    std::uint64_t exchanges{0};
    std::uint64_t stops{0};
  };

  using ViewHandler = std::function<void(const VsView&)>;
  using DeliverHandler = std::function<void(const VsDelivery&)>;

  VsNode(ProcessId id, Transport& net, StableStore& store, TraceLog* evs_trace,
         VsTraceLog* vs_trace, EvsNode::Options evs_options, Options options);

  /// Register the view-installation callback (uniform setter name across
  /// all node layers).
  void set_on_view_change(ViewHandler h) { view_handler_ = std::move(h); }
  /// Register the delivery callback.
  void set_on_deliver(DeliverHandler h) { deliver_handler_ = std::move(h); }

  void start();
  void crash();

  /// Send within the primary component. Fails with
  /// Errc::blocked_not_primary when this process is blocked in a
  /// non-primary component (filter rule 2). While the primary decision for
  /// a fresh configuration is still in flight the message is accepted and
  /// queued. The filter orders every message with EVS Safe delivery, which
  /// VS atomicity needs.
  Expected<MsgId> send(std::vector<std::uint8_t> payload);

  Mode mode() const { return mode_; }
  bool in_primary() const { return mode_ == Mode::InPrimary; }
  bool running() const { return mode_ != Mode::Down; }
  const VsView& view() const { return view_; }
  ProcessId vs_identity() const { return vs_synth_id(self_, incarnation_); }
  ProcessId id() const { return self_; }
  Stats stats() const;

  EvsNode& evs() { return evs_; }
  const EvsNode& evs() const { return evs_; }

 private:
  struct PeerState {
    ProcessId vs_id;
    std::uint64_t last_view_id{0};
    std::vector<ProcessId> last_view_members;
    PrimaryEpoch dlv_basis;
  };

  void on_evs_config(const Configuration& config);
  void on_evs_deliver(const EvsNode::Delivery& d);
  void handle_state_msg(const EvsNode::Delivery& d);
  void maybe_decide();
  void decide_primary(const std::map<ProcessId, PeerState>& states);
  void decide_blocked();
  void emit_view(const VsView& view);
  void emit_deliver(const EvsNode::Delivery& d, std::uint64_t view_id);
  void emit_stop();
  void send_state_message();
  [[nodiscard]] Status persist_meta();
  [[nodiscard]] Status load_meta();
  /// A safety-bearing persist failed: this process may not keep acting in
  /// (or deciding about) the primary, so it becomes a failed process.
  void storage_fail_stop(const char* where);

  /// Cached "vs.*" instrument handles in the underlying node's registry.
  struct Met {
    obs::Counter& views_installed;
    obs::Counter& delivered;
    obs::Counter& discarded_blocked;
    obs::Counter& sends_rejected;
    obs::Counter& exchanges;
    obs::Counter& stops;
    explicit Met(obs::MetricsRegistry& r);
  };

  ProcessId self_;
  StableStore& store_;
  VsTraceLog* vs_trace_;
  Options options_;
  Scheduler& sched_;
  EvsNode evs_;
  Met met_{evs_.metrics()};

  Mode mode_{Mode::Down};
  VsView view_;                 ///< last installed view (valid in primary)
  bool have_view_{false};
  std::uint32_t incarnation_{0};
  bool in_continuity_{false};   ///< currently part of the primary lineage

  // Exchange state for the current regular configuration.
  std::optional<Configuration> exchange_config_;
  std::map<ProcessId, PeerState> peer_states_;
  std::vector<EvsNode::Delivery> buffered_;         ///< app deliveries awaiting decision
  /// Deliveries in a transitional configuration that left our primary view:
  /// they belong to that view, but only if the next regular configuration
  /// is primary. Emitted in the old view before the new views, or dropped
  /// (we stop) when it is not: the members that carry the view on may never
  /// receive them.
  std::vector<EvsNode::Delivery> trans_held_;

  std::optional<DlvState> dlv_;

  ViewHandler view_handler_;
  DeliverHandler deliver_handler_;
};

const char* to_string(VsNode::Mode m);

}  // namespace evs
