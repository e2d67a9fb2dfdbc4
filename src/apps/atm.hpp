// ATM banking — the paper's second motivating application (Section 1):
// "An ATM machine, operating in a fully connected system, records each
// transaction in its database, checking that cumulative withdrawals do not
// exceed the account balance. When operating in a non-primary component,
// however, it consults a small database to authorize a withdrawal without
// checking for cumulative withdrawals at different locations, and delays
// posting the transaction until the system becomes reconnected."
//
// Each ATM runs an AtmAgent on an EvsNode. Transactions (deposit/withdraw)
// are broadcast with safe delivery and applied in the shared total order.
// While the configuration is full, withdrawals are authorized against the
// replicated balance. While partitioned, a withdrawal is authorized by the
// offline limit alone and the applied transaction is held *unposted*; on
// every configuration change the unposted backlog is rebroadcast, so after
// remerge the components exchange exactly their partition-era deltas
// (duplicate applications are suppressed by transaction id). A transaction
// becomes *posted* once it has been delivered in a full configuration.
// Cumulative offline withdrawals can overdraw an account — the example's
// accepted risk — and the overdraft is visible deterministically after the
// merge.
//
// The account database, the applied-transaction set and the unposted
// backlog live in the node's stable storage: an ATM that crashes and
// recovers resumes with its database intact (the paper's recovery model).
// A ledger write that fails fail-stops the ATM (failed(), and its node
// crashes at the next scheduler turn); balance() then aborts, so an ATM never
// reports a balance its recovered incarnation could not reload.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "evs/node.hpp"
#include "storage/stable_store.hpp"

namespace evs::apps {

using AccountId = std::uint32_t;

class AtmAgent {
 public:
  struct Options {
    std::size_t universe{0};        ///< total number of ATMs
    std::int64_t offline_limit{200};  ///< per-withdrawal cap while partitioned
  };

  struct Stats {
    std::uint32_t applied{0};
    std::uint32_t denied{0};
    std::uint32_t offline_authorized{0};
    std::uint32_t reposts_sent{0};
    std::uint32_t posted{0};
  };

  AtmAgent(EvsNode& node, StableStore& store, Options options);

  /// Open an account with an initial balance (must be done in the full
  /// configuration to be globally visible; it is an ordinary transaction).
  MsgId open_account(AccountId account, std::int64_t initial_balance);

  MsgId deposit(AccountId account, std::int64_t amount);
  MsgId withdraw(AccountId account, std::int64_t amount);

  /// The replicated balance. Aborts once failed(): that balance is one the
  /// recovered incarnation cannot reload.
  std::int64_t balance(AccountId account) const;
  bool overdrawn(AccountId account) const { return balance(account) < 0; }

  bool in_full_configuration() const;
  std::size_t unposted_count() const { return unposted_.size(); }
  const Stats& stats() const { return stats_; }
  const std::map<MsgId, bool>& outcomes() const { return outcomes_; }
  /// A ledger write failed: the agent ignores every later delivery and
  /// configuration change, and its node is crashed. Construct a fresh agent
  /// on the recovered node to resume from the ledger on disk.
  bool failed() const { return failed_; }

 private:
  enum class Op : std::uint8_t { Open = 0, Deposit = 1, Withdraw = 2 };

  struct Txn {
    MsgId id;
    Op op;
    AccountId account{0};
    std::int64_t amount{0};
  };

  MsgId submit(Op op, AccountId account, std::int64_t amount);
  void on_deliver(const EvsNode::Delivery& d);
  void on_config(const Configuration& config);
  void apply(const Txn& txn);
  /// Write the whole ledger; a failed write fail-stops the agent.
  void persist();
  void load();

  static std::vector<std::uint8_t> encode_txn(const Txn& txn, const MsgId& id);

  EvsNode& node_;
  StableStore& store_;
  Options options_;

  std::map<AccountId, std::int64_t> accounts_;
  std::set<MsgId> applied_;
  std::map<MsgId, Txn> unposted_;  ///< applied but not yet seen in a full config
  std::map<MsgId, bool> outcomes_;
  Stats stats_;
  bool failed_{false};
};

}  // namespace evs::apps
