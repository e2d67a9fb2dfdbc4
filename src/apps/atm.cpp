#include "apps/atm.hpp"

#include "util/assert.hpp"
#include "wire/codec.hpp"

namespace evs::apps {
namespace {

constexpr const char* kKeyAtm = "app_atm_state";

}  // namespace

AtmAgent::AtmAgent(EvsNode& node, StableStore& store, Options options)
    : node_(node), store_(store), options_(options) {
  EVS_ASSERT(options_.universe > 0);
  load();
  node_.set_on_deliver([this](const EvsNode::Delivery& d) { on_deliver(d); });
  node_.set_on_config_change([this](const Configuration& c) { on_config(c); });
}

std::vector<std::uint8_t> AtmAgent::encode_txn(const Txn& txn, const MsgId& id) {
  wire::Writer w;
  w.u8(static_cast<std::uint8_t>(txn.op));
  w.u32(txn.account);
  w.u64(static_cast<std::uint64_t>(txn.amount));
  // The ORIGINAL transaction id: a repost travels under a fresh message id
  // but must deduplicate against the first delivery.
  encode(w, id);
  return w.take();
}

MsgId AtmAgent::submit(Op op, AccountId account, std::int64_t amount) {
  Txn txn;
  txn.op = op;
  txn.account = account;
  txn.amount = amount;
  // Two-step: we need the message id inside the payload, so reserve it by
  // sending a first-class message whose payload names itself. EvsNode
  // assigns ids sequentially per send, so encode with a placeholder id
  // equal to what send() will return.
  // Safe delivery: an authorized transaction must not be lost at some
  // members while applied at others when the configuration changes.
  const MsgId placeholder{};
  auto payload = encode_txn(txn, placeholder);
  const MsgId id = node_.send(Service::Safe, std::move(payload)).value();
  // Re-encode with the real id and fix the queued payload: simpler — the
  // delivery handler treats an all-zero embedded id as "use the message's
  // own id" (the common, non-repost case).
  return id;
}

MsgId AtmAgent::open_account(AccountId account, std::int64_t initial_balance) {
  return submit(Op::Open, account, initial_balance);
}

MsgId AtmAgent::deposit(AccountId account, std::int64_t amount) {
  EVS_ASSERT(amount >= 0);
  return submit(Op::Deposit, account, amount);
}

MsgId AtmAgent::withdraw(AccountId account, std::int64_t amount) {
  EVS_ASSERT(amount >= 0);
  return submit(Op::Withdraw, account, amount);
}

std::int64_t AtmAgent::balance(AccountId account) const {
  EVS_ASSERT_MSG(!failed_, "balance of a fail-stopped ATM");
  auto it = accounts_.find(account);
  return it == accounts_.end() ? 0 : it->second;
}

bool AtmAgent::in_full_configuration() const {
  return node_.config().members.size() == options_.universe;
}

void AtmAgent::on_config(const Configuration& config) {
  if (failed_ || config.id.transitional) return;
  if (config.members.size() < 2 || unposted_.empty()) return;
  // Delayed posting: push the partition-era backlog into the (possibly
  // larger) new configuration. Receivers deduplicate by original id.
  for (const auto& [id, txn] : unposted_) {
    node_.send(Service::Safe, encode_txn(txn, id));
    ++stats_.reposts_sent;
  }
}

void AtmAgent::on_deliver(const EvsNode::Delivery& d) {
  if (failed_) return;
  wire::Reader r(d.payload);
  Txn txn;
  txn.op = static_cast<Op>(r.u8());
  txn.account = r.u32();
  txn.amount = static_cast<std::int64_t>(r.u64());
  const MsgId embedded = decode_msg_id(r);
  EVS_ASSERT(r.done());
  txn.id = embedded.valid() ? embedded : d.id;  // repost vs original

  // The configuration that matters is the one the message is DELIVERED in
  // (regular or transitional) — not this replica's current configuration.
  // A message can be delivered in a transitional configuration of the full
  // ring, i.e. to a strict subset of the ATMs; treating that as "full"
  // would mark the transaction posted even though some ATM never saw it.
  // Handing the application exactly this information is the point of the
  // extended virtual synchrony delivery interface (Section 2).
  const bool full_delivery = !d.config.id.transitional &&
                             d.config.members.size() == options_.universe;

  const bool is_repost = embedded.valid();
  const bool duplicate = applied_.count(txn.id) > 0;
  if (!duplicate) {
    bool accept = true;
    if (txn.op == Op::Withdraw && !is_repost) {
      // A repost carries a transaction that was already authorized (and
      // executed) in its originating component — posting is unconditional;
      // only fresh withdrawals are authorized here.
      accept = full_delivery ? txn.amount <= balance(txn.account)
                             : txn.amount <= options_.offline_limit;
      if (accept && !full_delivery) ++stats_.offline_authorized;
    }
    outcomes_[txn.id] = accept;
    if (!accept) {
      ++stats_.denied;
      persist();
      return;
    }
    apply(txn);
  }
  // Posting: delivered in a full regular configuration -> every ATM has it.
  if (full_delivery) {
    if (unposted_.erase(txn.id) > 0) ++stats_.posted;
  } else if (!duplicate) {
    unposted_.emplace(txn.id, txn);
  }
  persist();
}

void AtmAgent::apply(const Txn& txn) {
  switch (txn.op) {
    case Op::Open: accounts_[txn.account] = txn.amount; break;
    case Op::Deposit: accounts_[txn.account] += txn.amount; break;
    case Op::Withdraw: accounts_[txn.account] -= txn.amount; break;
  }
  applied_.insert(txn.id);
  ++stats_.applied;
}

void AtmAgent::persist() {
  wire::Writer w;
  w.u32(static_cast<std::uint32_t>(accounts_.size()));
  for (const auto& [account, bal] : accounts_) {
    w.u32(account);
    w.u64(static_cast<std::uint64_t>(bal));
  }
  w.u32(static_cast<std::uint32_t>(applied_.size()));
  for (const auto& id : applied_) encode(w, id);
  w.u32(static_cast<std::uint32_t>(unposted_.size()));
  for (const auto& [id, txn] : unposted_) {
    encode(w, id);
    w.u8(static_cast<std::uint8_t>(txn.op));
    w.u32(txn.account);
    w.u64(static_cast<std::uint64_t>(txn.amount));
  }
  if (Status st = store_.put(kKeyAtm, w.take()); !st.ok()) {
    // The transaction is applied in memory but not on disk. Acting on it
    // (reporting the balance, posting, authorizing the next withdrawal)
    // would expose state the recovered incarnation cannot reload, so stop
    // the way EvsNode stops when its own persist fails.
    failed_ = true;
    node_.request_fail_stop("atm ledger");
  }
}

void AtmAgent::load() {
  auto blob = store_.get(kKeyAtm);
  if (!blob.has_value()) return;
  wire::Reader r(*blob);
  const std::uint32_t n_accounts = r.u32();
  for (std::uint32_t i = 0; i < n_accounts; ++i) {
    const AccountId account = r.u32();
    accounts_[account] = static_cast<std::int64_t>(r.u64());
  }
  const std::uint32_t n_applied = r.u32();
  for (std::uint32_t i = 0; i < n_applied; ++i) applied_.insert(decode_msg_id(r));
  const std::uint32_t n_unposted = r.u32();
  for (std::uint32_t i = 0; i < n_unposted; ++i) {
    Txn txn;
    txn.id = decode_msg_id(r);
    txn.op = static_cast<Op>(r.u8());
    txn.account = r.u32();
    txn.amount = static_cast<std::int64_t>(r.u64());
    unposted_.emplace(txn.id, txn);
  }
  EVS_ASSERT(r.done());
}

}  // namespace evs::apps
