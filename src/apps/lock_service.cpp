#include "apps/lock_service.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "wire/codec.hpp"

namespace evs::apps {
namespace {

constexpr std::uint8_t kAcquire = 0;
constexpr std::uint8_t kRelease = 1;
constexpr std::uint8_t kSnapshot = 2;

}  // namespace

LockService::LockService(VsNode& node) : node_(node) {
  node_.set_on_deliver([this](const VsDelivery& d) { on_deliver(d); });
  node_.set_on_view_change([this](const VsView& v) { on_view(v); });
}

bool LockService::acquire(LockId lock) {
  wire::Writer w;
  w.u8(kAcquire);
  w.u32(lock);
  // Safe delivery: a grant decision must never be visible at one member and
  // lost at another across a configuration change.
  if (!node_.send(w.take()).ok()) {
    ++stats_.rejected_blocked;
    return false;
  }
  return true;
}

bool LockService::release(LockId lock) {
  if (!holds(lock)) return false;
  wire::Writer w;
  w.u8(kRelease);
  w.u32(lock);
  return node_.send(w.take()).ok();
}

std::optional<ProcessId> LockService::holder(LockId lock) const {
  auto it = queues_.find(lock);
  if (it == queues_.end() || it->second.empty()) return std::nullopt;
  return it->second.front();
}

std::size_t LockService::queue_length(LockId lock) const {
  auto it = queues_.find(lock);
  return it == queues_.end() ? 0 : it->second.size();
}

bool LockService::holds(LockId lock) const {
  auto h = holder(lock);
  return h.has_value() && *h == node_.vs_identity();
}

void LockService::grant_next(LockId lock) {
  auto it = queues_.find(lock);
  if (it == queues_.end() || it->second.empty()) return;
  ++stats_.granted;
  if (it->second.front() == node_.vs_identity() && grant_handler_) {
    grant_handler_(lock);
  }
}

void LockService::apply_op(std::uint8_t op, LockId lock, ProcessId who) {
  auto& queue = queues_[lock];
  if (op == kAcquire) {
    // Duplicate requests from the same identity are idempotent.
    if (std::find(queue.begin(), queue.end(), who) != queue.end()) return;
    queue.push_back(who);
    ++stats_.queued;
    if (queue.size() == 1) grant_next(lock);
  } else {
    EVS_ASSERT(op == kRelease);
    if (queue.empty() || queue.front() != who) return;  // stale release
    queue.erase(queue.begin());
    ++stats_.released;
    grant_next(lock);
  }
}

void LockService::on_deliver(const VsDelivery& d) {
  wire::Reader r(d.payload);
  const std::uint8_t op = r.u8();

  if (op == kSnapshot) {
    const std::uint64_t snap_view = r.u64();
    const std::uint32_t n_locks = r.u32();
    if (synced_ || snap_view != view_id_) {
      // Our own snapshot coming back, or a stale one from a superseded view.
      for (std::uint32_t i = 0; i < n_locks; ++i) {
        (void)r.u32();
        (void)r.pid_vec();
      }
      EVS_ASSERT(r.done());
      return;
    }
    queues_.clear();
    for (std::uint32_t i = 0; i < n_locks; ++i) {
      const LockId lock = r.u32();
      queues_[lock] = r.pid_vec();
    }
    EVS_ASSERT(r.done());
    synced_ = true;
    ++stats_.snapshots_adopted;
    // Replay the operations that were ordered after the snapshot; grants
    // fire through the normal path.
    std::vector<BufferedOp> buffered;
    buffered.swap(buffered_);
    for (const BufferedOp& b : buffered) apply_op(b.op, b.lock, b.who);
    return;
  }

  const LockId lock = r.u32();
  EVS_ASSERT(r.done());
  if (!synced_) {
    buffered_.push_back(BufferedOp{op, lock, d.vs_sender});
    return;
  }
  apply_op(op, lock, d.vs_sender);
}

void LockService::on_view(const VsView& view) {
  view_id_ = view.id;
  // Drop departed processes from every queue; if a holder left, the next
  // waiter is granted. Deterministic: every member applies the same view.
  for (auto& [lock, queue] : queues_) {
    const bool holder_left =
        !queue.empty() &&
        !std::binary_search(view.members.begin(), view.members.end(), queue.front());
    const std::size_t before = queue.size();
    queue.erase(std::remove_if(queue.begin(), queue.end(),
                               [&](ProcessId p) {
                                 return !std::binary_search(view.members.begin(),
                                                            view.members.end(), p);
                               }),
                queue.end());
    stats_.revoked_on_failure += before - queue.size();
    if (holder_left) grant_next(lock);
  }

  // State transfer: the smallest identity in the view multicasts the table
  // as of this view change; everyone else buffers until it arrives.
  buffered_.clear();
  if (view.members.front() == node_.vs_identity()) {
    wire::Writer w;
    w.u8(kSnapshot);
    w.u64(view.id);
    w.u32(static_cast<std::uint32_t>(queues_.size()));
    for (const auto& [lock, queue] : queues_) {
      w.u32(lock);
      w.pid_vec(queue);
    }
    // The filter accepts sends during its own view callback (the node is
    // in the primary by construction here).
    (void)node_.send(w.take());
    ++stats_.snapshots_sent;
    synced_ = true;
  } else {
    synced_ = false;
  }
}

}  // namespace evs::apps
