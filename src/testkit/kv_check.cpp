#include "testkit/kv_check.hpp"

namespace evs {

std::string replica_divergence(
    const shard::ShardRouter& router,
    const std::vector<std::unique_ptr<apps::KvShardedNode>>& agents,
    shard::ShardId shard) {
  std::ostringstream out;
  const shard::KvStore* first = nullptr;
  ProcessId first_pid{0};
  for (const ProcessId p : router.replicas(shard)) {
    const shard::KvStore* store = agents[p.value - 1]->store(shard);
    if (store == nullptr) {
      out << "replica p" << p.value << " has no store for shard " << shard
          << '\n';
      continue;
    }
    if (first == nullptr) {
      first = store;
      first_pid = p;
      continue;
    }
    // Fingerprints are maintained incrementally and order-independent:
    // equal contents MUST produce equal fingerprints, and we also refuse
    // to trust a matching fingerprint over differing contents (which
    // would mean the incremental maintenance itself broke).
    const bool fp_match = store->fingerprint() == first->fingerprint();
    const bool map_match = store->contents() == first->contents();
    if (fp_match && map_match) continue;
    out << "replica p" << p.value << " diverges from p" << first_pid.value
        << ": fingerprint " << store->fingerprint() << " vs "
        << first->fingerprint() << ", size " << store->size() << " vs "
        << first->size();
    // First byte-level differing entry, scanning both key sets.
    const auto& a = first->contents();
    const auto& b = store->contents();
    auto ia = a.begin();
    auto ib = b.begin();
    while (ia != a.end() || ib != b.end()) {
      if (ib == b.end() || (ia != a.end() && ia->first < ib->first)) {
        out << "; first diff: key \"" << ia->first << "\" only at p"
            << first_pid.value;
        break;
      }
      if (ia == a.end() || ib->first < ia->first) {
        out << "; first diff: key \"" << ib->first << "\" only at p"
            << p.value;
        break;
      }
      if (ia->second != ib->second) {
        out << "; first diff: key \"" << ia->first << "\" value \""
            << ia->second << "\" vs \"" << ib->second << "\"";
        break;
      }
      ++ia;
      ++ib;
    }
    out << '\n';
  }
  if (first == nullptr) out << "shard " << shard << " has no stores\n";
  return out.str();
}

}  // namespace evs
