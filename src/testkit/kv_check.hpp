// Checks shared by the two sharded-KV harnesses, KvCluster (simulated) and
// KvLiveCluster (loopback UDP), so a failure reads the same in either.
#pragma once

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/kv_sharded.hpp"
#include "shard/router.hpp"

namespace evs {

/// Every shard cluster's spec-check report, each line prefixed with the
/// shard id; empty when every shard's trace is conformant.
template <typename ShardCluster>
std::string shard_check_report(
    const std::vector<std::unique_ptr<ShardCluster>>& shards, bool quiescent) {
  std::ostringstream out;
  for (shard::ShardId s = 0; s < shards.size(); ++s) {
    std::istringstream lines(shards[s]->check_report(quiescent));
    std::string line;
    while (std::getline(lines, line)) {
      out << "[shard " << s << "] " << line << '\n';
    }
  }
  return out.str();
}

/// Empty when every replica of `shard` holds an identical map; otherwise
/// one line per divergent (or storeless) replica with its fingerprint/size
/// and the first byte-level differing entry versus the lowest-id replica.
std::string replica_divergence(
    const shard::ShardRouter& router,
    const std::vector<std::unique_ptr<apps::KvShardedNode>>& agents,
    shard::ShardId shard);

}  // namespace evs
