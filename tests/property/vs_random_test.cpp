// Randomized property tests for the virtual synchrony filter: random
// partition/merge/crash schedules under both primary-component policies
// must yield legal VS executions (and conformant EVS traces underneath).
#include <gtest/gtest.h>

#include "testkit/vs_cluster.hpp"
#include "util/rng.hpp"

namespace evs {
namespace {

struct VsParams {
  std::uint64_t seed;
  std::size_t processes;
  VsNode::Policy policy;
};

std::string vs_param_name(const ::testing::TestParamInfo<VsParams>& info) {
  const auto& p = info.param;
  return std::string(p.policy == VsNode::Policy::StaticMajority ? "static" : "dlv") +
         "_seed" + std::to_string(p.seed) + "_n" + std::to_string(p.processes);
}

class VsRandomTest : public ::testing::TestWithParam<VsParams> {};

TEST_P(VsRandomTest, FilteredRunsAreLegalVsExecutions) {
  const VsParams& p = GetParam();
  VsCluster::Options opts;
  opts.num_processes = p.processes;
  opts.seed = p.seed;
  opts.policy = p.policy;
  VsCluster cluster(opts);
  Rng rng(p.seed * 37 + 5);

  ASSERT_TRUE(cluster.await_stable(6'000'000));
  std::vector<ProcessId> down;
  for (int round = 0; round < 8; ++round) {
    // Random partitioning.
    if (rng.chance(0.4)) {
      const std::size_t groups = 1 + rng.below(3);
      std::vector<std::vector<std::size_t>> components(groups);
      for (std::size_t i = 0; i < cluster.size(); ++i) {
        components[rng.below(groups)].push_back(i);
      }
      components.erase(std::remove_if(components.begin(), components.end(),
                                      [](const auto& g) { return g.empty(); }),
                       components.end());
      cluster.partition(components);
    } else if (rng.chance(0.5)) {
      cluster.heal();
    }
    // Occasional crash/recover.
    if (down.empty() && rng.chance(0.25)) {
      const ProcessId victim = cluster.pid(rng.below(cluster.size()));
      if (cluster.node(victim).running()) {
        cluster.crash(victim);
        down.push_back(victim);
      }
    } else if (!down.empty() && rng.chance(0.6)) {
      cluster.recover(down.back());
      down.pop_back();
    }
    // Traffic from whoever will accept it.
    for (int m = 0; m < 8; ++m) {
      const std::size_t who = rng.below(cluster.size());
      if (cluster.node(who).running()) {
        (void)cluster.node(who).send({static_cast<std::uint8_t>(m)});
      }
    }
    cluster.run_for(rng.between(30'000, 120'000));
  }
  cluster.heal();
  for (ProcessId p2 : down) cluster.recover(p2);
  ASSERT_TRUE(cluster.await_quiesce(30'000'000));
  EXPECT_EQ(cluster.check_report(), "") << "seed " << p.seed;
}

std::vector<VsParams> vs_params() {
  std::vector<VsParams> out;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    out.push_back({seed, 3 + seed % 3, VsNode::Policy::StaticMajority});
  }
  for (std::uint64_t seed = 11; seed <= 16; ++seed) {
    out.push_back({seed, 3 + seed % 3, VsNode::Policy::DynamicLinearVoting});
  }
  // Schedules that break C3 under both policies if the filter emits
  // transitional-configuration deliveries at once: a member delivers a
  // message in a transitional configuration, then leaves the primary and
  // stops, while the members that carry the view on never receive it.
  for (std::uint64_t seed : {20, 29}) {
    out.push_back({seed, 3 + seed % 3, VsNode::Policy::StaticMajority});
    out.push_back({seed, 3 + seed % 3, VsNode::Policy::DynamicLinearVoting});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Schedules, VsRandomTest, ::testing::ValuesIn(vs_params()),
                         vs_param_name);

}  // namespace
}  // namespace evs
