// One test per EvsNode::Options::validate() rule: every inconsistent
// combination is rejected at construction time with Errc::invalid_options
// and a detail string naming the violated rule, instead of livelocking the
// simulation later.
#include <gtest/gtest.h>

#include "evs/node.hpp"
#include "testkit/live_cluster.hpp"
#include "wire/codec.hpp"

namespace evs {
namespace {

void expect_rejected(const EvsNode::Options& opts, const char* rule_fragment) {
  const Status st = opts.validate();
  ASSERT_FALSE(st.ok()) << "expected rejection: " << rule_fragment;
  EXPECT_EQ(st.code(), Errc::invalid_options);
  EXPECT_NE(st.detail().find(rule_fragment), std::string::npos)
      << "detail '" << st.detail() << "' does not name '" << rule_fragment << "'";
}

TEST(OptionsValidate, DefaultsAreConsistent) {
  EXPECT_TRUE(EvsNode::Options{}.validate().ok());
}

TEST(OptionsValidate, TimeoutsMustBePositive) {
  EvsNode::Options o;
  o.token_loss_timeout_us = 0;
  expect_rejected(o, "token_loss_timeout_us");

  o = {};
  o.beacon_interval_us = 0;
  expect_rejected(o, "beacon_interval_us");

  o = {};
  o.join_interval_us = 0;
  expect_rejected(o, "join_interval_us");

  o = {};
  o.gather_fail_timeout_us = 0;
  expect_rejected(o, "gather_fail_timeout_us");

  o = {};
  o.consensus_wait_timeout_us = 0;
  expect_rejected(o, "consensus_wait_timeout_us");

  o = {};
  o.exchange_interval_us = 0;
  expect_rejected(o, "exchange_interval_us");

  o = {};
  o.recovery_timeout_us = 0;
  expect_rejected(o, "recovery_timeout_us");

  o = {};
  o.token_retransmit_interval_us = 0;
  expect_rejected(o, "token_retransmit_interval_us");
}

TEST(OptionsValidate, RetransmitBurstMustStayBelowLossTimeout) {
  EvsNode::Options o;
  o.token_retransmit_limit = -1;
  expect_rejected(o, "token_retransmit_limit must be non-negative");

  // Exactly at the boundary (limit * interval == loss timeout) is rejected:
  // the guard would still be resending a dead token when the loss timer
  // fires, and the resulting gather races the resends.
  o = {};
  o.token_loss_timeout_us = 7'500;
  o.token_retransmit_interval_us = 2'500;
  o.token_retransmit_limit = 3;
  expect_rejected(o, "below token_loss_timeout_us");

  // Strictly below passes.
  o.token_loss_timeout_us = 7'501;
  EXPECT_TRUE(o.validate().ok());
}

TEST(OptionsValidate, TokenHoldIsPositive) {
  // The hold is derived (half the retransmit interval, or half the loss
  // timeout without retransmission), so the rule bounds its sources.
  EvsNode::Options o;
  o.token_retransmit_interval_us = 1;
  expect_rejected(o, "token hold");
  o.token_retransmit_interval_us = 2;
  EXPECT_TRUE(o.validate().ok());
  EXPECT_EQ(o.token_hold_for(1), 1u);

  o = {};
  o.token_retransmit_limit = 0;
  o.token_loss_timeout_us = 1;
  expect_rejected(o, "token hold");
}

TEST(OptionsValidate, TokenHoldLeavesARotationBeforeEveryTokenTimer) {
  // By construction, for every validated profile and ring size: the hold
  // plus a rotation of up to the hold's own length fits inside the
  // predecessor's retransmit guard, and the guard inside the token-loss
  // timeout, so no timer reads a hold as a loss. scaled_for(n) and the live
  // profile stretch the hold with the timers it derives from.
  const auto check = [](const EvsNode::Options& o, std::size_t n) {
    ASSERT_TRUE(o.validate().ok());
    const SimTime hold = o.token_hold_for(n);
    EXPECT_GT(hold, 0u) << "n=" << n;
    if (o.token_retransmit_limit > 0) {
      EXPECT_LE(2 * hold, o.token_retransmit_for(n)) << "n=" << n;
      EXPECT_LT(o.token_retransmit_for(n), o.token_loss_for(n)) << "n=" << n;
    } else {
      EXPECT_LE(2 * hold, o.token_loss_for(n)) << "n=" << n;
    }
  };
  for (std::size_t n : {1u, 2u, 5u, 8u, 9u, 16u, 50u, 100u, 300u}) {
    check(EvsNode::Options{}, n);
    check(EvsNode::Options::scaled_for(n), n);
    check(live_node_defaults_scaled(n), n);
    EvsNode::Options no_retransmit;
    no_retransmit.token_retransmit_limit = 0;
    check(no_retransmit, n);
  }
  // The defaults quoted in DESIGN.md "Timer scaling".
  EXPECT_EQ(EvsNode::Options{}.token_hold_for(5), 1'850u);
  EXPECT_EQ(live_node_defaults().token_hold_for(5), 13'100u);
}

TEST(OptionsValidate, JoinIntervalMustStayBelowGatherFailTimeout) {
  // A candidate needs several join broadcasts before it is failed for
  // silence, or every gather immediately shrinks to a singleton.
  EvsNode::Options o;
  o.join_interval_us = o.gather_fail_timeout_us;
  expect_rejected(o, "join_interval_us must stay below gather_fail_timeout_us");
  o.join_interval_us = o.gather_fail_timeout_us - 1;
  EXPECT_TRUE(o.validate().ok());
}

TEST(OptionsValidate, ExchangeIntervalMustStayBelowRecoveryTimeout) {
  EvsNode::Options o;
  o.exchange_interval_us = o.recovery_timeout_us;
  expect_rejected(o, "exchange_interval_us must stay below recovery_timeout_us");
}

TEST(OptionsValidate, PayloadLimitMustLeaveFrameHeadroom) {
  EvsNode::Options o;
  o.max_payload_bytes = 0;
  expect_rejected(o, "max_payload_bytes must be positive");

  o = {};
  o.max_payload_bytes = wire::kMaxFrameBody;
  expect_rejected(o, "frame headroom");

  o.max_payload_bytes = wire::kMaxFrameBody - 4096;
  EXPECT_TRUE(o.validate().ok());
}

TEST(OptionsValidate, OrderingLimitsAreChecked) {
  EvsNode::Options o;
  o.ordering.max_new_per_token = 0;
  expect_rejected(o, "ordering.max_new_per_token");

  o = {};
  o.ordering.max_retransmit_per_token = -1;
  expect_rejected(o, "ordering.max_retransmit_per_token");

  o = {};
  o.ordering.max_rtr_entries = 0;
  expect_rejected(o, "ordering.max_rtr_entries");

  // The ring must never grow a request set its own codec would reject.
  o = {};
  o.ordering.max_rtr_entries = kMaxTokenRtr + 1;
  expect_rejected(o, "kMaxTokenRtr");
}

TEST(OptionsValidate, FlowControlAndBackpressureLimitsAreChecked) {
  EvsNode::Options o;
  o.ordering.max_new_per_token = 64;
  o.ordering.flow_control_window = 32;
  expect_rejected(o, "flow_control_window");

  o = {};
  o.max_pending_sends = 0;
  expect_rejected(o, "max_pending_sends");

  o = {};
  o.ordering.flow_control_window = static_cast<std::uint32_t>(o.ordering.max_new_per_token);
  EXPECT_TRUE(o.validate().ok());
}

}  // namespace
}  // namespace evs
