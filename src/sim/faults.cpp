#include "sim/faults.hpp"

#include <algorithm>
#include <array>

namespace evs {
namespace {

/// True if the payload is a framed packet whose body starts with the
/// ordering-token type byte (MsgType::Token == 2; see totem/messages.hpp —
/// not included here to keep sim below totem in the layering). Only the
/// frame length field is checked: this peek runs before any corruption is
/// applied, so the header is honest.
bool payload_is_token(const std::vector<std::uint8_t>& payload) {
  constexpr std::size_t kHeader = 8;
  constexpr std::uint8_t kTokenType = 2;
  if (payload.size() < kHeader + 1) return false;
  const std::uint32_t length = static_cast<std::uint32_t>(payload[0]) |
                               (static_cast<std::uint32_t>(payload[1]) << 8) |
                               (static_cast<std::uint32_t>(payload[2]) << 16) |
                               (static_cast<std::uint32_t>(payload[3]) << 24);
  if (payload.size() - kHeader != length) return false;
  return payload[kHeader] == kTokenType;
}

/// Local CRC-32 (poly 0xEDB88320), bit-identical to wire::crc32 — this
/// file sits below the wire codec in the layering and cannot include it,
/// but re-sealing a frame requires producing the exact checksum the
/// receiver's frame validation will recompute.
std::uint32_t crc32_local(const std::uint8_t* data, std::size_t size) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace

bool FaultRule::matches(ProcessId from, ProcessId to, SimTime now,
                        bool is_token) const {
  if (tokens_only && !is_token) return false;
  if (data_only && is_token) return false;
  if (src.has_value() && *src != from) return false;
  if (dst.has_value() && *dst != to) return false;
  return now >= from_us && now < until_us;
}

FaultPlan FaultPlan::storm(double duplicate, double reorder, double corrupt,
                           SimTime from_us, SimTime until_us) {
  FaultRule rule;
  rule.from_us = from_us;
  rule.until_us = until_us;
  rule.duplicate = duplicate;
  rule.reorder = reorder;
  rule.corrupt = corrupt;
  return FaultPlan{}.add(rule);
}

FaultPlan FaultPlan::asymmetric_cut(ProcessId src, ProcessId dst, SimTime from_us,
                                    SimTime until_us) {
  FaultRule rule;
  rule.src = src;
  rule.dst = dst;
  rule.from_us = from_us;
  rule.until_us = until_us;
  rule.drop = 1.0;
  return FaultPlan{}.add(rule);
}

FaultPlan FaultPlan::disk_faults(double write_fail, double torn, double rot,
                                 SimTime from_us, SimTime until_us) {
  StorageFaultRule rule;
  rule.from_us = from_us;
  rule.until_us = until_us;
  rule.write_fail = write_fail;
  rule.torn = torn;
  rule.rot = rot;
  return FaultPlan{}.add(rule);
}

FaultPlan FaultPlan::token_loss(double p, SimTime from_us, SimTime until_us) {
  FaultRule rule;
  rule.tokens_only = true;
  rule.from_us = from_us;
  rule.until_us = until_us;
  rule.drop = p;
  return FaultPlan{}.add(rule);
}

void FaultInjector::note(SimTime time, const char* kind, ProcessId src,
                         ProcessId dst) {
  if (log_.size() >= kLogCapacity) log_.pop_front();
  log_.push_back(FaultEvent{time, kind, src, dst});
}

FaultInjector::Action FaultInjector::apply(ProcessId from, ProcessId to, SimTime now,
                                           std::vector<std::uint8_t>& payload) {
  ++stats_.packets_considered;
  const bool is_token = payload_is_token(payload);
  Action action;
  for (const FaultRule& rule : plan_.rules()) {
    if (!rule.matches(from, to, now, is_token)) continue;
    if (rule.drop > 0 && rng_.chance(rule.drop)) {
      action.drop = true;
      ++stats_.dropped;
      if (is_token) ++stats_.token_dropped;
      ++stats_.injected_total;
      note(now, is_token ? "token-drop" : "drop", from, to);
      return action;  // a dropped packet suffers no further faults
    }
    if (rule.duplicate > 0 && rng_.chance(rule.duplicate)) {
      const int copies =
          rule.max_duplicates <= 1
              ? 1
              : 1 + static_cast<int>(rng_.below(
                        static_cast<std::uint64_t>(rule.max_duplicates)));
      for (int i = 0; i < copies; ++i) {
        action.duplicate_extra_delays.push_back(
            rng_.below(rule.reorder_window_us + 1));
      }
      stats_.duplicated += static_cast<std::uint64_t>(copies);
      ++stats_.injected_total;
      note(now, "duplicate", from, to);
    }
    if (rule.reorder > 0 && rng_.chance(rule.reorder)) {
      action.extra_delay_us += rng_.below(rule.reorder_window_us + 1);
      ++stats_.reordered;
      ++stats_.injected_total;
      note(now, "reorder", from, to);
    }
    if (rule.delay_spike > 0 && rng_.chance(rule.delay_spike)) {
      action.extra_delay_us += rule.spike_us;
      ++stats_.delay_spiked;
      ++stats_.injected_total;
      note(now, "delay-spike", from, to);
    }
    if (rule.corrupt > 0 && !payload.empty() && rng_.chance(rule.corrupt)) {
      const int flips =
          1 + static_cast<int>(rng_.below(static_cast<std::uint64_t>(
                  std::max(1, rule.max_corrupt_bytes))));
      for (int i = 0; i < flips; ++i) {
        const std::size_t pos = rng_.below(payload.size());
        payload[pos] ^= static_cast<std::uint8_t>(1 + rng_.below(255));
      }
      action.corrupted = true;
      ++stats_.corrupted;
      ++stats_.injected_total;
      note(now, "corrupt", from, to);
    }
    if (rule.corrupt_sealed > 0 && rng_.chance(rule.corrupt_sealed)) {
      // Flip bytes in the final quarter of the FIRST frame's body, then
      // recompute that frame's CRC so the wire layer accepts the packet:
      // corruption only an application-level check can reject. Requires an
      // intact header and a body long enough to have a tail to hit.
      constexpr std::size_t kHeader = 8;
      std::uint32_t length = 0;
      if (payload.size() >= kHeader + 4) {
        length = static_cast<std::uint32_t>(payload[0]) |
                 (static_cast<std::uint32_t>(payload[1]) << 8) |
                 (static_cast<std::uint32_t>(payload[2]) << 16) |
                 (static_cast<std::uint32_t>(payload[3]) << 24);
      }
      // Only Regular (application-data) frames: re-sealed flips in a
      // protocol message (join, token) could decode into Byzantine
      // membership state, which is outside the paper's fault model. The
      // type byte is body[0]; MsgType::Regular == 1 (totem/messages.hpp,
      // not included here — sim sits below totem in the layering). The
      // Regular header is 38 bytes (type 1, RingId 12, seq 8, MsgId 12,
      // service 1, payload length 4); a body of >= 56 keeps the final
      // quarter strictly inside the application payload, so the flips can
      // never rewrite ordering metadata either.
      constexpr std::uint8_t kRegularType = 1;
      constexpr std::uint32_t kMinSealableBody = 56;
      if (length >= kMinSealableBody && payload.size() - kHeader >= length &&
          payload[kHeader] == kRegularType) {
        const std::size_t body_off = kHeader;
        const std::size_t tail_off = body_off + length - length / 4;
        const std::size_t tail_len = body_off + length - tail_off;
        const int flips =
            1 + static_cast<int>(rng_.below(static_cast<std::uint64_t>(
                    std::max(1, rule.max_sealed_bytes))));
        for (int i = 0; i < flips; ++i) {
          const std::size_t pos = tail_off + rng_.below(tail_len);
          payload[pos] ^= static_cast<std::uint8_t>(1 + rng_.below(255));
        }
        const std::uint32_t crc =
            crc32_local(payload.data() + body_off, length);
        payload[4] = static_cast<std::uint8_t>(crc);
        payload[5] = static_cast<std::uint8_t>(crc >> 8);
        payload[6] = static_cast<std::uint8_t>(crc >> 16);
        payload[7] = static_cast<std::uint8_t>(crc >> 24);
        action.corrupted = true;
        ++stats_.sealed_corrupted;
        ++stats_.injected_total;
        note(now, "corrupt-sealed", from, to);
      }
    }
  }
  return action;
}

StableStore::WriteFault FaultInjector::apply_storage(ProcessId p, SimTime now,
                                                     std::size_t record_bytes) {
  StableStore::WriteFault fault;
  if (plan_.storage_rules().empty()) return fault;
  ++stats_.writes_considered;
  for (const StorageFaultRule& rule : plan_.storage_rules()) {
    if (!rule.matches(p, now)) continue;
    if (rule.write_fail > 0 && rng_.chance(rule.write_fail)) {
      fault.kind = StableStore::WriteFault::Kind::Fail;
      ++stats_.write_failed;
      ++stats_.injected_total;
      note(now, "write-fail", p, p);
      return fault;
    }
    if (rule.torn > 0 && rng_.chance(rule.torn)) {
      fault.kind = StableStore::WriteFault::Kind::Torn;
      // Keep a strict prefix: anywhere from the bare header down to one byte.
      fault.keep_bytes = record_bytes == 0 ? 0 : rng_.below(record_bytes);
      ++stats_.write_torn;
      ++stats_.injected_total;
      note(now, "write-torn", p, p);
      return fault;
    }
    if (rule.rot > 0 && rng_.chance(rule.rot)) {
      fault.kind = StableStore::WriteFault::Kind::Rot;
      fault.rot_offset = record_bytes == 0 ? 0 : rng_.below(record_bytes);
      fault.rot_xor = static_cast<std::uint8_t>(1 + rng_.below(255));
      ++stats_.write_rotted;
      ++stats_.injected_total;
      note(now, "write-rot", p, p);
      return fault;
    }
  }
  return fault;
}

std::string FaultInjector::format_log() const {
  std::string out;
  for (const FaultEvent& e : log_) {
    out += "  t=" + std::to_string(e.time) + "us " + e.kind + " " +
           to_string(e.src) + "->" + to_string(e.dst) + "\n";
  }
  if (out.empty()) out = "  (no faults injected)\n";
  return out;
}

FaultStats& operator+=(FaultStats& a, const FaultStats& b) {
  a.packets_considered += b.packets_considered;
  a.injected_total += b.injected_total;
  a.dropped += b.dropped;
  a.token_dropped += b.token_dropped;
  a.duplicated += b.duplicated;
  a.corrupted += b.corrupted;
  a.sealed_corrupted += b.sealed_corrupted;
  a.reordered += b.reordered;
  a.delay_spiked += b.delay_spiked;
  a.writes_considered += b.writes_considered;
  a.write_failed += b.write_failed;
  a.write_torn += b.write_torn;
  a.write_rotted += b.write_rotted;
  return a;
}

std::string to_string(const FaultStats& s) {
  return "considered=" + std::to_string(s.packets_considered) +
         " injected=" + std::to_string(s.injected_total) +
         " dropped=" + std::to_string(s.dropped) +
         " token_dropped=" + std::to_string(s.token_dropped) +
         " duplicated=" + std::to_string(s.duplicated) +
         " corrupted=" + std::to_string(s.corrupted) +
         " sealed_corrupted=" + std::to_string(s.sealed_corrupted) +
         " reordered=" + std::to_string(s.reordered) +
         " delay_spiked=" + std::to_string(s.delay_spiked) +
         " writes_considered=" + std::to_string(s.writes_considered) +
         " write_failed=" + std::to_string(s.write_failed) +
         " write_torn=" + std::to_string(s.write_torn) +
         " write_rotted=" + std::to_string(s.write_rotted);
}

}  // namespace evs
