// Umbrella header: the public API of libevs.
//
//   #include "evs/evs.hpp"
//
// Core types and entry points:
//   evs::EvsNode        — a process running extended virtual synchrony
//   evs::VsNode         — the Isis-style virtual synchrony filter on top
//   evs::Cluster        — simulation harness (network, stores, trace)
//   evs::VsCluster      — harness for the VS layer
//   evs::SpecChecker    — Specifications 1.1-7.2 trace checker
//   evs::VsChecker      — Birman legality (C1-C3, L1-L5) checker
//
// Callbacks use uniform setter names across every node layer:
//   set_on_deliver(...)        — per-message delivery (EvsNode, VsNode)
//   set_on_deliver_batch(...)  — zero-copy batch delivery: a
//                                std::span<const EvsNode::DeliveryView>
//                                whose payload spans borrow the arriving
//                                datagrams for the callback's duration.
//                                EvsNode has one delivery slot; its
//                                set_on_deliver is an owned-copy adapter
//                                over it, and the latest registration of
//                                either form receives every delivery
//   set_on_config_change(...)  — configuration changes (EvsNode)
//   set_on_view_change(...)    — VS views (VsNode)
//
// The wire codec (wire/codec.hpp) is span-based: decode_* / peek_type take
// std::span<const std::uint8_t>, frames pack back-to-back into one datagram
// (wire::append_frame / wire::FrameCursor), and RegularMsgView
// (totem/messages.hpp) is the non-owning decode whose payload span plus
// BufferRef owner pin the backing datagram — storage comes from the
// recycling net::DatagramArena (net/arena.hpp). Lifetime rules are in
// DESIGN.md "Zero-copy ownership model".
//
// Fallible entry points return evs::Status / evs::Expected<T>
// (util/status.hpp) with a machine-readable evs::Errc:
//   EvsNode::send(...)             -> Expected<MsgId>
//   EvsNode::send_batch(...)       -> Expected<std::vector<MsgId>>
//                                     (all-or-nothing vs flow control)
//   wire::seal_frame/open_frame    -> Expected<...>
// EvsNode::Options::validate() rejects inconsistent timeout/limit
// combinations at construction time (Errc::invalid_options).
//
// Observability (src/obs, zero overhead when disabled):
//   evs::obs::MetricsRegistry — typed counters/gauges/histograms; one per
//                               node, network and harness; merge_from()
//                               aggregates them cluster-wide
//   evs::obs::SpanSink        — span tracing of gathers, recovery steps,
//                               config installs and token rotations;
//                               exports chrome://tracing JSON or text
//   evs::obs exporters        — "evs.obs.snapshot" / "evs.obs.report"
//                               JSON documents plus their validators
//                               (obs/export.hpp, testkit/report.hpp)
//
// See README.md for the architecture overview and hot-path tuning knobs
// (batch_max_frames, batch_max_bytes, max_recv_per_poll) and DESIGN.md
// for the paper mapping.
#pragma once

#include "evs/config.hpp"
#include "evs/node.hpp"
#include "evs/recovery.hpp"
#include "net/arena.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "spec/checker.hpp"
#include "spec/trace.hpp"
#include "spec/vs_checker.hpp"
#include "util/status.hpp"
#include "vs/filter.hpp"
#include "vs/primary.hpp"
#include "wire/codec.hpp"
