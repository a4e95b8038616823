// Structured message tracing.
//
// A MessageTrace attaches to an Overlay's observation hook and records
// every protocol message into a bounded ring buffer (oldest records are
// dropped first, with a drop counter — tracing must never grow without
// bound under a million-message soak). Tests and debugging sessions can
// then ask "what did node x send?", "when was the first JoinNotiMsg?", or
// dump a readable transcript.
//
// Two observation points are available. attach() sees protocol-level sends
// (one per Node::send, before any transport behavior). attach_wire() sees
// transport-level emissions; attached to the transport *below* a
// ReliableTransport it additionally counts retransmissions and RelAckMsg
// traffic, which never pass the protocol-level hook.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "core/overlay.h"
#include "proto/messages.h"

namespace hcube {

struct TraceRecord {
  SimTime time;
  NodeId from;
  NodeId to;
  MessageType type;
  std::size_t wire_bytes;
};

class MessageTrace {
 public:
  explicit MessageTrace(std::size_t capacity = 1 << 16);

  // Subscribes to the overlay's on_message hook, chaining any previously
  // installed observer (it keeps firing, before the trace records). The
  // trace must outlive the overlay's use of the hook.
  void attach(Overlay& overlay);

  // Subscribes to a transport's on_send hook (chaining as above) and counts
  // every wire-level emission per message type — including duplicates the
  // reliable layer retransmits and the RelAckMsg stream, when attached to
  // the transport underneath a ReliableTransport. Counts only; wire
  // emissions are not recorded into the ring buffer.
  void attach_wire(Transport& transport);

  void record(SimTime time, const NodeId& from, const NodeId& to,
              MessageType type, std::size_t wire_bytes);

  std::size_t size() const { return records_.size(); }
  std::size_t dropped() const { return dropped_; }
  std::size_t capacity() const { return capacity_; }
  void clear();

  // Snapshot queries (records in arrival order).
  std::vector<TraceRecord> all() const;
  std::vector<TraceRecord> involving(const NodeId& node) const;
  std::vector<TraceRecord> of_type(MessageType type) const;
  std::uint64_t count_of(MessageType type) const {
    return counts_[static_cast<std::size_t>(type)];
  }
  std::uint64_t wire_count_of(MessageType type) const {
    return wire_counts_[static_cast<std::size_t>(type)];
  }
  std::uint64_t total_bytes() const { return total_bytes_; }

  // Human-readable transcript of the most recent `max_lines` records.
  std::string to_string(const IdParams& params,
                        std::size_t max_lines = 50) const;

 private:
  std::size_t capacity_;
  std::deque<TraceRecord> records_;
  std::size_t dropped_ = 0;
  std::array<std::uint64_t, kNumMessageTypes> counts_{};
  std::array<std::uint64_t, kNumMessageTypes> wire_counts_{};
  std::uint64_t total_bytes_ = 0;
};

}  // namespace hcube
