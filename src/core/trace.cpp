#include "core/trace.h"

#include <sstream>

#include "util/check.h"

namespace hcube {

MessageTrace::MessageTrace(std::size_t capacity) : capacity_(capacity) {
  HCUBE_CHECK(capacity_ > 0);
}

void MessageTrace::attach(Overlay& overlay) {
  // The hook fires synchronously inside send_message, so overlay.now() is
  // the send time. Chain rather than replace: an observer installed before
  // us (another trace, a test probe) keeps firing.
  const IdParams params = overlay.params();
  Overlay* ov = &overlay;
  overlay.on_message = [this, params, ov, prev = std::move(overlay.on_message)](
                           const NodeId& from, const NodeId& to,
                           const MessageBody& body) {
    if (prev) prev(from, to, body);
    record(ov->now(), from, to, type_of(body), wire_size_bytes(body, params));
  };
}

void MessageTrace::attach_wire(Transport& transport) {
  transport.on_send = [this, prev = std::move(transport.on_send)](
                          HostId from, HostId to, const Message& msg) {
    if (prev) prev(from, to, msg);
    ++wire_counts_[static_cast<std::size_t>(type_of(msg.body))];
  };
}

void MessageTrace::record(SimTime time, const NodeId& from, const NodeId& to,
                          MessageType type, std::size_t wire_bytes) {
  if (records_.size() == capacity_) {
    records_.pop_front();
    ++dropped_;
  }
  records_.push_back({time, from, to, type, wire_bytes});
  ++counts_[static_cast<std::size_t>(type)];
  total_bytes_ += wire_bytes;
}

void MessageTrace::clear() {
  records_.clear();
  dropped_ = 0;
  counts_.fill(0);
  wire_counts_.fill(0);
  total_bytes_ = 0;
}

std::vector<TraceRecord> MessageTrace::all() const {
  return {records_.begin(), records_.end()};
}

std::vector<TraceRecord> MessageTrace::involving(const NodeId& node) const {
  std::vector<TraceRecord> out;
  for (const auto& r : records_)
    if (r.from == node || r.to == node) out.push_back(r);
  return out;
}

std::vector<TraceRecord> MessageTrace::of_type(MessageType type) const {
  std::vector<TraceRecord> out;
  for (const auto& r : records_)
    if (r.type == type) out.push_back(r);
  return out;
}

std::string MessageTrace::to_string(const IdParams& params,
                                    std::size_t max_lines) const {
  std::ostringstream os;
  const std::size_t skip =
      records_.size() > max_lines ? records_.size() - max_lines : 0;
  if (dropped_ > 0 || skip > 0)
    os << "... (" << dropped_ + skip << " earlier records omitted)\n";
  std::size_t index = 0;
  for (const auto& r : records_) {
    if (index++ < skip) continue;
    os << r.time << "ms  " << type_name(r.type) << "  "
       << r.from.to_string(params) << " -> " << r.to.to_string(params) << " ("
       << r.wire_bytes << "B)\n";
  }
  return os.str();
}

}  // namespace hcube
