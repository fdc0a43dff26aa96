#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>

#include "common/fnv.hpp"

namespace cb::obs {

const char* to_string(TraceType type) {
  switch (type) {
    case TraceType::AttachStart: return "attach_start";
    case TraceType::AttachOk: return "attach_ok";
    case TraceType::AttachFail: return "attach_fail";
    case TraceType::AttachTimeout: return "attach_timeout";
    case TraceType::AttachRetry: return "attach_retry";
    case TraceType::SapAuthOk: return "sap_auth_ok";
    case TraceType::SapAuthDenied: return "sap_auth_denied";
    case TraceType::HandoverDetach: return "handover_detach";
    case TraceType::HandoverReattach: return "handover_reattach";
    case TraceType::BearerLoss: return "bearer_loss";
    case TraceType::CellChange: return "cell_change";
    case TraceType::ReportSend: return "report_send";
    case TraceType::ReportAck: return "report_ack";
    case TraceType::ReportAbandoned: return "report_abandoned";
    case TraceType::ReportIngest: return "report_ingest";
    case TraceType::ReportPaired: return "report_paired";
    case TraceType::ReportUnpairedExpired: return "report_unpaired_expired";
    case TraceType::SessionInstalled: return "session_installed";
    case TraceType::SessionReleased: return "session_released";
    case TraceType::SessionGc: return "session_gc";
    case TraceType::SubflowOpen: return "subflow_open";
    case TraceType::SubflowSwitch: return "subflow_switch";
    case TraceType::SubflowClose: return "subflow_close";
    case TraceType::EpcAttachStart: return "epc_attach_start";
    case TraceType::EpcAttachDone: return "epc_attach_done";
    case TraceType::Reselection: return "reselection";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(std::max<std::size_t>(capacity, 1)) {}

void FlightRecorder::record(TimePoint at, TraceType type, std::uint64_t a, std::uint64_t b) {
  ring_[total_ % ring_.size()] = TraceRecord{at, type, a, b};
  ++total_;
}

std::size_t FlightRecorder::size() const {
  return static_cast<std::size_t>(std::min<std::uint64_t>(total_, ring_.size()));
}

std::uint64_t FlightRecorder::dropped() const { return total_ - size(); }

std::vector<TraceRecord> FlightRecorder::dump() const {
  const std::size_t n = size();
  std::vector<TraceRecord> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(total_ - n + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t FlightRecorder::fingerprint() const {
  std::uint64_t h = kFnvOffset;
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    const TraceRecord& r = ring_[(total_ - n + i) % ring_.size()];
    fnv_mix(h, static_cast<std::uint64_t>(r.at.nanos()));
    fnv_mix(h, static_cast<std::uint64_t>(r.type));
    fnv_mix(h, r.a);
    fnv_mix(h, r.b);
  }
  fnv_mix(h, total_);
  return h;
}

std::string FlightRecorder::to_json() const {
  std::string out = "[";
  bool first = true;
  for (const TraceRecord& r : dump()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"t_ns\": %lld, \"event\": \"%s\", \"a\": %llu, \"b\": %llu}",
                  first ? "" : ", ", static_cast<long long>(r.at.nanos()), to_string(r.type),
                  static_cast<unsigned long long>(r.a), static_cast<unsigned long long>(r.b));
    out += buf;
    first = false;
  }
  out += "]";
  return out;
}

void FlightRecorder::append(const FlightRecorder& other) {
  for (const TraceRecord& r : other.dump()) record(r.at, r.type, r.a, r.b);
}

void FlightRecorder::clear() { total_ = 0; }

}  // namespace cb::obs
