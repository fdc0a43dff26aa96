#include "cellbricks/billing.hpp"

#include <bit>

#include "crypto/box.hpp"
#include "obs/metrics.hpp"

namespace cb::cellbricks {

namespace {
std::uint64_t pack(double v) { return std::bit_cast<std::uint64_t>(v); }
double unpack(std::uint64_t v) { return std::bit_cast<double>(v); }
}  // namespace

Bytes TrafficReport::serialize() const {
  ByteWriter w;
  w.u64(session_id);
  w.u8(static_cast<std::uint8_t>(reporter));
  w.u32(period);
  w.u64(ul_bytes);
  w.u64(dl_bytes);
  w.u64(duration_ms);
  w.u64(pack(dl_loss_rate));
  w.u64(pack(ul_loss_rate));
  w.u64(pack(avg_dl_bps));
  w.u64(pack(avg_ul_bps));
  w.u64(pack(avg_delay_ms));
  return w.take();
}

Result<TrafficReport> TrafficReport::deserialize(BytesView data) {
  try {
    ByteReader r(data);
    TrafficReport t;
    t.session_id = r.u64();
    t.reporter = static_cast<Reporter>(r.u8());
    t.period = r.u32();
    t.ul_bytes = r.u64();
    t.dl_bytes = r.u64();
    t.duration_ms = r.u64();
    t.dl_loss_rate = unpack(r.u64());
    t.ul_loss_rate = unpack(r.u64());
    t.avg_dl_bps = unpack(r.u64());
    t.avg_ul_bps = unpack(r.u64());
    t.avg_delay_ms = unpack(r.u64());
    return t;
  } catch (const std::out_of_range&) {
    obs::inc(obs::counter("billing.report_parse_errors"));
    return Result<TrafficReport>::err("traffic report: truncated");
  }
}

Bytes ReportFrame::seal(const TrafficReport& report, const std::string& reporter_id,
                        const std::function<Bytes(BytesView)>& sign,
                        const crypto::RsaPublicKey& broker_key, Rng& rng) {
  const Bytes report_bytes = report.serialize();
  ByteWriter w;
  w.str(reporter_id);
  w.u8(static_cast<std::uint8_t>(report.reporter));
  w.bytes(report_bytes);
  w.bytes(sign(report_bytes));
  return crypto::seal(broker_key, w.data(), rng);
}

Result<ReportFrame> ReportFrame::decode(BytesView opened) {
  try {
    ByteReader r(opened);
    ReportFrame f;
    f.reporter_id = r.str();
    f.reporter = static_cast<Reporter>(r.u8());
    f.report = r.bytes();
    f.sig = r.bytes();
    return f;
  } catch (const std::out_of_range&) {
    return Result<ReportFrame>::err("report frame: truncated");
  }
}

}  // namespace cb::cellbricks
