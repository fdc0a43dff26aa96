#include "check/trace_io.hpp"

#include <stdexcept>

namespace cb::check {

namespace {

constexpr const char* kFormat = "cb-drivetest-v1";

JsonValue duration_ns(Duration d) { return JsonValue(static_cast<std::int64_t>(d.nanos())); }

Duration ns_from(const JsonValue& v) { return Duration::ns(v.as_int()); }

ran::ReselectionPolicyKind policy_from(const std::string& name) {
  if (const auto kind = ran::from_string(name)) return *kind;
  throw std::runtime_error("trace: unknown reselection policy '" + name + "'");
}

}  // namespace

JsonValue trace_to_json(const ran::DriveTestTrace& trace) {
  JsonArray cells;
  for (const ran::Cell& c : trace.cells) {
    JsonObject jc;
    jc["id"] = static_cast<std::uint64_t>(c.id);
    jc["x"] = c.position.x;
    jc["y"] = c.position.y;
    jc["provider"] = c.provider;
    jc["tx_power_dbm"] = c.tx_power_dbm;
    jc["bandwidth_hz"] = c.bandwidth_hz;
    cells.emplace_back(std::move(jc));
  }

  const ran::UeRadioConfig& rc = trace.config;
  JsonObject config;
  config["measurement_interval_ns"] = duration_ns(rc.measurement_interval);
  config["hysteresis_db"] = rc.hysteresis_db;
  config["floor_dbm"] = rc.floor_dbm;
  config["policy"] = ran::to_string(rc.policy);
  config["time_to_trigger_ns"] = duration_ns(rc.time_to_trigger);
  config["l3_filter_k"] = rc.l3_filter_k;
  config["ue_id"] = static_cast<std::uint64_t>(rc.ue_id);
  JsonObject channel;
  channel["shadow_sigma_db"] = rc.channel.shadow_sigma_db;
  channel["decorrelation_m"] = rc.channel.decorrelation_m;
  channel["fast_fading"] = rc.channel.fast_fading;
  channel["fading_sigma_db"] = rc.channel.fading_sigma_db;
  channel["seed"] = rc.channel.seed;
  config["channel"] = JsonValue(std::move(channel));

  JsonArray samples;
  for (const ran::DriveTestTrace::Sample& s : trace.samples) {
    JsonArray neighbors;
    for (const ran::DriveTestTrace::Neighbor& n : s.neighbors) {
      JsonObject jn;
      jn["cell"] = static_cast<std::uint64_t>(n.cell);
      jn["rsrp_dbm"] = n.rsrp_dbm;
      jn["filtered_dbm"] = n.filtered_dbm;
      neighbors.emplace_back(std::move(jn));
    }
    JsonObject js;
    js["t_ns"] = duration_ns(s.at);
    js["x"] = s.position.x;
    js["y"] = s.position.y;
    js["serving"] = static_cast<std::uint64_t>(s.serving);
    js["neighbors"] = JsonValue(std::move(neighbors));
    samples.emplace_back(std::move(js));
  }

  JsonArray reselections;
  for (const ran::DriveTestTrace::Reselection& e : trace.reselections) {
    JsonObject je;
    je["t_ns"] = duration_ns(e.at);
    je["from"] = static_cast<std::uint64_t>(e.from);
    je["to"] = static_cast<std::uint64_t>(e.to);
    reselections.emplace_back(std::move(je));
  }

  JsonObject o;
  o["format"] = kFormat;
  o["cells"] = JsonValue(std::move(cells));
  o["config"] = JsonValue(std::move(config));
  o["samples"] = JsonValue(std::move(samples));
  o["reselections"] = JsonValue(std::move(reselections));
  return JsonValue(std::move(o));
}

ran::DriveTestTrace trace_from_json(const JsonValue& v) {
  if (v.contains("format") && v.at("format").as_string() != kFormat) {
    throw std::runtime_error("trace: unsupported format '" + v.at("format").as_string() + "'");
  }
  ran::DriveTestTrace trace;
  for (const JsonValue& jc : v.at("cells").as_array()) {
    ran::Cell c;
    c.id = static_cast<ran::CellId>(jc.at("id").as_uint());
    c.position = ran::Point{jc.at("x").as_double(), jc.at("y").as_double()};
    c.provider = jc.at("provider").as_string();
    c.tx_power_dbm = jc.at("tx_power_dbm").as_double();
    c.bandwidth_hz = jc.at("bandwidth_hz").as_double();
    trace.cells.push_back(std::move(c));
  }

  const JsonValue& config = v.at("config");
  ran::UeRadioConfig& rc = trace.config;
  rc.measurement_interval = ns_from(config.at("measurement_interval_ns"));
  rc.hysteresis_db = config.at("hysteresis_db").as_double();
  rc.floor_dbm = config.at("floor_dbm").as_double();
  rc.policy = policy_from(config.at("policy").as_string());
  rc.time_to_trigger = ns_from(config.at("time_to_trigger_ns"));
  rc.l3_filter_k = static_cast<int>(config.at("l3_filter_k").as_int());
  rc.ue_id = static_cast<std::uint32_t>(config.at("ue_id").as_uint());
  const JsonValue& channel = config.at("channel");
  rc.channel.shadow_sigma_db = channel.at("shadow_sigma_db").as_double();
  rc.channel.decorrelation_m = channel.at("decorrelation_m").as_double();
  rc.channel.fast_fading = channel.at("fast_fading").as_bool();
  rc.channel.fading_sigma_db = channel.at("fading_sigma_db").as_double();
  rc.channel.seed = channel.at("seed").as_uint();

  for (const JsonValue& js : v.at("samples").as_array()) {
    ran::DriveTestTrace::Sample s;
    s.at = ns_from(js.at("t_ns"));
    s.position = ran::Point{js.at("x").as_double(), js.at("y").as_double()};
    s.serving = static_cast<ran::CellId>(js.at("serving").as_uint());
    for (const JsonValue& jn : js.at("neighbors").as_array()) {
      s.neighbors.push_back(ran::DriveTestTrace::Neighbor{
          static_cast<ran::CellId>(jn.at("cell").as_uint()), jn.at("rsrp_dbm").as_double(),
          jn.at("filtered_dbm").as_double()});
    }
    trace.samples.push_back(std::move(s));
  }

  for (const JsonValue& je : v.at("reselections").as_array()) {
    trace.reselections.push_back(ran::DriveTestTrace::Reselection{
        ns_from(je.at("t_ns")), static_cast<ran::CellId>(je.at("from").as_uint()),
        static_cast<ran::CellId>(je.at("to").as_uint())});
  }
  return trace;
}

std::string write_trace(const ran::DriveTestTrace& trace) {
  return trace_to_json(trace).dump(2);
}

ran::DriveTestTrace load_trace(const std::string& text) {
  return trace_from_json(json_parse(text));
}

}  // namespace cb::check
