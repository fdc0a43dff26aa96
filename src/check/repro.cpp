#include "check/repro.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/time.hpp"

namespace cb::check {

namespace {

/// The report timers re-arm by report_interval_s: a negative interval aborts
/// the replay, and a zero or sub-nanosecond one re-arms at the same instant
/// forever. The invariant sweep's cadence has the same floor.
constexpr double kMinIntervalS = 1e-3;
/// The horizon and fault times become Duration nanoseconds, and a window
/// ends at start + duration: a time past the simulator's own "longer than
/// anything" sentinel (about 73 years) would overflow one or the other.
constexpr double kMaxTimeS = Duration::infinite().to_seconds();

/// A fault before t=0 cannot be scheduled, and a negative duration would
/// inject a window that never heals.
double fault_time(const std::string& key, double v) {
  if (!std::isfinite(v) || v < 0.0 || v > kMaxTimeS) {
    throw std::runtime_error("repro: fault " + key + " must be a finite value in [0, " +
                             std::to_string(kMaxTimeS) + "] s");
  }
  return v;
}

const char* fault_kind_name(scenario::FuzzFault::Kind kind) {
  switch (kind) {
    case scenario::FuzzFault::Kind::BrokerOutage: return "broker_outage";
    case scenario::FuzzFault::Kind::TelcoCrash: return "telco_crash";
    case scenario::FuzzFault::Kind::RadioDrop: return "radio_drop";
    case scenario::FuzzFault::Kind::WanDegrade: return "wan_degrade";
    case scenario::FuzzFault::Kind::ShardKill: return "shard_kill";
  }
  return "unknown";
}

scenario::FuzzFault::Kind fault_kind_from(const std::string& name) {
  if (name == "broker_outage") return scenario::FuzzFault::Kind::BrokerOutage;
  if (name == "telco_crash") return scenario::FuzzFault::Kind::TelcoCrash;
  if (name == "radio_drop") return scenario::FuzzFault::Kind::RadioDrop;
  if (name == "wan_degrade") return scenario::FuzzFault::Kind::WanDegrade;
  if (name == "shard_kill") return scenario::FuzzFault::Kind::ShardKill;
  throw std::runtime_error("repro: unknown fault kind '" + name + "'");
}

// An absent optional key leaves `field` as it is: decoding into a
// default-constructed FuzzScenario, that is the field's own default.
void read_optional(const JsonValue& v, const std::string& key, double& field) {
  if (v.contains(key)) field = v.at(key).as_double();
}
void read_optional(const JsonValue& v, const std::string& key, bool& field) {
  if (v.contains(key)) field = v.at(key).as_bool();
}
void read_optional(const JsonValue& v, const std::string& key, int& field) {
  if (v.contains(key)) field = static_cast<int>(v.at(key).as_int());
}

/// Both scenario axes are stored by their to_string names. A number is the
/// retired integer form: replaying it as the default would report a bug it
/// no longer trips as fixed.
template <typename Axis>
void read_axis(const JsonValue& v, const std::string& key, Axis& field,
               std::optional<Axis> (*from_string)(std::string_view)) {
  if (!v.contains(key)) return;
  const JsonValue& name = v.at(key);
  const std::optional<Axis> value =
      name.type() == JsonValue::Type::String ? from_string(name.as_string()) : std::nullopt;
  if (!value) {
    throw std::runtime_error("repro: " + key + " must be a name such as \"" + to_string(field) +
                             "\", not " + name.dump());
  }
  field = *value;
}

}  // namespace

JsonValue faults_to_json(const std::vector<scenario::FuzzFault>& faults) {
  JsonArray out;
  for (const auto& f : faults) {
    JsonObject jf;
    jf["kind"] = fault_kind_name(f.kind);
    jf["start_s"] = f.start_s;
    if (f.kind != scenario::FuzzFault::Kind::RadioDrop) jf["duration_s"] = f.duration_s;
    if (f.kind == scenario::FuzzFault::Kind::TelcoCrash ||
        f.kind == scenario::FuzzFault::Kind::ShardKill) {
      jf["telco"] = f.telco;  // ShardKill: the shard index rides this slot
    }
    if (f.kind == scenario::FuzzFault::Kind::WanDegrade) {
      jf["loss"] = f.loss;
      jf["corrupt"] = f.corrupt;
    }
    out.emplace_back(std::move(jf));
  }
  return JsonValue(std::move(out));
}

std::vector<scenario::FuzzFault> faults_from_json(const JsonValue& v) {
  std::vector<scenario::FuzzFault> faults;
  for (const auto& jf : v.as_array()) {
    scenario::FuzzFault f;
    f.kind = fault_kind_from(jf.at("kind").as_string());
    f.start_s = fault_time("start_s", jf.at("start_s").as_double());
    f.duration_s = fault_time("duration_s", jf.get("duration_s", JsonValue(0.0)).as_double());
    f.telco = jf.get("telco", JsonValue(0)).as_uint();
    f.loss = jf.get("loss", JsonValue(0.0)).as_double();
    f.corrupt = jf.get("corrupt", JsonValue(0.0)).as_double();
    faults.push_back(f);
  }
  return faults;
}

JsonValue scenario_to_json(const scenario::FuzzScenario& s) {
  const scenario::FuzzScenario d;
  JsonObject o;
  o["seed"] = s.seed;
  o["n_towers"] = s.n_towers;
  o["night"] = s.night;
  o["speed_mps"] = s.speed_mps;
  o["tower_spacing_m"] = s.tower_spacing_m;
  o["duration_s"] = s.duration_s;
  o["radio_loss"] = s.radio_loss;
  o["unlimited_policy"] = s.unlimited_policy;
  o["report_interval_s"] = s.report_interval_s;
  o["telco0_overreport"] = s.telco0_overreport;
  o["ue_underreport"] = s.ue_underreport;
  o["app"] = s.app;
  // Emitted only off FuzzScenario's defaults (the decoder's fallbacks) so
  // pre-existing repro files stay byte-stable.
  if (s.fluid_ues > d.fluid_ues) {
    o["fluid_ues"] = s.fluid_ues;
    o["fluid_hybrid"] = s.fluid_hybrid;
  }
  if (s.broker_shards > d.broker_shards) o["broker_shards"] = s.broker_shards;
  if (s.protocol != d.protocol) o["attach_protocol"] = scenario::to_string(s.protocol);
  if (s.shadow_sigma_db != d.shadow_sigma_db) {
    o["shadow_sigma_db"] = s.shadow_sigma_db;
    o["decorrelation_m"] = s.decorrelation_m;
  }
  if (s.fast_fading != d.fast_fading) o["fast_fading"] = s.fast_fading;
  if (s.reselection_policy != d.reselection_policy) {
    o["reselection_policy"] = ran::to_string(s.reselection_policy);
  }
  if (s.ttt_ms != d.ttt_ms) o["ttt_ms"] = s.ttt_ms;
  if (s.l3_filter_k != d.l3_filter_k) o["l3_filter_k"] = s.l3_filter_k;
  o["faults"] = faults_to_json(s.faults);
  if (s.plant_dedup_bug != d.plant_dedup_bug) o["plant_dedup_bug"] = s.plant_dedup_bug;
  return JsonValue(std::move(o));
}

scenario::FuzzScenario scenario_from_json(const JsonValue& v) {
  scenario::FuzzScenario s;
  s.seed = v.at("seed").as_uint();
  s.n_towers = static_cast<int>(v.at("n_towers").as_int());
  s.night = v.at("night").as_bool();
  s.speed_mps = v.at("speed_mps").as_double();
  if (!std::isfinite(s.speed_mps) || s.speed_mps <= 0.0) {
    throw std::runtime_error("repro: speed_mps must be a finite value > 0");
  }
  // A horizon of zero or less simulates nothing, so the replay would report
  // the bug fixed; a spacing of zero or less collapses the route geometry.
  s.tower_spacing_m = v.at("tower_spacing_m").as_double();
  if (!std::isfinite(s.tower_spacing_m) || s.tower_spacing_m <= 0.0) {
    throw std::runtime_error("repro: tower_spacing_m must be a finite value > 0");
  }
  s.duration_s = v.at("duration_s").as_double();
  if (!std::isfinite(s.duration_s) || s.duration_s <= 0.0 || s.duration_s > kMaxTimeS) {
    throw std::runtime_error("repro: duration_s must be a finite value in (0, " +
                             std::to_string(kMaxTimeS) + "] s");
  }
  read_optional(v, "radio_loss", s.radio_loss);
  read_optional(v, "unlimited_policy", s.unlimited_policy);
  read_optional(v, "report_interval_s", s.report_interval_s);
  if (!std::isfinite(s.report_interval_s) || s.report_interval_s < kMinIntervalS) {
    throw std::runtime_error("repro: report_interval_s must be a finite value >= 0.001");
  }
  read_optional(v, "telco0_overreport", s.telco0_overreport);
  read_optional(v, "ue_underreport", s.ue_underreport);
  read_optional(v, "app", s.app);
  read_optional(v, "fluid_ues", s.fluid_ues);
  read_optional(v, "fluid_hybrid", s.fluid_hybrid);
  read_optional(v, "broker_shards", s.broker_shards);
  if (s.broker_shards < 1) throw std::runtime_error("repro: broker_shards must be >= 1");
  if (v.contains("resume_ticket")) {
    throw std::runtime_error(std::string("repro: resume_ticket is retired; attach_protocol \"") +
                             to_string(scenario::AttachProtocol::SapResume) + "\" replaces it");
  }
  read_axis(v, "attach_protocol", s.protocol, &scenario::from_string);
  if (s.protocol == scenario::AttachProtocol::Default) {
    throw std::runtime_error("repro: attach_protocol must name a protocol");
  }
  read_optional(v, "shadow_sigma_db", s.shadow_sigma_db);
  read_optional(v, "decorrelation_m", s.decorrelation_m);
  read_optional(v, "fast_fading", s.fast_fading);
  read_axis(v, "reselection_policy", s.reselection_policy, &ran::from_string);
  read_optional(v, "ttt_ms", s.ttt_ms);
  read_optional(v, "l3_filter_k", s.l3_filter_k);
  read_optional(v, "plant_dedup_bug", s.plant_dedup_bug);
  if (s.n_towers < 1) throw std::runtime_error("repro: n_towers must be >= 1");
  s.faults = faults_from_json(v.get("faults", JsonValue(JsonArray{})));
  return s;
}

std::string write_repro(const ShrinkResult& result, const RunOptions& run_options,
                        const std::string& replay_path) {
  JsonObject violation;
  violation["invariant"] = result.witness.invariant;
  violation["at_s"] = result.witness.at.to_seconds();
  violation["detail"] = result.witness.detail;

  JsonObject shrinking;
  shrinking["candidates_tried"] = result.candidates_tried;
  shrinking["candidates_accepted"] = result.candidates_accepted;

  JsonObject doc;
  doc["format"] = "cbfuzz-repro-v1";
  doc["violation"] = JsonValue(std::move(violation));
  doc["scenario"] = scenario_to_json(result.minimal);
  doc["check_cadence_s"] = run_options.check_cadence.to_seconds();
  doc["shrinking"] = JsonValue(std::move(shrinking));
  doc["replay"] = replay_command(replay_path);
  return JsonValue(std::move(doc)).dump(2);
}

Duration check_cadence(double seconds) {
  if (!std::isfinite(seconds) || seconds < kMinIntervalS) {
    throw std::runtime_error("check cadence must be a finite value >= 0.001 s");
  }
  return Duration::seconds(seconds);
}

Repro load_repro(const std::string& text) {
  const JsonValue doc = json_parse(text);
  // A bare scenario records no cadence: RunOptions' default stands.
  Repro repro{scenario_from_json(doc.get("scenario", doc)), {}};
  if (doc.contains("check_cadence_s")) {
    repro.run.check_cadence = check_cadence(doc.at("check_cadence_s").as_double());
  }
  return repro;
}

std::string replay_command(const std::string& path) { return "cbfuzz --replay " + path; }

}  // namespace cb::check
