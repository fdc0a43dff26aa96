#include "ran/ue_radio.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "ran/drive_trace.hpp"

namespace cb::ran {

namespace {

const char* reason_counter(ReselectReason reason) {
  switch (reason) {
    case ReselectReason::Acquire: return "ran.reselect.acquire";
    case ReselectReason::FloorLoss: return "ran.reselect.floor_loss";
    case ReselectReason::A3: return "ran.reselect.a3";
    case ReselectReason::Ttt: return "ran.reselect.ttt";
    case ReselectReason::Rank: return "ran.reselect.rank";
  }
  return "ran.reselect.unknown";
}

}  // namespace

const char* to_string(ReselectionPolicyKind kind) {
  switch (kind) {
    case ReselectionPolicyKind::A3Hysteresis: return "a3";
    case ReselectionPolicyKind::A3TimeToTrigger: return "a3_ttt";
    case ReselectionPolicyKind::RankBased: return "rank";
  }
  return "unknown";
}

std::optional<ReselectionPolicyKind> from_string(std::string_view name) {
  for (ReselectionPolicyKind kind :
       {ReselectionPolicyKind::A3Hysteresis, ReselectionPolicyKind::A3TimeToTrigger,
        ReselectionPolicyKind::RankBased}) {
    if (name == to_string(kind)) return kind;
  }
  return std::nullopt;
}

UeRadio::UeRadio(sim::Simulator& sim, const RadioEnvironment& env, Trajectory trajectory,
                 UeRadioConfig config)
    : sim_(sim), env_(env), trajectory_(std::move(trajectory)), config_(config),
      channel_(config.channel) {}

void UeRadio::start(std::function<void(CellId, CellId)> on_cell_change) {
  on_cell_change_ = std::move(on_cell_change);
  started_at_ = sim_.now();
  running_ = true;
  if (drive_sink_ != nullptr) {
    drive_sink_->cells = env_.cells();
    drive_sink_->config = config_;
  }
  measure();
}

void UeRadio::stop() {
  running_ = false;
  timer_.cancel();
}

void UeRadio::set_drive_sink(DriveTestTrace* sink) { drive_sink_ = sink; }

Point UeRadio::position() const { return trajectory_.position(sim_.now() - started_at_); }

double UeRadio::l3_alpha() const {
  // 3GPP TS 36.331 §5.5.3.2: a = 1/2^(k/4); k = 0 -> a = 1 (no smoothing).
  if (config_.l3_filter_k <= 0) return 1.0;
  return std::pow(2.0, -config_.l3_filter_k / 4.0);
}

bool UeRadio::table_contains(CellId cell) const {
  for (const NeighborEntry& e : table_) {
    if (e.cell == cell) return true;
  }
  return false;
}

std::vector<CellId> UeRadio::candidates() const {
  // Same ordering algorithm as RadioEnvironment::scan, but over the L3 table
  // (last tick's state) rather than a fresh geometry scan.
  std::vector<Measurement> visible;
  for (const NeighborEntry& e : table_) {
    if (e.filtered_dbm >= config_.floor_dbm) {
      visible.push_back(Measurement{e.cell, e.filtered_dbm});
    }
  }
  std::sort(visible.begin(), visible.end(),
            [](const Measurement& a, const Measurement& b) { return a.rsrp_dbm > b.rsrp_dbm; });
  std::vector<CellId> out;
  out.reserve(visible.size());
  for (const Measurement& m : visible) out.push_back(m.cell);
  return out;
}

void UeRadio::measure() {
  if (!running_) return;
  const TimePoint now = sim_.now();
  const Point where = position();
  const double alpha = l3_alpha();
  obs::inc(obs::counter("ran.measurement_ticks"));

  // Refresh the neighbor table: one channel-noisy sample per detectable cell,
  // folded through the L3 filter. Entries stay in registry order so the
  // strongest-cell tie-break matches RadioEnvironment::best exactly. The
  // serving cell is always tracked — the floor-loss rule below needs its
  // quality even when it drops out of the visible set.
  std::size_t kept = 0;
  for (const Cell& c : env_.cells()) {
    const double rsrp = channel_.rsrp_dbm(c, config_.ue_id, where, now);
    if (rsrp < config_.floor_dbm && c.id != serving_) continue;
    NeighborEntry* entry = nullptr;
    for (std::size_t i = kept; i < table_.size(); ++i) {
      if (table_[i].cell == c.id) {
        if (i != kept) std::swap(table_[i], table_[kept]);
        entry = &table_[kept];
        break;
      }
    }
    if (entry == nullptr) {
      table_.insert(table_.begin() + static_cast<std::ptrdiff_t>(kept),
                    NeighborEntry{c.id, rsrp, rsrp, now});
      entry = &table_[kept];
    } else {
      entry->rsrp_dbm = rsrp;
      entry->filtered_dbm =
          alpha >= 1.0 ? rsrp : (1.0 - alpha) * entry->filtered_dbm + alpha * rsrp;
      entry->last_seen = now;
    }
    ++kept;
  }
  table_.resize(kept);  // cells that fell below the floor age out
  obs::set(obs::gauge("ran.neighbor_count"), static_cast<double>(table_.size()));

  // Strongest filtered cell above the floor (registry-order tie-break).
  NeighborEntry best;
  for (const NeighborEntry& e : table_) {
    if (e.filtered_dbm >= config_.floor_dbm && e.filtered_dbm > best.filtered_dbm) best = e;
  }
  const NeighborEntry* sv = nullptr;
  for (const NeighborEntry& e : table_) {
    if (e.cell == serving_) {
      sv = &e;
      break;
    }
  }

  CellId next = serving_;
  ReselectReason reason = ReselectReason::Acquire;
  double margin = 0.0;
  Duration held = Duration::zero();
  if (serving_ == 0) {
    next = best.cell;  // initial acquisition: take the strongest
  } else if (sv == nullptr || sv->filtered_dbm < config_.floor_dbm) {
    next = best.cell;  // lost the serving cell entirely
    reason = ReselectReason::FloorLoss;
  } else {
    switch (config_.policy) {
      case ReselectionPolicyKind::A3Hysteresis:
        if (best.cell != 0 && best.cell != serving_ &&
            best.filtered_dbm > sv->filtered_dbm + config_.hysteresis_db) {
          next = best.cell;  // A3 event: neighbour better by hysteresis
          reason = ReselectReason::A3;
          margin = best.filtered_dbm - sv->filtered_dbm;
        }
        break;
      case ReselectionPolicyKind::A3TimeToTrigger:
        if (best.cell != 0 && best.cell != serving_ &&
            best.filtered_dbm > sv->filtered_dbm + config_.hysteresis_db) {
          if (best.cell != ttt_candidate_) {
            ttt_candidate_ = best.cell;
            ttt_since_ = now;
          }
          held = now - ttt_since_;
          if (held >= config_.time_to_trigger) {
            next = best.cell;
            reason = ReselectReason::Ttt;
            margin = best.filtered_dbm - sv->filtered_dbm;
          }
        } else {
          ttt_candidate_ = 0;  // condition broke: restart the trigger clock
        }
        break;
      case ReselectionPolicyKind::RankBased:
        if (best.cell != 0 && best.cell != serving_ &&
            best.filtered_dbm > sv->filtered_dbm) {
          next = best.cell;  // strongest-cell baseline: no margin required
          reason = ReselectReason::Rank;
          margin = best.filtered_dbm - sv->filtered_dbm;
        }
        break;
    }
  }

  if (next != serving_) {
    const CellId old = serving_;
    serving_ = next;
    ++changes_;
    ttt_candidate_ = 0;
    reselections_.push_back(ReselectionEvent{now, old, next, reason, margin, held});
    obs::inc(obs::counter("ran.cell_changes"));
    obs::inc(obs::counter(reason_counter(reason)));
    obs::observe(obs::histogram("ran.reselect.margin_db"), margin);
    obs::trace(sim_.now(), obs::TraceType::CellChange, old, next);
    obs::trace(sim_.now(), obs::TraceType::Reselection, next,
               static_cast<std::uint64_t>(reason));
    CB_LOG(Debug, "ran") << "cell change " << old << " -> " << next << " ("
                         << reason_counter(reason) << ", margin " << margin << " dB)";
    if (on_cell_change_) on_cell_change_(old, next);
    if (drive_sink_ != nullptr) {
      drive_sink_->reselections.push_back(
          DriveTestTrace::Reselection{now - started_at_, old, next});
    }
  }

  if (drive_sink_ != nullptr) {
    DriveTestTrace::Sample sample;
    sample.at = now - started_at_;
    sample.position = where;
    sample.serving = serving_;
    sample.neighbors.reserve(table_.size());
    for (const NeighborEntry& e : table_) {
      sample.neighbors.push_back(DriveTestTrace::Neighbor{e.cell, e.rsrp_dbm, e.filtered_dbm});
    }
    drive_sink_->samples.push_back(std::move(sample));
  }

  timer_ = sim_.schedule(config_.measurement_interval, [this] { measure(); });
}

}  // namespace cb::ran
