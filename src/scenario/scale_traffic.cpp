#include "scenario/scale_traffic.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "common/fnv.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "transport/tcp.hpp"

namespace cb::scenario {

namespace {

// Packet-mode geometry: server <-> cell bottleneck <-> per-UE access link.
// RTT ≈ 2 * (6 + 4) = 20 ms; hybrid lanes use one 10 ms link for the same RTT.
constexpr Duration kCellDelay = Duration::ms(6);
constexpr Duration kUeDelay = Duration::ms(4);
constexpr Duration kLaneDelay = Duration::ms(10);
constexpr Duration kFallbackRtt = Duration::ms(20);
/// The cell bottleneck needs >= one BDP of buffer to run at capacity.
constexpr std::size_t kCellQueueBytes = 1 << 20;
constexpr std::size_t kPushChunk = 64 * 1024;
constexpr std::uint16_t kBasePort = 5001;
/// Packet fidelity is ground truth, not a scale path.
constexpr int kMaxPacketUes = 2048;
constexpr std::size_t kMaxLanes = 4096;
/// Fraction of scheduler capacity that turns into app bytes: packet mode
/// loses MSS/(MSS+headers) to framing, and the fluid model applies the same
/// factor so both modes meter app goodput.
constexpr double kGoodputEfficiency =
    static_cast<double>(transport::kMss) /
    static_cast<double>(transport::kMss + transport::kTcpHeaderBytes + net::kPacketOverhead);
/// Hybrid: the cell the capacity-drop fault hits.
constexpr std::uint32_t kFaultCell = 0;
/// Hybrid: packet -> fluid re-promotion after this many RTTs of steady state.
constexpr std::int64_t kRttsToPromote = 8;

void fnv_mix_d(std::uint64_t& h, double v) { fnv_mix(h, std::bit_cast<std::uint64_t>(v)); }

/// Push exactly `total` bytes into `sock`, then close gracefully. Callbacks
/// capture the socket weakly — no ownership cycle through the stack.
void attach_pusher(const std::shared_ptr<transport::StreamSocket>& sock,
                   std::uint64_t total, const Bytes& chunk) {
  auto remaining = std::make_shared<std::uint64_t>(total);
  std::weak_ptr<transport::StreamSocket> weak = sock;
  auto pump = [weak, remaining, &chunk] {
    auto s = weak.lock();
    if (!s) return;
    while (*remaining > 0) {
      const std::size_t want =
          static_cast<std::size_t>(std::min<std::uint64_t>(*remaining, chunk.size()));
      const std::size_t sent = s->send(BytesView(chunk.data(), want));
      if (sent == 0) return;  // buffer full; on_send_space re-pumps
      *remaining -= sent;
    }
    s->close();
  };
  sock->on_send_space = pump;
  pump();
}

}  // namespace

const char* traffic_mode_name(TrafficMode mode) {
  switch (mode) {
    case TrafficMode::Packet: return "packet";
    case TrafficMode::Fluid: return "fluid";
    case TrafficMode::Hybrid: return "hybrid";
  }
  return "?";
}

std::uint64_t ScaleTrafficResult::fingerprint() const {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, static_cast<std::uint64_t>(n_ues));
  fnv_mix(h, static_cast<std::uint64_t>(completed));
  fnv_mix_d(h, completion_mean_s);
  fnv_mix_d(h, completion_p99_s);
  fnv_mix_d(h, total_gbytes);
  fnv_mix_d(h, billing_usd);
  fnv_mix_d(h, delivered_bytes);
  fnv_mix_d(h, segment_bytes);
  fnv_mix_d(h, packet_ledger_bytes);
  fnv_mix(h, rate_events);
  fnv_mix(h, demotions);
  fnv_mix(h, promotions);
  fnv_mix(h, events);
  return h;
}

/// A packet-fidelity window for one demoted flow: a dedicated server/UE node
/// pair whose single link mirrors the flow's ghost share.
struct ScaleTrafficSim::Lane {
  net::Node* srv = nullptr;
  net::Node* ue = nullptr;
  net::Link* link = nullptr;
  net::Ipv4Addr srv_addr;
  net::Ipv4Addr ue_addr;
  std::unique_ptr<transport::TcpStack> srv_stack;
  std::unique_ptr<transport::TcpStack> ue_stack;
  std::shared_ptr<transport::StreamSocket> srv_conn;
  std::shared_ptr<transport::TcpSocket> ue_sock;
  traffic::SessionId session = traffic::kNoSession;
  TimePoint last_disturb;
  sim::EventHandle promote_timer;
  std::uint16_t port = 0;
};

struct ScaleTrafficSim::Impl {
  explicit Impl(std::uint64_t seed) : sim(seed) {}

  sim::Simulator sim;
  ran::RatePolicy policy;
  Bytes chunk = Bytes(kPushChunk, 0);

  // Pure packet mode topology.
  std::unique_ptr<net::Network> net;
  net::Node* server = nullptr;
  net::Ipv4Addr server_addr;
  std::vector<net::Node*> towers;
  std::vector<net::Node*> ue_nodes;
  std::vector<net::Link*> ue_links;
  std::unique_ptr<transport::TcpStack> server_stack;
  std::vector<std::unique_ptr<transport::TcpStack>> ue_stacks;
  std::vector<std::shared_ptr<transport::StreamSocket>> server_conns;
  std::vector<std::shared_ptr<transport::TcpSocket>> ue_socks;

  // Seed-derived per-UE streams (allocated only when the knob is on).
  std::vector<Rng> shaper_rngs;
  std::vector<Rng> mobility_rngs;
  // UEs due for a shaper resample, keyed by epoch (ns) and in enlistment
  // order; one sim event per key. A UE starting exactly on an epoch before
  // that epoch's walk is due one epoch later, so two keys can be live.
  std::map<std::int64_t, std::vector<std::uint32_t>> resample_due;

  // Hybrid lanes.
  std::vector<std::unique_ptr<Lane>> lanes;
  std::vector<std::size_t> free_lanes;
  std::unordered_map<traffic::SessionId, std::size_t> lane_of;
  std::uint16_t lane_port_seq = kBasePort;
  std::uint64_t demotions_skipped = 0;

  sim::EventHandle bill_timer;
};

ScaleTrafficSim::ScaleTrafficSim(const ScaleTrafficConfig& config) : config_(config) {
  if (config_.n_ues < 1) throw std::invalid_argument("scale_traffic: n_ues must be >= 1");
  if (config_.n_cells == 0) config_.n_cells = std::max(1, config_.n_ues / 500);
  if (config_.mode == TrafficMode::Packet && config_.n_ues > kMaxPacketUes) {
    throw std::invalid_argument("scale_traffic: packet mode is capped at " +
                                std::to_string(kMaxPacketUes) + " UEs — use fluid mode");
  }
  impl_ = std::make_unique<Impl>(config_.seed);
  impl_->policy = config_.night ? ran::RatePolicy::night() : ran::RatePolicy::day();

  // Workload draws shared verbatim by every mode: sizes, starts, and the
  // initial shaper sample per UE, each from its own forked stream.
  const std::size_t n = static_cast<std::size_t>(config_.n_ues);
  const std::size_t per_cell =
      (n + static_cast<std::size_t>(config_.n_cells) - 1) / static_cast<std::size_t>(config_.n_cells);
  arena_.reserve(n);
  flow_bytes_.resize(n);
  start_s_.resize(n);
  Rng wl = Rng(config_.seed).fork(0x5CA1E);
  for (std::size_t i = 0; i < n; ++i) {
    const double mb = std::clamp(wl.exponential(config_.mean_flow_mbytes), 1.0,
                                 8.0 * config_.mean_flow_mbytes);
    flow_bytes_[i] = std::floor(mb * 1e6);  // integral bytes, same in all modes
    start_s_[i] = wl.uniform(0.0, config_.start_window_s);
    Rng ue_rng = Rng(config_.seed).fork(0xBEA0000 + i);
    const double cap = impl_->policy.sample(ue_rng);
    if (config_.shaper_resample_s > 0.0) impl_->shaper_rngs.push_back(ue_rng);
    // Block assignment (UE i -> cell i/per_cell): a cell's members occupy a
    // contiguous SessionId range, so the fill pass streams adjacent arena
    // rows instead of striding n_cells apart — measurably faster at 100k+.
    arena_.create(static_cast<std::uint32_t>(i / per_cell), 1.0f, cap);
  }
  if (config_.mobility_interval_s > 0.0 && config_.mode != TrafficMode::Packet) {
    impl_->mobility_rngs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      impl_->mobility_rngs.push_back(Rng(config_.seed).fork(0x30B0000 + i));
    }
  }
}

ScaleTrafficSim::~ScaleTrafficSim() = default;

sim::Simulator& ScaleTrafficSim::simulator() { return impl_->sim; }

void ScaleTrafficSim::start() {
  if (config_.mode == TrafficMode::Packet) {
    build_packet();
  } else {
    build_fluid();
  }
  // Billing sweep at the report cadence (same cadence the UE baseband and
  // bTelco meters use), accruing fluid progress before reading the ledger.
  impl_->bill_timer = impl_->sim.schedule(Duration::seconds(config_.report_interval_s),
                                          [this] { bill_sweep(); });
}

void ScaleTrafficSim::bill_sweep() {
  if (fluid_) fluid_->accrue_all();
  const double usd_per_byte = kPricePerGbUsd / 1e9;
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(config_.n_ues); ++i) {
    const double delta = arena_.delivered_bytes(i) - arena_.billed_bytes(i);
    if (delta > 0.0) {
      arena_.billed_usd(i) += delta * usd_per_byte;
      arena_.billed_bytes(i) = arena_.delivered_bytes(i);
    }
  }
  if (done_ < config_.n_ues) {
    impl_->bill_timer = impl_->sim.schedule(Duration::seconds(config_.report_interval_s),
                                            [this] { bill_sweep(); });
  }
}

// ---------------------------------------------------------------------------
// Fluid / hybrid build
// ---------------------------------------------------------------------------

void ScaleTrafficSim::build_fluid() {
  fluid_ = std::make_unique<traffic::FluidEngine>(impl_->sim, arena_);
  for (int c = 0; c < config_.n_cells; ++c) {
    fluid_->add_cell(config_.scheduler_capacity_bps * kGoodputEfficiency);
  }
  // The arena carries wire-rate shaper caps; the engine allocates goodput.
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(config_.n_ues); ++i) {
    arena_.cap_bps(i) *= kGoodputEfficiency;
  }
  fluid_->on_complete = [this](traffic::SessionId id) { on_flow_done(id); };
  fluid_->on_rate_share = [this](traffic::SessionId id, double share) {
    auto it = impl_->lane_of.find(id);
    if (it == impl_->lane_of.end()) return;
    Lane& lane = *impl_->lanes[it->second];
    // Mirror the ghost share (goodput) back to a wire rate on the lane link.
    net::LinkParams p = lane.link->params(lane.srv);
    p.rate_bps = std::max(share / kGoodputEfficiency, 1.0);
    lane.link->set_params(lane.srv, p);
    lane.last_disturb = impl_->sim.now();
    const std::size_t idx = it->second;
    lane.promote_timer.cancel();
    lane.promote_timer =
        impl_->sim.schedule(promote_wait(lane), [this, idx] { try_promote(idx); });
  };

  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(config_.n_ues); ++i) {
    impl_->sim.schedule(Duration::seconds(start_s_[i]), [this, i] {
      fluid_->start_flow(i, flow_bytes_[i]);
      if (config_.shaper_resample_s > 0.0) enlist_resample(i);
      if (config_.mobility_interval_s > 0.0) schedule_mobility(i);
    });
  }

  if (config_.mode == TrafficMode::Hybrid && config_.fault_duration_s > 0.0) {
    impl_->sim.schedule(Duration::seconds(config_.fault_start_s), [this] { apply_fault(true); });
    impl_->sim.schedule(Duration::seconds(config_.fault_start_s + config_.fault_duration_s),
                        [this] { apply_fault(false); });
  }
}

TimePoint ScaleTrafficSim::next_resample_epoch() const {
  // Resamples land on GLOBAL k x period boundaries, not per-UE offsets from
  // each flow's start: the whole population's cap changes coalesce into a
  // handful of timestamps per period, which the fluid engine's dirty-cell
  // drain turns into one water-fill per cell per epoch (DESIGN.md §13) —
  // instead of one per UE. Integer-nanosecond arithmetic so the "next"
  // boundary is always strictly in the future even when an event sits
  // exactly on one. Each UE still draws from its own RNG stream at the same
  // cadence, so packet-vs-fluid agreement is untouched.
  const std::int64_t period_ns = Duration::seconds(config_.shaper_resample_s).nanos();
  const std::int64_t now_ns = impl_->sim.now().nanos();
  return TimePoint::from_nanos((now_ns / period_ns + 1) * period_ns);
}

void ScaleTrafficSim::enlist_resample(std::uint32_t ue) {
  // One sim event per epoch resamples every UE due then, in the order they
  // enlisted (DESIGN.md §13).
  const std::int64_t due_ns = next_resample_epoch().nanos();
  auto [it, fresh] = impl_->resample_due.try_emplace(due_ns);
  if (fresh) {
    impl_->sim.schedule_at(TimePoint::from_nanos(due_ns),
                           [this, due_ns] { run_resample_epoch(due_ns); });
  }
  it->second.push_back(ue);
}

void ScaleTrafficSim::run_resample_epoch(std::int64_t due_ns) {
  auto node = impl_->resample_due.extract(due_ns);
  for (std::uint32_t ue : node.mapped()) {
    if (arena_.mode(ue) == traffic::FlowMode::Done) continue;
    resample_shaper(ue);
    enlist_resample(ue);
  }
}

void ScaleTrafficSim::resample_shaper(std::uint32_t ue) {
  const double cap = impl_->policy.sample(impl_->shaper_rngs[ue]);
  if (fluid_) {
    // A cap change is a rate-change point for ghosts too: set_flow_cap only
    // writes the arena cap and marks the cell dirty, which is valid for
    // Packet-mode members and republishes the mirrored lane share.
    fluid_->set_flow_cap(ue, cap * kGoodputEfficiency);
    return;
  }
  arena_.cap_bps(ue) = cap;
  net::Link* link = impl_->ue_links[ue];
  net::Node* tower = impl_->towers[arena_.cell(ue)];
  net::LinkParams p = link->params(tower);
  p.rate_bps = cap;
  link->set_params(tower, p);
}

void ScaleTrafficSim::schedule_mobility(std::uint32_t ue) {
  const double wait = impl_->mobility_rngs[ue].exponential(config_.mobility_interval_s);
  impl_->sim.schedule(Duration::seconds(std::max(wait, 0.001)), [this, ue] {
    if (arena_.mode(ue) == traffic::FlowMode::Done) return;
    if (config_.n_cells > 1 && arena_.mode(ue) == traffic::FlowMode::Fluid) {
      const std::uint32_t hop = 1 + static_cast<std::uint32_t>(impl_->mobility_rngs[ue].next_below(
                                        static_cast<std::uint64_t>(config_.n_cells - 1)));
      fluid_->handover(ue, (arena_.cell(ue) + hop) % static_cast<std::uint32_t>(config_.n_cells));
    }
    schedule_mobility(ue);
  });
}

// ---------------------------------------------------------------------------
// Hybrid fidelity windows
// ---------------------------------------------------------------------------

Duration ScaleTrafficSim::promote_wait(const Lane& lane) const {
  Duration rtt = lane.ue_sock && lane.ue_sock->srtt() > Duration::zero() ? lane.ue_sock->srtt()
                                                                         : kFallbackRtt;
  return rtt * kRttsToPromote;
}

void ScaleTrafficSim::apply_fault(bool begin) {
  const double full = config_.scheduler_capacity_bps * kGoodputEfficiency;
  fluid_->set_cell_capacity(kFaultCell, begin ? full * config_.fault_capacity_factor : full);
  if (!begin) return;  // restoration is itself a rate-change; lanes re-promote
  // The fault is the fluid -> packet boundary: every fluid flow in the cell
  // demotes to a packet lane for the duration of the disturbance.
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(config_.n_ues); ++i) {
    if (arena_.cell(i) == kFaultCell && arena_.mode(i) == traffic::FlowMode::Fluid) {
      demote_to_lane(i);
    }
  }
}

void ScaleTrafficSim::demote_to_lane(traffic::SessionId id) {
  Impl& im = *impl_;
  std::size_t idx;
  if (!im.free_lanes.empty()) {
    idx = im.free_lanes.back();
    im.free_lanes.pop_back();
  } else if (im.lanes.size() < kMaxLanes) {
    idx = im.lanes.size();
    auto lane = std::make_unique<Lane>();
    if (!im.net) im.net = std::make_unique<net::Network>(im.sim);
    const std::string tag = std::to_string(idx);
    lane->srv = im.net->add_node("lane-srv-" + tag);
    lane->ue = im.net->add_node("lane-ue-" + tag);
    // Floored rate, never 0: rate_bps == 0 means infinite (link.hpp), and a
    // lane must never run faster than its ghost share says.
    lane->link = im.net->connect(lane->srv, lane->ue, net::LinkParams{1.0, kLaneDelay});
    lane->srv_addr = im.net->alloc_address(10);
    lane->ue_addr = im.net->alloc_address(20);
    im.net->register_address(lane->srv_addr, lane->srv);
    im.net->register_address(lane->ue_addr, lane->ue);
    // Point-to-point: static routes, no global recompute mid-sim.
    lane->srv->set_route(lane->ue_addr, lane->link);
    lane->ue->set_route(lane->srv_addr, lane->link);
    lane->srv_stack = std::make_unique<transport::TcpStack>(*lane->srv);
    lane->ue_stack = std::make_unique<transport::TcpStack>(*lane->ue);
    im.lanes.push_back(std::move(lane));
  } else {
    ++im.demotions_skipped;  // fidelity budget exhausted; flow stays fluid
    return;
  }

  Lane& lane = *im.lanes[idx];
  lane.session = id;
  lane.port = im.lane_port_seq++;
  im.lane_of[id] = idx;

  // Register the lane BEFORE demoting so the ghost-share publication lands
  // on the lane link; demote() then returns the byte-exact residual.
  const double residual = fluid_->demote(id);
  const std::uint64_t residual_bytes = static_cast<std::uint64_t>(std::ceil(residual));

  // Set the lane rate unconditionally from the post-demote ghost share: the
  // on_rate_share callback fires only when the share *changes*, so a zero
  // share (full-outage fault) on a fresh lane, or a reused lane carrying the
  // previous tenant's rate, would otherwise go unthrottled.
  net::LinkParams lp = lane.link->params(lane.srv);
  lp.rate_bps = std::max(arena_.rate_bps(id) / kGoodputEfficiency, 1.0);
  lane.link->set_params(lane.srv, lp);

  lane.srv_stack->listen(lane.port, [this, idx](std::shared_ptr<transport::TcpSocket> s) {
    Lane& l = *impl_->lanes[idx];
    l.srv_conn = s;
    const double r = arena_.residual_bytes(l.session);
    attach_pusher(l.srv_conn, static_cast<std::uint64_t>(std::ceil(r)), impl_->chunk);
  });
  (void)residual_bytes;
  lane.ue_sock = lane.ue_stack->connect(net::EndPoint{lane.srv_addr, lane.port});
  lane.ue_sock->on_data = [this, idx](BytesView data) {
    Lane& l = *impl_->lanes[idx];
    deliver_packet_bytes(l.session, data.size());
  };
  lane.last_disturb = im.sim.now();
  lane.promote_timer.cancel();
  lane.promote_timer = im.sim.schedule(promote_wait(lane), [this, idx] { try_promote(idx); });
}

void ScaleTrafficSim::try_promote(std::size_t lane_idx) {
  Lane& lane = *impl_->lanes[lane_idx];
  if (lane.session == traffic::kNoSession) return;
  const Duration need = promote_wait(lane);
  const Duration quiet = impl_->sim.now() - lane.last_disturb;
  if (quiet < need) {
    lane.promote_timer = impl_->sim.schedule(need - quiet, [this, lane_idx] {
      try_promote(lane_idx);
    });
    return;
  }
  // K RTTs of steady state: hand the residual back to the fluid engine.
  // The arena ledger already holds every byte the lane delivered; bytes
  // still in flight are simply re-sent fluidly (never double-counted).
  const traffic::SessionId id = lane.session;
  free_lane(lane_idx);
  fluid_->promote(id);
}

void ScaleTrafficSim::free_lane(std::size_t lane_idx) {
  Lane& lane = *impl_->lanes[lane_idx];
  lane.promote_timer.cancel();
  lane.srv_stack->close_listener(lane.port);
  if (lane.ue_sock) {
    lane.ue_sock->on_data = nullptr;
    lane.ue_sock->on_closed = nullptr;
    lane.ue_sock->abort();
    lane.ue_sock.reset();
  }
  if (lane.srv_conn) {
    lane.srv_conn->on_send_space = nullptr;
    lane.srv_conn.reset();
  }
  impl_->lane_of.erase(lane.session);
  lane.session = traffic::kNoSession;
  impl_->free_lanes.push_back(lane_idx);
}

// ---------------------------------------------------------------------------
// Pure packet mode (ground truth)
// ---------------------------------------------------------------------------

void ScaleTrafficSim::build_packet() {
  Impl& im = *impl_;
  im.net = std::make_unique<net::Network>(im.sim);
  im.server = im.net->add_node("server");
  im.server_addr = im.net->alloc_address(10);
  im.net->register_address(im.server_addr, im.server);
  im.server_stack = std::make_unique<transport::TcpStack>(*im.server);

  for (int c = 0; c < config_.n_cells; ++c) {
    net::Node* tower = im.net->add_node("cell-" + std::to_string(c));
    net::LinkParams cell_params;
    cell_params.rate_bps = config_.scheduler_capacity_bps;
    cell_params.delay = kCellDelay;
    cell_params.queue_bytes = kCellQueueBytes;
    im.net->connect(im.server, tower, cell_params);
    im.towers.push_back(tower);
  }

  const std::uint32_t n = static_cast<std::uint32_t>(config_.n_ues);
  im.ue_nodes.reserve(n);
  im.ue_links.reserve(n);
  im.ue_stacks.reserve(n);
  im.ue_socks.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    net::Node* ue = im.net->add_node("ue-" + std::to_string(i));
    const net::Ipv4Addr addr = im.net->alloc_address(20);
    im.net->register_address(addr, ue);
    net::LinkParams access;
    access.rate_bps = arena_.cap_bps(i);  // wire-rate shaper cap (0 = uncapped)
    access.delay = kUeDelay;
    im.ue_links.push_back(im.net->connect(im.towers[arena_.cell(i)], ue, access));
    im.ue_nodes.push_back(ue);
    im.ue_stacks.push_back(std::make_unique<transport::TcpStack>(*ue));
  }
  im.net->recompute_routes();

  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint16_t port = static_cast<std::uint16_t>(kBasePort + i);
    im.server_stack->listen(port, [this, i](std::shared_ptr<transport::TcpSocket> s) {
      impl_->server_conns.push_back(s);
      attach_pusher(impl_->server_conns.back(),
                    static_cast<std::uint64_t>(flow_bytes_[i]), impl_->chunk);
    });
    im.sim.schedule(Duration::seconds(start_s_[i]), [this, i, port] {
      arena_.mode(i) = traffic::FlowMode::Packet;
      arena_.demand_bytes(i) = flow_bytes_[i];
      arena_.start_ns(i) = impl_->sim.now().nanos();
      auto sock = impl_->ue_stacks[i]->connect(net::EndPoint{impl_->server_addr, port});
      sock->on_data = [this, i](BytesView data) { deliver_packet_bytes(i, data.size()); };
      impl_->ue_socks[i] = std::move(sock);
      if (config_.shaper_resample_s > 0.0) enlist_resample(i);
    });
  }
}

// ---------------------------------------------------------------------------
// Shared accounting
// ---------------------------------------------------------------------------

void ScaleTrafficSim::deliver_packet_bytes(traffic::SessionId id, std::size_t n) {
  if (arena_.mode(id) != traffic::FlowMode::Packet) return;
  const double add = std::min(static_cast<double>(n), arena_.residual_bytes(id));
  if (add <= 0.0) return;
  arena_.delivered_bytes(id) += add;
  packet_ledger_bytes_ += add;
  if (arena_.residual_bytes(id) <= 0.5) {
    arena_.delivered_bytes(id) = arena_.demand_bytes(id);
    if (fluid_) {
      // Hybrid: flow finished inside its fidelity window.
      const auto it = impl_->lane_of.find(id);
      fluid_->finish_packet_flow(id);
      if (it != impl_->lane_of.end()) free_lane(it->second);
    } else {
      arena_.mode(id) = traffic::FlowMode::Done;
      arena_.finish_ns(id) = impl_->sim.now().nanos();
      if (auto& s = impl_->ue_socks[id]) s->close();
    }
    on_flow_done(id);
  }
}

void ScaleTrafficSim::on_flow_done(traffic::SessionId id) {
  ++done_;
  const double t =
      static_cast<double>(arena_.finish_ns(id) - arena_.start_ns(id)) / 1e9;
  completion_s_.add(t);
  if (t > 0.0) flow_tput_mbps_.add(arena_.demand_bytes(id) * 8.0 / t / 1e6);
  last_finish_s_ = std::max(last_finish_s_, static_cast<double>(arena_.finish_ns(id)) / 1e9);
  obs::observe(obs::histogram("traffic.completion_s"), t);
  obs::inc(obs::counter("traffic.flows_completed"));
}

double ScaleTrafficSim::delivered_now() {
  if (fluid_) fluid_->accrue_all();
  double delivered = 0.0;
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(config_.n_ues); ++i) {
    delivered += arena_.delivered_bytes(i);
  }
  return delivered;
}

ScaleTrafficResult ScaleTrafficSim::run_to_completion() {
  start();
  impl_->sim.run_until(TimePoint::zero() + Duration::seconds(config_.horizon_s));
  return collect();
}

ScaleTrafficResult ScaleTrafficSim::collect() {
  // Final billing sweep so billed totals equal delivered x price exactly.
  bill_sweep();

  ScaleTrafficResult r;
  r.n_ues = config_.n_ues;
  r.completed = done_;
  r.completion_mean_s = completion_s_.empty() ? 0.0 : completion_s_.mean();
  r.completion_p50_s = completion_s_.empty() ? 0.0 : completion_s_.p50();
  r.completion_p99_s = completion_s_.empty() ? 0.0 : completion_s_.p99();
  r.flow_tput_mean_mbps = flow_tput_mbps_.empty() ? 0.0 : flow_tput_mbps_.mean();
  double delivered = 0.0;
  double billed = 0.0;
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(config_.n_ues); ++i) {
    delivered += arena_.delivered_bytes(i);
    billed += arena_.billed_usd(i);
  }
  r.total_gbytes = delivered / 1e9;
  r.billing_usd = billed;
  r.delivered_bytes = delivered;
  r.sim_s = done_ == config_.n_ues ? last_finish_s_ : config_.horizon_s;
  r.events = impl_->sim.events_executed();
  r.arena_bytes = static_cast<std::uint64_t>(arena_.slots()) *
                  traffic::SessionArena::bytes_per_session();
  r.packet_ledger_bytes = packet_ledger_bytes_;
  if (fluid_) {
    r.rate_events = fluid_->rate_events();
    r.demotions = fluid_->demotions();
    r.promotions = fluid_->promotions();
    r.segment_bytes = fluid_->segment_bytes();
    r.negative_residuals = fluid_->negative_residuals();
    obs::inc(obs::counter("traffic.fluid.rate_events"), fluid_->rate_events());
    obs::inc(obs::counter("traffic.fluid.demotions"), fluid_->demotions());
    obs::inc(obs::counter("traffic.fluid.promotions"), fluid_->promotions());
  }
  obs::set(obs::gauge("traffic.arena_mb"), static_cast<double>(r.arena_bytes) / 1e6);
  return r;
}

ScaleTrafficResult run_scale_traffic(const ScaleTrafficConfig& config) {
  ScaleTrafficSim sim(config);
  return sim.run_to_completion();
}

}  // namespace cb::scenario
