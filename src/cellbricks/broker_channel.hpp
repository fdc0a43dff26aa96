// BrokerChannel: the client side of the broker protocol.
//
// Every client message to the broker that must arrive (bTelco SAP auth
// requests, UE and bTelco traffic reports, bTelco resume notifies, and the
// load generator's auth requests and reports) travels the same way
// (DESIGN.md §6, §12). A channel carries one request type. It frames each
// message as {u8 type, u64 key, bytes body}, keyed by the sender's own
// seq/txn, sends it, and resends it on the channel's schedule until the
// broker answers that key or the attempts run out. receive() decodes the
// replies to that request type, so no owner writes or parses a broker frame.
// With a ShardRouter the channel also routes each send (by session id, or
// sticky for auth), strikes a shard whose copy timed out, clears a shard
// that answered, and follows Redirect replies.
//
// The owner keeps its own accounting through the hooks and the return
// values; the channel holds only the outstanding messages and their timers.
#pragma once

#include <functional>
#include <map>
#include <optional>

#include "cellbricks/broker_cluster.hpp"
#include "common/cow_bytes.hpp"
#include "common/rng.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"

namespace cb::cellbricks {

/// Decorrelated-jitter backoff: the next delay is drawn uniformly from
/// [base, 3 * prev] and capped. Spreads synchronized retriers (e.g. every
/// client of a just-killed shard) across the window instead of letting a
/// deterministic doubling re-align their retry storms. With cap <= base the
/// draw could not change the result, so none is made and cap is returned.
Duration decorrelated_backoff(Rng& rng, Duration base, Duration prev, Duration cap);

/// Retransmission schedule: the first resend comes `first` after the first
/// send, later gaps follow decorrelated_backoff(first, previous gap, cap),
/// and a message is abandoned when the wait after its `attempts`-th send
/// runs out without an ack. With cap <= first every later gap is `cap` and
/// the schedule draws no jitter.
struct RetrySchedule {
  Duration first;
  int attempts = 0;
  Duration cap;
};

/// The UE and bTelco schedule for reports and resume notifies: first resend
/// after 1 s, 5 sends, gaps capped at 30 s.
inline constexpr RetrySchedule kAgentSchedule{Duration::s(1), 5, Duration::s(30)};

class BrokerChannel {
 public:
  /// Sends `request` messages (AuthReq, Report or ResumeNotify) from
  /// `source` on `node` to `broker` (or through the router, see
  /// set_router). `jitter` is the owner's backoff stream, drawn by
  /// reference so the owner's other draws keep their order.
  BrokerChannel(net::Node& node, BrokerMsg request, net::EndPoint source, net::EndPoint broker,
                Rng& jitter, RetrySchedule schedule);
  ~BrokerChannel();
  BrokerChannel(const BrokerChannel&) = delete;
  BrokerChannel& operator=(const BrokerChannel&) = delete;

  /// Route through a shard map instead of the fixed broker endpoint.
  void set_router(ShardRouter* router) { router_ = router; }
  /// Source endpoint of later sends (the UE's address changes per attach;
  /// an unset address lets Node::send stamp the node's primary address).
  void set_source(net::EndPoint source) { source_ = source; }

  struct Acked {
    std::uint64_t session_id = 0;
    TimePoint queued_at;  // when send() was called
    BrokerMsg reply{};    // the answer's type (set by receive())
  };

  /// Fired on every send of a message, first or resend.
  std::function<void(std::uint64_t key)> on_transmit;
  /// Fired once when a message has used up its attempts, after it is dropped.
  std::function<void(std::uint64_t key)> on_abandon;
  /// receive() acked `key`; `rest` reads the reply's fields after the key.
  /// A read past the end of `rest` throws, and receive() logs and drops it.
  std::function<void(std::uint64_t key, const Acked& acked, ByteReader& rest)> on_ack;
  /// receive() followed a Redirect for the outstanding `key`.
  std::function<void(std::uint64_t key)> on_redirect;

  /// Frame `body` under `key`, queue it and send it now. Auth requests go
  /// to the router's sticky auth pick; the rest are routed by `session_id`.
  void send(std::uint64_t key, BytesView body, std::uint64_t session_id);

  /// Decode `packet` if it answers this channel's request type: AuthOk and
  /// AuthErr answer AuthReq, ReportAck and Redirect answer Report, and
  /// ResumeNotifyAck answers ResumeNotify. An answer acks its key (or, for
  /// a Redirect, follows it) and fires on_ack (on_redirect); a truncated
  /// frame is dropped. False if the packet is not such an answer.
  bool receive(const net::Packet& packet);

  /// The broker acked `key`: stop resending it and clear the strikes of the
  /// shard its last copy went to. nullopt if `key` was not outstanding.
  std::optional<Acked> ack(std::uint64_t key);

  /// The shard that got `key` does not own `bucket`: learn `owner`, clear
  /// the redirecting shard's strikes, and resend `key` now with a fresh
  /// budget, as a first send that strikes nobody. False (after learning) if
  /// `key` was not outstanding; no-op without a router.
  bool redirect(std::uint64_t key, std::uint16_t bucket, std::uint16_t owner);

  /// Stop resending: cancel every timer and keep every message. Sends wait
  /// for resume() (the UE between detach and the next attach).
  void pause();
  /// Flush, oldest key first, every message with no resend pending, as a
  /// fresh first send: the silence was the sender's, so no shard is struck.
  void resume();
  /// Drop every message without firing on_abandon (a bTelco crash).
  void clear();

  std::size_t size() const { return outstanding_.size(); }

 private:
  struct Outstanding {
    CowBytes wire;
    std::uint64_t session_id = 0;
    int attempts_left = 0;
    Duration next_delay;
    TimePoint queued_at;
    sim::EventHandle timer;
    std::size_t last_shard = 0;  // where the last copy went (router mode)
    bool sent_once = false;      // a timer-driven resend implies a timeout
  };

  bool answers(BrokerMsg reply) const;
  void transmit(std::uint64_t key);

  net::Node& node_;
  BrokerMsg request_;
  net::EndPoint source_;
  net::EndPoint broker_;
  Rng& jitter_;
  RetrySchedule schedule_;
  ShardRouter* router_ = nullptr;
  bool paused_ = false;
  // Ordered so resume() flushes deterministically, oldest key first.
  std::map<std::uint64_t, Outstanding> outstanding_;
};

}  // namespace cb::cellbricks
