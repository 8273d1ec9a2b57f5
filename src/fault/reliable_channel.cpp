#include "fault/reliable_channel.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace umc::fault {

namespace {

/// Delivery attempts per logical round before declaring the network
/// unusable (throws invariant_error; p^64 is astronomically unlikely).
constexpr int kMaxAttempts = 64;

struct ArqMetrics {
  obs::Counter& logical_rounds = obs::MetricsRegistry::global().counter(
      "umc_arq_logical_rounds_total", {}, "Logical rounds compiled through the ARQ.");
  obs::Counter& attempts = obs::MetricsRegistry::global().counter(
      "umc_arq_attempts_total", {}, "DATA/CTRL/ACK attempt triples executed.");
  obs::Counter& retransmissions = obs::MetricsRegistry::global().counter(
      "umc_arq_retransmissions_total", {}, "Messages retransmitted after a failed attempt.");
  obs::Counter& backoff = obs::MetricsRegistry::global().counter(
      "umc_arq_backoff_rounds_total", {}, "Idle rounds charged to exponential backoff.");
  obs::Counter& piggybacked = obs::MetricsRegistry::global().counter(
      "umc_arq_piggybacked_acks_total", {}, "Cumulative ACKs that rode free wire slots (GBN).");
  obs::Counter& ack_flush = obs::MetricsRegistry::global().counter(
      "umc_arq_ack_flush_rounds_total", {}, "Dedicated ACK rounds charged by drain() (GBN).");
};

ArqMetrics& arq_metrics() {
  static ArqMetrics m;
  return m;
}

constexpr std::uint64_t kChecksumSalt = 0x600dC0DEULL;
constexpr std::uint64_t kAckSalt = 0xAC4BACC4ULL;

/// Wire slot of a message as sent by m.from (matches CongestNetwork's
/// slot convention: 2*e + (from == edge.v)).
[[nodiscard]] std::size_t slot_of(const WeightedGraph& g, const congest::Message& m) {
  return static_cast<std::size_t>(m.via) * 2 + (m.from == g.edge(m.via).v ? 1 : 0);
}

/// Forward slot of traffic sent by `sender` over `via`.
[[nodiscard]] std::size_t slot_for(const WeightedGraph& g, NodeId sender, EdgeId via) {
  return static_cast<std::size_t>(via) * 2 + (sender == g.edge(via).v ? 1 : 0);
}

[[nodiscard]] std::int64_t checksum(std::int64_t payload, std::int64_t aux, std::int64_t seq,
                                    std::size_t slot) {
  std::uint64_t h = mix64(kChecksumSalt ^ static_cast<std::uint64_t>(payload));
  h = mix64(h ^ static_cast<std::uint64_t>(aux));
  h = mix64(h ^ static_cast<std::uint64_t>(seq));
  h = mix64(h ^ static_cast<std::uint64_t>(slot));
  return static_cast<std::int64_t>(h);
}

[[nodiscard]] std::int64_t ack_mac(std::int64_t seq, std::size_t slot) {
  return static_cast<std::int64_t>(
      mix64(kAckSalt ^ mix64(static_cast<std::uint64_t>(seq)) ^ static_cast<std::uint64_t>(slot)));
}

}  // namespace

ReliableChannel::ReliableChannel(const WeightedGraph& g, FaultModel* model, ReliableConfig cfg,
                                 congest::WireConfig wire)
    : CongestNetwork(g, wire),
      model_(model),
      cfg_(cfg),
      next_seq_(static_cast<std::size_t>(g.m()) * 2, 1),
      acked_seq_(static_cast<std::size_t>(g.m()) * 2, 0),
      retired_seq_(static_cast<std::size_t>(g.m()) * 2, 0) {
  UMC_ASSERT(cfg_.max_backoff_rounds >= 1);
  if (model_ != nullptr) attach_fault_injector(model_);
}

void ReliableChannel::end_round() {
  ++stats_.logical_rounds;
  arq_metrics().logical_rounds.inc();
  // Fault-free compilation is the identity: exactly the base one-round
  // delivery, so p = 0 runs are bit-identical to the plain simulator.
  if (model_ == nullptr || model_->plan().trivial() || staged_count() == 0) {
    CongestNetwork::end_round();
    return;
  }
  if (cfg_.mode == ArqMode::kGoBackN) {
    end_round_gbn();
    return;
  }
  UMC_OBS_SPAN_VAR_L(obs_logical, "arq/logical_round", "arq", stats_.logical_rounds);
  obs_logical.arg("staged", static_cast<std::int64_t>(staged_count()));

  const WeightedGraph& g = graph();
  const std::size_t num_slots = static_cast<std::size_t>(g.m()) * 2;

  // Journal this logical round's sends (sender-side stable storage): each
  // occupies its wire slot exclusively, so slot -> pending is one-to-one.
  struct Pending {
    congest::Message msg;
    std::int64_t seq = 0;
    bool acked = false;
  };
  std::vector<Pending> pending;
  std::vector<int> pending_at(num_slots, -1);
  materialize_staged(staged_scratch_);
  pending.reserve(staged_scratch_.size());
  for (const congest::Message& m : staged_scratch_) {
    const std::size_t slot = slot_of(g, m);
    pending_at[slot] = static_cast<int>(pending.size());
    pending.push_back(Pending{m, next_seq_[slot]++, false});
  }
  clear_staging();
  stats_.logical_messages += static_cast<std::int64_t>(pending.size());

  // Receiver-side assembly of the logical round (write-ahead journaled:
  // survives crash windows, which is why an acked message is never lost).
  std::vector<std::vector<congest::Message>> logical(static_cast<std::size_t>(g.n()));

  std::vector<char> data_seen(num_slots, 0);
  std::vector<std::int64_t> data_payload(num_slots, 0);
  std::vector<std::int64_t> data_aux(num_slots, 0);
  std::vector<char> ack_staged(num_slots, 0);

  std::size_t unacked = pending.size();
  for (int attempt = 0; unacked > 0; ++attempt) {
    UMC_ASSERT_MSG(attempt < kMaxAttempts,
                   "reliable delivery failed: max attempts exhausted");
    UMC_OBS_SPAN_VAR_L(obs_attempt, "arq/attempt", "arq", attempt);
    obs_attempt.arg("unacked", static_cast<std::int64_t>(unacked));
    arq_metrics().attempts.inc();
    if (attempt > 0) {
      const std::int64_t backoff =
          std::min(std::int64_t{1} << std::min(attempt - 1, 30), cfg_.max_backoff_rounds);
      charge_idle(backoff);
      stats_.backoff_rounds += backoff;
      stats_.retransmissions += static_cast<std::int64_t>(unacked);
      arq_metrics().backoff.inc(backoff);
      arq_metrics().retransmissions.inc(static_cast<std::int64_t>(unacked));
    }

    // --- DATA: retransmit every unacknowledged message.
    for (const Pending& p : pending)
      if (!p.acked) send(p.msg.from, p.msg.via, p.msg.payload, p.msg.aux);
    deliver_physical();
    ++stats_.physical_rounds;
    std::fill(data_seen.begin(), data_seen.end(), 0);
    for (NodeId v = 0; v < g.n(); ++v) {
      for (const congest::Message& m : inbox(v)) {
        const std::size_t slot = slot_of(g, m);
        data_seen[slot] = 1;
        data_payload[slot] = m.payload;
        data_aux[slot] = m.aux;
      }
    }

    // --- CTRL: checksum over (payload, aux, seq, slot).
    for (const Pending& p : pending) {
      if (p.acked) continue;
      const std::size_t slot = slot_of(g, p.msg);
      send(p.msg.from, p.msg.via, checksum(p.msg.payload, p.msg.aux, p.seq, slot), p.seq);
    }
    deliver_physical();
    ++stats_.physical_rounds;

    // Receivers: verify, accept-once by sequence number, stage ACKs
    // (duplicates re-acknowledged so a lost ACK cannot wedge the sender).
    struct Ack {
      NodeId from = kNoNode;
      EdgeId via = kNoEdge;
      std::int64_t mac = 0;
      std::int64_t seq = 0;
    };
    std::vector<Ack> acks;
    std::fill(ack_staged.begin(), ack_staged.end(), 0);
    for (NodeId v = 0; v < g.n(); ++v) {
      for (const congest::Message& m : inbox(v)) {
        const std::size_t slot = slot_of(g, m);
        if (!data_seen[slot]) continue;  // checksum with no data: ignore
        const std::int64_t seq = m.aux;
        if (m.payload != checksum(data_payload[slot], data_aux[slot], seq, slot))
          continue;  // corrupted DATA or CTRL: silence forces a retry
        if (seq > acked_seq_[slot]) {
          acked_seq_[slot] = seq;
          logical[static_cast<std::size_t>(v)].push_back(
              congest::Message{m.from, m.via, data_payload[slot], data_aux[slot]});
        }
        // One ACK per reverse slot per round, even if the wire duplicated
        // the CTRL message.
        const std::size_t rev = slot_for(g, v, m.via);
        if (!ack_staged[rev]) {
          ack_staged[rev] = 1;
          acks.push_back(Ack{v, m.via, ack_mac(seq, slot), seq});
        }
      }
    }

    // --- ACK: receiver -> sender over the reverse slot.
    for (const Ack& a : acks) send(a.from, a.via, a.mac, a.seq);
    deliver_physical();
    ++stats_.physical_rounds;
    for (NodeId v = 0; v < g.n(); ++v) {
      for (const congest::Message& m : inbox(v)) {
        // An ACK reaches the original sender v; it acknowledges v's forward
        // slot on that edge.
        const std::size_t fwd = slot_for(g, v, m.via);
        const int idx = pending_at[fwd];
        if (idx < 0) continue;
        Pending& p = pending[static_cast<std::size_t>(idx)];
        if (p.acked || m.aux != p.seq) continue;
        if (m.payload != ack_mac(p.seq, fwd)) continue;  // corrupted ACK
        p.acked = true;
        --unacked;
      }
    }
  }

  // The logical round is fully delivered; expose the assembled inboxes
  // (and the matching slot read view — dedup guarantees one per slot).
  set_logical_delivery(std::move(logical));
}

bool ReliableChannel::try_retire(NodeId v, const congest::Message& m) {
  // A cumulative ACK for v's journal on (m.via, v->neighbor) arrives on the
  // reverse slot, so it lands in v's inbox like any frame; it is recognized
  // by validating against the ack-mac of v's OWN forward slot. Issued seqs
  // are 1..next_seq-1, already-retired ones are <= retired_seq.
  const std::size_t fwd = slot_for(graph(), v, m.via);
  if (m.aux <= retired_seq_[fwd] || m.aux >= next_seq_[fwd]) return false;
  if (m.payload != ack_mac(m.aux, fwd)) return false;
  inflight_ -= m.aux - retired_seq_[fwd];
  retired_seq_[fwd] = m.aux;
  return true;
}

void ReliableChannel::end_round_gbn() {
  UMC_OBS_SPAN_VAR_L(obs_logical, "arq/gbn_round", "arq", stats_.logical_rounds);
  obs_logical.arg("staged", static_cast<std::int64_t>(staged_count()));

  const WeightedGraph& g = graph();
  const std::size_t num_slots = static_cast<std::size_t>(g.m()) * 2;

  // Journal this round's sends. Unlike stop-and-wait, an entry outlives the
  // logical round: it stays in the go-back-N window until a cumulative ACK
  // retires it (inflight_ counts the window population).
  struct Pending {
    congest::Message msg;
    std::int64_t seq = 0;
    bool accepted = false;
  };
  std::vector<Pending> pending;
  std::vector<int> pending_at(num_slots, -1);
  materialize_staged(staged_scratch_);
  pending.reserve(staged_scratch_.size());
  for (const congest::Message& m : staged_scratch_) {
    const std::size_t slot = slot_of(g, m);
    pending_at[slot] = static_cast<int>(pending.size());
    pending.push_back(Pending{m, next_seq_[slot]++, false});
  }
  clear_staging();
  stats_.logical_messages += static_cast<std::int64_t>(pending.size());
  inflight_ += static_cast<std::int64_t>(pending.size());
  stats_.journal_peak = std::max(stats_.journal_peak, inflight_);

  std::vector<std::vector<congest::Message>> logical(static_cast<std::size_t>(g.n()));
  std::vector<char> data_seen(num_slots, 0);
  std::vector<std::int64_t> data_payload(num_slots, 0);
  std::vector<std::int64_t> data_aux(num_slots, 0);

  // Cumulative ACKs for unretired accepted traffic ride any reverse slot
  // that is not carrying live DATA/CTRL this physical round.
  const auto stage_acks = [&] {
    for (std::size_t fwd = 0; fwd < num_slots; ++fwd) {
      if (acked_seq_[fwd] <= retired_seq_[fwd]) continue;  // no debt on this slot
      const std::size_t rev = fwd ^ 1;
      const int idx = pending_at[rev];
      if (idx >= 0 && !pending[static_cast<std::size_t>(idx)].accepted) continue;  // slot busy
      const Edge& e = g.edge(static_cast<EdgeId>(fwd / 2));
      const NodeId receiver = (fwd & 1) != 0 ? e.u : e.v;
      send(receiver, static_cast<EdgeId>(fwd / 2), ack_mac(acked_seq_[fwd], fwd),
           acked_seq_[fwd]);
      ++stats_.piggybacked_acks;
      arq_metrics().piggybacked.inc();
    }
  };

  std::size_t unaccepted = pending.size();
  int stalls = 0;  // consecutive cycles with no new acceptance
  for (int cycle = 0; unaccepted > 0; ++cycle) {
    UMC_ASSERT_MSG(cycle < kMaxAttempts,
                   "reliable delivery failed: max attempts exhausted");
    UMC_OBS_SPAN_VAR_L(obs_cycle, "arq/gbn_cycle", "arq", cycle);
    obs_cycle.arg("unaccepted", static_cast<std::int64_t>(unaccepted));
    arq_metrics().attempts.inc();
    // Adaptive backoff: only after a cycle that made no progress (a lossy
    // wire that still accepts something each cycle never idles).
    if (stalls > 0) {
      const std::int64_t backoff =
          std::min(std::int64_t{1} << std::min(stalls - 1, 30), cfg_.max_backoff_rounds);
      charge_idle(backoff);
      stats_.backoff_rounds += backoff;
      arq_metrics().backoff.inc(backoff);
    }
    if (cycle > 0) {
      stats_.retransmissions += static_cast<std::int64_t>(unaccepted);
      arq_metrics().retransmissions.inc(static_cast<std::int64_t>(unaccepted));
    }
    const std::size_t before = unaccepted;

    // --- DATA round (+ piggybacked ACKs on free slots).
    for (const Pending& p : pending)
      if (!p.accepted) send(p.msg.from, p.msg.via, p.msg.payload, p.msg.aux);
    stage_acks();
    deliver_physical();
    ++stats_.physical_rounds;
    std::fill(data_seen.begin(), data_seen.end(), 0);
    for (NodeId v = 0; v < g.n(); ++v) {
      for (const congest::Message& m : inbox(v)) {
        if (try_retire(v, m)) continue;
        const std::size_t slot = slot_of(g, m);
        const int idx = pending_at[slot];
        if (idx < 0 || pending[static_cast<std::size_t>(idx)].accepted) continue;
        data_seen[slot] = 1;
        data_payload[slot] = m.payload;
        data_aux[slot] = m.aux;
      }
    }

    // --- CTRL round (+ piggybacked ACKs on still-free slots). Acceptance
    // here — not a third ACK round — is what ends the logical round; the
    // sender's journal retires lazily via the piggybacked ACKs above.
    for (const Pending& p : pending) {
      if (p.accepted) continue;
      const std::size_t slot = slot_of(g, p.msg);
      send(p.msg.from, p.msg.via, checksum(p.msg.payload, p.msg.aux, p.seq, slot), p.seq);
    }
    stage_acks();
    deliver_physical();
    ++stats_.physical_rounds;
    for (NodeId v = 0; v < g.n(); ++v) {
      for (const congest::Message& m : inbox(v)) {
        if (try_retire(v, m)) continue;
        const std::size_t slot = slot_of(g, m);
        const int idx = pending_at[slot];
        if (idx < 0 || !data_seen[slot]) continue;
        Pending& p = pending[static_cast<std::size_t>(idx)];
        const std::int64_t seq = m.aux;
        if (m.payload != checksum(data_payload[slot], data_aux[slot], seq, slot))
          continue;  // corrupted DATA or CTRL: silence forces a retry cycle
        if (seq > acked_seq_[slot]) {
          acked_seq_[slot] = seq;
          logical[static_cast<std::size_t>(v)].push_back(
              congest::Message{m.from, m.via, data_payload[slot], data_aux[slot]});
          if (!p.accepted && seq == p.seq) {
            p.accepted = true;
            --unaccepted;
          }
        }
      }
    }

    if (unaccepted > 0 && unaccepted == before) {
      ++stalls;
      ++stats_.stalled_cycles;
    } else {
      stalls = 0;
    }
  }

  set_logical_delivery(std::move(logical));
}

void ReliableChannel::drain() {
  if (inflight_ == 0) return;  // SW mode and p = 0 never journal across rounds
  UMC_OBS_SPAN_VAR_L(obs_drain, "arq/drain", "arq", inflight_);
  const WeightedGraph& g = graph();
  const std::size_t num_slots = static_cast<std::size_t>(g.m()) * 2;
  int stalls = 0;
  for (int attempt = 0; inflight_ > 0; ++attempt) {
    UMC_ASSERT_MSG(attempt < kMaxAttempts, "arq drain failed: max attempts exhausted");
    if (stalls > 0) {
      const std::int64_t backoff =
          std::min(std::int64_t{1} << std::min(stalls - 1, 30), cfg_.max_backoff_rounds);
      charge_idle(backoff);
      stats_.backoff_rounds += backoff;
      arq_metrics().backoff.inc(backoff);
    }
    for (std::size_t fwd = 0; fwd < num_slots; ++fwd) {
      if (acked_seq_[fwd] <= retired_seq_[fwd]) continue;
      const Edge& e = g.edge(static_cast<EdgeId>(fwd / 2));
      const NodeId receiver = (fwd & 1) != 0 ? e.u : e.v;
      send(receiver, static_cast<EdgeId>(fwd / 2), ack_mac(acked_seq_[fwd], fwd),
           acked_seq_[fwd]);
    }
    deliver_physical();
    ++stats_.physical_rounds;
    ++stats_.ack_flush_rounds;
    arq_metrics().ack_flush.inc();
    const std::int64_t before = inflight_;
    for (NodeId v = 0; v < g.n(); ++v)
      for (const congest::Message& m : inbox(v)) (void)try_retire(v, m);
    stalls = inflight_ < before ? 0 : stalls + 1;
  }
}

}  // namespace umc::fault
