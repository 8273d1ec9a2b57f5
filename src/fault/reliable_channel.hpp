#pragma once

// Reliable-delivery compilation for lossy CONGEST networks.
//
// ReliableChannel is a drop-in CongestNetwork whose `end_round` compiles
// one logical round of algorithm sends into a stop-and-wait ARQ exchange
// over the physical (faulty) wire:
//
//   attempt k:  DATA round   (payload, aux)          sender -> receiver
//               CTRL round   (checksum, seq)         sender -> receiver
//               ACK  round   (ack-mac, seq)          receiver -> sender
//               then bounded exponential backoff (idle rounds) and
//               retransmission of everything still unacknowledged.
//
// Receivers accept a message only when the CTRL checksum matches the DATA
// words (so bit-corruption looks like loss and is retried), deduplicate by
// per-slot sequence number (so duplicated wire traffic and re-sent
// already-accepted messages deliver once), and re-acknowledge duplicates
// (so a lost ACK cannot wedge the sender). All physical rounds and backoff
// idle rounds are charged to the inherited round counter — the E19
// experiment's "cost of reliability" is exactly this overhead.
//
// Recovery semantics: the per-slot ARQ state (unacked messages, sequence
// counters, accepted-seq watermarks, assembled logical inboxes) models each
// node's write-ahead journal on stable storage — a crash-stopped node stops
// sending and hearing (the FaultModel eats its wire traffic) but resumes
// retransmission and deduplication from the journal after restart, which is
// why delivery stays exactly-once across crash windows. Volatile per-round
// compute state is NOT covered; that is the checkpoint/rollback layer in
// congest/compiled_network.
//
// Sliding-window (go-back-N) mode compresses the triple to a 2-round
// DATA / CTRL cycle: a logical round terminates as soon as every receiver
// has VERIFIED and accepted its traffic, and the acknowledgements that
// retire the sender-side journal ride for free on reverse wire slots that
// later rounds leave idle (a pure-ACK frame is discriminable from DATA
// because it validates against the ack-mac of the sender's own journal
// head). The journal is the go-back-N window: entries stay in flight until
// a cumulative ACK retires them, and `drain()` charges dedicated ACK
// rounds at the end of the algorithm to flush whatever debt the free slots
// never absorbed. Backoff is adaptive — charged only after a cycle that
// accepted nothing — so clean rounds cost exactly 2 physical rounds where
// stop-and-wait pays 3, which is the E19 ARQ-mode comparison.
//
// A null model or an all-zero FaultPlan short-circuits to the base
// single-round delivery: compiling a fault-free network is the identity, so
// at p = 0 outputs and round counts are bit-identical to the plain
// simulator (the E19 baseline row) in either mode.

#include <cstdint>
#include <vector>

#include "congest/congest_net.hpp"
#include "fault/fault_model.hpp"

namespace umc::fault {

/// ARQ strategy compiled onto the physical wire.
enum class ArqMode {
  /// DATA / CTRL / ACK triple per attempt; the sender holds the logical
  /// round open until every message is acknowledged (PR 3 behavior).
  kStopAndWait,
  /// 2-round DATA / CTRL cycles terminated on receiver acceptance;
  /// cumulative ACKs ride free reverse slots of later rounds and `drain()`
  /// flushes the residual journal at the end of the algorithm.
  kGoBackN,
};

struct ReliableConfig {
  /// Cap on the exponential backoff (idle rounds between attempts).
  std::int64_t max_backoff_rounds = 8;
  ArqMode mode = ArqMode::kStopAndWait;
};

struct ReliableStats {
  std::int64_t logical_rounds = 0;
  std::int64_t logical_messages = 0;
  std::int64_t physical_rounds = 0;   // DATA + CTRL (+ ACK / flush) rounds
  std::int64_t backoff_rounds = 0;    // idle rounds charged between attempts
  std::int64_t retransmissions = 0;   // per-message re-send count
  std::int64_t piggybacked_acks = 0;  // GBN: cumulative ACKs that rode free slots
  std::int64_t ack_flush_rounds = 0;  // GBN: dedicated ACK rounds charged by drain()
  std::int64_t stalled_cycles = 0;    // GBN: cycles with no new acceptance (backoff trigger)
  std::int64_t journal_peak = 0;      // GBN: max in-flight unretired journal entries
};

class ReliableChannel final : public congest::CongestNetwork {
 public:
  /// `model` may be nullptr (pure pass-through). Not owned; must outlive
  /// the channel. The model is attached to the physical layer as the
  /// network's fault injector. `wire` selects the physical data path
  /// (slot-addressed fast wire by default).
  ReliableChannel(const WeightedGraph& g, FaultModel* model, ReliableConfig cfg = {},
                  congest::WireConfig wire = {});

  void end_round() override;

  /// Go-back-N only: charges dedicated ACK rounds until every journal entry
  /// is retired (bounded retries with the same adaptive backoff). Call when
  /// the algorithm finishes so the final rounds' ACK debt — which has no
  /// later free slots to ride — is flushed and accounted. A no-op in
  /// stop-and-wait mode, at p = 0, and when the journal is already empty.
  void drain();

  [[nodiscard]] const ReliableStats& stats() const { return stats_; }

  /// Sender-journal entries accepted by their receivers but not yet retired
  /// by a cumulative ACK (always 0 in stop-and-wait mode and after drain()).
  [[nodiscard]] std::int64_t in_flight() const { return inflight_; }

 private:
  void end_round_gbn();
  /// Consumes `m` as a journal-retiring cumulative ACK if it validates
  /// against node `v`'s own forward-slot journal head; false otherwise.
  bool try_retire(NodeId v, const congest::Message& m);

  FaultModel* model_;
  ReliableConfig cfg_;
  std::vector<std::int64_t> next_seq_;    // per wire slot, sender journal
  std::vector<std::int64_t> acked_seq_;   // per wire slot, receiver journal
  std::vector<std::int64_t> retired_seq_;  // per wire slot, GBN window base
  std::int64_t inflight_ = 0;             // GBN: accepted-but-unretired entries
  std::vector<congest::Message> staged_scratch_;  // journal assembly buffer
  ReliableStats stats_;
};

}  // namespace umc::fault
