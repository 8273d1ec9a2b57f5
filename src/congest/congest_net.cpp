#include "congest/congest_net.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace umc::congest {

namespace {

// Cached registry references: one map walk at first use, atomic ops after.
struct CongestMetrics {
  obs::Counter& rounds = obs::MetricsRegistry::global().counter(
      "umc_congest_rounds_total", {}, "Physical CONGEST rounds executed.");
  obs::Counter& messages = obs::MetricsRegistry::global().counter(
      "umc_congest_messages_total", {}, "Messages staged onto the wire (pre-fault).");
  obs::Counter& bits = obs::MetricsRegistry::global().counter(
      "umc_congest_bits_total", {},
      "Model bits staged: messages x 2 words of ceil(log2 n) bits.");
  obs::Counter& slot_reuse = obs::MetricsRegistry::global().counter(
      "umc_congest_slot_reuse_total", {},
      "Staged slots whose storage also carried a message last round "
      "(double-buffered wire reuse; no allocation either time).");
  obs::Histogram& utilization = obs::MetricsRegistry::global().histogram(
      "umc_congest_slot_utilization_percent", {1, 5, 10, 25, 50, 75, 90, 100}, {},
      "Per-round percentage of the 2m edge-direction slots carrying a message.");
};

CongestMetrics& congest_metrics() {
  static CongestMetrics m;
  return m;
}

}  // namespace

CongestNetwork::CongestNetwork(const WeightedGraph& g, WireConfig wire)
    : g_(&g),
      wire_(wire),
      write_occ_((static_cast<std::size_t>(g.m()) * 2 + 63) / 64, 0),
      write_payload_(static_cast<std::size_t>(g.m()) * 2, 0),
      write_aux_(static_cast<std::size_t>(g.m()) * 2, 0),
      read_occ_((static_cast<std::size_t>(g.m()) * 2 + 63) / 64, 0),
      read_payload_(static_cast<std::size_t>(g.m()) * 2, 0),
      read_aux_(static_cast<std::size_t>(g.m()) * 2, 0),
      inbox_(static_cast<std::size_t>(g.n())) {
  order_.reserve(write_payload_.size());
  read_order_.reserve(write_payload_.size());
}

void CongestNetwork::send(NodeId from, EdgeId via, std::int64_t payload, std::int64_t aux) {
  const Edge& e = g_->edge(via);
  UMC_ASSERT(from == e.u || from == e.v);
  const std::size_t slot = static_cast<std::size_t>(via) * 2 + (from == e.v ? 1 : 0);
  UMC_ASSERT_MSG(((write_occ_[slot >> 6] >> (slot & 63)) & 1u) == 0,
                 "one message per edge-direction per round (CONGEST)");
  write_occ_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  write_payload_[slot] = payload;
  write_aux_[slot] = aux;
  order_.push_back(static_cast<std::uint32_t>(slot));
}

void CongestNetwork::materialize_staged(std::vector<Message>& out) const {
  out.clear();
  out.reserve(order_.size());
  for (const std::uint32_t s : order_) {
    const auto e = static_cast<EdgeId>(s >> 1);
    const Edge& ed = g_->edge(e);
    out.push_back(Message{(s & 1) != 0 ? ed.v : ed.u, e, write_payload_[s], write_aux_[s]});
  }
}

void CongestNetwork::clear_staging() {
  for (const std::uint32_t s : order_) {
    write_occ_[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
  }
  order_.clear();
}

void CongestNetwork::reset_read_view() {
  for (const std::uint32_t s : read_order_) {
    read_occ_[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
  }
  read_order_.clear();
  for (const NodeId v : compat_nonempty_) inbox_[static_cast<std::size_t>(v)].clear();
  compat_nonempty_.clear();
}

void CongestNetwork::scatter_to_read_view(const Message& m) {
  const std::size_t slot =
      static_cast<std::size_t>(m.via) * 2 + (m.from == g_->edge(m.via).v ? 1 : 0);
  if (!slot_has(slot)) {
    read_occ_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    read_order_.push_back(static_cast<std::uint32_t>(slot));
  }
  read_payload_[slot] = m.payload;
  read_aux_[slot] = m.aux;
}

void CongestNetwork::materialize_compat() const {
  for (const NodeId v : compat_nonempty_) inbox_[static_cast<std::size_t>(v)].clear();
  compat_nonempty_.clear();
  for (const std::uint32_t s : read_order_) {
    const auto e = static_cast<EdgeId>(s >> 1);
    const Edge& ed = g_->edge(e);
    const NodeId to = (s & 1) != 0 ? ed.u : ed.v;
    auto& box = inbox_[static_cast<std::size_t>(to)];
    if (box.empty()) compat_nonempty_.push_back(to);
    box.push_back(Message{(s & 1) != 0 ? ed.v : ed.u, e, read_payload_[s], read_aux_[s]});
  }
  compat_dirty_ = false;
}

void CongestNetwork::round_metrics(std::size_t staged_n) {
  CongestMetrics& m = congest_metrics();
  m.rounds.inc();
  const auto staged = static_cast<std::int64_t>(staged_n);
  m.messages.inc(staged);
  // A message carries two words, each O(log n) bits in the model.
  const std::int64_t word_bits = std::bit_width(static_cast<std::uint64_t>(g_->n()) | 1);
  m.bits.inc(staged * 2 * word_bits);
  if (g_->m() > 0) m.utilization.observe(staged * 100 / (2 * g_->m()));
  // The read view still holds LAST round's occupancy here: staged slots
  // whose bit is set are reusing storage that carried a message one round
  // ago — the quantity the double-buffered wire exists to make free.
  std::int64_t reuse = 0;
  for (const std::uint32_t s : order_) {
    if (slot_has(s)) ++reuse;
  }
  if (reuse > 0) m.slot_reuse.inc(reuse);
}

void CongestNetwork::deliver_slot_fast() {
  // Flip the double buffer: the write view (this round's sends, already
  // slot-addressed) becomes the read view; the old read view — cleared via
  // its occupancy list, O(messages) not O(2m) — becomes the next write view.
  reset_read_view();
  write_occ_.swap(read_occ_);
  write_payload_.swap(read_payload_);
  write_aux_.swap(read_aux_);
  order_.swap(read_order_);
  compat_dirty_ = true;
  ++rounds_;
}

void CongestNetwork::deliver_with_messages() {
  // Fault plans (and the retained reference path) speak the message-vector
  // protocol: reconstruct the staged traffic in send order, filter it, then
  // deliver survivors into both the compat inboxes (duplicates preserved)
  // and the slot read view (last write per slot wins).
  materialize_staged(wire_scratch_);
  clear_staging();
  if (wire_.mode == WireMode::kReference) {
    // Seed-faithful O(n) inbox clear — the cost the slot wire removes.
    for (auto& box : inbox_) box.clear();
    compat_nonempty_.clear();
    for (const std::uint32_t s : read_order_) {
      read_occ_[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
    }
    read_order_.clear();
  } else {
    reset_read_view();
  }
  if (fault_ != nullptr) fault_->filter_wire(rounds_, wire_scratch_);
  for (const Message& m : wire_scratch_) {
    const NodeId to = g_->edge(m.via).other(m.from);
    auto& box = inbox_[static_cast<std::size_t>(to)];
    if (box.empty()) compat_nonempty_.push_back(to);
    box.push_back(m);
    scatter_to_read_view(m);
  }
  compat_dirty_ = false;
  wire_scratch_.clear();
  ++rounds_;
}

void CongestNetwork::deliver_physical() {
  UMC_OBS_SPAN_VAR_L(obs_round, "congest/round", "congest", rounds_);
  obs_round.arg("messages", static_cast<std::int64_t>(order_.size()));
  round_metrics(order_.size());
  if (fault_ != nullptr || wire_.mode == WireMode::kReference) {
    deliver_with_messages();
  } else {
    deliver_slot_fast();
  }
}

void CongestNetwork::set_logical_delivery(std::vector<std::vector<Message>>&& logical) {
  UMC_ASSERT(logical.size() == inbox_.size());
  reset_read_view();
  inbox_ = std::move(logical);
  for (std::size_t v = 0; v < inbox_.size(); ++v) {
    if (inbox_[v].empty()) continue;
    compat_nonempty_.push_back(static_cast<NodeId>(v));
    for (const Message& m : inbox_[v]) scatter_to_read_view(m);
  }
  compat_dirty_ = false;
}

void CongestNetwork::end_round() { deliver_physical(); }

}  // namespace umc::congest
