#include "fault/fault_model.hpp"

#include <sstream>

#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace umc::fault {

namespace {

// Decision-stream salts: one independent hash stream per fault kind.
constexpr std::uint64_t kSaltDrop = 0x6472'6f70ULL;     // "drop"
constexpr std::uint64_t kSaltDup = 0x6475'70ULL;        // "dup"
constexpr std::uint64_t kSaltCorrupt = 0x636f'7272ULL;  // "corr"
constexpr std::uint64_t kSaltBit = 0x6269'74ULL;        // "bit"
constexpr std::uint64_t kSaltCrash = 0x6372'6173ULL;    // "cras"

[[nodiscard]] std::uint64_t wire_slot(const WeightedGraph& g, const congest::Message& m) {
  const Edge& e = g.edge(m.via);
  return static_cast<std::uint64_t>(m.via) * 2 + (m.from == e.v ? 1 : 0);
}

}  // namespace

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDuplicate: return "dup";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kCrashDrop: return "crash-drop";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kRestart: return "restart";
    case FaultKind::kRecovery: return "recovery";
  }
  return "?";
}

FaultModel::FaultModel(const WeightedGraph& g, const FaultPlan& plan) : g_(&g), plan_(plan) {
  UMC_ASSERT_MSG(plan.drop_p >= 0.0 && plan.drop_p < 1.0, "drop_p must be in [0,1)");
  UMC_ASSERT_MSG(plan.dup_p >= 0.0 && plan.dup_p <= 1.0, "dup_p must be in [0,1]");
  UMC_ASSERT_MSG(plan.corrupt_p >= 0.0 && plan.corrupt_p <= 1.0, "corrupt_p must be in [0,1]");
  UMC_ASSERT_MSG(plan.crash_p >= 0.0 && plan.crash_p < 1.0, "crash_p must be in [0,1)");
  UMC_ASSERT(plan.crash_down_rounds >= 1);
}

double FaultModel::draw(std::uint64_t salt, std::int64_t round, std::uint64_t key) const {
  const std::uint64_t h =
      mix64(plan_.seed ^ mix64(salt ^ mix64(static_cast<std::uint64_t>(round) ^ mix64(key))));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool FaultModel::crash_started(std::int64_t round, NodeId v) const {
  if (plan_.crash_p <= 0.0 || !plan_.faulty_at(round)) return false;
  return draw(kSaltCrash, round, static_cast<std::uint64_t>(v)) < plan_.crash_p;
}

bool FaultModel::alive(std::int64_t round, NodeId v) const {
  if (plan_.crash_p <= 0.0) return true;
  const std::int64_t lo = std::max(plan_.first_faulty_round, round - plan_.crash_down_rounds + 1);
  for (std::int64_t r = lo; r <= round; ++r)
    if (crash_started(r, v)) return false;
  return true;
}

void FaultModel::crashed_between(std::int64_t r0, std::int64_t r1,
                                 std::vector<NodeId>& out) const {
  if (plan_.crash_p <= 0.0) return;
  for (NodeId v = 0; v < g_->n(); ++v) {
    for (std::int64_t r = r0; r < r1; ++r) {
      if (crash_started(r, v)) {
        out.push_back(v);
        break;
      }
    }
  }
}

void FaultModel::record(std::int64_t round, FaultKind kind, NodeId node, EdgeId edge,
                        int direction) {
  log_.push_back(FaultEvent{round, kind, node, edge, direction});
}

void FaultModel::observe_crashes(std::int64_t round) {
  if (plan_.crash_p <= 0.0) return;
  // Scan the pure crash schedule forward from the last observed round so
  // crash/restart events appear in the log exactly once, in round order,
  // regardless of how delivery rounds interleave with idle charges.
  for (std::int64_t r = crashes_observed_upto_ + 1; r <= round; ++r) {
    for (NodeId v = 0; v < g_->n(); ++v) {
      if (crash_started(r, v)) {
        record(r, FaultKind::kCrash, v, kNoEdge, 0);
        ++stats_.crashes;
      }
      // A restart at r means some crash window [r', r'+down) ends at r and
      // no newer crash keeps the node down.
      const std::int64_t started = r - plan_.crash_down_rounds;
      if (started >= plan_.first_faulty_round && crash_started(started, v) && alive(r, v))
        record(r, FaultKind::kRestart, v, kNoEdge, 0);
    }
  }
  crashes_observed_upto_ = std::max(crashes_observed_upto_, round);
}

void FaultModel::note_recovery(std::int64_t round, NodeId v) {
  record(round, FaultKind::kRecovery, v, kNoEdge, 0);
  ++stats_.recoveries;
}

void FaultModel::filter_wire(std::int64_t round, std::vector<congest::Message>& wire) {
  observe_crashes(round);
  stats_.messages_seen += static_cast<std::int64_t>(wire.size());
  if (plan_.trivial()) return;
  // Bridge this call's stat deltas into the metrics registry at return.
  const FaultStats before = stats_;
  struct BridgeDeltas {
    const FaultStats& before;
    const FaultStats& after;
    ~BridgeDeltas() {
      static obs::Counter& drops = obs::MetricsRegistry::global().counter(
          "umc_fault_drops_total", {}, "Messages dropped by the injector.");
      static obs::Counter& dups = obs::MetricsRegistry::global().counter(
          "umc_fault_duplicates_total", {}, "Messages duplicated by the injector.");
      static obs::Counter& corruptions = obs::MetricsRegistry::global().counter(
          "umc_fault_corruptions_total", {}, "Messages bit-corrupted by the injector.");
      static obs::Counter& crash_drops = obs::MetricsRegistry::global().counter(
          "umc_fault_crash_drops_total", {}, "Messages lost to crash-stopped endpoints.");
      drops.inc(after.drops - before.drops);
      dups.inc(after.duplicates - before.duplicates);
      corruptions.inc(after.corruptions - before.corruptions);
      crash_drops.inc(after.crash_drops - before.crash_drops);
    }
  } bridge{before, stats_};
  // Outside the fault window only crash-stops (which may extend past
  // last_faulty_round by crash_down_rounds) still suppress traffic.
  const bool message_faults = plan_.faulty_at(round);

  std::vector<congest::Message> out;
  out.reserve(wire.size());
  for (const congest::Message& m : wire) {
    const Edge& e = g_->edge(m.via);
    const int dir = m.from == e.v ? 1 : 0;
    const std::uint64_t slot = wire_slot(*g_, m);
    const NodeId to = e.other(m.from);

    // Crash-stop: a down sender emits nothing, a down receiver hears
    // nothing. Both surface as a crash-drop naming the dead endpoint.
    if (!alive(round, m.from) || !alive(round, to)) {
      record(round, FaultKind::kCrashDrop, alive(round, m.from) ? to : m.from, m.via, dir);
      ++stats_.crash_drops;
      continue;
    }
    if (message_faults && draw(kSaltDrop, round, slot) < plan_.drop_p) {
      record(round, FaultKind::kDrop, kNoNode, m.via, dir);
      ++stats_.drops;
      continue;
    }
    congest::Message d = m;
    if (message_faults && draw(kSaltCorrupt, round, slot) < plan_.corrupt_p) {
      // Flip one deterministic bit of payload or aux.
      const std::uint64_t h = mix64(plan_.seed ^ mix64(kSaltBit ^ slot) ^
                                    mix64(static_cast<std::uint64_t>(round)));
      const std::uint64_t flip = 1ULL << ((h >> 1) & 63);
      if ((h & 1) == 0)
        d.payload = static_cast<std::int64_t>(static_cast<std::uint64_t>(d.payload) ^ flip);
      else
        d.aux = static_cast<std::int64_t>(static_cast<std::uint64_t>(d.aux) ^ flip);
      record(round, FaultKind::kCorrupt, kNoNode, m.via, dir);
      ++stats_.corruptions;
    }
    out.push_back(d);
    if (message_faults && draw(kSaltDup, round, slot) < plan_.dup_p) {
      out.push_back(d);
      record(round, FaultKind::kDuplicate, kNoNode, m.via, dir);
      ++stats_.duplicates;
    }
  }
  wire.swap(out);
}

std::string FaultModel::log_to_string() const {
  std::ostringstream os;
  for (const FaultEvent& ev : log_) {
    os << '@' << ev.round << ' ' << to_string(ev.kind);
    if (ev.node != kNoNode) os << " n" << ev.node;
    if (ev.edge != kNoEdge) os << " e" << ev.edge << (ev.direction == 0 ? " u->v" : " v->u");
    os << '\n';
  }
  return os.str();
}

}  // namespace umc::fault
