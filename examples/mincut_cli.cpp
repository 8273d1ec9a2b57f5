// Command-line front end: exact min-cut of a weighted edge-list file.
//
//   $ ./example_mincut_cli <graph.txt> [--seed S] [--trees T] [--witness]
//                          [--self-check] [--trace out.json] [--metrics]
//
// File format (see graph/io.hpp):
//   <n>
//   <u> <v> <w>     # one line per edge, weight optional (defaults to 1)
//
// Prints the cut value, the defining tree edges, the round accounting, and
// (with --witness) the full bipartition and crossing edge list. With no
// file argument, generates a demo network and prints its edge list first.
//
// Ingestion is the untrusted path: unknown flags, malformed flag values,
// and malformed graph files exit 2 with a message on stderr (no aborts, no
// exceptions). The solve runs under fault::SolveSupervisor, the same ladder
// (exact -> reseed -> Karger-Stein -> gather) a mincutd SOLVE runs under;
// --self-check turns on its certification (the guard battery of
// mincut::verify_mincut_result) and prints the SolveReport on a
// "self-check:" line. Exit codes: 0 ok, 1 oracle mismatch, 2 bad input.
//
// --trace enables the span tracer and writes a Chrome trace_event JSON
// (open in Perfetto: https://ui.perfetto.dev). The traced run additionally
// drives compiled Borůvka over a lossy ReliableChannel (small graphs only)
// so the trace shows the compiled CONGEST sub-phases and ARQ retries. If a
// per-thread ring filled, the "trace:" line reports the dropped events.
// --metrics prints the typed metrics registry (Prometheus text) on stdout,
// with the Ledger's round accounting bridged in.

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "baseline/stoer_wagner.hpp"
#include "congest/compile.hpp"
#include "congest/compiled_network.hpp"
#include "fault/reliable_channel.hpp"
#include "fault/supervisor.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "mincut/witness.hpp"
#include "obs/export.hpp"
#include "obs/ledger_bridge.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "server/engine.hpp"
#include "tree/spanning.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [graph.txt] [--seed S] [--trees T] [--witness] [--self-check]"
               " [--trace out.json] [--metrics]\n",
               argv0);
}

/// Strict integer flag value: entire token must parse, range-checked.
bool parse_flag_int(const char* tok, long long lo, long long hi, long long& out) {
  const char* last = tok + std::strlen(tok);
  const auto [ptr, ec] = std::from_chars(tok, last, out);
  return ec == std::errc{} && ptr == last && out >= lo && out <= hi;
}

struct Options {
  std::string path;
  std::string trace_path;
  std::uint64_t seed = 1;
  int max_trees = 16;
  bool want_witness = false;
  bool self_check = false;
  bool metrics = false;
};

/// Returns false (after printing the cause) on any malformed argv.
bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--seed") == 0 || std::strcmp(a, "--trees") == 0) {
      const bool is_seed = std::strcmp(a, "--seed") == 0;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", a);
        return false;
      }
      long long v = 0;
      if (!parse_flag_int(argv[++i], is_seed ? 0 : 1, 1LL << 32, v)) {
        std::fprintf(stderr, "error: bad %s value '%s'\n", a, argv[i]);
        return false;
      }
      if (is_seed)
        opt.seed = static_cast<std::uint64_t>(v);
      else
        opt.max_trees = static_cast<int>(v);
    } else if (std::strcmp(a, "--trace") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --trace needs an output path\n");
        return false;
      }
      opt.trace_path = argv[++i];
      if (opt.trace_path.empty()) {
        std::fprintf(stderr, "error: --trace path must be non-empty\n");
        return false;
      }
    } else if (std::strcmp(a, "--witness") == 0) {
      opt.want_witness = true;
    } else if (std::strcmp(a, "--self-check") == 0) {
      opt.self_check = true;
    } else if (std::strcmp(a, "--metrics") == 0) {
      opt.metrics = true;
    } else if (a[0] == '-') {
      std::fprintf(stderr, "error: unknown flag '%s'\n", a);
      return false;
    } else if (!opt.path.empty()) {
      std::fprintf(stderr, "error: more than one input file ('%s' and '%s')\n",
                   opt.path.c_str(), a);
      return false;
    } else {
      opt.path = a;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace umc;
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    usage(argv[0]);
    return 2;
  }

  WeightedGraph g;
  if (opt.path.empty()) {
    Rng demo_rng(7);
    g = erdos_renyi_connected(24, 0.2, demo_rng);
    randomize_weights(g, 1, 30, demo_rng);
    std::ostringstream os;
    write_edge_list(os, g);
    std::printf("no input file; demo network:\n%s\n", os.str().c_str());
  } else {
    // Ingestion through the service engine's load dispatch — the same parse
    // the daemon's LOAD handler runs (src/server/engine.hpp).
    Expected<WeightedGraph> parsed = server::load_graph_file(opt.path);
    if (!parsed) {
      std::fprintf(stderr, "error reading %s: %s\n", opt.path.c_str(),
                   parsed.error().to_string().c_str());
      return 2;
    }
    g = std::move(parsed.value());
  }
  if (const char* why = server::validate_graph(g)) {
    std::fprintf(stderr, "error: %s\n", why);
    return 2;
  }

  if (!opt.trace_path.empty()) obs::Tracer::global().set_enabled(true);

  fault::SupervisorConfig scfg;
  scfg.seed = opt.seed;
  scfg.num_threads = ThreadPool::configured_threads();
  scfg.verify = opt.self_check;
  scfg.packing.max_trees = opt.max_trees;
  const fault::SolveReport rep = fault::SolveSupervisor(scfg).solve(g);
  const minoragg::Ledger& ledger = rep.ledger;
  const Weight reference = baseline::stoer_wagner(g).value;

  if (opt.self_check || rep.tier != fault::SolveTier::kExact)
    std::printf("self-check: %s\n", rep.to_string().c_str());
  std::printf("min-cut value: %lld  (oracle: %lld, %s)\n", static_cast<long long>(rep.value),
              static_cast<long long>(reference),
              rep.value == reference ? "match" : "MISMATCH");
  const congest::CompileCost cost = congest::measure_compile_cost(g, ledger, opt.seed);
  std::printf("minor-aggregation rounds: %lld  |  D=%d  |  congest(general)=%lld  "
              "congest(excl-minor)=%lld\n",
              static_cast<long long>(cost.ma_rounds), cost.diameter,
              static_cast<long long>(cost.congest_rounds_general()),
              static_cast<long long>(cost.congest_rounds_excluded_minor()));

  // No crashes are injected, so a retry is a reseed whose packing --seed cannot replay.
  if (opt.want_witness && rep.tier == fault::SolveTier::kExact && rep.retries == 0 &&
      rep.exact.e != kNoEdge) {
    // Materialize the cut against the winning packing tree.
    Rng replay(opt.seed);
    minoragg::Ledger scratch;
    mincut::PackingConfig config;
    config.max_trees = opt.max_trees;
    const mincut::TreePacking packing = mincut::tree_packing(g, replay, scratch, config);
    const RootedTree t(g, packing.trees[static_cast<std::size_t>(rep.exact.winning_tree)], 0);
    const mincut::CutWitness w =
        mincut::cut_witness(t, mincut::CutResult{rep.exact.value, rep.exact.e, rep.exact.f});
    std::printf("witness: one side = {");
    for (NodeId v = 0; v < g.n(); ++v)
      if (w.side[static_cast<std::size_t>(v)]) std::printf(" %d", v);
    std::printf(" }\ncrossing edges:");
    for (const EdgeId e : w.crossing)
      std::printf(" {%d,%d}w%lld", g.edge(e).u, g.edge(e).v,
                  static_cast<long long>(g.edge(e).w));
    std::printf("\nwitness value: %lld (%s)\n", static_cast<long long>(w.value),
                w.value == rep.exact.value ? "consistent" : "INCONSISTENT");
  }

  if (!opt.trace_path.empty()) {
    // Drive compiled Borůvka over a lossy ReliableChannel so the trace
    // shows the compiled CONGEST sub-phases and ARQ retry spans. Bounded to
    // small graphs: the compiled path is O(m) work per CONGEST round.
    if (g.n() <= 2048) {
      fault::FaultPlan plan;
      plan.seed = opt.seed;
      plan.drop_p = 0.05;
      fault::FaultModel model(g, plan);
      fault::ReliableChannel channel(g, &model);
      std::vector<std::int64_t> cost(static_cast<std::size_t>(g.m()));
      for (EdgeId e = 0; e < g.m(); ++e) cost[static_cast<std::size_t>(e)] = g.edge(e).w;
      const congest::CompiledBoruvkaResult demo = congest::compiled_boruvka(channel, cost);
      std::printf("traced compiled demo: %lld MA rounds, %lld lossy CONGEST rounds, "
                  "%lld retransmissions\n",
                  static_cast<long long>(demo.ma_rounds),
                  static_cast<long long>(demo.congest_rounds),
                  static_cast<long long>(channel.stats().retransmissions));
    }
    obs::Tracer& tracer = obs::Tracer::global();
    std::ofstream out(opt.trace_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write trace file '%s'\n", opt.trace_path.c_str());
      return 2;
    }
    const auto events = tracer.snapshot();
    const std::int64_t dropped = tracer.dropped();
    obs::write_chrome_trace(out, events, dropped);
    if (dropped > 0)
      std::printf("trace: %zu spans, %lld dropped (rings full; raise UMC_OBS_RING) -> %s\n",
                  events.size(), static_cast<long long>(dropped), opt.trace_path.c_str());
    else
      std::printf("trace: %zu spans -> %s (load in https://ui.perfetto.dev)\n", events.size(),
                  opt.trace_path.c_str());
  }

  if (opt.metrics) {
    obs::bridge_ledger(obs::MetricsRegistry::global(), ledger, "ma");
    obs::write_prometheus(std::cout, obs::MetricsRegistry::global());
  }
  return rep.value == reference ? 0 : 1;
}
