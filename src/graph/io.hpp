#pragma once

// Plain-text graph serialization: the ubiquitous weighted edge-list format
//
//   # comments and blank lines ignored
//   <n>
//   <u> <v> <w>
//   ...
//
// so real topologies can be fed to the examples/CLI and experiment outputs
// can be archived.
//
// This is the UNTRUSTED ingestion path: the try_* parsers return
// Expected<WeightedGraph> and reject malformed input (bad tokens, ids out
// of range, weights outside [1, kMaxEdgeWeight], integer overflow, trailing
// junk) with a recoverable Error naming the offending line — they never
// throw. Line endings are universal (LF, CRLF, or lone CR) and leading or
// trailing whitespace on a line is inert, so files produced on any OS parse
// identically.
//
// Weight bounds: weights must lie in [1, kMaxEdgeWeight] with at most
// kMaxEdgeCount edges, so any cut-value sum is <= 2^32 * 2^30 = 2^62 and
// cannot overflow the int64 Weight arithmetic the solvers use. This is the
// paper's w(e) in [poly(n)] assumption made concrete (it also matches the
// < 2^32 packing requirement of the compiled Borůvka word format).

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"
#include "util/error.hpp"

namespace umc {

inline constexpr Weight kMaxEdgeWeight = Weight{1} << 32;
inline constexpr long long kMaxEdgeCount = 1LL << 30;
inline constexpr long long kMaxNodeCount = 1LL << 30;

/// Parses the edge-list format; malformed input yields a recoverable Error
/// (never throws, never aborts).
[[nodiscard]] Expected<WeightedGraph> try_read_edge_list(std::istream& in);
[[nodiscard]] Expected<WeightedGraph> try_read_edge_list_file(const std::string& path);

void write_edge_list(std::ostream& out, const WeightedGraph& g);
void write_edge_list_file(const std::string& path, const WeightedGraph& g);

}  // namespace umc
