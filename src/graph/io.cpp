#include "graph/io.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/assert.hpp"

namespace umc {

namespace {

[[nodiscard]] bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/// Whitespace-splits a line into tokens (the '#' comment tail is already
/// stripped by the caller). Any run of blanks separates tokens, so leading
/// and trailing whitespace — including a CRLF's residual '\r' — is inert.
std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> toks;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && is_blank(line[i])) ++i;
    std::size_t j = i;
    while (j < line.size() && !is_blank(line[j])) ++j;
    if (j > i) toks.push_back(line.substr(i, j - i));
    i = j;
  }
  return toks;
}

/// Universal-newline getline: a line ends at '\n', "\r\n", or a lone '\r'
/// (classic-Mac files — std::getline would hand those back as one giant
/// line and the header parse would reject the whole file). Returns false at
/// end of input with nothing read.
bool getline_any(std::istream& in, std::string& line) {
  line.clear();
  int c = in.get();
  if (c == std::istream::traits_type::eof()) return false;
  while (c != std::istream::traits_type::eof()) {
    if (c == '\n') break;
    if (c == '\r') {
      if (in.peek() == '\n') in.get();  // swallow the LF of a CRLF pair
      break;
    }
    line.push_back(static_cast<char>(c));
    c = in.get();
  }
  return true;
}

/// Strict integer parse: the whole token must be a decimal integer that
/// fits long long. Distinguishes "not a number" (kParse) from "number too
/// big for int64" (kOverflow) — the stream-based parser this replaces
/// silently read overflowing weights as the default 1.
Expected<long long> parse_int(std::string_view tok, const char* what, int line) {
  long long v = 0;
  const char* first = tok.data();
  const char* last = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec == std::errc::result_out_of_range)
    return Error{ErrorCode::kOverflow,
                 std::string(what) + " '" + std::string(tok) + "' does not fit int64", line};
  if (ec != std::errc{} || ptr != last)
    return Error{ErrorCode::kParse,
                 std::string(what) + " '" + std::string(tok) + "' is not an integer", line};
  return v;
}

}  // namespace

Expected<WeightedGraph> try_read_edge_list(std::istream& in) {
  std::string line;
  bool have_n = false;
  WeightedGraph g;
  int lineno = 0;
  while (getline_any(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::vector<std::string_view> toks = tokenize(line);
    if (toks.empty()) continue;  // blank/comment line
    if (!have_n) {
      if (toks.size() != 1)
        return Error{ErrorCode::kParse, "node-count header must be a single integer", lineno};
      Expected<long long> n = parse_int(toks[0], "node count", lineno);
      if (!n) return n.error();
      if (n.value() < 0 || n.value() > kMaxNodeCount)
        return Error{ErrorCode::kRange,
                     "node count " + std::to_string(n.value()) + " out of range [0, 2^30]",
                     lineno};
      g = WeightedGraph(static_cast<NodeId>(n.value()));
      have_n = true;
      continue;
    }
    if (toks.size() < 2 || toks.size() > 3)
      return Error{ErrorCode::kParse, "edge line needs 'u v' or 'u v w', got " +
                                          std::to_string(toks.size()) + " token(s)",
                   lineno};
    Expected<long long> u = parse_int(toks[0], "endpoint", lineno);
    if (!u) return u.error();
    Expected<long long> v = parse_int(toks[1], "endpoint", lineno);
    if (!v) return v.error();
    long long w = 1;  // weight optional, defaults to 1
    if (toks.size() == 3) {
      Expected<long long> pw = parse_int(toks[2], "weight", lineno);
      if (!pw) return pw.error();
      w = pw.value();
    }
    if (u.value() < 0 || u.value() >= g.n() || v.value() < 0 || v.value() >= g.n())
      return Error{ErrorCode::kRange, "endpoint out of range [0, " + std::to_string(g.n()) + ")",
                   lineno};
    if (u.value() == v.value())
      return Error{ErrorCode::kRange, "self-loop " + std::string(toks[0]) + "-" +
                                          std::string(toks[1]) + " (never affects cuts)",
                   lineno};
    if (w < 1 || w > kMaxEdgeWeight)
      return Error{ErrorCode::kRange,
                   "weight " + std::to_string(w) + " outside [1, 2^32] (negative or zero "
                   "weights break cut arguments; larger ones risk int64 cut-sum overflow)",
                   lineno};
    if (g.m() >= kMaxEdgeCount)
      return Error{ErrorCode::kRange, "more than 2^30 edges", lineno};
    g.add_edge(static_cast<NodeId>(u.value()), static_cast<NodeId>(v.value()), w);
  }
  if (!have_n) return Error{ErrorCode::kParse, "missing node-count header", 0};
  return g;
}

Expected<WeightedGraph> try_read_edge_list_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return Error{ErrorCode::kIo, "cannot open " + path, 0};
  return try_read_edge_list(in);
}

void write_edge_list(std::ostream& out, const WeightedGraph& g) {
  out << "# unimincut edge list: n, then one 'u v w' per edge\n";
  out << g.n() << '\n';
  for (const Edge& e : g.edges()) out << e.u << ' ' << e.v << ' ' << e.w << '\n';
}

void write_edge_list_file(const std::string& path, const WeightedGraph& g) {
  std::ofstream out(path);
  UMC_ASSERT_MSG(out.good(), "cannot open " + path + " for writing");
  write_edge_list(out, g);
}

}  // namespace umc
