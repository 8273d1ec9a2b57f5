// mincutd_mixed: the real `mincutd --width 2 --seed S` binary as a
// subprocess, over its stdin/stdout framing, with UMC_THREADS=2 in its
// environment. One client keeps 4 requests outstanding (closed loop) and
// replays the corpus of `mincut_loadgen --gen --tenants 4 --requests 1000
// --profile mixed --seed 42` (tools/mincutd_smoke.script). The workload
// seed S is the daemon's session seed: it picks the packing seeds of the
// seedless SOLVEs. The corpus itself stays pinned, because its graph sizes
// move latency by up to 25% from one corpus seed to the next (see
// README.md). Expected SOLVE values come from a per-tenant Stoer–Wagner
// mirror computed during setup, so nothing runs on the send path. Each
// pass runs on a fresh daemon; a daemon that stops answering before the
// run's deadline is killed and its unanswered requests count as failed.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "baseline/stoer_wagner.hpp"
#include "common.hpp"
#include "graph/io.hpp"
#include "server/engine.hpp"
#include "server/protocol.hpp"

extern char** environ;

namespace perfbench {
namespace {

using umc::Weight;
using umc::server::Op;
using umc::server::Request;
using umc::server::Response;

constexpr int kDaemonWidth = 2;
constexpr int kWindow = 4;
constexpr int kTenants = 4;
constexpr int kMaxTrees = 16;  // mincutd's default --trees
constexpr int kSetupRepeats = 5;
constexpr int kProbeEvery = 4;  // layer probes on every 4th SOLVE
constexpr std::uint64_t kCorpusSeed = 42;  // tools/mincutd_smoke.script

/// mincutd's --seed: the workload seed, within the flag's range.
std::uint64_t daemon_seed(const Options& opt) { return opt.seed & ((1ULL << 62) - 1); }

// ---------------------------------------------------------------------------
// Subprocesses and raw-fd framing.

struct Child {
  pid_t pid = -1;
  int wr = -1;  // our writes -> child stdin
  int rd = -1;  // child stdout -> our reads
};

/// fork+execve of `argv` with `env_override` entries replacing or adding
/// to this process's environment. With `pipes`, the child's stdin/stdout
/// are pipes held in the returned Child; otherwise it inherits ours.
Child spawn(const std::vector<std::string>& argv, const std::vector<std::string>& env_override,
            bool pipes) {
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    const bool replaced = std::any_of(env_override.begin(), env_override.end(),
                                      [&](const std::string& o) {
                                        return kv.compare(0, o.find('=') + 1, o, 0,
                                                          o.find('=') + 1) == 0;
                                      });
    if (!replaced) env.push_back(kv);
  }
  env.insert(env.end(), env_override.begin(), env_override.end());
  std::vector<char*> argv_c, env_c;
  for (const std::string& a : argv) argv_c.push_back(const_cast<char*>(a.c_str()));
  for (const std::string& e : env) env_c.push_back(const_cast<char*>(e.c_str()));
  argv_c.push_back(nullptr);
  env_c.push_back(nullptr);

  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  if (pipes && (pipe2(to_child, O_CLOEXEC) != 0 || pipe2(from_child, O_CLOEXEC) != 0)) return {};
  Child c;
  c.pid = fork();
  if (c.pid < 0 && pipes)
    for (const int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) close(fd);
  if (c.pid == 0) {
    if (pipes) {
      dup2(to_child[0], STDIN_FILENO);
      dup2(from_child[1], STDOUT_FILENO);
    } else {
      dup2(STDERR_FILENO, STDOUT_FILENO);  // the harness's stdout is its result
    }
    execve(argv_c[0], argv_c.data(), env_c.data());
    _exit(127);
  }
  if (pipes && c.pid > 0) {
    close(to_child[0]);
    close(from_child[1]);
    c.wr = to_child[1];
    c.rd = from_child[0];
  }
  return c;
}

bool write_all(int fd, const char* buf, std::size_t len) {
  while (len > 0) {
    const ssize_t w = write(fd, buf, len);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    buf += w;
    len -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_all(int fd, char* buf, std::size_t len) {
  while (len > 0) {
    const ssize_t r = read(fd, buf, len);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    buf += r;
    len -= static_cast<std::size_t>(r);
  }
  return true;
}

bool write_frame_fd(int fd, const std::string& payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  const char hdr[4] = {static_cast<char>(len & 0xff), static_cast<char>((len >> 8) & 0xff),
                       static_cast<char>((len >> 16) & 0xff),
                       static_cast<char>((len >> 24) & 0xff)};
  return write_all(fd, hdr, 4) && write_all(fd, payload.data(), payload.size());
}

bool read_frame_fd(int fd, std::string& payload) {
  unsigned char hdr[4];
  if (!read_all(fd, reinterpret_cast<char*>(hdr), 4)) return false;
  const std::uint32_t len = hdr[0] | (hdr[1] << 8) | (hdr[2] << 16) | (std::uint32_t{hdr[3]} << 24);
  if (len > umc::server::kMaxFrameBytes) return false;
  payload.resize(len);
  return len == 0 || read_all(fd, payload.data(), len);
}

/// Closes our ends and reaps the child; returns its resource usage.
rusage reap(Child& c) {
  if (c.wr >= 0) close(c.wr);
  if (c.rd >= 0) close(c.rd);
  c.wr = c.rd = -1;
  rusage ru{};
  int status = 0;
  while (c.pid > 0 && wait4(c.pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  c.pid = -1;
  return ru;
}

double cpu_ms_of(const rusage& ru) {
  return 1e3 * (static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec));
}

// ---------------------------------------------------------------------------
// The corpus and its expected answers.

/// A SOLVE of the corpus: its tenant's graph at that point of the replay
/// (per-tenant FIFO makes it the graph the daemon solves) and the
/// Stoer–Wagner value expected back.
struct SolveCase {
  umc::WeightedGraph graph;
  Weight expected = 0;
};

struct Corpus {
  std::vector<Request> requests;
  std::map<std::int64_t, SolveCase> solves;  // by request id
  std::int64_t max_id = 0;
};

bool make_corpus(const Options& opt, int requests, Corpus& out) {
  const std::string path = opt.work_dir + "/corpus-" + std::to_string(getpid()) + ".script";
  Child gen = spawn({opt.bin_dir + "/mincut_loadgen", "--gen", "--tenants",
                     std::to_string(kTenants), "--requests", std::to_string(requests),
                     "--profile", "mixed", "--seed", std::to_string(kCorpusSeed), "--script", path},
                    {}, /*pipes=*/false);
  int status = 0;
  if (gen.pid <= 0 || waitpid(gen.pid, &status, 0) != gen.pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0)
    return false;
  std::ifstream is(path);
  std::string line, record;
  std::vector<std::string> payloads;
  bool in_record = false;
  const auto flush = [&] {
    if (!in_record) return;
    if (!record.empty() && record.back() == '\n') record.pop_back();
    payloads.push_back(record);
    record.clear();
  };
  while (std::getline(is, line)) {
    if (line == "%%") {
      flush();
      in_record = true;
    } else if (in_record) {
      record += line;
      record += '\n';
    }
  }
  flush();
  is.close();
  std::remove(path.c_str());

  out = {};
  std::map<std::string, umc::WeightedGraph> mirror;
  for (const std::string& p : payloads) {
    umc::Expected<Request> parsed = umc::server::parse_request(p);
    if (!parsed) return false;
    const Request& req = out.requests.emplace_back(std::move(parsed.value()));
    out.max_id = std::max(out.max_id, req.id);
    if (req.op == Op::kLoad) {
      std::istringstream body(req.body);
      umc::Expected<umc::WeightedGraph> g = umc::try_read_edge_list(body);
      if (!g) return false;
      mirror[req.tenant] = std::move(g.value());
    } else if (req.op == Op::kMutate) {
      mirror[req.tenant].set_weight(req.edge, req.new_weight);
    } else if (req.op == Op::kSolve) {
      const umc::WeightedGraph& g = mirror[req.tenant];
      out.solves[req.id] = {g, umc::baseline::stoer_wagner(g).value};
    }
  }
  if (opt.inject_wrong_expected && !out.solves.empty()) out.solves.begin()->second.expected += 1;
  return !out.requests.empty();
}

Child start_daemon(const Options& opt) {
  return spawn({opt.bin_dir + "/mincutd", "--width", std::to_string(kDaemonWidth), "--seed",
                std::to_string(daemon_seed(opt))},
               {"UMC_THREADS=" + std::to_string(kDaemonWidth)}, /*pipes=*/true);
}

/// One synchronous STATS round trip, answered within 10 s: the daemon is up
/// and serving.
bool warm_up(Child& d) {
  Request stats;
  stats.op = Op::kStats;
  if (d.pid <= 0 || !write_frame_fd(d.wr, stats.serialize())) return false;
  pollfd pfd{d.rd, POLLIN, 0};
  std::string payload;
  return poll(&pfd, 1, 10000) == 1 && read_frame_fd(d.rd, payload);
}

// ---------------------------------------------------------------------------
// One replay of the corpus against one daemon.

struct PassResult {
  std::vector<double> latency_ms;                  // answered corpus requests
  std::map<std::int64_t, double> latency_by_id;
  std::map<std::int64_t, std::uint64_t> solve_seed;  // SOLVE id -> seed used
  double wall_s = 0.0;  // first send -> last corpus answer
  std::int64_t failed = 0;
  std::int64_t unanswered = 0;
  std::int64_t rounds = 0;  // summed SOLVE rounds
  std::int64_t degraded = 0;
  std::int64_t rejected = 0;
  std::int64_t cache_hits = 0;  // final STATS session table
  std::int64_t cache_misses = 0;
  std::string prom;  // final STATS prom body (when asked for)
  bool timed_out = false;
  rusage usage{};
  double peak_mb = 0.0;  // daemon VmHWM
};

std::int64_t field_sum(const std::string& table, const std::string& key) {
  std::int64_t sum = 0;
  std::istringstream is(table);
  std::string tok;
  while (is >> tok)
    if (tok.compare(0, key.size() + 1, key + "=") == 0)
      sum += std::strtoll(tok.c_str() + key.size() + 1, nullptr, 10);
  return sum;
}

/// Value of an unlabelled counter line `name value` in a Prometheus dump.
double prom_value(const std::string& prom, const std::string& name) {
  std::istringstream is(prom);
  std::string line;
  while (std::getline(is, line))
    if (line.compare(0, name.size() + 1, name + " ") == 0)
      return std::strtod(line.c_str() + name.size() + 1, nullptr);
  return 0.0;
}

/// When the run stops waiting on the daemon. A traced run stops earlier,
/// since its in-process replay and probes still follow the daemon pass.
PassResult run_pass(Child& d, const Corpus& corpus, Clock::time_point deadline, bool want_prom) {
  PassResult res;
  struct Pending {
    Op op;
    Clock::time_point sent;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::map<std::int64_t, Pending> pending;
  std::map<std::int64_t, Response> probes;  // answers to the closing STATS probes
  bool eof = false;
  Clock::time_point last_answer{};
  const std::int64_t stats_id = corpus.max_id + 1;
  const std::int64_t prom_id = corpus.max_id + 2;
  const std::int64_t shutdown_id = corpus.max_id + 3;

  std::thread reader([&] {
    std::string payload;
    while (read_frame_fd(d.rd, payload)) {
      const Clock::time_point now = Clock::now();
      umc::Expected<Response> parsed = umc::server::parse_response(payload);
      const std::lock_guard<std::mutex> lock(mu);
      if (!parsed) {
        ++res.failed;
        continue;
      }
      const Response& r = parsed.value();
      const auto it = pending.find(r.id);
      if (it == pending.end()) continue;
      const Pending p = it->second;
      pending.erase(it);
      if (r.id > corpus.max_id) {
        probes[r.id] = r;
        cv.notify_all();
        continue;
      }
      const double ms = std::chrono::duration<double, std::milli>(now - p.sent).count();
      res.latency_ms.push_back(ms);
      res.latency_by_id[r.id] = ms;
      last_answer = now;
      bool bad = !r.ok;
      if (!r.ok && (r.error_code == "QUEUE_FULL" || r.error_code == "TENANT_OVERLOAD" ||
                    r.error_code == "SHUTTING_DOWN"))
        ++res.rejected;
      if (r.ok && p.op == Op::kSolve) {
        const auto want = corpus.solves.find(r.id);
        const bool exact = r.fields.count("tier") != 0 && r.fields.at("tier") == "exact";
        if (!exact) ++res.degraded;
        bad = !exact || r.field_int("certified", 0) != 1 || want == corpus.solves.end() ||
              r.field_int("value", -1) != want->second.expected;
        res.rounds += r.field_int("rounds", 0);
        res.solve_seed[r.id] = static_cast<std::uint64_t>(r.field_int("seed", 0));
      }
      if (bad) ++res.failed;
      cv.notify_all();
    }
    const std::lock_guard<std::mutex> lock(mu);
    eof = true;
    cv.notify_all();
  });

  // Sends `req` once fewer than kWindow requests are outstanding; false on
  // deadline, hang-up or a broken pipe.
  const auto send = [&](const Request& req) {
    {
      std::unique_lock<std::mutex> lock(mu);
      if (!cv.wait_until(lock, deadline, [&] { return eof || pending.size() < static_cast<std::size_t>(kWindow); }) || eof)
        return false;
      pending[req.id] = {req.op, Clock::now()};
    }
    return write_frame_fd(d.wr, req.serialize());
  };
  const auto drain = [&] {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_until(lock, deadline, [&] { return eof || pending.empty(); }) && !eof;
  };

  const Clock::time_point t0 = Clock::now();
  bool live = true;
  for (const Request& req : corpus.requests)
    if (!(live = send(req))) break;
  live = live && drain();
  if (live) {
    Request stats;
    stats.op = Op::kStats;
    stats.id = stats_id;
    Request prom = stats;
    prom.id = prom_id;
    prom.stats_prometheus = true;
    Request shutdown;
    shutdown.op = Op::kShutdown;
    shutdown.id = shutdown_id;
    live = send(stats) && (!want_prom || send(prom)) && send(shutdown) && drain();
  }
  if (live) {
    res.peak_mb = peak_rss_mb(d.pid);  // read while the daemon is alive
    // Hang up; the daemon drains and exits, which ends the reader.
    close(d.wr);
    d.wr = -1;
    std::unique_lock<std::mutex> lock(mu);
    live = cv.wait_until(lock, deadline, [&] { return eof; });
  }
  if (!live) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      res.timed_out = !eof;
    }
    kill(d.pid, SIGKILL);
  }
  reader.join();
  res.usage = reap(d);

  res.wall_s = std::chrono::duration<double>((last_answer > t0 ? last_answer : t0) - t0).count();
  res.unanswered = static_cast<std::int64_t>(corpus.requests.size()) -
                   static_cast<std::int64_t>(res.latency_ms.size());
  res.failed += res.unanswered;
  if (const auto it = probes.find(stats_id); it != probes.end()) {
    res.cache_hits = field_sum(it->second.body, "cache_hits");
    res.cache_misses = field_sum(it->second.body, "cache_misses");
  }
  if (const auto it = probes.find(prom_id); it != probes.end()) res.prom = it->second.body;
  return res;
}

Clock::time_point deadline_of(const Options& opt) {
  const double s = opt.trace ? std::min(opt.deadline_s, 90.0) : opt.deadline_s;
  return opt.process_start +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

int corpus_requests(const Options& opt) { return opt.tiny ? 40 : 1000; }

Report run_untraced(const Options& opt) {
  Report report;
  note_environment(report, opt, kDaemonWidth);
  report.note("daemon: mincutd --width 2 --seed " + std::to_string(daemon_seed(opt)) +
              ", UMC_THREADS=2; corpus seed 42; client window 4 (closed loop)");
  Corpus corpus;
  Child daemon;
  bool setup_ok = true;
  const double setup_s = median_setup_s(kSetupRepeats, [&] {
    if (daemon.pid > 0) (void)reap(daemon);
    const bool corpus_ok = make_corpus(opt, corpus_requests(opt), corpus);
    daemon = start_daemon(opt);
    setup_ok = setup_ok && corpus_ok && warm_up(daemon);
  });
  if (!setup_ok) {
    std::fprintf(stderr, "perfbench: mincutd_mixed setup failed\n");
    if (daemon.pid > 0) kill(daemon.pid, SIGKILL);
    (void)reap(daemon);
    std::exit(1);
  }

  OpLog log;
  PassResult first;
  double peak_mb = 0.0;
  const Clock::time_point deadline = deadline_of(opt);
  const Clock::time_point start = Clock::now();
  // Whole passes, each on a fresh daemon, while another one still fits in
  // --seconds (judged by the previous pass); at least one.
  double last_pass_s = 0.0;
  int passes = 0;
  for (int pass = 0;; ++pass) {
    if (pass > 0) {
      if (seconds_since(start) + last_pass_s > opt.seconds) break;
      daemon = start_daemon(opt);
      if (!warm_up(daemon)) {
        kill(daemon.pid, SIGKILL);
        (void)reap(daemon);
        break;
      }
    }
    const Clock::time_point pass_start = Clock::now();
    PassResult r = run_pass(daemon, corpus, deadline, /*want_prom=*/false);
    last_pass_s = seconds_since(pass_start);
    ++passes;
    log.latency_ms.insert(log.latency_ms.end(), r.latency_ms.begin(), r.latency_ms.end());
    log.timed_wall_s += r.wall_s;
    log.cpu_ms += cpu_ms_of(r.usage);
    log.attempted += static_cast<std::int64_t>(corpus.requests.size());
    log.failed += r.failed;
    peak_mb = std::max(peak_mb, r.peak_mb);
    if (r.timed_out)
      report.note("deadline passed: daemon killed with " + std::to_string(r.unanswered) +
                  " request(s) unanswered (counted as failed)");
    if (pass == 0) first = std::move(r);
    else if (r.rounds != first.rounds || r.cache_hits != first.cache_hits ||
             r.cache_misses != first.cache_misses)
      report.deterministic = false;
    if (r.timed_out || first.timed_out) break;
  }
  report.add_end_to_end(log, setup_s, peak_mb, static_cast<double>(first.rounds));
  report.note(std::to_string(corpus.requests.size()) + " requests per pass (" +
              std::to_string(corpus.solves.size()) + " SOLVE), " +
              std::to_string(passes) + " pass(es); packing cache " + std::to_string(first.cache_hits) + " hits / " +
              std::to_string(first.cache_misses) + " misses per pass");
  return report;
}

Report run_traced(const Options& opt) {
  Report report;
  note_environment(report, opt, kDaemonWidth);
  Corpus corpus;
  Child daemon;
  if (!make_corpus(opt, corpus_requests(opt), corpus) || (daemon = start_daemon(opt)).pid <= 0 ||
      !warm_up(daemon)) {
    std::fprintf(stderr, "perfbench: mincutd_mixed setup failed\n");
    if (daemon.pid > 0) kill(daemon.pid, SIGKILL);
    (void)reap(daemon);
    std::exit(1);
  }
  const PassResult pass = run_pass(daemon, corpus, deadline_of(opt), /*want_prom=*/true);
  report.attempted += static_cast<std::int64_t>(corpus.requests.size());
  report.failed += pass.failed;

  // In-process replay of the same corpus through Engine::execute, in corpus
  // order (per-tenant FIFO makes the answers and caches the daemon's).
  umc::server::EngineConfig ecfg;
  ecfg.scheduler_width = kDaemonWidth;
  ecfg.default_max_trees = kMaxTrees;
  ecfg.rng_seed = daemon_seed(opt);
  std::map<Op, std::vector<double>> exec_ms;
  std::vector<double> queue_ms;
  const RegistryCounters before = RegistryCounters::now();
  {
    umc::server::Engine engine(ecfg);
    for (const Request& req : corpus.requests) {
      const Clock::time_point t0 = Clock::now();
      const Response r = engine.execute(req);
      const double ms = ms_since(t0);
      exec_ms[req.op].push_back(ms);
      if (const auto it = pass.latency_by_id.find(req.id); it != pass.latency_by_id.end())
        queue_ms.push_back(std::max(0.0, it->second - ms));
      if (req.op == Op::kSolve &&
          (!r.ok || r.field_int("value", -1) != corpus.solves.at(req.id).expected))
        ++report.failed;
    }
  }
  const RegistryCounters replay = RegistryCounters::now().since(before);

  // Layer probes on the SOLVE graphs, with the seeds the daemon reported.
  std::vector<double> sw_ms, packing_ms, two_respect_ms, verify_ms;
  double trees = 0, packing_rounds = 0, two_respect_rounds = 0, probes = 0;
  {
    std::map<std::string, umc::mincut::PackingCache> caches;  // one per tenant, as in the daemon
    std::int64_t solve_index = 0;
    for (const Request& req : corpus.requests) {
      const auto seed = pass.solve_seed.find(req.id);
      if (req.op != Op::kSolve || seed == pass.solve_seed.end()) continue;
      const umc::WeightedGraph& g = corpus.solves.at(req.id).graph;
      bool ok = false;
      verify_ms.push_back(time_verify(g, seed->second, kMaxTrees, caches[req.tenant], ok));
      if (!ok) ++report.failed;
      if (solve_index++ % kProbeEvery != 0) continue;
      const LayerSample s = probe_layers(g, seed->second, kMaxTrees);
      sw_ms.push_back(s.sw_seed_ms);
      packing_ms.push_back(s.packing_total_ms - s.sw_seed_ms);
      trees += s.trees;
      packing_rounds += static_cast<double>(s.packing_rounds);
      two_respect_ms.insert(two_respect_ms.end(), s.two_respect_ms.begin(), s.two_respect_ms.end());
      for (const std::int64_t r : s.two_respect_rounds) two_respect_rounds += static_cast<double>(r);
      ++probes;
    }
  }

  const Tail queue_tail = tail_of(queue_ms);
  const double solves = static_cast<double>(exec_ms[Op::kSolve].size());
  const std::map<std::string, double> measured = {
      {"baseline.sw_seed_ms", median(sw_ms)},
      {"mincut.packing_ms", median(packing_ms)},
      {"mincut.packing_trees", ratio(trees, probes)},
      {"mincut.packing_ma_rounds", ratio(packing_rounds, probes)},
      {"mincut.packing_cache_hit_ratio",
       ratio(static_cast<double>(pass.cache_hits),
             static_cast<double>(pass.cache_hits + pass.cache_misses))},
      {"mincut.two_respect_ms_per_tree", median(two_respect_ms)},
      {"mincut.two_respect_ma_rounds_per_tree",
       ratio(two_respect_rounds, static_cast<double>(two_respect_ms.size()))},
      {"mincut.verify_ms", median(verify_ms)},
      {"minoragg.plan_cache_hit_ratio", replay.plan_hit_ratio()},
      {"util.tasks_spawned", ratio(replay.tasks_spawned, solves)},
      {"util.tasks_helped", ratio(replay.tasks_helped, solves)},
      {"server.solve_exec_ms", median(exec_ms[Op::kSolve])},
      {"server.load_exec_ms", median(exec_ms[Op::kLoad])},
      {"server.mutate_exec_ms", median(exec_ms[Op::kMutate])},
      {"server.queue_ms_p50", median(queue_ms)},
      {"server.queue_ms_tail", queue_tail.value},
      {"server.worker_busy_frac",
       ratio(cpu_ms_of(pass.usage), kDaemonWidth * 1e3 * pass.wall_s)},
      {"server.degraded", static_cast<double>(pass.degraded)},
      {"server.rejected", static_cast<double>(pass.rejected)},
      {"fault.supervisor_retries", prom_value(pass.prom, "umc_supervisor_retries_total")},
      {"fault.tier_falls", prom_value(pass.prom, "umc_supervisor_tier_falls_total")},
  };
  add_layers(report, measured,
             {{"mincut.cut_oracle", "classic SOLVEs (no --incremental) never call the cut oracle"},
              {"mincut.unattributed", "measured on cold_planar"},
              {"util.pool_efficiency", "the daemon's pool: see server.worker_busy_frac"},
              {"stream.", "classic SOLVEs (no --incremental) run no update stream"}});
  char line[240];
  std::snprintf(line, sizeof line,
                "server.queue_ms_tail: p%d of %lld requests; queue = daemon latency - "
                "in-process execute time of the same request id",
                queue_tail.percentile, static_cast<long long>(queue_tail.samples));
  report.note(line);
  report.note("packing cache " + std::to_string(pass.cache_hits) + " hits / " +
              std::to_string(pass.cache_misses) + " misses; layer probes on " +
              std::to_string(static_cast<long long>(probes)) + " SOLVE graphs, verify on " +
              std::to_string(verify_ms.size()));
  if (pass.timed_out)
    report.note("deadline passed: daemon killed with " + std::to_string(pass.unanswered) +
                " request(s) unanswered (counted as failed)");
  return report;
}

}  // namespace

Report run_mincutd_mixed(const Options& opt) {
  return opt.trace ? run_traced(opt) : run_untraced(opt);
}

}  // namespace perfbench
