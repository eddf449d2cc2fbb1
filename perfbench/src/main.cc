// perfbench: the repository benchmark.
//
// One run starts the real serving stack in-process — QueryService plus
// DataServer on an ephemeral loopback port, the answer cache on at a fixed
// byte budget, and for live_durable a WAL-backed SnapshotManager recovered
// from a log — then drives it through POST /v1/query: a seeded open-loop
// phase (latency from each request's intended send time) followed by a
// closed-loop capacity phase. Every response is checked against the
// seminaive oracle on a cold rebuild of the epoch named in its trailer,
// and each workload checks that its traffic did what the workload claims.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--run-dir <dir>]
//
// The last stdout line is one JSON object: correct, attempted, failed and
// the metrics — end-to-end ones with --trace 0, per-layer ones (from spans
// recorded around each call into the stack) with --trace 1. Exit status is
// 0 only when every answer matched and every traffic self-check held.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/answer_cache.h"
#include "datalog/parser.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "eval/eval_artifacts.h"
#include "eval/query.h"
#include "http_client.h"
#include "live/snapshot_manager.h"
#include "loadgen.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "server/data_server.h"
#include "service/query_service.h"
#include "spans.h"
#include "stats.h"
#include "storage/database.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using binchain::PublishStats;
using binchain::QueryService;
using binchain::SnapshotManager;

/// A failed or refused request misses every latency limit.
constexpr double kFailedLatencyMs = 1e9;
/// Latency at or above this counts as a delayed-ACK stall in the log.
constexpr double kStallMs = 40;

// The serving configuration every workload shares, and how a run spends
// its --seconds. perfbench/design.json records why each value is what it is.
constexpr size_t kServiceThreads = 4;
constexpr size_t kHandlerThreads = 4;
constexpr size_t kCacheBytes = 128 * 1024;
/// Client connections, one client thread each; capped at the core count.
constexpr size_t kConnections = 4;
/// Share of --seconds spent in the open loop; the rest is closed loop.
constexpr double kOpenShare = 0.8;
/// Each client connection is replaced by a fresh one every this many ms of
/// the open-loop schedule, so no one pairing of client and server threads
/// sets a whole run's figures.
constexpr double kOpenSegmentMs = 2000;
/// Stacks built per run; setup_s is their median.
constexpr size_t kSetups = 31;
/// Epochs of a live run rebuilt by the oracle (first and last included).
constexpr size_t kOracleEpochs = 64;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ------------------------------------------------------------------ flags

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string run_dir = ".bench_run";
};

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    std::string value;
    size_t eq = a.find('=');
    if (eq != std::string::npos) {
      value = a.substr(eq + 1);
      a = a.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument("flag " + a + " needs a value");
    }
    if (a == "--workload") {
      f.workload = value;
    } else if (a == "--seed") {
      f.seed = std::stoull(value);
      have_seed = true;
    } else if (a == "--seconds") {
      f.seconds = std::stod(value);
    } else if (a == "--trace") {
      f.trace = value == "1";
    } else if (a == "--run-dir") {
      f.run_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + a);
    }
  }
  if (f.workload.empty() || !have_seed || f.seconds <= 0) {
    throw std::invalid_argument("--workload, --seed and --seconds are required");
  }
  return f;
}

// ------------------------------------------------------- response parsing

/// One response as the client saw it, reduced to what the checks and
/// metrics need.
struct Outcome {
  int http = 0;            // 0: transport failure
  bool well_formed = false;  // answer lines then exactly one trailer
  bool status_ok = false;  // trailer status "ok"
  bool partial = false;
  uint64_t epoch = 0, answers = 0, chunks = 0;
  uint64_t nodes = 0, iterations = 0, fetches = 0;
  double eval_ms = 0, total_ms = 0;
  uint64_t lines = 0;  // answer lines received
  uint64_t frames = 0, bytes = 0;
  AnswerDigest digest;

  bool evaluated() const { return eval_ms > 0; }
};

bool ReadJsonString(const std::string& s, size_t* pos, std::string* out) {
  if (*pos >= s.size() || s[*pos] != '"') return false;
  out->clear();
  for (size_t i = *pos + 1; i < s.size(); ++i) {
    if (s[i] == '"') {
      *pos = i + 1;
      return true;
    }
    if (s[i] == '\\') {
      if (++i >= s.size()) return false;
    }
    out->push_back(s[i]);
  }
  return false;
}

void SkipSpaces(const std::string& s, size_t* pos) {
  while (*pos < s.size() && (s[*pos] == ' ' || s[*pos] == ',')) ++*pos;
}

/// `{"tuples": [["a", "b"], ...]}` into the digest; false if malformed.
bool ParseTuplesLine(const std::string& line, AnswerDigest* digest) {
  static const std::string kPrefix = "{\"tuples\": [";
  size_t pos = kPrefix.size();
  std::string a, b;
  for (;;) {
    SkipSpaces(line, &pos);
    if (pos >= line.size()) return false;
    if (line[pos] == ']') return line.compare(pos, 2, "]}") == 0;
    if (line[pos] != '[') return false;
    ++pos;
    if (!ReadJsonString(line, &pos, &a)) return false;
    SkipSpaces(line, &pos);
    if (!ReadJsonString(line, &pos, &b)) return false;
    if (pos >= line.size() || line[pos] != ']') return false;
    ++pos;
    digest->Add(a, b);
  }
}

double NumberField(const std::string& line, const char* name) {
  std::string key = std::string("\"") + name + "\": ";
  size_t at = line.find(key);
  return at == std::string::npos ? 0 : std::strtod(line.c_str() + at + key.size(), nullptr);
}

Outcome ParseResponse(const HttpResponse& r) {
  Outcome o;
  o.http = r.status;
  o.frames = r.frames;
  o.bytes = r.wire_bytes;
  if (r.status != 200) return o;
  size_t start = 0;
  bool trailer_seen = false, bad = false;
  while (start < r.payload.size()) {
    size_t nl = r.payload.find('\n', start);
    if (nl == std::string::npos) {
      bad = true;
      break;
    }
    std::string line = r.payload.substr(start, nl - start);
    start = nl + 1;
    if (trailer_seen) {
      bad = true;
    } else if (line.rfind("{\"tuples\": [", 0) == 0) {
      ++o.lines;
      if (!ParseTuplesLine(line, &o.digest)) bad = true;
    } else if (line.rfind("{\"trailer\": {", 0) == 0) {
      trailer_seen = true;
      o.status_ok = line.find("\"status\": \"ok\"") != std::string::npos;
      o.partial = line.find("\"partial\": true") != std::string::npos;
      o.epoch = static_cast<uint64_t>(NumberField(line, "epoch"));
      o.answers = static_cast<uint64_t>(NumberField(line, "answers"));
      o.chunks = static_cast<uint64_t>(NumberField(line, "chunks"));
      o.nodes = static_cast<uint64_t>(NumberField(line, "nodes"));
      o.iterations = static_cast<uint64_t>(NumberField(line, "iterations"));
      o.fetches = static_cast<uint64_t>(NumberField(line, "fetches"));
      o.eval_ms = NumberField(line, "eval_ms");
      o.total_ms = NumberField(line, "total_ms");
    } else {
      bad = true;
    }
  }
  o.well_formed = trailer_seen && !bad;
  return o;
}

// ------------------------------------------------------------ the stack

/// Member order is teardown order reversed: the server stops before the
/// service joins its workers, and both before the storage they borrow.
struct Stack {
  std::unique_ptr<binchain::Database> db;           // read-only workloads
  std::unique_ptr<SnapshotManager> manager;         // live_durable
  std::unique_ptr<QueryService> service;
  std::unique_ptr<binchain::server::DataServer> server;
};

struct SetupTimes {
  double total_s = 0;
  double parse_ms = 0, recover_ms = 0, construct_ms = 0, start_ms = 0;
  double first_query_ms = 0;
};

/// Builds the stack for `w` and waits for the first 200 on /v1/query.
/// `wal_dir` is the recovered log directory (live_durable only).
std::unique_ptr<Stack> BuildStack(const Workload& w, const std::string& wal_dir,
                                  SetupTimes* t, HttpResponse* probe) {
  auto stack = std::make_unique<Stack>();
  const std::string text = ProgramText(w.rules, w.genesis);
  QueryService::Options opts;
  opts.num_threads = kServiceThreads;
  opts.answer_cache_bytes = kCacheBytes;

  const Clock::time_point t0 = Clock::now();
  if (wal_dir.empty()) {
    stack->db = std::make_unique<binchain::Database>();
    auto parsed = binchain::ParseProgram(text, stack->db->symbols());
    if (!parsed.ok()) throw std::runtime_error(parsed.status().message());
    const Clock::time_point t1 = Clock::now();
    stack->service = std::make_unique<QueryService>(stack->db.get(), parsed.value(), opts);
    t->parse_ms = MsBetween(t0, t1);
    t->construct_ms = MsBetween(t1, Clock::now());
  } else {
    auto loaded = binchain::durability::RecoveryManager::Load(wal_dir);
    if (!loaded.ok()) throw std::runtime_error(loaded.status().message());
    std::unique_ptr<binchain::durability::RecoveryManager> recovery = loaded.take();
    std::unique_ptr<binchain::Database> genesis = recovery->BuildGenesis();
    const Clock::time_point t1 = Clock::now();
    auto parsed = binchain::ParseProgram(text, genesis->symbols());
    if (!parsed.ok()) throw std::runtime_error(parsed.status().message());
    const Clock::time_point t2 = Clock::now();
    stack->manager = std::make_unique<SnapshotManager>(std::move(genesis));
    stack->service = std::make_unique<QueryService>(stack->manager.get(), recovery.get(),
                                                    parsed.value(), opts);
    const Clock::time_point t3 = Clock::now();
    binchain::durability::WalOptions wal_opts;  // fdatasync per commit
    if (!stack->service->status().ok()) {
      throw std::runtime_error(stack->service->status().message());
    }
    if (binchain::Status st = stack->service->FinishRecovery(wal_opts); !st.ok()) {
      throw std::runtime_error("recovery: " + st.message());
    }
    const Clock::time_point t4 = Clock::now();
    t->parse_ms = MsBetween(t1, t2);
    t->construct_ms = MsBetween(t2, t3);
    t->recover_ms = MsBetween(t0, t1) + MsBetween(t3, t4);
    if (stack->manager->epoch() != w.logged.size()) {
      throw std::runtime_error("recovered epoch " + std::to_string(stack->manager->epoch()) +
                               ", expected " + std::to_string(w.logged.size()));
    }
  }
  if (!stack->service->status().ok()) {
    throw std::runtime_error(stack->service->status().message());
  }
  binchain::server::DataServerOptions dopts;
  dopts.handler_threads = kHandlerThreads;
  stack->server = std::make_unique<binchain::server::DataServer>(stack->service.get(), dopts);
  const Clock::time_point ts = Clock::now();
  if (binchain::Status st = stack->server->Start(); !st.ok()) {
    throw std::runtime_error("data server: " + st.message());
  }
  const Clock::time_point tq = Clock::now();
  t->start_ms = MsBetween(ts, tq);
  {
    // Scoped: a closed connection releases its handler thread.
    HttpConnection conn(stack->server->port());
    conn.Post("/v1/query", w.keys[w.probe].Body(true), probe);
  }
  if (probe->status != 200) {
    throw std::runtime_error("first query answered " + std::to_string(probe->status));
  }
  t->first_query_ms = MsBetween(tq, probe->head_at);
  t->total_s = MsBetween(t0, probe->head_at) / 1000.0;
  return stack;
}

/// The set-up split a QueryService constructor performs internally, timed
/// call by call on a throwaway database built from the same program.
struct SetupSplit {
  double prepare_ms = 0, freeze_ms = 0, artifacts_ms = 0;
};

SetupSplit TimeSetupSplit(const Workload& w) {
  SetupSplit s;
  binchain::Database db;
  auto parsed = binchain::ParseProgram(ProgramText(w.rules, w.genesis), db.symbols());
  if (!parsed.ok()) throw std::runtime_error(parsed.status().message());
  const Clock::time_point t0 = Clock::now();
  auto plan = binchain::PrepareProgram(&db, parsed.take(), /*compile_machines=*/true);
  if (!plan.ok()) throw std::runtime_error(plan.status().message());
  const Clock::time_point t1 = Clock::now();
  db.Freeze();
  const Clock::time_point t2 = Clock::now();
  auto artifacts = binchain::EvalArtifacts::BuildFor(db, plan.value(), nullptr);
  const Clock::time_point t3 = Clock::now();
  s.prepare_ms = MsBetween(t0, t1);
  s.freeze_ms = MsBetween(t1, t2);
  s.artifacts_ms = MsBetween(t2, t3);
  return s;
}

/// Writes `batches` as committed WAL batches 1..n into `dir`, through the
/// durability layer's own append side (what a crashed process leaves).
void WriteLog(const std::string& dir, const std::vector<Batch>& batches) {
  fs::create_directories(dir);
  auto wal = binchain::durability::Wal::Open(dir);
  if (!wal.ok()) throw std::runtime_error(wal.status().message());
  for (size_t b = 0; b < batches.size(); ++b) {
    for (const FactOp& op : batches[b].ops) {
      std::vector<std::string> args = {op.fact[1], op.fact[2]};
      binchain::Status st = op.retract ? wal.value()->StageDelete(op.fact[0], args)
                                       : wal.value()->StageAdd(op.fact[0], args);
      if (!st.ok()) throw std::runtime_error(st.message());
    }
    if (binchain::Status st = wal.value()->Commit(b + 1); !st.ok()) {
      throw std::runtime_error(st.message());
    }
  }
}

uint64_t CounterValue(const char* name) {
  return binchain::obs::Registry::Global().GetCounter(name, "")->Value();
}

/// The process's peak resident set size so far (VmHWM), in MB.
double PeakRssMb() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------------- the run

enum Phase : uint8_t { kSetup, kWarm, kOpen, kClosed };

struct Recorded {
  uint32_t key = 0;
  bool buffered = false;
  Phase phase = kSetup;
  Outcome o;
  RequestTiming t;
  bool ok = false;  // verdict after the oracle
};

struct PublishRecord {
  PublishStats stats;
  double wall_ms = 0;
  double start_ms = 0;  // from the run's time origin
  uint64_t ops = 0;
};

class Run {
 public:
  explicit Run(Flags flags)
      : f_(std::move(flags)),
        workers_(std::min<size_t>(kConnections,
                                  std::max(1u, std::thread::hardware_concurrency()))),
        open_s_(f_.seconds * kOpenShare),
        closed_s_(f_.seconds - open_s_),
        w_(MakeWorkload(f_.workload, f_.seed, open_s_, closed_s_)),
        origin_(Clock::now()) {
    for (const QueryKey& k : w_.keys) bodies_.push_back({k.Body(true), k.Body(false)});
  }

  int Execute();

 private:
  double Now() const { return MsBetween(origin_, Clock::now()); }
  double At(Clock::time_point t) const { return MsBetween(origin_, t); }

  void Setup();
  void Serve();
  void Publisher(std::atomic<bool>* stop);
  /// Fresh client connections, one per worker, connected now.
  void OpenConnections();
  IssueFn Issuer(const std::vector<Request>& stream, Phase phase,
                 std::vector<std::vector<Recorded>>* per_worker);
  void RecordRequestSpans(uint64_t request, const Outcome& o, Clock::time_point intended,
                          Clock::time_point sent, Clock::time_point done);
  void CheckAnswers();
  void CheckTraffic();
  void Fail(const std::string& why) {
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    correct_ = false;
  }
  void Report();

  const Flags f_;
  const size_t workers_;  // client threads, one connection each
  const double open_s_, closed_s_;
  const Workload w_;
  const Clock::time_point origin_;
  std::vector<std::pair<std::string, std::string>> bodies_;  // stream, buffered

  std::string work_dir_;  // WAL copies (live_durable)
  std::unique_ptr<Stack> stack_;
  std::vector<std::unique_ptr<HttpConnection>> conns_;  // one per worker
  std::vector<SetupTimes> setups_;
  std::vector<SetupSplit> splits_;
  std::vector<Recorded> records_;  // every request, all phases
  std::vector<PublishRecord> publishes_;
  std::mutex publish_mu_;
  std::condition_variable publish_cv_;

  // Measured-phase deltas and observations.
  binchain::cache::CacheSnapshot cache0_, cache1_;
  uint64_t memo0_ = 0, memo1_ = 0;
  uint64_t wal0_ = 0, wal1_ = 0;
  double closed_wall_s_ = 0;
  double peak_rss_mb_ = 0;
  std::vector<RequestTiming> open_timings_;

  SpanLog spans_;
  std::atomic<uint64_t> next_request_{1};
  uint64_t open_ids_ = 0, closed_ids_ = 0;  // first span request id per phase
  bool correct_ = true;
};

void Run::Setup() {
  std::string pristine;
  if (!w_.logged.empty()) {
    work_dir_ = f_.run_dir + "/" + w_.name + "-seed" + std::to_string(f_.seed) + "-" +
                std::to_string(::getpid());
    pristine = work_dir_ + "/pristine";
    WriteLog(pristine, w_.logged);
  }
  for (size_t r = 0; r < kSetups; ++r) {
    std::string wal_dir;
    if (!pristine.empty()) {
      wal_dir = work_dir_ + "/setup" + std::to_string(r);
      fs::copy(pristine, wal_dir, fs::copy_options::recursive);
    }
    stack_.reset();  // tear the previous stack down before timing the next
    SetupTimes t;
    HttpResponse probe;
    const double start = Now();
    stack_ = BuildStack(w_, wal_dir, &t, &probe);
    setups_.push_back(t);
    Recorded rec;
    rec.key = w_.probe;
    rec.phase = kSetup;
    rec.o = ParseResponse(probe);
    records_.push_back(rec);
    if (f_.trace) {
      splits_.push_back(TimeSetupSplit(w_));
      const uint64_t req = next_request_++;
      uint64_t root = spans_.Add("setup", 0, req, start, start + t.total_s * 1000.0);
      double at = start;
      auto child = [&](const char* name, double ms) {
        spans_.Add(name, root, req, at, at + ms);
        at += ms;
      };
      if (t.recover_ms > 0) child("durability.recover", t.recover_ms);
      child("datalog.parse", t.parse_ms);
      child("service.construct", t.construct_ms);
      child("server.start", t.start_ms);
      child("setup.first_query", t.first_query_ms);
    }
  }
}

void Run::RecordRequestSpans(uint64_t request, const Outcome& o,
                             Clock::time_point intended, Clock::time_point sent,
                             Clock::time_point done) {
  const double i = At(intended), s = At(sent), d = At(done);
  uint64_t root = spans_.Add("request", 0, request, i, d);
  if (s > i) spans_.Add("load.queue", root, request, i, s);
  uint64_t server = spans_.Add("server", root, request, s, d);
  if (o.http != 200) return;
  // The trailer's accounting, laid inside the server span: the service
  // span covers submission to completion (total_ms), its eval child the
  // evaluation proper at its end (eval_ms); service self time is then
  // queue wait plus cache and fan-out work.
  const double svc_end = std::min(d, s + o.total_ms);
  uint64_t service = spans_.Add("service", server, request, s, svc_end);
  if (o.eval_ms > 0) {
    spans_.Add("eval", service, request, std::max(s, svc_end - o.eval_ms), svc_end);
  }
}

void Run::OpenConnections() {
  conns_.clear();
  for (size_t c = 0; c < workers_; ++c) {
    conns_.push_back(std::make_unique<HttpConnection>(stack_->server->port()));
    conns_.back()->Reconnect();
  }
}

IssueFn Run::Issuer(const std::vector<Request>& stream, Phase phase,
                    std::vector<std::vector<Recorded>>* per_worker) {
  return [this, &stream, phase, per_worker](
             size_t worker, size_t item, Clock::time_point intended,
             Clock::time_point* first, Clock::time_point* done) {
    const Clock::time_point sent = Clock::now();
    const Request& rq = stream[item];
    HttpResponse resp;
    const auto& body = bodies_[rq.key];
    conns_[worker]->Post("/v1/query", rq.buffered ? body.second : body.first, &resp);
    *done = resp.done_at;
    *first = resp.frames > 0 ? resp.first_payload_at : resp.done_at;
    Recorded rec;
    rec.key = rq.key;
    rec.buffered = rq.buffered;
    rec.phase = phase;
    rec.o = ParseResponse(resp);
    if (f_.trace) RecordRequestSpans(next_request_++, rec.o, intended, sent, *done);
    (*per_worker)[worker].push_back(std::move(rec));
  };
}

void Run::Publisher(std::atomic<bool>* stop) {
  const Clock::time_point start = Clock::now();
  for (size_t k = 0; k < w_.live.size(); ++k) {
    auto due = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               w_.publish_interval_ms * static_cast<double>(k)));
    {
      std::unique_lock<std::mutex> lock(publish_mu_);
      if (publish_cv_.wait_until(lock, due, [stop] { return stop->load(); })) return;
    }
    const Batch& b = w_.live[k];
    for (const FactOp& op : b.ops) {
      std::vector<std::string> args = {op.fact[1], op.fact[2]};
      if (op.retract) {
        stack_->manager->DeleteFact(op.fact[0], std::move(args));
      } else {
        stack_->manager->AddFact(op.fact[0], std::move(args));
      }
    }
    PublishRecord rec;
    rec.start_ms = Now();
    const Clock::time_point t0 = Clock::now();
    rec.stats = stack_->manager->Publish();
    rec.wall_ms = MsBetween(t0, Clock::now());
    rec.ops = b.ops.size();
    publishes_.push_back(rec);
    if (f_.trace) {
      const uint64_t req = next_request_++;
      uint64_t root = spans_.Add("publish", 0, req, rec.start_ms, rec.start_ms + rec.wall_ms);
      double at = rec.start_ms;
      for (auto [name, ms] : {std::pair<const char*, double>{"live.build", rec.stats.build_ms},
                              {"live.freeze", rec.stats.freeze_ms},
                              {"live.artifact", rec.stats.artifact_ms},
                              {"durability.commit", rec.stats.commit_ms}}) {
        spans_.Add(name, root, req, at, at + ms);
        at += ms;
      }
    }
    if (!rec.stats.status.ok()) return;
  }
}

void Run::Serve() {
  const size_t workers = workers_;
  auto collect = [this](std::vector<std::vector<Recorded>>& per_worker,
                        const std::vector<RequestTiming>& timings) {
    // Pair each worker's records (issue order) with its timings.
    std::vector<size_t> next(per_worker.size(), 0);
    for (const RequestTiming& t : timings) {
      Recorded rec = std::move(per_worker[t.worker][next[t.worker]++]);
      rec.t = t;
      records_.push_back(std::move(rec));
    }
  };

  // Warm-up: the workload's hot set once, untimed, so the measured phases
  // start from the cache's steady state (answers are still checked).
  if (!w_.warm.empty()) {
    std::vector<Request> warm;
    for (uint32_t k : w_.warm) warm.push_back({k, false});
    // One worker, so the hot set's evaluations run one at a time and
    // peak_rss_mb does not hinge on which heavy keys happened to be
    // evaluated side by side. Each request is due 1 ms after the last and
    // in a segment of its own, so it goes out on a fresh connection and
    // does not sit out the delayed-ACK stall of back-to-back requests.
    std::vector<double> due(warm.size());
    for (size_t i = 0; i < due.size(); ++i) due[i] = static_cast<double>(i);
    std::vector<std::vector<Recorded>> per_worker(workers);
    OpenConnections();
    collect(per_worker, RunOpenLoop(due, 1, Issuer(warm, kWarm, &per_worker), Clock::now(),
                                    1.0, [this](size_t worker) { conns_[worker]->Reconnect(); }));
  }

  cache0_ = stack_->service->answer_cache()->Snapshot();
  memo0_ = CounterValue("binchain_engine_memo_hits_total");
  wal0_ = stack_->service->wal() != nullptr ? stack_->service->wal()->log_bytes() : 0;

  std::atomic<bool> stop{false};
  std::thread publisher;
  if (w_.publish_interval_ms > 0) publisher = std::thread([&] { Publisher(&stop); });

  open_ids_ = next_request_.load();
  {
    // One continuous schedule. Clients come and go: at each segment
    // boundary every worker, on its own, swaps its connection for a fresh
    // one before waiting for its next request.
    std::vector<std::vector<Recorded>> per_worker(workers);
    OpenConnections();
    open_timings_ = RunOpenLoop(w_.open_due_ms, workers, Issuer(w_.open, kOpen, &per_worker),
                                Clock::now(), kOpenSegmentMs,
                                [this](size_t worker) { conns_[worker]->Reconnect(); });
    collect(per_worker, open_timings_);
  }
  closed_ids_ = next_request_.load();
  {
    std::vector<std::vector<Recorded>> per_worker(workers);
    OpenConnections();
    auto timings = RunClosedLoop(closed_s_, w_.closed.size(), workers,
                                 Issuer(w_.closed, kClosed, &per_worker));
    double last = 0;
    for (const RequestTiming& t : timings) last = std::max(last, t.done_ms);
    closed_wall_s_ = last / 1000.0;
    collect(per_worker, timings);
  }

  if (publisher.joinable()) {
    {
      std::lock_guard<std::mutex> lock(publish_mu_);
      stop.store(true);
    }
    publish_cv_.notify_all();
    publisher.join();
  }
  cache1_ = stack_->service->answer_cache()->Snapshot();
  memo1_ = CounterValue("binchain_engine_memo_hits_total");
  wal1_ = stack_->service->wal() != nullptr ? stack_->service->wal()->log_bytes() : 0;
  peak_rss_mb_ = PeakRssMb();
  conns_.clear();
  stack_.reset();
}

void Run::CheckAnswers() {
  // Epochs to check against the oracle: all of a read-only run's (one),
  // a seeded sample of a live run's plus its first and last.
  std::set<uint64_t> seen;
  for (const Recorded& r : records_) {
    if (r.o.http == 200) seen.insert(r.o.epoch);
  }
  std::set<uint64_t> check;
  const size_t sample = kOracleEpochs;
  if (seen.size() <= sample) {
    check = seen;
  } else {
    std::vector<uint64_t> all(seen.begin(), seen.end());
    check.insert(all.front());
    check.insert(all.back());
    binchain::Rng rng(f_.seed ^ 0x6f7261636c65ull);
    while (check.size() < sample) check.insert(all[rng.Below(all.size())]);
  }

  const Clock::time_point t0 = Clock::now();
  std::map<uint64_t, std::vector<AnswerDigest>> expected;
  FactSet facts = w_.genesis;
  std::vector<const Batch*> order;
  for (const Batch& b : w_.logged) order.push_back(&b);
  for (const Batch& b : w_.live) order.push_back(&b);
  for (uint64_t epoch = 0; !check.empty() && epoch <= *check.rbegin(); ++epoch) {
    if (epoch > 0) {
      if (epoch > order.size()) break;
      ApplyBatch(*order[epoch - 1], &facts);
    }
    if (check.count(epoch) == 0) continue;
    std::string error;
    expected[epoch] = ExpectedAnswers(ProgramText(w_.rules, facts), w_.keys, &error);
    if (!error.empty()) Fail(error);
  }

  // Every 200 response: well-formed, ok, complete (no request sets a
  // deadline, so none may be partial), its tuple lines agreeing with its
  // own trailer, equal to every other response for the same key and epoch
  // (streamed vs buffered, evaluated vs replayed), and to the oracle where
  // checked. Any miss is a wrong answer and fails the run; a refusal or a
  // transport error only counts as failed.
  std::map<std::pair<uint32_t, uint64_t>, AnswerDigest> first_seen;
  size_t mismatches = 0, malformed = 0, checked = 0;
  for (Recorded& r : records_) {
    const Outcome& o = r.o;
    if (o.http != 200) continue;
    r.ok = o.well_formed && o.status_ok && !o.partial && o.digest.count == o.answers &&
           o.lines == o.chunks;
    if (!r.ok) {
      ++malformed;
      continue;
    }
    auto [it, fresh] = first_seen.emplace(std::make_pair(r.key, o.epoch), o.digest);
    if (!fresh && it->second != o.digest) r.ok = false;
    auto ex = expected.find(o.epoch);
    if (ex != expected.end() && !ex->second.empty()) {
      ++checked;
      if (ex->second[r.key] != o.digest) r.ok = false;
    }
    if (!r.ok) ++mismatches;
  }
  uint64_t tuples = 0;
  if (!expected.empty()) {
    for (const AnswerDigest& d : expected.begin()->second) tuples += d.count;
  }
  std::fprintf(stderr,
               "oracle: %zu epoch(s) rebuilt in %.0f ms (%zu keys, %llu answer tuples at "
               "the first), %zu responses checked against it, %zu mismatched, %zu 200s "
               "incomplete or inconsistent\n",
               expected.size(), MsBetween(t0, Clock::now()), w_.keys.size(),
               static_cast<unsigned long long>(tuples), checked, mismatches, malformed);
  if (mismatches > 0) Fail(std::to_string(mismatches) + " response(s) disagree with the oracle");
  if (malformed > 0) {
    Fail(std::to_string(malformed) +
         " 200 response(s) malformed, not ok, partial, or disagreeing with their trailer");
  }
}

void Run::CheckTraffic() {
  const double hits = static_cast<double>(cache1_.hits - cache0_.hits);
  const double misses = static_cast<double>(cache1_.misses - cache0_.misses);
  const double hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0;
  size_t buffered = 0, streamed = 0;
  for (const Recorded& r : records_) {
    if (r.phase == kOpen || r.phase == kClosed) (r.buffered ? buffered : streamed)++;
  }
  if (w_.name == "bound_uniform") {
    const double ceiling = w_.max_hit_ratio;
    if (hit_ratio >= ceiling) {
      Fail("bound_uniform: hit ratio " + std::to_string(hit_ratio) + " >= ceiling " +
           std::to_string(ceiling));
    }
    // Fig 7(b) source-bound answers arrive one per fixpoint iteration, so
    // an evaluated stream of them must come in more than one chunk.
    size_t multi = 0, single = 0;
    for (const Recorded& r : records_) {
      const QueryKey& k = w_.keys[r.key];
      if (!r.ok || r.buffered || !r.o.evaluated() || k.family != "fig7b" ||
          k.source.empty() || r.o.answers < 2) {
        continue;
      }
      (r.o.lines >= 2 ? multi : single)++;
    }
    if (multi == 0 || single > 0) {
      Fail("bound_uniform: " + std::to_string(single) +
           " multi-iteration stream(s) arrived in one chunk, " + std::to_string(multi) +
           " in several");
    }
  } else if (w_.name == "live_durable") {
    // The oracle compares streamed with buffered payloads per key and epoch.
    if (buffered == 0 || streamed == 0) Fail("live_durable: only one response mode occurred");
    size_t refused = 0;
    for (size_t k = 0; k < publishes_.size(); ++k) {
      const PublishStats& s = publishes_[k].stats;
      if (!s.status.ok() || s.epoch != w_.logged.size() + k + 1) ++refused;
    }
    if (publishes_.empty() || refused > 0) {
      Fail("live_durable: " + std::to_string(refused) + " of " +
           std::to_string(publishes_.size()) + " publishes did not commit in order");
    }
    if (cache1_.invalidations == cache0_.invalidations) {
      Fail("live_durable: publishes invalidated no cache entry");
    }
    // A survivor hit: a replayed answer at epoch e for a key nobody
    // evaluated at e, where e's batch touched the other predicate — the
    // entry outlived that publish. Both predicates must show some.
    std::set<std::pair<uint32_t, uint64_t>> evaluated_at;
    for (const Recorded& r : records_) {
      if (r.ok && r.o.evaluated()) evaluated_at.insert({r.key, r.o.epoch});
    }
    std::map<std::string, size_t> survivors;
    const size_t logged = w_.logged.size();
    for (const Recorded& r : records_) {
      const uint64_t e = r.o.epoch;
      if (!r.ok || r.o.evaluated() || e <= logged || e - logged > w_.live.size()) continue;
      if (evaluated_at.count({r.key, e}) != 0) continue;
      const std::string& pred = w_.keys[r.key].pred;
      if (w_.live[e - logged - 1].side != pred) ++survivors[pred];
    }
    for (const char* pred : {"sg", "path"}) {
      if (survivors[pred] == 0) {
        Fail(std::string("live_durable: no ") + pred +
             " cache entry survived a publish to the other predicate");
      }
    }
    std::fprintf(stderr, "live_durable: survivor hits sg %zu, path %zu\n", survivors["sg"],
                 survivors["path"]);
  }
  std::fprintf(stderr, "traffic: hit ratio %.3f (%.0f hits, %.0f misses), %zu streamed, %zu buffered\n",
               hit_ratio, hits, misses, streamed, buffered);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void Run::Report() {
  std::vector<Metric> m;
  size_t attempted = 0, failed = 0;
  std::vector<double> lat, first, late;
  for (const Recorded& r : records_) {
    if (r.phase != kOpen && r.phase != kClosed) continue;
    ++attempted;
    if (!r.ok) ++failed;
    if (r.phase != kOpen) continue;
    lat.push_back(r.ok ? r.t.latency_ms() : kFailedLatencyMs);
    first.push_back(r.ok ? r.t.first_chunk_ms() : kFailedLatencyMs);
    late.push_back(r.t.late_ms());
  }
  size_t stalled = 0;
  for (double l : lat) stalled += l >= kStallMs;
  std::fprintf(stderr, "open loop: %zu requests; latency ms p50 %.3f p90 %.3f p95 %.3f p98 %.3f "
               "p99 %.3f max %.3f; %zu at >= %.0f ms; late p99 %.3f ms\n",
               lat.size(), Quantile(lat, 0.5), Quantile(lat, 0.9), Quantile(lat, 0.95),
               Quantile(lat, 0.98), Quantile(lat, 0.99), Quantile(lat, 1.0), stalled, kStallMs,
               Quantile(late, 0.99));
  // Whether a request is among the first exchanges of a fresh connection
  // (which the kernel may quick-ACK) and how often each position stalls.
  constexpr size_t kPositions = 4;
  size_t at[kPositions] = {}, stalled_at[kPositions] = {}, fresh = 0;
  for (const Recorded& r : records_) {
    if (r.phase != kOpen) continue;
    const size_t pos = std::min(r.t.conn_seq, kPositions - 1);
    ++at[pos];
    stalled_at[pos] += !r.ok || r.t.latency_ms() >= kStallMs;
    fresh += r.t.conn_seq == 0;
  }
  std::fprintf(stderr, "open loop by position on its connection (requests, stalled):");
  for (size_t p = 0; p < kPositions; ++p) {
    std::fprintf(stderr, " %s%zu: %zu, %zu;", p + 1 == kPositions ? ">=" : "", p, at[p],
                 stalled_at[p]);
  }
  std::fprintf(stderr, "\n");

  if (!f_.trace) {
    std::vector<double> setup_s;
    for (const SetupTimes& t : setups_) setup_s.push_back(t.total_s);
    size_t closed_ok = 0;
    for (const Recorded& r : records_) closed_ok += r.phase == kClosed && r.ok;
    m.push_back({"setup_s", Median(setup_s), "s"});
    m.push_back({"query_p50_ms", Quantile(lat, 0.50), "ms"});
    m.push_back({"query_p99_ms", Quantile(lat, 0.99), "ms"});
    m.push_back({"first_chunk_p50_ms", Quantile(first, 0.50), "ms"});
    m.push_back({"first_chunk_p99_ms", Quantile(first, 0.99), "ms"});
    m.push_back({"throughput_qps",
                 closed_wall_s_ > 0 ? static_cast<double>(closed_ok) / closed_wall_s_ : 0,
                 "req/s"});
    m.push_back({"ok_frac",
                 attempted > 0 ? static_cast<double>(attempted - failed) / attempted : 0,
                 "ratio"});
    m.push_back({"peak_rss_mb", peak_rss_mb_, "MB"});
  } else {
    // Per-layer split from the spans of this (traced) run.
    auto q = [](const std::vector<double>& v, double p) { return Quantile(v, p); };
    // The split of open-loop latency (what query_p50/p99 measure), plus
    // the closed-loop phase's server and queue share at capacity.
    const uint64_t o0 = open_ids_, o1 = closed_ids_;
    std::vector<double> server_self = spans_.SelfTimes("server", o0, o1);
    std::vector<double> service_total = spans_.Durations("service", o0, o1);
    std::vector<double> queue_wait = spans_.SelfTimes("service", o0, o1);
    // Evaluated requests are few where the cache hits, so the eval split
    // pools every phase (warm-up, open, closed) and stops at p90.
    std::vector<double> eval_ms = spans_.Durations("eval");
    std::vector<double> request_ms = spans_.Durations("request", o0, o1);
    std::vector<double> closed_server = spans_.SelfTimes("server", o1);
    std::vector<double> closed_wait = spans_.SelfTimes("service", o1);
    double bytes = 0, frames = 0, rejected = 0, measured = 0;
    double ev = 0, nodes = 0, iterations = 0, answers = 0, fetches = 0;
    for (const Recorded& r : records_) {
      if (r.phase != kOpen && r.phase != kClosed) continue;
      ++measured;
      bytes += static_cast<double>(r.o.bytes);
      frames += static_cast<double>(r.o.frames);
      rejected += r.o.http == 429 || r.o.http == 503;
      if (r.ok && r.o.evaluated()) {
        ++ev;
        nodes += static_cast<double>(r.o.nodes);
        iterations += static_cast<double>(r.o.iterations);
        answers += static_cast<double>(r.o.answers);
        fetches += static_cast<double>(r.o.fetches);
      }
    }
    auto per = [](double a, double b) { return b > 0 ? a / b : 0; };
    const double hits = static_cast<double>(cache1_.hits - cache0_.hits);
    const double misses = static_cast<double>(cache1_.misses - cache0_.misses);
    m.push_back({"server.self_ms.p50", q(server_self, 0.5), "ms"});
    m.push_back({"server.self_ms.p99", q(server_self, 0.99), "ms"});
    m.push_back({"server.self_share", per(q(server_self, 0.5), q(request_ms, 0.5)), "ratio"});
    m.push_back({"server.self_ms.closed_p50", q(closed_server, 0.5), "ms"});
    m.push_back({"server.bytes_per_req", per(bytes, measured), "bytes"});
    m.push_back({"server.chunks_per_req", per(frames, measured), "count"});
    m.push_back({"server.rejected", rejected, "count"});
    m.push_back({"service.total_ms.p50", q(service_total, 0.5), "ms"});
    m.push_back({"service.total_ms.p99", q(service_total, 0.99), "ms"});
    m.push_back({"service.queue_wait_ms.p50", q(queue_wait, 0.5), "ms"});
    m.push_back({"service.queue_wait_ms.p99", q(queue_wait, 0.99), "ms"});
    m.push_back({"service.queue_wait_ms.closed_p98", q(closed_wait, 0.98), "ms"});
    m.push_back({"cache.hit_ratio", per(hits, hits + misses), "ratio"});
    m.push_back({"cache.hits", hits, "count"});
    m.push_back({"cache.misses", misses, "count"});
    m.push_back({"cache.evictions", static_cast<double>(cache1_.evictions - cache0_.evictions),
                 "count"});
    m.push_back({"cache.collapsed", static_cast<double>(cache1_.collapsed - cache0_.collapsed),
                 "count"});
    m.push_back({"cache.invalidations",
                 static_cast<double>(cache1_.invalidations - cache0_.invalidations), "count"});
    m.push_back({"cache.bytes", static_cast<double>(cache1_.bytes), "bytes"});
    std::fprintf(stderr, "eval: %zu evaluated requests over all phases\n", eval_ms.size());
    m.push_back({"eval.eval_ms.p50", q(eval_ms, 0.5), "ms"});
    m.push_back({"eval.eval_ms.p90", q(eval_ms, 0.9), "ms"});
    m.push_back({"eval.nodes_per_query", per(nodes, ev), "count"});
    m.push_back({"eval.iterations_per_query", per(iterations, ev), "count"});
    m.push_back({"eval.answers_per_node", per(answers, nodes), "ratio"});
    m.push_back({"eval.memo_hits_per_query", per(static_cast<double>(memo1_ - memo0_), ev),
                 "count"});
    m.push_back({"storage.fetches_per_query", per(fetches, ev), "count"});

    std::vector<double> pub, build, freeze, artifact, commit;
    double facts = 0;
    for (const PublishRecord& p : publishes_) {
      pub.push_back(p.wall_ms);
      build.push_back(p.stats.build_ms);
      freeze.push_back(p.stats.freeze_ms);
      artifact.push_back(p.stats.artifact_ms);
      commit.push_back(p.stats.commit_ms);
      facts += static_cast<double>(p.ops);
    }
    m.push_back({"live.publish_ms.p50", q(pub, 0.5), "ms"});
    m.push_back({"live.publish_ms.p99", q(pub, 0.99), "ms"});
    m.push_back({"live.build_ms.p50", q(build, 0.5), "ms"});
    m.push_back({"live.freeze_ms.p50", q(freeze, 0.5), "ms"});
    m.push_back({"live.artifact_ms.p50", q(artifact, 0.5), "ms"});
    m.push_back({"live.artifact_ms.p99", q(artifact, 0.99), "ms"});
    m.push_back({"live.facts_per_publish", per(facts, static_cast<double>(publishes_.size())),
                 "count"});
    m.push_back({"durability.commit_ms.p50", q(commit, 0.5), "ms"});
    m.push_back({"durability.commit_ms.p99", q(commit, 0.99), "ms"});
    m.push_back({"durability.wal_bytes_per_fact", per(static_cast<double>(wal1_ - wal0_), facts),
                 "bytes"});

    std::vector<double> parse, construct, start, recover, prepare, sfreeze, artifacts;
    for (const SetupTimes& t : setups_) {
      parse.push_back(t.parse_ms);
      construct.push_back(t.construct_ms);
      start.push_back(t.start_ms);
      recover.push_back(t.recover_ms);
    }
    for (const SetupSplit& s : splits_) {
      prepare.push_back(s.prepare_ms);
      sfreeze.push_back(s.freeze_ms);
      artifacts.push_back(s.artifacts_ms);
    }
    m.push_back({"durability.recover_ms", Median(recover), "ms"});
    m.push_back({"datalog.parse_ms", Median(parse), "ms"});
    m.push_back({"eval.prepare_ms", Median(prepare), "ms"});
    m.push_back({"storage.freeze_ms", Median(sfreeze), "ms"});
    m.push_back({"eval.artifacts_build_ms", Median(artifacts), "ms"});
    m.push_back({"service.construct_ms", Median(construct), "ms"});
    m.push_back({"server.start_ms", Median(start), "ms"});
    m.push_back({"load.late_p99_ms", q(late, 0.99), "ms"});
    m.push_back({"load.max_outstanding", static_cast<double>(MaxOutstanding(open_timings_)),
                 "count"});
    m.push_back({"load.fresh_conn_share", per(static_cast<double>(fresh), lat.size()), "ratio"});
    // The traced run's own open-loop latency: minus the untraced run's
    // query_p50_ms / query_p99_ms, it is the tracing overhead.
    m.push_back({"trace.query_p50_ms", q(lat, 0.5), "ms"});
    m.push_back({"trace.query_p99_ms", q(lat, 0.99), "ms"});

    const std::string path =
        f_.run_dir + "/" + w_.name + "-seed" + std::to_string(f_.seed) + ".trace.json";
    if (!spans_.WriteChromeTrace(path)) Fail("cannot write " + path);
    std::fprintf(stderr, "spans: %zu written to %s\n", spans_.size(), path.c_str());
  }

  std::string json = "{\"correct\": " + std::string(correct_ ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < m.size(); ++i) {
    std::printf("%-30s %14.6f %s\n", m[i].name.c_str(), m[i].value, m[i].unit.c_str());
    char num[64];
    std::snprintf(num, sizeof(num), "%.10g", m[i].value);
    json += (i ? ", " : "") + JsonString(m[i].name) + ": {\"value\": " + num +
            ", \"unit\": " + JsonString(m[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Run::Execute() {
  fs::create_directories(f_.run_dir);
  std::fprintf(stderr,
               "perfbench %s seed %llu: %zu keys, %zu open-loop requests over %.1f s, "
               "closed loop %.1f s, %zu logged + %zu live batches\n",
               w_.name.c_str(), static_cast<unsigned long long>(f_.seed), w_.keys.size(),
               w_.open.size(), open_s_, closed_s_, w_.logged.size(), w_.live.size());
  Setup();
  Serve();
  if (!work_dir_.empty()) fs::remove_all(work_dir_);
  CheckAnswers();
  CheckTraffic();
  Report();
  return correct_ ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    perfbench::Run run(perfbench::ParseFlags(argc, argv));
    return run.Execute();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
