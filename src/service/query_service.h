// Concurrent query service: async submission over a frozen database
// snapshot. The paper's engine answers one p(a, Y) query at a time; this
// layer turns it into a reusable service in the sense of the QSQ-style
// evaluator frameworks — it owns a fixed thread pool fed by a bounded
// submission queue, one evaluation context per worker (QueryEngine with its
// own term pool, view registry and reset-and-reuse scratch), and the freeze
// step that makes the shared storage safe to read concurrently. The
// program-derived artifacts — the Lemma 1 equation system, the inverted
// system, and every compiled machine M(e_p) — are built once and shared
// read-only by all workers, so startup cost no longer scales with the
// thread count.
//
// Submission is future-based: Submit() enqueues one query and returns a
// QueryFuture; SubmitBatch() enqueues a whole batch and returns a
// BatchHandle with per-query futures plus an optional completion callback
// that fires (on the worker that finishes last) with the batch aggregates.
// The queue has a configurable high-water mark: submissions past it are
// answered immediately with StatusCode::kOverloaded instead of queueing
// without bound. The blocking Eval/EvalBatch calls are thin wrappers over
// the same submission core; they wait for queue room (backpressure)
// instead of shedding, so batch clients keep their all-queries-answered
// contract.
//
// Identical queries are not evaluated twice at the same time. A flight
// table keyed by (RequestKey, epoch) records every evaluation the pool has
// accepted; an identical submission on the same epoch — from the same
// batch, another batch, or another client — parks on that flight and
// replays its answer (trace.collapsed) instead of evaluating again, unless
// its own deadline is tighter than the flight's. If the flight's leader is
// cancelled or runs out of time, one waiter takes the evaluation over.
// This holds with the answer cache on or off; the cache only adds reuse
// of finished answers.
//
// Every request carries a CancelToken for its whole lifetime: a deadline
// armed at submission, and a flag flipped by QueryFuture::Cancel() (or by
// dropping the future unconsumed). A queued request whose token trips is
// answered without evaluating; an in-flight one unwinds at the engine's
// next cancellation point with kDeadlineExceeded/kCancelled and whatever
// partial answer set the traversal had gathered (QueryResponse::partial).
//
// Construction performs every mutating step up front, on the calling
// thread: program facts are loaded, the shared plan transforms the program
// and compiles all machines (interning whatever symbols that needs), the
// database is frozen, and the epoch's EvalArtifacts set — snapshot-owned
// adjacency memos, closure and candidate-source caches — is built and
// attached to it. From then on workers only read shared state (plan +
// artifacts); everything they write — term pools, engine scratch, the
// thread-local counters — is worker-private or fill-once-with-publication,
// so batches scale with cores and results are byte-identical to sequential
// evaluation.
//
// Live mode: constructed over a SnapshotManager instead of a bare
// database, the service serves a *sequence* of epochs. Every batch
// acquires the current epoch handle once at submission, so all its queries
// see one consistent snapshot even while Publish() swaps the tip mid-batch;
// workers re-point their views at a submission's epoch on first use after
// an epoch bump (cheap — nothing program-derived is rebuilt).
#ifndef BINCHAIN_SERVICE_QUERY_SERVICE_H_
#define BINCHAIN_SERVICE_QUERY_SERVICE_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "datalog/ast.h"
#include "eval/engine.h"
#include "eval/query.h"
#include "obs/trace.h"
#include "service/thread_pool.h"
#include "storage/database.h"
#include "util/cancel_token.h"
#include "util/status.h"

namespace binchain {

class SnapshotManager;
namespace cache {
class AnswerCache;
}  // namespace cache
namespace durability {
class RecoveryManager;
class Wal;
struct WalOptions;
}  // namespace durability

/// Evaluation knobs of one query — the single option surface every entry
/// path shares: the wire JSON's "options" object, the CLI's flags, and
/// in-process callers all construct this one type (there used to be three
/// overlapping shapes: a service-level deadline field, an embedded
/// engine-level EvalOptions, and ad-hoc per-caller plumbing). Plain
/// aggregate initialization works; the chained setters exist so call
/// sites can build a request as one expression.
struct QueryOptions {
  /// Evaluation budget in milliseconds, measured from submission. Enforced
  /// twice: a request whose deadline has already passed when a worker picks
  /// it up is answered without evaluating, and an in-flight traversal whose
  /// deadline passes unwinds at the engine's next cancellation point with a
  /// partial answer set. Either way the response carries kDeadlineExceeded
  /// and timed_out. <= 0 disables the deadline.
  double deadline_ms = 0;
  /// Hard cap on fixpoint iterations; 0 = none (see EvalOptions).
  size_t max_iterations = 0;
  /// Compute the |D1| * |D2| cyclic termination bound (Figure 8 data).
  bool use_cyclic_bound = false;
  /// Force per-source evaluation for all-free queries (the ablation).
  bool disable_closure_sharing = false;

  QueryOptions& set_deadline_ms(double v) {
    deadline_ms = v;
    return *this;
  }
  QueryOptions& set_max_iterations(size_t v) {
    max_iterations = v;
    return *this;
  }
  QueryOptions& set_use_cyclic_bound(bool v) {
    use_cyclic_bound = v;
    return *this;
  }
  QueryOptions& set_disable_closure_sharing(bool v) {
    disable_closure_sharing = v;
    return *this;
  }

  /// Projection onto the engine-level knobs. The deadline stays at the
  /// service layer (it becomes the request token's deadline); the sink is
  /// threaded separately (the service wraps it to count chunks).
  EvalOptions ToEvalOptions() const {
    EvalOptions o;
    o.max_iterations = max_iterations;
    o.use_cyclic_bound = use_cyclic_bound;
    o.disable_closure_sharing = disable_closure_sharing;
    return o;
  }
};

/// One query, by name: `pred(source, target)` with an empty string standing
/// for a free variable. All binding patterns of Section 3 are reachable:
/// {pred, "a", ""} is p(a, Y); {pred, "", "b"} is p(X, b) (inverted
/// system); {pred, "a", "b"} is the membership test; {pred, "", ""} is the
/// all-pairs query, or the diagonal p(X, X) when `diagonal` is set.
///
/// The canonical request type: the data plane's JSON body, the CLI, and
/// in-process callers all decode/construct exactly this struct.
struct QueryRequest {
  std::string pred;
  std::string source;  // empty => first argument free
  std::string target;  // empty => second argument free
  /// Both arguments are the same free variable (p(X, X)). Requires empty
  /// source and target.
  bool diagonal = false;
  QueryOptions options;
  /// Streaming: when set, newly derived answer chunks are delivered to
  /// this sink *while the evaluation runs* (on the worker thread), shaped
  /// per the binding pattern; QueryResponse::tuples still carries the
  /// complete sorted set at the end. Replayed answers (cache hits, flight
  /// waiters) arrive as one chunk.
  /// Borrowed: must stay alive until the response is observable (the
  /// future completed / the blocking call returned). Never part of the
  /// request's cache identity.
  AnswerSink* sink = nullptr;

  QueryRequest& set_pred(std::string v) {
    pred = std::move(v);
    return *this;
  }
  QueryRequest& set_source(std::string v) {
    source = std::move(v);
    return *this;
  }
  QueryRequest& set_target(std::string v) {
    target = std::move(v);
    return *this;
  }
  QueryRequest& set_diagonal(bool v) {
    diagonal = v;
    return *this;
  }
  QueryRequest& set_options(QueryOptions v) {
    options = v;
    return *this;
  }
  QueryRequest& set_sink(AnswerSink* v) {
    sink = v;
    return *this;
  }
};

struct QueryResponse {
  Status status = Status::Ok();
  std::vector<Tuple> tuples;  // sorted, deduplicated SymbolId pairs
  EvalStats stats;
  uint64_t fetches = 0;  // EDB retrievals, counted on the worker thread
  /// Epoch id of the snapshot this query evaluated against (0 unless the
  /// service runs in live mode and epochs have advanced).
  uint64_t epoch = 0;
  /// The request's deadline expired — before evaluation started (tuples
  /// empty, no work done) or mid-flight (see `partial`). status carries
  /// kDeadlineExceeded.
  bool timed_out = false;
  /// The request was cancelled through its future (Cancel() or drop);
  /// status carries kCancelled.
  bool cancelled = false;
  /// The traversal was unwound mid-flight: `tuples` is a valid but possibly
  /// incomplete prefix of the answer set (every tuple reported is a true
  /// answer). Only ever set together with timed_out or cancelled.
  bool partial = false;
  /// The query's completed trace span: queue wait vs eval wall time, the
  /// evaluator's effort counters, the epoch, and the terminal disposition.
  /// Filled for every response, including queries shed at admission or
  /// cancelled while queued (those have eval_ms == 0).
  obs::QueryTrace trace;
};

/// Order-independent aggregates over one batch: every field is a sum (or
/// OR) of per-query values, so the totals are identical for any thread
/// count and any scheduling. Result sets are always schedule-independent.
/// Fetch counts are too, now for a stronger reason: probes over the
/// epoch-shared artifacts (adjacency memos, closure caches) cost zero
/// fetches for *every* worker — the artifact builds themselves are
/// accounted at the artifact layer, never against whichever query happened
/// to trigger them. The exception remains demand-join views, whose body
/// enumerations do fetch: the worker that fills a shared demand entry pays
/// its fetches, later probes are free, so per-query fetch counts for
/// non-chain programs depend on scheduling (totals still converge).
/// EvalStats::memo_hits totals are deterministic up to the handful of
/// fill-once cells (closure / source caches): the filling query reports
/// one fewer hit than a replaying one. Failed queries (cancelled, timed
/// out, shed) contribute to their counters but never to the work totals —
/// cancellation timing is inherently nondeterministic.
struct BatchStats {
  uint64_t queries = 0;
  uint64_t failed = 0;   // responses with !status.ok(), timeouts included
  uint64_t timed_out = 0;  // of failed: deadline expired (before or mid-flight)
  uint64_t cancelled = 0;  // of failed: future cancelled or dropped
  uint64_t overloaded = 0;  // of failed: shed at the submission queue
  uint64_t tuples = 0;   // answers over all successful queries
  uint64_t fetches = 0;
  uint64_t epoch = 0;    // snapshot the whole batch evaluated against
  /// Scalar fields summed; answers_per_iteration is the *elementwise* sum
  /// over the batch's successful queries (entry i = answers known after
  /// iteration i, totalled across queries), so its last entry matches
  /// `tuples` and the growth curve stays schedule-independent.
  EvalStats total;
  double wall_ms = 0;    // batch wall time (submission to last completion)
};

/// Service configuration (namespace-scope so it can appear in default
/// arguments of QueryService members).
struct QueryServiceOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  size_t num_threads = 0;
  /// High-water mark of the submission queue: pending (accepted, not yet
  /// claimed) requests past this are shed with kOverloaded on the async
  /// paths; the blocking paths wait for room instead.
  size_t queue_depth = 1024;
  /// Slow-query flight recorder: spans of the last `flight_recorder_capacity`
  /// queries whose total latency reached `flight_recorder_min_ms` are
  /// retained for post-hoc inspection (see QueryService::flight_recorder).
  /// The default threshold of 0 retains every query's span.
  size_t flight_recorder_capacity = obs::kSpanRingCapacity;
  double flight_recorder_min_ms = 0;
  /// When false, completed queries skip the registry counters/histograms,
  /// the queue-depth gauge, and the flight recorder (response traces are
  /// still filled). The off position exists for the before/after overhead
  /// column in bench_service; production keeps it on.
  bool record_metrics = true;
  /// Structured slow-query log: when non-empty, completed queries whose
  /// total latency reaches `slow_query_log_min_ms` are appended to this
  /// file as JSONL (one `{"unix_ms": ..., "trace": {...}}` object per
  /// line), downsampled to every `slow_query_log_sample`-th qualifying
  /// span (1 = log them all). The write happens off the completion lock,
  /// after the response is already observable. An unwritable path fails
  /// construction (check status()).
  ///
  /// New options append here: callers aggregate-initialize this struct.
  std::string slow_query_log_path;
  double slow_query_log_min_ms = 0;
  uint64_t slow_query_log_sample = 1;
  /// Answer-cache byte budget; 0 (the default) disables the cache
  /// entirely. When set, exact-match repeats are served on the caller
  /// thread (bypassing the submission queue), and publishes invalidate
  /// only the entries whose supporting relations changed (see
  /// cache::AnswerCache). Concurrent identical requests collapse onto one
  /// evaluation either way (the service's flight table).
  size_t answer_cache_bytes = 0;
};

class QueryService;
struct AsyncQueryState;  // one submitted query (opaque; query_service.cc)
struct BatchShared;      // per-batch aggregates + completion (opaque)
struct ServiceObs;       // cached registry instruments (opaque)

/// Handle to one submitted query. Move-only; the result must be claimed
/// with Take() (or the future dropped, which *cancels* the query — an
/// abandoned result is demand nobody wants, so the engine stops paying for
/// it). Safe to wait from any thread; Cancel() is safe from any thread at
/// any time.
class QueryFuture {
 public:
  QueryFuture() = default;
  QueryFuture(QueryFuture&&) noexcept;
  QueryFuture& operator=(QueryFuture&&) noexcept;
  QueryFuture(const QueryFuture&) = delete;
  QueryFuture& operator=(const QueryFuture&) = delete;
  /// Dropping an unconsumed future cancels the query (cooperatively: a
  /// queued query is answered kCancelled without evaluating, an in-flight
  /// one unwinds at its next cancellation point; the response is discarded
  /// when it lands).
  ~QueryFuture();

  bool valid() const { return state_ != nullptr; }
  /// True once the response is ready (never blocks).
  bool Ready() const;
  /// Blocks until the response is ready.
  void Wait() const;
  /// Blocks up to `ms`; returns whether the response became ready.
  bool WaitFor(double ms) const;
  /// Requests cooperative cancellation; the future still completes (with
  /// kCancelled, or normally if evaluation already passed its last
  /// cancellation point).
  void Cancel();
  /// Blocks until ready and moves the response out; the future becomes
  /// invalid.
  QueryResponse Take();

 private:
  friend class QueryService;
  explicit QueryFuture(std::shared_ptr<AsyncQueryState> state);
  std::shared_ptr<AsyncQueryState> state_;
};

/// Invoked exactly once per SubmitBatch, by the worker completing the
/// batch's last query (or inline when every query was shed/failed at
/// submission). Runs on a worker thread: keep it cheap and do not call
/// back into blocking service methods from it.
using BatchCallback = std::function<void(const BatchStats&)>;

/// Handle to a submitted batch: per-query futures plus batch-level wait /
/// take / cancel. Move-only; dropping the handle cancels every query whose
/// future was neither taken out nor individually consumed.
class BatchHandle {
 public:
  BatchHandle() = default;
  BatchHandle(BatchHandle&&) noexcept;
  BatchHandle& operator=(BatchHandle&&) noexcept;
  BatchHandle(const BatchHandle&) = delete;
  BatchHandle& operator=(const BatchHandle&) = delete;
  ~BatchHandle();

  size_t size() const { return futures_.size(); }
  /// Per-query future, indexed like the submitted batch. May be moved out
  /// for individual waiting; Take() then reports a default (moved-from)
  /// response at that index.
  QueryFuture& future(size_t i) { return futures_[i]; }

  /// Blocks until every query of the batch completed.
  void Wait() const;
  /// Requests cooperative cancellation of every query in the batch.
  void Cancel();
  /// Blocks until completion and moves all responses out (indexed like the
  /// submitted batch); optionally reports the batch aggregates. The handle
  /// becomes empty.
  std::vector<QueryResponse> Take(BatchStats* stats = nullptr);

 private:
  friend class QueryService;
  std::shared_ptr<BatchShared> shared_;
  std::vector<QueryFuture> futures_;
};

class QueryService {
 public:
  using Options = QueryServiceOptions;

  /// Loads `program` (rules and facts) against `db`, builds the shared
  /// plan plus one evaluation context per worker, then freezes the
  /// database. Check status() before issuing queries. If `db` is already
  /// frozen, the program must carry no facts and must intern no new
  /// symbols (i.e. an identical program was prepared against the database
  /// before it froze).
  QueryService(Database* db, const Program& program, Options options = {});

  /// Live mode: same preparation against `live`'s genesis database, then
  /// seals the manager (the genesis becomes the first served epoch).
  /// Queries always evaluate against the manager's current tip; publishes
  /// may run concurrently with batches. `live` must outlive the service
  /// and must not be sealed yet.
  QueryService(SnapshotManager* live, const Program& program,
               Options options = {});

  /// Durable live mode with crash recovery: `live` must be constructed
  /// over `recovery`'s BuildGenesis() and still unsealed. The constructor
  /// prepares and seals exactly like live mode, but the serving gate stays
  /// *closed*: every submission is answered kUnavailable until
  /// FinishRecovery() has replayed the committed WAL batches — readers
  /// must never observe an epoch older than the pre-crash tip. `recovery`
  /// is borrowed and must stay alive until FinishRecovery returns.
  QueryService(SnapshotManager* live, durability::RecoveryManager* recovery,
               const Program& program, Options options = {});

  /// Replays the recovered batches through the manager's publish pipeline,
  /// opens the WAL (owned by the service from here on), attaches it as the
  /// manager's durability sink, and opens the serving gate. Call once,
  /// from the startup thread, after the recovery constructor succeeded; on
  /// failure the gate stays closed and the status is also what every
  /// submission reports.
  Status FinishRecovery(const durability::WalOptions& wal_options);
  Status FinishRecovery();

  /// Drains the submission queue (cancelled work unwinds promptly) and
  /// joins the workers. Outstanding futures complete before destruction
  /// returns.
  ~QueryService();
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Construction outcome; queries on a failed service return this status.
  const Status& status() const { return init_status_; }

  size_t num_threads() const;
  /// Requests accepted into the submission queue but not yet claimed by a
  /// worker (advisory; see ThreadPool::pending).
  size_t pending() const;
  /// The database the service was prepared against (the genesis epoch in
  /// live mode — later epochs are reached through the manager).
  const Database& database() const { return *db_; }
  /// Spans of recent queries whose latency reached the configured
  /// flight-recorder threshold (oldest first via Snapshot()).
  const obs::FlightRecorder& flight_recorder() const;

  /// Whether the service currently accepts queries: construction
  /// succeeded and the recovery gate (if any) has opened. This is the
  /// /readyz predicate on the admin plane — liveness without readiness is
  /// exactly the window between the recovery constructor and
  /// FinishRecovery().
  bool serving() const {
    return init_status_.ok() && serving_.load(std::memory_order_acquire);
  }

  /// The WAL this service owns in durable live mode (nullptr otherwise or
  /// before FinishRecovery()). Read-only peek for the admin plane's
  /// /debug/epochs; the manager keeps driving writes through its sink.
  const durability::Wal* wal() const { return wal_.get(); }

  /// The answer cache, or nullptr when Options::answer_cache_bytes was 0.
  /// Thread-safe (internally sharded); exposed for /debug/cache, the CLI's
  /// `cache` command, and tests.
  cache::AnswerCache* answer_cache() const { return answer_cache_.get(); }

  /// Async submission: enqueues the request and returns immediately. If
  /// the queue is at its high-water mark the future is already completed
  /// with kOverloaded (admission control); a failed service completes it
  /// with status(). The request's deadline starts now.
  QueryFuture Submit(QueryRequest request);

  /// Async batch submission: every request is enqueued (admission applies
  /// per query — shed queries complete immediately with kOverloaded while
  /// the rest proceed), all against one epoch acquired now. `on_complete`,
  /// if given, fires once with the aggregates when the last query lands.
  BatchHandle SubmitBatch(std::vector<QueryRequest> batch,
                          BatchCallback on_complete = nullptr);

  /// Evaluates one query, blocking until the response (backpressure
  /// instead of shedding when the queue is full).
  QueryResponse Eval(const QueryRequest& request);

  /// Evaluates a batch, blocking; the response vector is indexed like
  /// `batch`. SubmitBatch with backpressure in place of shedding: it waits
  /// for queue room and never answers kOverloaded. Deadlines, flights and
  /// EvalStats semantics are those of the async path. Safe to call from
  /// multiple client threads — queries queue FIFO.
  std::vector<QueryResponse> EvalBatch(const std::vector<QueryRequest>& batch,
                                       BatchStats* stats = nullptr);

 private:
  struct Worker;
  /// One shard of the flight table: the leaders of the flights whose
  /// (epoch, RequestKey) hash lands here, each beside that hash. Scanned
  /// linearly — at most queue_depth + num_threads flights exist at once,
  /// split over the shards — so registering a flight allocates nothing.
  /// Sharded so that workers finishing different queries do not contend
  /// on one lock.
  struct alignas(64) FlightShard {
    std::mutex mu;
    std::vector<std::pair<size_t, AsyncQueryState*>> leaders;
  };
  static constexpr size_t kFlightShards = 16;

  /// Shared construction tail: plan + workers. Returns false on failure
  /// (init_status_ is set).
  bool Init(const Program& program, const Options& options);

  /// Post-freeze tail: ensures the (frozen) snapshot carries an
  /// EvalArtifacts set — adopting one already attached (a second service
  /// over the same frozen database and, per the constructor contract, the
  /// same program), building and attaching otherwise — then rebinds every
  /// worker to it.
  void AdoptSnapshot(Database* db);

  /// Resolves a request to a query literal without interning: unknown
  /// predicates fail, unknown constants report "no answers" through
  /// `empty_ok`. Read-only, callable from workers; resolves against the
  /// epoch the batch acquired.
  Status BuildLiteral(const Database& db, const QueryRequest& request,
                      Literal* out, bool* empty_ok) const;

  /// Per-batch shared state (completion rendezvous, aggregates, epoch
  /// pin), with the epoch acquired now.
  std::shared_ptr<BatchShared> MakeBatchShared(size_t queries);

  /// The one submission core behind Submit/SubmitBatch/Eval/EvalBatch:
  /// wraps `batch` into future states under one BatchHandle and, past
  /// admission and the cache, hands each query to Dispatch. `blocking`
  /// waits for queue room instead of shedding, and parks each later copy
  /// of a key on the batch's first copy before dispatching, so a blocking
  /// batch evaluates each distinct key once however fast workers finish.
  BatchHandle SubmitShared(std::vector<QueryRequest> batch,
                           BatchCallback on_complete, bool blocking);

  /// Evaluates one claimed query on worker `worker_id`'s context, writing
  /// the response into its state.
  void RunOne(size_t worker_id, AsyncQueryState& q);
  /// Marks `q` done, folds it into the batch aggregates, and fires the
  /// completion callback if it was the batch's last query.
  static void CompleteQuery(AsyncQueryState& q);

  /// Canonical exact-match key of a request against the prepared program:
  /// the plan fingerprint plus every request field that selects a distinct
  /// answer set (pred, source, target, diagonal, and the QueryOptions
  /// value fields). Deadline, sink, and cancel state are deliberately
  /// excluded — they select *when* a request fails or *how* its answer is
  /// delivered, never *what* it answers.
  std::string RequestKey(const QueryRequest& request) const;

  /// Cache fast path, called on the submission thread after admission
  /// passed and q.batch is bound. On a hit: fills the response from the
  /// cached answer (trace.cache_hit set), completes the query on the
  /// caller thread, and returns true — the request never touches the
  /// queue. Returns false on miss or when the cache is off.
  bool TryServeFromCache(AsyncQueryState& q);

  /// Inserts q's answer into the cache when it is cacheable: a complete,
  /// successful evaluation that actually ran here (replayed responses are
  /// the cache's own output, never re-inserted). Support set = the
  /// transitive base predicates of the queried predicate, pinned from the
  /// batch's epoch.
  void MaybeCacheInsert(AsyncQueryState& q);

  /// Worker tail of an evaluation, right after RunOne: cache insert, end
  /// the flight, replay the answer to every parked waiter, and complete
  /// each waiter and then `q`. If `q` failed on its own token (cancelled
  /// or deadline), its waiters still want the answer: the live waiter
  /// with the earliest deadline leads the flight next, the others stay
  /// parked on it, and it is evaluated here, after `q` has completed.
  void FinishEval(size_t worker_id, std::shared_ptr<AsyncQueryState> q);

  /// One fan-out recipient: its own cancelled/expired token answers it
  /// without work; otherwise it replays `leader`'s response
  /// (trace.collapsed).
  void FanOutOne(const AsyncQueryState& leader, AsyncQueryState& w);

  /// The one dispatch path. Parks `state` (with any copies its batch
  /// already parked on it) on the flight of an identical query on the same
  /// epoch if there is one whose deadline comes no later than its own:
  /// waiting must not cost a request its budget. Otherwise, if no flight
  /// exists, `state` leads a new one: it is registered and handed to the
  /// pool in one step under the shard lock, so a request the full queue
  /// sheds with kOverloaded never has waiters. A request with a tighter
  /// deadline than the running flight's evaluates on its own,
  /// unregistered. `blocking` waits for room instead of shedding.
  void Dispatch(std::shared_ptr<AsyncQueryState> state, bool blocking);

  FlightShard& ShardOf(const AsyncQueryState& q);

  /// Admission gate shared by every submission path: init_status_ when
  /// construction failed, kUnavailable while the recovery gate is closed,
  /// OK otherwise.
  Status AdmissionStatus() const;

  Database* db_;
  SnapshotManager* live_ = nullptr;
  durability::RecoveryManager* recovery_ = nullptr;  // until FinishRecovery
  std::unique_ptr<durability::Wal> wal_;  // owned sink in durable live mode
  /// False between the recovery constructor and a successful
  /// FinishRecovery(): submissions are answered kUnavailable, because the
  /// tip has not caught up to the pre-crash state yet.
  std::atomic<bool> serving_{true};
  Status init_status_ = Status::Ok();
  SymbolId var_x_ = 0, var_y_ = 0;  // free-variable symbols, interned early
  bool has_free_vars_ = false;
  std::shared_ptr<const PreparedProgram> plan_;  // shared by all workers
  std::vector<std::unique_ptr<Worker>> workers_;
  size_t queue_depth_ = 1024;  // submission-queue high-water mark
  /// Cached pointers into obs::Registry::Global() plus the per-service
  /// flight recorder; batches carry a raw pointer to this. Declared before
  /// pool_ so destruction joins the workers (who record spans in
  /// CompleteQuery) before the instruments die.
  std::unique_ptr<ServiceObs> obs_;
  /// Exact-match answer cache (nullptr when disabled). shared_ptr because
  /// the snapshot manager's publish listener captures it — a publish
  /// racing service teardown sweeps a still-alive cache. Declared before
  /// pool_ so workers (who insert and fan out) join first.
  std::shared_ptr<cache::AnswerCache> answer_cache_;
  /// RequestKey prefix: the plan fingerprint as 16 hex chars + separator,
  /// precomputed once in Init.
  std::string cache_key_prefix_;
  /// The flight table: one entry per evaluation accepted by the pool and
  /// not yet finished, keyed by (epoch, RequestKey). An entry points at
  /// its leader, which outlives it (FinishEval removes it before the
  /// leader completes). Declared before pool_ so the draining workers
  /// finish every flight before it dies.
  std::array<FlightShard, kFlightShards> flight_shards_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace binchain

#endif  // BINCHAIN_SERVICE_QUERY_SERVICE_H_
