// Concurrency semantics of the query service: identical result sets and
// deterministic aggregate stats across thread counts, engine reuse across
// repeated queries, freeze behavior of the storage snapshot, a stress run
// with overlapping sources on the Figure-8 cyclic workload, and the async
// submission surface — futures, mid-flight deadline/cancellation unwinds,
// queue-depth admission, and batch completion callbacks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datalog/parser.h"
#include "obs/metrics.h"
#include "service/query_service.h"
#include "service/thread_pool.h"
#include "workloads/workloads.h"

namespace binchain {
namespace {

Program SgProgram(Database& db) {
  return ParseProgram(workloads::SgProgramText(), db.symbols()).take();
}

/// All-sources batch over every constant of the database.
std::vector<QueryRequest> AllSourcesBatch(const Database& db,
                                          const QueryOptions& options = {}) {
  std::set<std::string> constants;
  for (const std::string& name : db.relation_names()) {
    for (TupleRef t : db.Find(name)->tuples()) {
      for (SymbolId c : t) constants.insert(db.symbols().Name(c));
    }
  }
  std::vector<QueryRequest> batch;
  for (const std::string& c : constants) {
    QueryRequest req;
    req.pred = "sg";
    req.source = c;
    req.options = options;
    batch.push_back(std::move(req));
  }
  return batch;
}

void ExpectSameResponses(const std::vector<QueryResponse>& a,
                         const std::vector<QueryResponse>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status.ok(), b[i].status.ok()) << i;
    EXPECT_EQ(a[i].tuples, b[i].tuples) << i;
    EXPECT_EQ(a[i].stats.nodes, b[i].stats.nodes) << i;
    EXPECT_EQ(a[i].stats.iterations, b[i].stats.iterations) << i;
    EXPECT_EQ(a[i].fetches, b[i].fetches) << i;
  }
}

TEST(ThreadPoolTest, RunsEverySubmittedTaskExactlyOnceAndDrainsOnExit) {
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h = 0;
  {
    ThreadPool pool(4, 64);
    EXPECT_EQ(pool.size(), 4u);
    EXPECT_EQ(pool.queue_capacity(), 64u);
    for (size_t i = 0; i < hits.size(); ++i) {
      pool.SubmitBlocking([&hits, i](size_t worker) {
        EXPECT_LT(worker, 4u);
        ++hits[i];
      });
    }
    // Destruction drains: every accepted task runs before join.
  }
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, TrySubmitShedsAtCapacityAndBlockedSubmitWaits) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1, 2);
    // Park the single worker so the queue state is deterministic.
    pool.SubmitBlocking([&](size_t) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
      ++ran;
    });
    while (pool.pending() != 0) std::this_thread::yield();
    // Two slots fill the queue; the third submission is shed.
    EXPECT_TRUE(pool.TrySubmit([&](size_t) { ++ran; }));
    EXPECT_TRUE(pool.TrySubmit([&](size_t) { ++ran; }));
    EXPECT_EQ(pool.pending(), 2u);
    EXPECT_FALSE(pool.TrySubmit([&](size_t) { ++ran; }));
    // A blocking submitter waits for room instead of shedding.
    std::thread blocked([&] { pool.SubmitBlocking([&](size_t) { ++ran; }); });
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
    blocked.join();
    // Destruction drains the remaining queue.
  }
  EXPECT_EQ(ran.load(), 4);
}

TEST(ServiceTest, BatchMatchesSingleThreadedOnFig7Samples) {
  for (auto build : {&workloads::Fig7a, &workloads::Fig7b, &workloads::Fig7c}) {
    Database db;
    build(db, 24);
    Program program = SgProgram(db);
    std::vector<QueryRequest> batch = AllSourcesBatch(db);
    ASSERT_FALSE(batch.empty());

    QueryService seq(&db, program, {1});
    ASSERT_TRUE(seq.status().ok()) << seq.status().message();
    BatchStats seq_stats;
    auto seq_responses = seq.EvalBatch(batch, &seq_stats);

    QueryService par(&db, program, {4});
    ASSERT_TRUE(par.status().ok()) << par.status().message();
    BatchStats par_stats;
    auto par_responses = par.EvalBatch(batch, &par_stats);

    ExpectSameResponses(seq_responses, par_responses);
    // Aggregates are sums of per-query values: identical for any schedule.
    EXPECT_EQ(seq_stats.queries, par_stats.queries);
    EXPECT_EQ(seq_stats.failed, par_stats.failed);
    EXPECT_EQ(seq_stats.tuples, par_stats.tuples);
    EXPECT_EQ(seq_stats.fetches, par_stats.fetches);
    EXPECT_EQ(seq_stats.total.nodes, par_stats.total.nodes);
    EXPECT_EQ(seq_stats.total.arcs, par_stats.total.arcs);
    EXPECT_EQ(seq_stats.total.iterations, par_stats.total.iterations);
    EXPECT_EQ(seq_stats.total.expansions, par_stats.total.expansions);
  }
}

TEST(ServiceTest, RepeatedQueryOnOneServiceIsDeterministic) {
  // Engine reuse: the same request through the same (warm) worker contexts
  // must reproduce answers and stats exactly.
  Database db;
  std::string a = workloads::Fig7b(db, 16);
  QueryService service(&db, SgProgram(db), {2});
  ASSERT_TRUE(service.status().ok());
  QueryRequest req;
  req.pred = "sg";
  req.source = a;
  QueryResponse first = service.Eval(req);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.tuples.empty());
  for (int i = 0; i < 5; ++i) {
    QueryResponse again = service.Eval(req);
    ASSERT_TRUE(again.status.ok());
    EXPECT_EQ(again.tuples, first.tuples);
    EXPECT_EQ(again.stats.nodes, first.stats.nodes);
    EXPECT_EQ(again.stats.arcs, first.stats.arcs);
    EXPECT_EQ(again.stats.iterations, first.stats.iterations);
    EXPECT_EQ(again.fetches, first.fetches);
  }
}

TEST(ServiceTest, AllBindingPatternsThroughTheService) {
  Database db;
  std::string a = workloads::Fig7c(db, 8);
  QueryService service(&db, SgProgram(db), {2});
  ASSERT_TRUE(service.status().ok());

  QueryResponse bound_free = service.Eval({"sg", a, "", {}});
  ASSERT_TRUE(bound_free.status.ok());
  ASSERT_FALSE(bound_free.tuples.empty());

  // p(a, b): membership of a known answer.
  const Tuple& first = bound_free.tuples.front();
  QueryResponse bound_bound = service.Eval(
      {"sg", db.symbols().Name(first[0]), db.symbols().Name(first[1]), {}});
  ASSERT_TRUE(bound_bound.status.ok());
  EXPECT_EQ(bound_bound.tuples.size(), 1u);

  // p(X, b): the inverted system; must include (a, b).
  QueryResponse free_bound =
      service.Eval({"sg", "", db.symbols().Name(first[1]), {}});
  ASSERT_TRUE(free_bound.status.ok());
  EXPECT_NE(std::find(free_bound.tuples.begin(), free_bound.tuples.end(),
                      first),
            free_bound.tuples.end());

  // p(X, Y): all pairs; every bound-free answer appears.
  QueryResponse free_free = service.Eval({"sg", "", ""});
  ASSERT_TRUE(free_free.status.ok());
  for (const Tuple& t : bound_free.tuples) {
    EXPECT_NE(std::find(free_free.tuples.begin(), free_free.tuples.end(), t),
              free_free.tuples.end());
  }
}

TEST(ServiceTest, DiagonalQueryFiltersToEqualPairs) {
  Database db;
  db.AddFact("flat", {"a", "a"});
  db.AddFact("flat", {"b", "c"});
  db.AddFact("up", {"d", "b"});
  db.AddFact("down", {"c", "d"});  // sg(d, d) via up.flat.down
  QueryService service(&db, SgProgram(db), {2});
  ASSERT_TRUE(service.status().ok());
  QueryRequest req;
  req.pred = "sg";
  req.diagonal = true;
  QueryResponse diag = service.Eval(req);
  ASSERT_TRUE(diag.status.ok()) << diag.status.message();
  SymbolId a = *db.symbols().Find("a");
  SymbolId d = *db.symbols().Find("d");
  EXPECT_EQ(diag.tuples, (std::vector<Tuple>{Tuple{a, a}, Tuple{d, d}}));
  // Malformed: diagonal with a bound argument.
  req.source = "a";
  EXPECT_FALSE(service.Eval(req).status.ok());
}

TEST(ServiceTest, ErrorAndEmptyRequestsDoNotPoisonTheBatch) {
  Database db;
  std::string a = workloads::Fig7a(db, 8);
  QueryService service(&db, SgProgram(db), {2});
  ASSERT_TRUE(service.status().ok());
  std::vector<QueryRequest> batch = {
      {"sg", a, "", {}},
      {"nonexistent_predicate", a, "", {}},
      {"sg", "never_interned_constant", "", {}},
  };
  BatchStats stats;
  auto responses = service.EvalBatch(batch, &stats);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_FALSE(responses[0].tuples.empty());
  EXPECT_FALSE(responses[1].status.ok());
  EXPECT_TRUE(responses[2].status.ok());  // unknown constant: empty answer
  EXPECT_TRUE(responses[2].tuples.empty());
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST(ServiceTest, ConstructionFreezesTheDatabase) {
  Database db;
  workloads::Fig7a(db, 8);
  EXPECT_FALSE(db.frozen());
  QueryService service(&db, SgProgram(db), {2});
  ASSERT_TRUE(service.status().ok());
  EXPECT_TRUE(db.frozen());
  EXPECT_TRUE(db.symbols().frozen());
  // Facts cannot be loaded against a frozen snapshot.
  Database frozen_db;
  workloads::Fig7a(frozen_db, 4);
  Program with_facts =
      ParseProgram("p(X, Y) :- e(X, Y). e(a, b).", frozen_db.symbols()).take();
  frozen_db.Freeze();
  QueryService bad(&frozen_db, with_facts, {1});
  EXPECT_FALSE(bad.status().ok());
  // A failed service reports the failure through responses AND BatchStats.
  BatchStats bad_stats;
  auto bad_responses = bad.EvalBatch({{"p", "a", ""}}, &bad_stats);
  ASSERT_EQ(bad_responses.size(), 1u);
  EXPECT_FALSE(bad_responses[0].status.ok());
  EXPECT_EQ(bad_stats.queries, 1u);
  EXPECT_EQ(bad_stats.failed, 1u);
}

TEST(ServiceTest, Fig8CyclicStressWithOverlappingSources) {
  // Overlapping sources over cyclic data: every worker traverses the same
  // two cycles under the |D1|*|D2| bound, repeatedly, on shared frozen
  // storage. Compare 1-thread and 4-thread runs response-for-response.
  Database db;
  workloads::Fig8(db, 7, 9);
  Program program = SgProgram(db);
  QueryOptions options;
  options.use_cyclic_bound = true;
  std::vector<QueryRequest> batch;
  for (int rep = 0; rep < 6; ++rep) {
    for (size_t i = 1; i <= 7; ++i) {
      QueryRequest req;
      req.pred = "sg";
      req.source = "a" + std::to_string(i);
      req.options = options;
      batch.push_back(std::move(req));
    }
  }

  QueryService seq(&db, program, {1});
  ASSERT_TRUE(seq.status().ok());
  BatchStats seq_stats;
  auto expected = seq.EvalBatch(batch, &seq_stats);
  EXPECT_EQ(seq_stats.failed, 0u);

  QueryService par(&db, program, {4});
  ASSERT_TRUE(par.status().ok());
  for (int round = 0; round < 3; ++round) {
    BatchStats par_stats;
    auto got = par.EvalBatch(batch, &par_stats);
    ExpectSameResponses(expected, got);
    EXPECT_EQ(par_stats.fetches, seq_stats.fetches);
    EXPECT_EQ(par_stats.total.nodes, seq_stats.total.nodes);
  }
}

TEST(ServiceTest, ExpiredDeadlineReturnsTimedOutWithoutEvaluating) {
  Database db;
  std::string a = workloads::Fig7b(db, 12);
  QueryService service(&db, SgProgram(db), {2});
  ASSERT_TRUE(service.status().ok());

  // A vanishingly small positive budget is already expired by the time any
  // worker picks the request up (the clock has nanosecond resolution), so
  // the outcome is deterministic; zero disables the deadline entirely.
  QueryRequest expired{"sg", a, "", {}};
  expired.options.deadline_ms = 1e-9;
  QueryRequest unlimited{"sg", a, "", {}};
  QueryRequest generous{"sg", a, "", {}};
  generous.options.deadline_ms = 1e9;

  BatchStats stats;
  auto responses = service.EvalBatch({expired, unlimited, generous}, &stats);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].timed_out);
  EXPECT_FALSE(responses[0].status.ok());
  EXPECT_EQ(responses[0].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(responses[0].tuples.empty());
  EXPECT_EQ(responses[0].stats.nodes, 0u);  // never evaluated

  EXPECT_FALSE(responses[1].timed_out);
  ASSERT_TRUE(responses[1].status.ok());
  EXPECT_FALSE(responses[1].tuples.empty());
  EXPECT_FALSE(responses[2].timed_out);
  ASSERT_TRUE(responses[2].status.ok());
  EXPECT_EQ(responses[2].tuples, responses[1].tuples);

  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.timed_out, 1u);
}

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// A workload whose single bound-source query runs for hundreds of
/// milliseconds uncancelled (Figure 7 (b) at n = 1024: Theta(n^2) nodes),
/// so deadlines and cancellations land provably mid-flight.
struct LongQueryRig {
  Database db;
  std::string source;
  Program program;
  LongQueryRig() : source(workloads::Fig7b(db, 1024)), program(SgProgram(db)) {}
  /// A nonzero `variant` sets a distinct iteration cap far above what the
  /// query needs: same answer, distinct key, so the request queues instead
  /// of parking on an identical request's flight.
  QueryRequest Request(double deadline_ms = 0, size_t variant = 0) const {
    QueryRequest req{"sg", source, "", {}};
    req.options.deadline_ms = deadline_ms;
    if (variant > 0) req.options.max_iterations = size_t{1} << (20 + variant);
    return req;
  }
};

TEST(AsyncServiceTest, MidFlightDeadlineInterruptsLongQuery) {
  LongQueryRig rig;
  QueryService service(&rig.db, rig.program, {1, 64});
  ASSERT_TRUE(service.status().ok()) << service.status().message();

  // Reference: the same query without a deadline, to completion.
  auto t0 = std::chrono::steady_clock::now();
  QueryResponse full = service.Eval(rig.Request());
  double uncancelled_ms = MsSince(t0);
  ASSERT_TRUE(full.status.ok());
  ASSERT_FALSE(full.tuples.empty());

  // A budget an order of magnitude below the uncancelled runtime: the
  // deadline provably passes mid-traversal, not in the queue.
  double deadline_ms = std::max(5.0, std::min(50.0, uncancelled_ms / 8));
  t0 = std::chrono::steady_clock::now();
  QueryResponse cut = service.Eval(rig.Request(deadline_ms));
  double cancelled_ms = MsSince(t0);

  EXPECT_EQ(cut.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(cut.timed_out);
  EXPECT_FALSE(cut.cancelled);
  EXPECT_TRUE(cut.partial);  // interrupted mid-flight, not at admission
  EXPECT_TRUE(cut.stats.cancelled);
  EXPECT_GT(cut.stats.cancel_checks, 0u);
  EXPECT_GT(cut.stats.nodes, 0u);  // it really was evaluating
  // The unwind happened well before uncancelled completion time.
  EXPECT_LT(cancelled_ms, uncancelled_ms / 2)
      << "uncancelled=" << uncancelled_ms << "ms cancelled=" << cancelled_ms;
  // Partial answers are a true subset of the full answer set.
  EXPECT_LT(cut.tuples.size(), full.tuples.size());
  for (const Tuple& t : cut.tuples) {
    EXPECT_TRUE(std::binary_search(full.tuples.begin(), full.tuples.end(), t));
  }
}

TEST(AsyncServiceTest, FutureCancelUnwindsInFlightQuery) {
  LongQueryRig rig;
  QueryService service(&rig.db, rig.program, {1, 64});
  ASSERT_TRUE(service.status().ok());

  auto t0 = std::chrono::steady_clock::now();
  QueryResponse full = service.Eval(rig.Request());
  double uncancelled_ms = MsSince(t0);
  ASSERT_TRUE(full.status.ok());

  t0 = std::chrono::steady_clock::now();
  QueryFuture future = service.Submit(rig.Request());
  ASSERT_TRUE(future.valid());
  // Wait until the worker claimed it, then give the traversal a head
  // start so the cancel provably lands mid-flight.
  while (service.pending() != 0) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  future.Cancel();
  QueryResponse resp = future.Take();
  double cancelled_ms = MsSince(t0);
  EXPECT_FALSE(future.valid());

  EXPECT_EQ(resp.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(resp.cancelled);
  EXPECT_FALSE(resp.timed_out);
  EXPECT_TRUE(resp.partial);
  EXPECT_LT(cancelled_ms, uncancelled_ms / 2)
      << "uncancelled=" << uncancelled_ms << "ms cancelled=" << cancelled_ms;
}

TEST(AsyncServiceTest, DroppedFutureCancelsAndFreesTheWorker) {
  LongQueryRig rig;
  QueryService service(&rig.db, rig.program, {1, 64});
  ASSERT_TRUE(service.status().ok());

  auto t0 = std::chrono::steady_clock::now();
  QueryResponse full = service.Eval(rig.Request());
  double uncancelled_ms = MsSince(t0);
  ASSERT_TRUE(full.status.ok());

  t0 = std::chrono::steady_clock::now();
  {
    QueryFuture dropped = service.Submit(rig.Request());
    while (service.pending() != 0) std::this_thread::yield();
    // Dropping the future unconsumed cancels the in-flight query.
  }
  // The single worker frees up almost immediately: a follow-up query on
  // the same (1-thread) service completes long before the abandoned query
  // could have run to completion.
  QueryRequest cheap{"sg", rig.source, rig.source, {}};
  cheap.options.max_iterations = 1;
  QueryResponse after = service.Eval(cheap);
  double followup_ms = MsSince(t0);
  EXPECT_TRUE(after.status.ok());
  EXPECT_LT(followup_ms, uncancelled_ms / 2)
      << "uncancelled=" << uncancelled_ms << "ms follow-up=" << followup_ms;
}

TEST(AsyncServiceTest, QueueOverloadShedsWithKOverloaded) {
  LongQueryRig rig;
  QueryService service(&rig.db, rig.program, {1, 2});
  ASSERT_TRUE(service.status().ok());

  // Park the single worker on a long query and fill the 2-deep queue.
  QueryFuture running = service.Submit(rig.Request());
  while (service.pending() != 0) std::this_thread::yield();
  QueryFuture queued1 = service.Submit(rig.Request(0, 1));
  QueryFuture queued2 = service.Submit(rig.Request(0, 2));
  EXPECT_EQ(service.pending(), 2u);

  // Past the high-water mark: shed immediately, future already completed.
  QueryFuture shed = service.Submit(rig.Request(0, 3));
  EXPECT_TRUE(shed.Ready());
  QueryResponse shed_resp = shed.Take();
  EXPECT_EQ(shed_resp.status.code(), StatusCode::kOverloaded);
  EXPECT_TRUE(shed_resp.tuples.empty());

  // Unwind the parked work; queued queries are answered kCancelled
  // without evaluating.
  running.Cancel();
  queued1.Cancel();
  queued2.Cancel();
  QueryResponse r1 = queued1.Take();
  EXPECT_EQ(r1.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(r1.stats.nodes, 0u);  // never evaluated
  QueryResponse r0 = running.Take();
  EXPECT_EQ(r0.status.code(), StatusCode::kCancelled);
  queued2.Wait();
}

TEST(AsyncServiceTest, BatchAdmissionShedsOverflowAndReportsCallback) {
  LongQueryRig rig;
  QueryService service(&rig.db, rig.program, {1, 2});
  ASSERT_TRUE(service.status().ok());

  // Park the worker so the queue state is deterministic.
  QueryFuture running = service.Submit(rig.Request());
  while (service.pending() != 0) std::this_thread::yield();

  std::mutex mu;
  std::condition_variable cv;
  bool fired = false;
  BatchStats from_callback;
  // Distinct iteration caps (all far beyond what the query needs) give the
  // five requests distinct keys: identical requests would be collapsed by
  // in-batch dedup into a single submission, and this test is about the
  // queue overflowing.
  std::vector<QueryRequest> batch(5, rig.Request());
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].options.max_iterations = 1 << (20 + i);
  }
  BatchHandle handle =
      service.SubmitBatch(batch, [&](const BatchStats& stats) {
        std::lock_guard<std::mutex> lock(mu);
        fired = true;
        from_callback = stats;
        cv.notify_all();
      });
  ASSERT_EQ(handle.size(), 5u);
  // Queue depth 2: exactly two of the five were admitted, three shed.
  handle.Cancel();   // the two admitted ones unwind as kCancelled
  running.Cancel();  // free the worker so the admitted pair completes

  BatchStats stats;
  std::vector<QueryResponse> responses = handle.Take(&stats);
  EXPECT_EQ(stats.queries, 5u);
  EXPECT_EQ(stats.failed, 5u);
  EXPECT_EQ(stats.overloaded, 3u);
  EXPECT_EQ(stats.cancelled, 2u);
  size_t overloaded = 0, cancelled = 0;
  for (const QueryResponse& r : responses) {
    if (r.status.code() == StatusCode::kOverloaded) ++overloaded;
    if (r.status.code() == StatusCode::kCancelled) ++cancelled;
  }
  EXPECT_EQ(overloaded, 3u);
  EXPECT_EQ(cancelled, 2u);

  // The completion callback fired exactly once with the same aggregates.
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return fired; });
    EXPECT_EQ(from_callback.queries, 5u);
    EXPECT_EQ(from_callback.overloaded, 3u);
    EXPECT_EQ(from_callback.cancelled, 2u);
  }
  running.Wait();
}

TEST(AsyncServiceTest, DeadlineBudgetIncludesQueueTime) {
  LongQueryRig rig;
  QueryService service(&rig.db, rig.program, {1, 64});
  ASSERT_TRUE(service.status().ok());

  // Occupy the worker long enough for the queued request's budget to
  // expire before pickup.
  QueryFuture running = service.Submit(rig.Request());
  while (service.pending() != 0) std::this_thread::yield();
  QueryFuture starved = service.Submit(rig.Request(/*deadline_ms=*/5, 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  running.Cancel();
  running.Wait();
  QueryResponse resp = starved.Take();
  EXPECT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(resp.timed_out);
  EXPECT_FALSE(resp.partial);       // expired in the queue, not mid-flight
  EXPECT_EQ(resp.stats.nodes, 0u);  // answered without evaluating
}

TEST(AsyncServiceTest, SubmitBatchMatchesBlockingEvalBatch) {
  Database db;
  workloads::Fig7b(db, 16);
  Program program = SgProgram(db);
  QueryService service(&db, program, {2, 256});
  ASSERT_TRUE(service.status().ok());
  std::vector<QueryRequest> batch = AllSourcesBatch(db);

  BatchStats blocking_stats;
  auto blocking = service.EvalBatch(batch, &blocking_stats);

  BatchHandle handle = service.SubmitBatch(batch);
  BatchStats async_stats;
  auto async = handle.Take(&async_stats);

  ExpectSameResponses(blocking, async);
  EXPECT_EQ(blocking_stats.tuples, async_stats.tuples);
  EXPECT_EQ(blocking_stats.fetches, async_stats.fetches);
  EXPECT_EQ(blocking_stats.failed, async_stats.failed);
  EXPECT_EQ(async_stats.overloaded, 0u);
}

TEST(AsyncServiceTest, BlockingBatchBackpressuresInsteadOfShedding) {
  // A queue far smaller than the batch: the blocking path waits for room
  // rather than shedding, so every query completes.
  Database db;
  workloads::Fig7b(db, 16);
  QueryService service(&db, SgProgram(db), {2, 2});
  ASSERT_TRUE(service.status().ok());
  std::vector<QueryRequest> batch = AllSourcesBatch(db);
  ASSERT_GT(batch.size(), 4u);
  BatchStats stats;
  auto responses = service.EvalBatch(batch, &stats);
  EXPECT_EQ(stats.queries, batch.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.overloaded, 0u);
  for (const QueryResponse& r : responses) EXPECT_TRUE(r.status.ok());
}

// A request becomes a flight's leader only once the pool has accepted it,
// so a shed request never has waiters: with the queue full, both copies of
// a duplicate are shed and no flight is left behind; with one free slot,
// the first copy is admitted and the second replays it.
TEST(AsyncServiceTest, FullQueueShedsBothCopiesAndLeavesNoFlight) {
  LongQueryRig rig;
  QueryService service(&rig.db, rig.program, {1, 1});
  ASSERT_TRUE(service.status().ok());
  QueryRequest cheap{"sg", rig.source, rig.source, {}};
  cheap.options.max_iterations = 1;

  // Park the worker, then fill the one-slot queue.
  QueryFuture running = service.Submit(rig.Request());
  while (service.pending() != 0) std::this_thread::yield();
  QueryFuture queued = service.Submit(rig.Request(0, 1));
  ASSERT_EQ(service.pending(), 1u);

  BatchHandle full = service.SubmitBatch({cheap, cheap});
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(full.future(i).Ready()) << i;  // answered at submission
  }
  BatchStats full_stats;
  for (const QueryResponse& r : full.Take(&full_stats)) {
    EXPECT_EQ(r.status.code(), StatusCode::kOverloaded);
    EXPECT_FALSE(r.trace.collapsed);
  }
  EXPECT_EQ(full_stats.overloaded, 2u);

  running.Cancel();
  queued.Cancel();
  running.Wait();
  queued.Wait();

  // Park the worker again, this time with the queue slot free.
  QueryFuture parked = service.Submit(rig.Request(0, 2));
  while (service.pending() != 0) std::this_thread::yield();
  BatchHandle one_free = service.SubmitBatch({cheap, cheap});
  parked.Cancel();
  BatchStats stats;
  std::vector<QueryResponse> responses = one_free.Take(&stats);
  EXPECT_EQ(stats.overloaded, 0u);
  EXPECT_EQ(stats.failed, 0u);
  ASSERT_TRUE(responses[0].status.ok()) << responses[0].status.message();
  ASSERT_TRUE(responses[1].status.ok()) << responses[1].status.message();
  EXPECT_FALSE(responses[0].trace.collapsed);
  EXPECT_TRUE(responses[1].trace.collapsed);
  EXPECT_EQ(responses[1].tuples, responses[0].tuples);
  parked.Wait();

  // Nothing stayed parked on a shed copy: a later identical request leads
  // its own flight and completes.
  QueryFuture later = service.Submit(cheap);
  ASSERT_TRUE(later.WaitFor(10000));
  QueryResponse lr = later.Take();
  EXPECT_TRUE(lr.status.ok());
  EXPECT_FALSE(lr.trace.collapsed);
  EXPECT_EQ(lr.tuples, responses[0].tuples);
}

uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name, "")->Value();
}

// The flight table exists with the cache off: concurrent identical
// submissions collapse onto one evaluation, and the engine_* registry
// family counts only the evaluations that actually ran.
TEST(AsyncServiceTest, CacheOffCollapsesConcurrentIdenticalSubmits) {
  Database db;
  std::string source = workloads::Fig7b(db, 512);
  QueryService service(&db, SgProgram(db), {4, 64});
  ASSERT_TRUE(service.status().ok());
  ASSERT_EQ(service.answer_cache(), nullptr);
  const uint64_t fetches0 = CounterValue("binchain_engine_fetches_total");
  const uint64_t nodes0 = CounterValue("binchain_engine_node_expansions_total");
  const uint64_t collapsed0 = CounterValue("binchain_cache_collapsed_total");

  constexpr size_t kClients = 8;
  const QueryRequest req{"sg", source, "", {}};
  std::vector<QueryResponse> responses(kClients);
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  for (size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      responses[i] = service.Submit(req).Take();
    });
  }
  go = true;
  for (std::thread& t : clients) t.join();

  uint64_t ran_fetches = 0, ran_nodes = 0, collapsed = 0;
  for (const QueryResponse& r : responses) {
    ASSERT_TRUE(r.status.ok()) << r.status.message();
    EXPECT_EQ(r.tuples, responses[0].tuples);
    EXPECT_EQ(r.stats.nodes, responses[0].stats.nodes);
    if (r.trace.collapsed) {
      ++collapsed;
    } else {
      ran_fetches += r.fetches;
      ran_nodes += r.stats.nodes;
    }
  }
  EXPECT_GE(collapsed, 1u);
  EXPECT_EQ(CounterValue("binchain_cache_collapsed_total") - collapsed0,
            collapsed);
  EXPECT_EQ(CounterValue("binchain_engine_fetches_total") - fetches0,
            ran_fetches);
  EXPECT_EQ(CounterValue("binchain_engine_node_expansions_total") - nodes0,
            ran_nodes);
  EXPECT_LT(ran_nodes, kClients * responses[0].stats.nodes);
}

// A blocking batch may park on a flight an async submission leads; it
// still waits for queue room for everything else and never sheds.
TEST(AsyncServiceTest, BlockingBatchJoiningAnAsyncFlightNeverSheds) {
  LongQueryRig rig;
  QueryService service(&rig.db, rig.program, {1, 1});
  ASSERT_TRUE(service.status().ok());
  QueryRequest cheap{"sg", rig.source, rig.source, {}};
  cheap.options.max_iterations = 1;

  QueryFuture leader = service.Submit(rig.Request());
  while (service.pending() != 0) std::this_thread::yield();
  QueryFuture queued = service.Submit(rig.Request(0, 1));  // queue now full

  BatchStats stats;
  std::vector<QueryResponse> responses;
  std::thread client([&] {
    responses = service.EvalBatch({rig.Request(), rig.Request(), cheap},
                                  &stats);
  });
  queued.Cancel();  // makes room for `cheap` once the leader is done
  QueryResponse lr = leader.Take();
  client.join();
  ASSERT_TRUE(lr.status.ok());
  EXPECT_EQ(stats.overloaded, 0u);
  EXPECT_EQ(stats.failed, 0u);
  ASSERT_EQ(responses.size(), 3u);
  for (const QueryResponse& r : responses) {
    EXPECT_TRUE(r.status.ok()) << r.status.message();
  }
  EXPECT_TRUE(responses[0].trace.collapsed);
  EXPECT_TRUE(responses[1].trace.collapsed);
  EXPECT_EQ(responses[0].tuples, lr.tuples);
  EXPECT_EQ(responses[1].tuples, lr.tuples);
}

// A blocking batch evaluates each distinct key once, however fast the
// workers finish the first copies: later copies are parked before any copy
// is dispatched.
TEST(ServiceTest, BlockingBatchEvaluatesEachDistinctKeyOnce) {
  Database db;
  workloads::Fig8(db, 17, 19);
  QueryService service(&db, SgProgram(db), {8});
  ASSERT_TRUE(service.status().ok());
  QueryOptions options;
  options.use_cyclic_bound = true;
  const std::vector<QueryRequest> distinct = AllSourcesBatch(db, options);
  std::vector<QueryRequest> batch;
  for (int copy = 0; copy < 4; ++copy) {
    batch.insert(batch.end(), distinct.begin(), distinct.end());
  }
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<QueryResponse> responses = service.EvalBatch(batch);
    size_t evaluated = 0;
    for (size_t i = 0; i < responses.size(); ++i) {
      ASSERT_TRUE(responses[i].status.ok());
      EXPECT_EQ(responses[i].tuples, responses[i % distinct.size()].tuples);
      evaluated += !responses[i].trace.collapsed;
    }
    EXPECT_EQ(evaluated, distinct.size()) << "rep " << rep;
  }
}

// A leader cancelled mid-flight completes at once, and its waiters cost one
// more evaluation, not one each: the first live waiter takes the flight
// over and the others replay its answer.
TEST(AsyncServiceTest, CancelledLeaderHandsItsFlightToOneWaiter) {
  LongQueryRig rig;
  QueryService service(&rig.db, rig.program, {2, 64});
  ASSERT_TRUE(service.status().ok());
  ASSERT_EQ(service.answer_cache(), nullptr);
  auto t0 = std::chrono::steady_clock::now();
  QueryResponse full = service.Eval(rig.Request());
  const double uncancelled_ms = MsSince(t0);
  ASSERT_TRUE(full.status.ok());

  const uint64_t nodes0 = CounterValue("binchain_engine_node_expansions_total");
  QueryFuture leader = service.Submit(rig.Request());
  while (service.pending() != 0) std::this_thread::yield();
  constexpr size_t kWaiters = 4;
  std::vector<QueryFuture> waiters;
  for (size_t i = 0; i < kWaiters; ++i) {
    waiters.push_back(service.Submit(rig.Request()));
  }
  EXPECT_EQ(service.pending(), 0u);  // all parked, none queued
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  t0 = std::chrono::steady_clock::now();
  leader.Cancel();
  QueryResponse lr = leader.Take();
  const double cancel_ms = MsSince(t0);
  EXPECT_EQ(lr.status.code(), StatusCode::kCancelled);
  EXPECT_LT(cancel_ms, uncancelled_ms / 2)
      << "uncancelled=" << uncancelled_ms << "ms cancel=" << cancel_ms;

  size_t evaluated = 0;
  uint64_t ran_nodes = lr.stats.nodes;
  for (QueryFuture& f : waiters) {
    QueryResponse r = f.Take();
    ASSERT_TRUE(r.status.ok()) << r.status.message();
    EXPECT_EQ(r.tuples, full.tuples);
    if (!r.trace.collapsed) {
      ++evaluated;
      ran_nodes += r.stats.nodes;
    }
  }
  EXPECT_EQ(evaluated, 1u);
  EXPECT_EQ(CounterValue("binchain_engine_node_expansions_total") - nodes0,
            ran_nodes);
}

// Waiting on a flight must not cost a request its deadline: a request with
// a tighter budget than the running identical query evaluates on its own
// and stops at about its deadline.
TEST(AsyncServiceTest, ShortDeadlineRequestDoesNotWaitOnALongerFlight) {
  LongQueryRig rig;
  QueryService service(&rig.db, rig.program, {2, 64});
  ASSERT_TRUE(service.status().ok());
  auto t0 = std::chrono::steady_clock::now();
  QueryResponse full = service.Eval(rig.Request());
  const double uncancelled_ms = MsSince(t0);
  ASSERT_TRUE(full.status.ok());

  QueryFuture leader = service.Submit(rig.Request());
  while (service.pending() != 0) std::this_thread::yield();
  const double deadline_ms =
      std::max(5.0, std::min(50.0, uncancelled_ms / 8));
  t0 = std::chrono::steady_clock::now();
  QueryResponse cut = service.Submit(rig.Request(deadline_ms)).Take();
  const double cut_ms = MsSince(t0);
  EXPECT_EQ(cut.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(cut.partial);  // it evaluated, and stopped mid-flight
  EXPECT_FALSE(cut.trace.collapsed);
  EXPECT_LT(cut_ms, uncancelled_ms / 2)
      << "uncancelled=" << uncancelled_ms << "ms deadline=" << deadline_ms
      << "ms took=" << cut_ms;

  QueryResponse lr = leader.Take();
  EXPECT_TRUE(lr.status.ok());
  EXPECT_EQ(lr.tuples, full.tuples);
}

// Request keys length-prefix the caller's strings: requests whose fields
// differ only in where a separator-like byte falls never share a flight.
TEST(AsyncServiceTest, SeparatorBytesInArgumentsDoNotCollideKeys) {
  LongQueryRig rig;
  rig.db.AddFact("flat", {"b\x1f" "c", "x"});
  rig.db.AddFact("flat", {"b", "c\x1f"});
  QueryService service(&rig.db, rig.program, {1, 64});
  ASSERT_TRUE(service.status().ok());

  // Hold the one worker so both requests are in flight together.
  QueryFuture running = service.Submit(rig.Request());
  while (service.pending() != 0) std::this_thread::yield();
  QueryFuture first = service.Submit({"sg", "b\x1f" "c", "", {}});
  QueryFuture second = service.Submit({"sg", "b", "c\x1f", {}});
  EXPECT_EQ(service.pending(), 2u);  // neither parked on the other
  running.Cancel();

  QueryResponse r1 = first.Take();
  QueryResponse r2 = second.Take();
  ASSERT_TRUE(r1.status.ok()) << r1.status.message();
  ASSERT_TRUE(r2.status.ok()) << r2.status.message();
  EXPECT_FALSE(r2.trace.collapsed);
  const SymbolTable& symbols = service.database().symbols();
  ASSERT_EQ(r1.tuples.size(), 1u);
  ASSERT_EQ(r2.tuples.size(), 1u);
  EXPECT_EQ(symbols.Name(r1.tuples[0][1]), "x");
  EXPECT_EQ(symbols.Name(r2.tuples[0][0]), "b");
  EXPECT_EQ(symbols.Name(r2.tuples[0][1]), "c\x1f");
}

TEST(ServiceTest, ConcurrentClientBatches) {
  // Two client threads hammering the same service: batches serialize onto
  // the pool and each client still sees exactly its own results.
  Database db;
  workloads::Fig7b(db, 12);
  Program program = SgProgram(db);
  QueryService service(&db, program, {2});
  ASSERT_TRUE(service.status().ok());
  std::vector<QueryRequest> batch = AllSourcesBatch(db);
  auto expected = service.EvalBatch(batch);

  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < 3; ++i) {
        auto got = service.EvalBatch(batch);
        if (got.size() != expected.size()) {
          ++mismatches;
          continue;
        }
        for (size_t j = 0; j < got.size(); ++j) {
          if (got[j].tuples != expected[j].tuples) ++mismatches;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace binchain
