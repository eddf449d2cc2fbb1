// Standalone storage-layer benchmark runner: times the same-generation
// query across the engine and the baseline strategies on the Figure 7 /
// Figure 8 samples and a wide ladder, reporting wall time plus the paper's
// `t`-cost (EDB fetch count) per benchmark. A `load` row times the load
// path itself (ParseProgram + PrepareProgram) over a generated fact text
// of at least 1 MB and reports facts/s and MB/s (10^6 bytes).
//
// Usage:
//   bench_storage [--n <size>] [--reps <k>] [--smoke] [--json [path]]
//
// `--json` writes BENCH_storage.json (or the given path) so successive PRs
// can track the perf trajectory; without it a table goes to stdout.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "baselines/bottom_up.h"
#include "baselines/counting.h"
#include "baselines/magic.h"
#include "bench_util.h"
#include "datalog/parser.h"
#include "equations/lemma1.h"
#include "eval/query.h"
#include "workloads/workloads.h"

namespace {

using namespace binchain;
using bench::JsonEscape;
using bench::MsSince;

struct BenchResult {
  std::string name;
  double wall_ms = 0;    // best-of-reps wall time of one query
  uint64_t fetches = 0;  // EDB retrievals during that query
  uint64_t results = 0;  // answer-set size (sanity: must match across PRs)
  bool ok = true;
  std::string error;
  double facts_per_s = 0;  // load row only
  double mb_per_s = 0;     // load row only
};

/// Runs `body` `reps` times; records the fastest wall time and the fetch
/// delta / result count of that run.
template <typename Fn>
BenchResult Measure(const std::string& name, Database& db, int reps, Fn body) {
  BenchResult r;
  r.name = name;
  r.wall_ms = 1e300;
  for (int i = 0; i < reps; ++i) {
    uint64_t fetches_before = db.TotalFetches();
    auto t0 = std::chrono::steady_clock::now();
    Result<uint64_t> count = body();
    double ms = MsSince(t0);
    if (!count.ok()) {
      r.ok = false;
      r.error = count.status().message();
      return r;
    }
    if (ms < r.wall_ms) {
      r.wall_ms = ms;
      r.fetches = db.TotalFetches() - fetches_before;
      r.results = count.value();
    }
  }
  return r;
}

using SampleFn = std::string (*)(Database&, size_t);

struct Case {
  std::string label;
  SampleFn build;
};

/// The wide ladder of bench_linear: h levels, `width` rungs per level.
std::string WideLadder(Database& db, size_t h, size_t width) {
  for (size_t i = 1; i < h; ++i) {
    db.AddFact("up", {"a" + std::to_string(i), "a" + std::to_string(i + 1)});
    db.AddFact("down", {"b" + std::to_string(i + 1), "b" + std::to_string(i)});
  }
  for (size_t i = 1; i <= h; ++i) {
    for (size_t w = 0; w < width; ++w) {
      std::string mid = "m" + std::to_string(i) + "_" + std::to_string(w);
      db.AddFact("flat", {"a" + std::to_string(i), mid});
      db.AddFact("down", {mid, "b" + std::to_string(i)});
    }
  }
  return "a1";
}

void RunSample(const std::string& label, SampleFn build, size_t n,
               size_t small_n, int reps, std::vector<BenchResult>& out) {
  // One database per strategy family so warm indexes are comparable and
  // fetch counters are attributable.
  {
    Database db;
    std::string a = build(db, n);
    QueryEngine engine(&db);
    Program program = ParseProgram(workloads::SgProgramText(), db.symbols()).take();
    if (!engine.LoadProgram(program).ok()) return;
    Literal query = ParseLiteral("sg(" + a + ", Y)", db.symbols()).take();
    out.push_back(Measure(label + "/ours/n=" + std::to_string(n), db, reps,
                          [&]() -> Result<uint64_t> {
                            auto r = engine.Query(query);
                            if (!r.ok()) return r.status();
                            return static_cast<uint64_t>(r.value().tuples.size());
                          }));
  }
  {
    Database db;
    std::string a = build(db, n);
    Program program = ParseProgram(workloads::SgProgramText(), db.symbols()).take();
    auto eqs = TransformToEquations(program, db.symbols());
    LinearNormalForm nf;
    if (eqs.ok() && MatchLinearNormalForm(eqs.value().final_system,
                                          *db.symbols().Find("sg"), &nf)) {
      ViewRegistry views(&db.symbols());
      views.RegisterDatabase(db);
      TermId src = views.pool().Unary(*db.symbols().Find(a));
      size_t cap = 4 * n;
      out.push_back(Measure(label + "/counting/n=" + std::to_string(n), db,
                            reps, [&]() -> Result<uint64_t> {
                              LevelStats stats;
                              auto r = CountingQuery(views, nf, src, cap, &stats);
                              if (!r.ok()) return r.status();
                              return static_cast<uint64_t>(r.value().size());
                            }));
      out.push_back(Measure(label + "/henschen-naqvi/n=" + std::to_string(n),
                            db, reps, [&]() -> Result<uint64_t> {
                              LevelStats stats;
                              auto r = HenschenNaqviQuery(views, nf, src, cap,
                                                          &stats);
                              if (!r.ok()) return r.status();
                              return static_cast<uint64_t>(r.value().size());
                            }));
    }
  }
  // Bottom-up strategies are quadratic-ish on these samples: smaller n.
  {
    Database db;
    std::string a = build(db, small_n);
    Program program = ParseProgram(workloads::SgProgramText(), db.symbols()).take();
    Literal query = ParseLiteral("sg(" + a + ", Y)", db.symbols()).take();
    out.push_back(Measure(label + "/seminaive/n=" + std::to_string(small_n),
                          db, reps, [&]() -> Result<uint64_t> {
                            BottomUpStats stats;
                            auto r = SeminaiveQuery(program, db, query, &stats,
                                                    1000000);
                            if (!r.ok()) return r.status();
                            return static_cast<uint64_t>(r.value().size());
                          }));
    out.push_back(Measure(label + "/magic/n=" + std::to_string(small_n), db,
                          reps, [&]() -> Result<uint64_t> {
                            BottomUpStats stats;
                            auto r = MagicQuery(program, db, query, &stats);
                            if (!r.ok()) return r.status();
                            return static_cast<uint64_t>(r.value().size());
                          }));
    out.push_back(Measure(label + "/naive/n=" + std::to_string(small_n), db,
                          reps, [&]() -> Result<uint64_t> {
                            BottomUpStats stats;
                            auto r = NaiveQuery(program, db, query, &stats,
                                                1000000);
                            if (!r.ok()) return r.status();
                            return static_cast<uint64_t>(r.value().size());
                          }));
  }
}

/// Times ParseProgram + PrepareProgram (the service's start-up load) over
/// the sg rules and >= 1 MB of distinct up/flat/down facts. `results` is
/// the number of rows loaded; ok requires it to equal the number of facts
/// generated, so the regression gate's ok check covers loader correctness.
void RunLoad(int reps, std::vector<BenchResult>& out) {
  std::string text = workloads::SgProgramText();
  uint64_t facts = 0;
  for (size_t i = 0; text.size() < (size_t{1} << 20); ++i) {
    const std::string a = "a" + std::to_string(i);
    const std::string b = "b" + std::to_string(i);
    text += "up(" + a + ", a" + std::to_string(i + 1) + ").\n";
    text += "flat(" + a + ", b" + std::to_string(i * 7919 % 10007) + ").\n";
    text += "down(" + b + ", b" + std::to_string(i / 2) + ").\n";
    facts += 3;
  }
  BenchResult r;
  r.name = "load/parse+prepare/bytes=" + std::to_string(text.size());
  r.wall_ms = 1e300;
  for (int i = 0; i < reps; ++i) {
    Database db;
    auto t0 = std::chrono::steady_clock::now();
    auto parsed = ParseProgram(text, db.symbols());
    if (!parsed.ok()) {
      r.ok = false;
      r.error = parsed.status().message();
      break;
    }
    auto plan = PrepareProgram(&db, parsed.value(), /*compile_machines=*/true);
    const double ms = MsSince(t0);
    if (!plan.ok()) {
      r.ok = false;
      r.error = plan.status().message();
      break;
    }
    uint64_t rows = 0;
    for (const std::string& name : db.relation_names()) {
      rows += db.Find(name)->size();
    }
    if (rows != facts) {
      r.ok = false;
      r.error = "loaded " + std::to_string(rows) + " rows from " +
                std::to_string(facts) + " facts";
    }
    if (ms < r.wall_ms) {
      r.wall_ms = ms;
      r.results = rows;
    }
  }
  if (r.ok) {
    r.facts_per_s = static_cast<double>(facts) / (r.wall_ms / 1e3);
    r.mb_per_s = static_cast<double>(text.size()) / 1e6 / (r.wall_ms / 1e3);
  }
  out.push_back(r);
}

void RunAll(size_t n, size_t small_n, int reps, std::vector<BenchResult>& out) {
  RunLoad(reps, out);
  RunSample("fig7a", &workloads::Fig7a, n, small_n, reps, out);
  RunSample("fig7b", &workloads::Fig7b, n, small_n, reps, out);
  RunSample("fig7c", &workloads::Fig7c, n, small_n, reps, out);

  {  // the linear-case ladder (bench_linear's shape)
    Database db;
    std::string a = WideLadder(db, n / 2, 8);
    QueryEngine engine(&db);
    if (engine.LoadProgramText(workloads::SgProgramText()).ok()) {
      Literal query = ParseLiteral("sg(" + a + ", Y)", db.symbols()).take();
      out.push_back(Measure("ladder/ours/h=" + std::to_string(n / 2), db, reps,
                            [&]() -> Result<uint64_t> {
                              auto r = engine.Query(query);
                              if (!r.ok()) return r.status();
                              return static_cast<uint64_t>(
                                  r.value().tuples.size());
                            }));
    }
  }
  {  // Figure 8 cyclic data under the |D1|*|D2| bound
    Database db;
    size_t m = std::max<size_t>(3, small_n / 8 | 1);
    size_t cyc_n = m + 2;  // coprime with m (m odd)
    std::string a = workloads::Fig8(db, m, cyc_n);
    QueryEngine engine(&db);
    if (engine.LoadProgramText(workloads::SgProgramText()).ok()) {
      Literal query = ParseLiteral("sg(" + a + ", Y)", db.symbols()).take();
      EvalOptions opt;
      opt.use_cyclic_bound = true;
      out.push_back(Measure(
          "fig8/ours-cyclic/m=" + std::to_string(m) + ",n=" +
              std::to_string(cyc_n),
          db, reps, [&]() -> Result<uint64_t> {
            auto r = engine.Query(query, opt);
            if (!r.ok()) return r.status();
            return static_cast<uint64_t>(r.value().tuples.size());
          }));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  size_t n = 256, small_n = 128;
  int reps = 3;
  bool json = false;
  std::string json_path = "BENCH_storage.json";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--n") && i + 1 < argc) {
      n = static_cast<size_t>(std::atol(argv[++i]));
      small_n = n / 2;
    } else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--smoke")) {
      n = 64;
      small_n = 32;
      reps = 1;
    } else if (!std::strcmp(argv[i], "--json")) {
      json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--n <size>] [--reps <k>] [--smoke] "
                   "[--json [path]]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<BenchResult> results;
  RunAll(n, small_n, reps, results);

  int failures = 0;
  std::printf("%-36s %12s %12s %10s\n", "benchmark", "wall_ms", "fetches",
              "results");
  for (const BenchResult& r : results) {
    if (!r.ok) {
      ++failures;
      std::printf("%-36s ERROR: %s\n", r.name.c_str(), r.error.c_str());
      continue;
    }
    std::printf("%-36s %12.3f %12llu %10llu", r.name.c_str(), r.wall_ms,
                static_cast<unsigned long long>(r.fetches),
                static_cast<unsigned long long>(r.results));
    if (r.facts_per_s > 0) {
      std::printf("  %.0f facts/s, %.1f MB/s", r.facts_per_s, r.mb_per_s);
    }
    std::printf("\n");
  }

  if (json) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"storage\",\n  \"host\": " << bench::HostJson()
        << ",\n  \"benchmarks\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
      const BenchResult& r = results[i];
      out << "    {\"name\": \"" << JsonEscape(r.name) << "\", \"ok\": "
          << (r.ok ? "true" : "false") << ", \"wall_ms\": " << r.wall_ms
          << ", \"fetches\": " << r.fetches << ", \"results\": " << r.results;
      if (r.facts_per_s > 0) {
        out << ", \"facts_per_s\": " << r.facts_per_s
            << ", \"mb_per_s\": " << r.mb_per_s;
      }
      out << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return failures == 0 ? 0 : 1;
}
