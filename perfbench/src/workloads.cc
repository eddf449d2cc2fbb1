#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

using binchain::Rng;

double Uniform01(Rng& rng) {
  return static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
}

std::string N(const char* prefix, size_t i) {
  return prefix + std::to_string(i);
}

QueryKey Bound(const std::string& pred, const std::string& source,
               const std::string& target, const char* family,
               bool cyclic = false) {
  QueryKey k;
  k.pred = pred;
  k.source = source;
  k.target = target;
  k.family = family;
  k.cyclic = cyclic;
  return k;
}

/// Figure 7(b): up-chain fa1..fan, flat(fa_k, fb_n) for every k,
/// down-chain fbn..fb1. Theta(n^2) nodes per source-bound query.
void AddFig7b(size_t n, FactSet* f, std::vector<QueryKey>* keys) {
  for (size_t i = 1; i < n; ++i) {
    f->insert({"up", N("fa", i), N("fa", i + 1)});
    f->insert({"down", N("fb", i + 1), N("fb", i)});
  }
  for (size_t k = 1; k <= n; ++k) f->insert({"flat", N("fa", k), N("fb", n)});
  for (size_t i = 1; i <= n; ++i) {
    keys->push_back(Bound("sg", N("fa", i), "", "fig7b"));
    keys->push_back(Bound("sg", "", N("fb", i), "fig7b"));
  }
}

/// Figure 8: up-cycle of length m, down-cycle of length n, one flat edge;
/// for coprime m, n the answer needs m*n iterations, so source-bound keys
/// are sent with use_cyclic_bound.
void AddFig8(size_t m, size_t n, FactSet* f, std::vector<QueryKey>* keys) {
  for (size_t i = 1; i <= m; ++i) f->insert({"up", N("ca", i), N("ca", i % m + 1)});
  for (size_t i = 1; i <= n; ++i) {
    f->insert({"down", N("cb", i), N("cb", i == 1 ? n : i - 1)});
  }
  f->insert({"flat", N("ca", m), N("cb", n)});
  for (size_t i = 1; i <= m; ++i) {
    keys->push_back(Bound("sg", N("ca", i), "", "fig8", /*cyclic=*/true));
  }
}

/// A layered random DAG: `layers` layers of `width` nodes, node (l, i)
/// named <prefix><l * width + i>, every node below the top layer with
/// `degree` edges to random nodes of the next layer. Reach saturates
/// within a few layers, so a query's cost is set by its node's layer
/// rather than by the luck of the draw, and a seed changes the wiring but
/// not the cost profile.
struct Layers {
  size_t layers = 0, width = 0, degree = 0;

  size_t nodes() const { return layers * width; }
  std::string Node(const char* prefix, size_t l, size_t i) const {
    return N(prefix, l * width + i);
  }
  /// One random edge of relation `rel`: up (ru, l -> l+1), down (rd,
  /// l+1 -> l, so up^k then down^k returns to the start layer), flat
  /// (ru -> rd within a layer), or e (pn, l -> l+1).
  Fact Edge(const std::string& rel, Rng& rng) const {
    const size_t i = rng.Below(width), j = rng.Below(width);
    if (rel == "flat") {
      const size_t l = rng.Below(layers);
      return {rel, Node("ru", l, i), Node("rd", l, j)};
    }
    const size_t l = rng.Below(layers - 1);
    if (rel == "up") return {rel, Node("ru", l, i), Node("ru", l + 1, j)};
    if (rel == "down") return {rel, Node("rd", l + 1, i), Node("rd", l, j)};
    return {rel, Node("pn", l, i), Node("pn", l + 1, j)};
  }
};

// ------------------------------------------------- the workloads' constants

/// Seed of every workload's data: the DAG wiring, live_durable's hot set
/// and its Zipf ranks, and live_durable's batches. It is fixed, so every
/// run of a workload serves the same database and hot set, and --seed draws
/// only the traffic (arrival schedule, keys within the fixed distribution,
/// response modes). With the DAG wired from --seed, the median latency of
/// bound_uniform's DAG keys differed by 24% between two seeds.
constexpr uint64_t kDataSeed = 0x5eed0da7aull;

/// Open-loop arrival rate of every workload: below the seed's closed-loop
/// capacity (about 90 req/s on 4 connections while the delayed-ACK stall
/// stands), so the backlog does not grow.
constexpr double kRateQps = 35;

/// Uniform over every key of Fig 7(b), Fig 8 and a layered DAG (869 keys
/// whose answers are about 3x the 128 KiB cache): the evaluator and the
/// queue do the work.
struct BoundUniform {
  size_t fig7b_n = 128;
  size_t fig8_m = 13, fig8_n = 17;  // coprime: m*n iterations per query
  Layers dag{12, 25, 2};
  double buffered_frac = 0;
  double max_hit_ratio = 0.5;
};
constexpr BoundUniform kBoundUniform{};

/// A WAL-recovered live service with a publisher beside the reads.
struct LiveDurable {
  Layers dag{10, 15, 2};  // both the sg DAG and the path e-DAG
  size_t logged_batches = 40;  // committed before set-up, replayed by it
  size_t batch_adds = 4, batch_retracts = 4;
  double publish_qps = 30;
  size_t hot_keys = 96;  // half sg, half path
  double zipf_s = 1.07;
  double buffered_frac = 0.2;
};
constexpr LiveDurable kLiveDurable{};

/// Layered up/flat/down DAG over ru* (up side) and rd* (down side), with
/// a source-bound key per ru node and a target-bound key per rd node.
void AddSgDag(const Layers& g, Rng& rng, FactSet* f, std::vector<QueryKey>* keys) {
  for (size_t l = 0; l < g.layers; ++l) {
    for (size_t i = 0; i < g.width; ++i) {
      f->insert({"flat", g.Node("ru", l, i), g.Node("rd", l, rng.Below(g.width))});
      if (l + 1 == g.layers) continue;
      for (size_t d = 0; d < g.degree; ++d) {
        f->insert({"up", g.Node("ru", l, i), g.Node("ru", l + 1, rng.Below(g.width))});
        f->insert({"down", g.Node("rd", l + 1, i), g.Node("rd", l, rng.Below(g.width))});
      }
    }
  }
  if (keys == nullptr) return;
  for (size_t n = 0; n < g.nodes(); ++n) {
    keys->push_back(Bound("sg", N("ru", n), "", "dag"));
    keys->push_back(Bound("sg", "", N("rd", n), "dag"));
  }
}

/// Layered e-DAG over pn* for the transitive-closure predicate `path`.
void AddPathDag(const Layers& g, Rng& rng, FactSet* f) {
  for (size_t l = 0; l + 1 < g.layers; ++l) {
    for (size_t i = 0; i < g.width; ++i) {
      for (size_t d = 0; d < g.degree; ++d) {
        f->insert({"e", g.Node("pn", l, i), g.Node("pn", l + 1, rng.Below(g.width))});
      }
    }
  }
}

/// The set-up's first query: sg from the DAG's first top-layer node, which
/// has no up edge and so at most its one flat answer. A query this cheap
/// keeps evaluation time, and its variance, out of setup_s. Appends the key
/// to `keys` if it is not there; returns its index.
uint32_t ProbeKey(const Layers& g, std::vector<QueryKey>* keys) {
  const std::string node = g.Node("ru", g.layers - 1, 0);
  for (uint32_t k = 0; k < keys->size(); ++k) {
    if ((*keys)[k].pred == "sg" && (*keys)[k].source == node) return k;
  }
  keys->push_back(Bound("sg", node, "", "dag"));
  return static_cast<uint32_t>(keys->size() - 1);
}

/// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Sample(Rng& rng) const {
    size_t r = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), Uniform01(rng)) - cdf_.begin());
    return std::min(r, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

template <typename T>
void Shuffle(std::vector<T>* v, Rng& rng) {
  for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[rng.Below(i)]);
}

std::vector<double> PoissonSchedule(double rate_qps, double seconds, Rng& rng) {
  std::vector<double> due;
  const double mean_gap_ms = 1000.0 / rate_qps;
  for (double t = 0;;) {
    t += -std::log(1.0 - Uniform01(rng)) * mean_gap_ms;
    if (t >= seconds * 1000.0) return due;
    due.push_back(t);
  }
}

/// Fills the open and closed streams by drawing keys from `draw`, each
/// request buffered ("stream": false) with probability `buffered_frac`.
template <typename Draw>
void FillStreams(double buffered, double open_s, Rng& rng, Draw draw,
                 Workload* w) {
  constexpr size_t kClosedStream = 1 << 16;
  w->open_due_ms = PoissonSchedule(kRateQps, open_s, rng);
  for (size_t i = 0; i < w->open_due_ms.size(); ++i) {
    w->open.push_back({static_cast<uint32_t>(draw()), Uniform01(rng) < buffered});
  }
  for (size_t i = 0; i < kClosedStream; ++i) {
    w->closed.push_back({static_cast<uint32_t>(draw()), Uniform01(rng) < buffered});
  }
}

/// One random batch on `side`'s relations against the current fact set:
/// `adds` facts not yet present, `retracts` present facts, no fact twice.
Batch MakeBatch(const std::string& side, size_t adds, size_t retracts,
                const Layers& g, Rng& rng, const FactSet& current) {
  static const char* const kSgRelations[] = {"up", "flat", "down"};
  Batch b;
  b.side = side;
  FactSet touched;
  auto pick_new = [&]() -> Fact {
    for (int attempt = 0; attempt < 10000; ++attempt) {
      Fact f = g.Edge(side == "path" ? "e" : kSgRelations[rng.Below(3)], rng);
      if (current.count(f) == 0 && touched.insert(f).second) return f;
    }
    throw std::invalid_argument("no absent " + side + " fact left to insert");
  };
  for (size_t i = 0; i < adds; ++i) b.ops.push_back({false, pick_new()});
  std::vector<Fact> present;
  for (const Fact& f : current) {
    bool mine = side == "path" ? f[0] == "e" : f[0] != "e";
    if (mine && touched.count(f) == 0) present.push_back(f);
  }
  for (size_t i = 0; i < retracts && !present.empty(); ++i) {
    size_t k = rng.Below(present.size());
    b.ops.push_back({true, present[k]});
    present[k] = present.back();
    present.pop_back();
  }
  return b;
}

void MakeBoundUniform(Rng& data, Rng& rng, double open_s, Workload* w) {
  const BoundUniform& d = kBoundUniform;
  w->rules = binchain::workloads::SgProgramText();
  AddFig7b(d.fig7b_n, &w->genesis, &w->keys);
  AddFig8(d.fig8_m, d.fig8_n, &w->genesis, &w->keys);
  AddSgDag(d.dag, data, &w->genesis, &w->keys);
  w->probe = ProbeKey(d.dag, &w->keys);
  const size_t n = w->keys.size();
  FillStreams(d.buffered_frac, open_s, rng, [&] { return rng.Below(n); }, w);
  w->max_hit_ratio = d.max_hit_ratio;
}

void MakeLive(Rng& data, Rng& rng, double open_s, double closed_s, Workload* w) {
  const LiveDurable& p = kLiveDurable;
  w->rules = std::string(binchain::workloads::SgProgramText()) +
             binchain::workloads::PathProgramText();
  const Layers& g = p.dag;
  const size_t nodes = g.nodes();
  AddSgDag(g, data, &w->genesis, nullptr);
  AddPathDag(g, data, &w->genesis);

  // Batches alternate between the two predicates' disjoint supports, so
  // every publish must leave the other predicate's cache entries valid.
  FactSet current = w->genesis;
  const double interval_ms = 1000.0 / p.publish_qps;
  const size_t live =
      static_cast<size_t>(std::ceil((open_s + closed_s) * 1000.0 / interval_ms)) + 1;
  for (size_t b = 0; b < p.logged_batches + live; ++b) {
    Batch batch = MakeBatch(b % 2 == 0 ? "sg" : "path", p.batch_adds, p.batch_retracts, g,
                            data, current);
    ApplyBatch(batch, &current);
    (b < p.logged_batches ? w->logged : w->live).push_back(std::move(batch));
  }
  w->publish_interval_ms = interval_ms;

  // Reads: Zipf over a hot set that interleaves sg and path keys by rank.
  std::vector<uint32_t> sg_nodes(nodes), path_nodes(nodes);
  for (uint32_t i = 0; i < nodes; ++i) sg_nodes[i] = path_nodes[i] = i;
  Shuffle(&sg_nodes, data);
  Shuffle(&path_nodes, data);
  const size_t per_pred = std::min(nodes, p.hot_keys / 2);
  for (size_t r = 0; r < per_pred; ++r) {
    w->keys.push_back(Bound("sg", N("ru", sg_nodes[r]), "", "dag"));
    w->keys.push_back(Bound("path", N("pn", path_nodes[r]), "", "path"));
  }
  Zipf zipf(w->keys.size(), p.zipf_s);
  FillStreams(p.buffered_frac, open_s, rng, [&] { return zipf.Sample(rng); }, w);
  for (uint32_t k = 0; k < w->keys.size(); ++k) w->warm.push_back(k);
  w->probe = ProbeKey(g, &w->keys);
}

}  // namespace

std::string QueryKey::Body(bool stream) const {
  std::string b = "{\"pred\": " + JsonString(pred);
  if (!source.empty()) b += ", \"source\": " + JsonString(source);
  if (!target.empty()) b += ", \"target\": " + JsonString(target);
  if (!stream) b += ", \"stream\": false";
  if (cyclic) b += ", \"options\": {\"use_cyclic_bound\": true}";
  return b + "}";
}

std::string ProgramText(const std::string& rules, const FactSet& facts) {
  std::string text = rules;
  for (const Fact& f : facts) text += f[0] + "(" + f[1] + ", " + f[2] + ").\n";
  return text;
}

void ApplyBatch(const Batch& batch, FactSet* facts) {
  for (const FactOp& op : batch.ops) {
    if (op.retract) {
      facts->erase(op.fact);
    } else {
      facts->insert(op.fact);
    }
  }
}

Workload MakeWorkload(const std::string& name, uint64_t seed, double open_seconds,
                      double closed_seconds) {
  Workload w;
  w.name = name;
  Rng data(kDataSeed), rng(seed);
  if (name == "bound_uniform") {
    MakeBoundUniform(data, rng, open_seconds, &w);
  } else if (name == "live_durable") {
    MakeLive(data, rng, open_seconds, closed_seconds, &w);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

}  // namespace perfbench
