#include "convolve/hades/search.hpp"

#include <limits>
#include <stdexcept>
#include <tuple>

#include "convolve/common/parallel.hpp"
#include "convolve/common/telemetry.hpp"

namespace convolve::hades {

namespace {

#if CONVOLVE_TELEMETRY_ENABLED
telemetry::Counter t_explored{"hades.configs_explored"};
telemetry::Counter t_pruned{"hades.configs_pruned"};
telemetry::Counter t_folds{"hades.fold_invocations"};
telemetry::Counter t_restarts{"hades.local_search.restarts"};
#endif

// Mixed-radix odometer over the configuration tree. Children are the least
// significant digits; when all children wrap, the variant advances (and the
// children are rebuilt for the new variant). Returns false when the whole
// subtree wrapped back to its first configuration.
bool advance(const Component& c, Choice& ch) {
  const Variant& v = c.variants()[static_cast<std::size_t>(ch.variant)];
  for (std::size_t i = 0; i < v.children.size(); ++i) {
    if (advance(*v.children[i], ch.children[i])) return true;
    // Child i wrapped; it is already reset. Carry into the next child.
  }
  // All children wrapped: advance our own variant.
  ++ch.variant;
  if (ch.variant >= static_cast<int>(c.variants().size())) {
    ch.variant = 0;
  }
  const Variant& nv = c.variants()[static_cast<std::size_t>(ch.variant)];
  ch.children.clear();
  for (const auto& child : nv.children) {
    ch.children.push_back(default_choice(*child));
  }
  return ch.variant != 0;
}

// Paths to every node in the current choice tree (sequence of child
// indices from the root).
void collect_paths(const Component& c, const Choice& ch, std::vector<int>& cur,
                   std::vector<std::vector<int>>& out) {
  out.push_back(cur);
  const Variant& v = c.variants()[static_cast<std::size_t>(ch.variant)];
  for (std::size_t i = 0; i < v.children.size(); ++i) {
    cur.push_back(static_cast<int>(i));
    collect_paths(*v.children[i], ch.children[i], cur, out);
    cur.pop_back();
  }
}

struct NodeRef {
  const Component* component;
  Choice* choice;
};

NodeRef locate(const Component& root, Choice& ch,
               std::span<const int> path) {
  const Component* c = &root;
  Choice* cur = &ch;
  for (int step : path) {
    const Variant& v = c->variants()[static_cast<std::size_t>(cur->variant)];
    c = v.children[static_cast<std::size_t>(step)].get();
    cur = &cur->children[static_cast<std::size_t>(step)];
  }
  return {c, cur};
}

// Enumeration grain: big enough that chunk setup (choice_for_index decode)
// is noise, small enough that the pool's shared chunk cursor balances
// uneven metric folds.
constexpr std::uint64_t kEnumGrain = 1024;

// Shared shard walker: decode the shard's first configuration, then step
// the odometer, handing (global_index, choice, metrics) to `fn` in
// ascending index order within the shard.
template <typename Fn>
void walk_shard(const Component& c, unsigned d, par::Range r, Fn&& fn) {
  if (r.begin >= r.end) return;
  // One flush per shard, not per config: the enumeration loop stays free
  // of atomics.
  CONVOLVE_TELEMETRY_ONLY(t_explored.add(r.end - r.begin);
                          t_folds.add(r.end - r.begin);)
  Choice ch = choice_for_index(c, r.begin);
  for (std::uint64_t i = r.begin; i < r.end; ++i) {
    fn(i, ch, evaluate(c, ch, d));
    advance(c, ch);
  }
}

// Lexicographic metrics key used for deterministic tie-breaking among
// equal-cost designs.
std::tuple<double, double, double> metrics_key(const Metrics& m) {
  return std::tuple{m.area_ge, m.latency_cc, m.rand_bits};
}

// The explicit accumulation rule (ISSUE 2 bugfix): a candidate replaces the
// incumbent iff it has strictly lower cost, or equal cost and a strictly
// smaller (area, latency, randomness) key, or equal cost and key and a
// strictly lower configuration index. Serial accumulation in index order
// and sharded merges in shard order both converge to the same
// representative under this rule.
bool better_design(double cost, const Metrics& m, std::uint64_t index,
                   const SearchResult& incumbent) {
  if (cost != incumbent.cost) return cost < incumbent.cost;
  if (metrics_key(m) != metrics_key(incumbent.metrics)) {
    return metrics_key(m) < metrics_key(incumbent.metrics);
  }
  return index < incumbent.config_index;
}

SearchResult unexplored_result() {
  SearchResult r;
  r.cost = std::numeric_limits<double>::infinity();
  r.config_index = std::numeric_limits<std::uint64_t>::max();
  return r;
}

}  // namespace

Choice choice_for_index(const Component& c, std::uint64_t index) {
  const auto& variants = c.variants();
  for (std::size_t vi = 0; vi < variants.size(); ++vi) {
    const Variant& v = variants[vi];
    std::uint64_t size = 1;
    for (const auto& child : v.children) size *= child->config_count();
    if (index < size) {
      Choice ch;
      ch.variant = static_cast<int>(vi);
      for (const auto& child : v.children) {
        const std::uint64_t count = child->config_count();
        ch.children.push_back(choice_for_index(*child, index % count));
        index /= count;
      }
      return ch;
    }
    index -= size;
  }
  throw std::out_of_range("choice_for_index: index beyond design space");
}

std::uint64_t config_index_of(const Component& c, const Choice& choice) {
  const auto& variants = c.variants();
  if (choice.variant < 0 ||
      choice.variant >= static_cast<int>(variants.size())) {
    throw std::out_of_range("config_index_of: bad variant");
  }
  std::uint64_t base = 0;
  for (int vi = 0; vi < choice.variant; ++vi) {
    std::uint64_t size = 1;
    for (const auto& child :
         variants[static_cast<std::size_t>(vi)].children) {
      size *= child->config_count();
    }
    base += size;
  }
  const Variant& v = variants[static_cast<std::size_t>(choice.variant)];
  std::uint64_t offset = 0;
  std::uint64_t mult = 1;
  for (std::size_t i = 0; i < v.children.size(); ++i) {
    offset += config_index_of(*v.children[i], choice.children[i]) * mult;
    mult *= v.children[i]->config_count();
  }
  return base + offset;
}

std::uint64_t for_each_config(
    const Component& c, unsigned d,
    const std::function<void(const Choice&, const Metrics&)>& fn) {
  Choice ch = default_choice(c);
  std::uint64_t n = 0;
  do {
    fn(ch, evaluate(c, ch, d));
    ++n;
  } while (advance(c, ch));
  return n;
}

std::uint64_t for_each_config_indexed(
    const Component& c, unsigned d,
    const std::function<void(std::uint64_t, const Choice&, const Metrics&)>&
        fn) {
  const std::uint64_t total = c.config_count();
  const std::uint64_t n_chunks = par::chunk_count(total, kEnumGrain);
  par::for_each_chunk(n_chunks, [&](std::uint64_t chunk) {
    walk_shard(c, d, par::chunk_range(total, n_chunks, chunk), fn);
  });
  return total;
}

std::vector<SearchResult> exhaustive_search_multi(
    const Component& c, unsigned d, std::span<const Goal> goals) {
  CONVOLVE_TRACE_SPAN("hades.exhaustive_search");
  const std::uint64_t total = c.config_count();

  using Frontier = std::vector<SearchResult>;
  Frontier init(goals.size(), unexplored_result());

  Frontier best = par::parallel_reduce(
      total, kEnumGrain, std::move(init),
      [&](std::uint64_t, par::Range r) {
        Frontier local(goals.size(), unexplored_result());
        walk_shard(c, d, r,
                   [&](std::uint64_t index, const Choice& ch,
                       const Metrics& m) {
                     for (std::size_t g = 0; g < goals.size(); ++g) {
                       const double s = score(m, goals[g]);
                       if (better_design(s, m, index, local[g])) {
                         local[g].cost = s;
                         local[g].metrics = m;
                         local[g].choice = ch;
                         local[g].config_index = index;
                       }
                     }
                   });
        return local;
      },
      [&](Frontier acc, Frontier part) {
        // Shards merge in ascending index order, so the incumbent always
        // has the smaller config index on exact ties.
        for (std::size_t g = 0; g < goals.size(); ++g) {
          if (better_design(part[g].cost, part[g].metrics,
                            part[g].config_index, acc[g])) {
            acc[g] = std::move(part[g]);
          }
        }
        return acc;
      });

  for (auto& b : best) {
    b.order = d;
    b.evaluations = total;
  }
  return best;
}

SearchResult exhaustive_search(const Component& c, unsigned d, Goal goal) {
  const Goal goals[1] = {goal};
  return exhaustive_search_multi(c, d, goals)[0];
}

SearchResult constrained_search(const Component& c, unsigned d, Goal goal,
                                const Constraints& budget) {
  CONVOLVE_TRACE_SPAN("hades.constrained_search");
  const std::uint64_t total = c.config_count();

  SearchResult best = par::parallel_reduce(
      total, kEnumGrain, unexplored_result(),
      [&](std::uint64_t, par::Range r) {
        SearchResult local = unexplored_result();
        CONVOLVE_TELEMETRY_ONLY(std::uint64_t pruned = 0;)
        walk_shard(c, d, r,
                   [&](std::uint64_t index, const Choice& ch,
                       const Metrics& m) {
                     if (!satisfies(m, budget)) {
                       CONVOLVE_TELEMETRY_ONLY(++pruned;)
                       return;
                     }
                     const double s = score(m, goal);
                     // Feasible designs keep the legacy first-wins rule:
                     // strictly better cost, or equal cost with a lower
                     // configuration index.
                     if (s < local.cost ||
                         (s == local.cost && index < local.config_index)) {
                       local.cost = s;
                       local.metrics = m;
                       local.choice = ch;
                       local.config_index = index;
                     }
                   });
        CONVOLVE_TELEMETRY_ONLY(t_pruned.add(pruned);)
        return local;
      },
      [](SearchResult acc, SearchResult part) {
        if (part.cost < acc.cost ||
            (part.cost == acc.cost && part.config_index < acc.config_index)) {
          return part;
        }
        return acc;
      });

  best.order = d;
  best.evaluations = total;
  return best;
}

Choice random_choice(const Component& c, Xoshiro256& rng) {
  Choice ch;
  ch.variant = static_cast<int>(rng.uniform(c.variants().size()));
  const Variant& v = c.variants()[static_cast<std::size_t>(ch.variant)];
  for (const auto& child : v.children) {
    ch.children.push_back(random_choice(*child, rng));
  }
  return ch;
}

namespace {

struct StartOutcome {
  Choice choice;
  Metrics metrics;
  double cost = std::numeric_limits<double>::infinity();
  std::uint64_t evaluations = 0;
};

// One hill-climbing descent from a random baseline drawn from `rng`.
StartOutcome climb(const Component& c, unsigned d, Goal goal,
                   Xoshiro256& rng) {
  StartOutcome out;
  Choice current = random_choice(c, rng);
  Metrics current_metrics = evaluate(c, current, d);
  double current_cost = score(current_metrics, goal);
  ++out.evaluations;

  bool improved = true;
  while (improved) {
    improved = false;
    std::vector<std::vector<int>> paths;
    std::vector<int> scratch;
    collect_paths(c, current, scratch, paths);

    Choice best_neighbor;
    Metrics best_neighbor_metrics;
    double best_neighbor_cost = current_cost;

    for (const auto& path : paths) {
      // Number of variants at this node.
      Choice probe = current;
      const NodeRef node = locate(c, probe, path);
      const int n_variants =
          static_cast<int>(node.component->variants().size());
      const int original = node.choice->variant;
      for (int alt = 0; alt < n_variants; ++alt) {
        if (alt == original) continue;
        Choice neighbor = current;
        const NodeRef nref = locate(c, neighbor, path);
        nref.choice->variant = alt;
        // Re-shape children for the new variant.
        const Variant& nv =
            nref.component->variants()[static_cast<std::size_t>(alt)];
        nref.choice->children.clear();
        for (const auto& child : nv.children) {
          nref.choice->children.push_back(default_choice(*child));
        }
        const Metrics m = evaluate(c, neighbor, d);
        ++out.evaluations;
        const double s = score(m, goal);
        if (s < best_neighbor_cost) {
          best_neighbor_cost = s;
          best_neighbor = std::move(neighbor);
          best_neighbor_metrics = m;
        }
      }
    }

    if (best_neighbor_cost < current_cost) {
      current = std::move(best_neighbor);
      current_metrics = best_neighbor_metrics;
      current_cost = best_neighbor_cost;
      improved = true;
    }
  }

  out.choice = std::move(current);
  out.metrics = current_metrics;
  out.cost = current_cost;
  return out;
}

}  // namespace

SearchResult local_search(const Component& c, unsigned d, Goal goal,
                          int n_starts, Xoshiro256& rng) {
  if (n_starts <= 0) throw std::invalid_argument("local_search: n_starts<=0");
  CONVOLVE_TRACE_SPAN("hades.local_search");
  CONVOLVE_TELEMETRY_ONLY(
      t_restarts.add(static_cast<std::uint64_t>(n_starts));)

  // Each start climbs from its own rng.split(start) stream, so the starts
  // are order- and thread-count-independent.
  std::vector<StartOutcome> outcomes(static_cast<std::size_t>(n_starts));
  par::parallel_for(
      static_cast<std::uint64_t>(n_starts),
      [&](std::uint64_t start) {
        Xoshiro256 stream = rng.split(start);
        outcomes[static_cast<std::size_t>(start)] = climb(c, d, goal, stream);
      });

  // Merge in start order: strict < keeps the lowest start index on ties.
  SearchResult best;
  best.order = d;
  best.cost = std::numeric_limits<double>::infinity();
  std::uint64_t evals = 0;
  for (auto& out : outcomes) {
    evals += out.evaluations;
    if (out.cost < best.cost) {
      best.cost = out.cost;
      best.metrics = out.metrics;
      best.choice = std::move(out.choice);
    }
  }
  CONVOLVE_TELEMETRY_ONLY(t_folds.add(evals);)
  best.evaluations = evals;
  best.config_index = config_index_of(c, best.choice);
  return best;
}

namespace {

void prune_within_variant(std::vector<ParetoEntry>& entries) {
  std::vector<ParetoEntry> kept;
  for (const auto& e : entries) {
    bool dominated = false;
    for (const auto& other : entries) {
      if (&other == &e || other.variant != e.variant) continue;
      if (dominates(other.metrics, e.metrics) &&
          !(other.metrics == e.metrics)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      // Deduplicate exact ties.
      bool duplicate = false;
      for (const auto& k : kept) {
        if (k.variant == e.variant && k.metrics == e.metrics) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) kept.push_back(e);
    }
  }
  entries = std::move(kept);
}

}  // namespace

std::vector<ParetoEntry> pareto_fold(const Component& c, unsigned d) {
  std::vector<ParetoEntry> result;
  CONVOLVE_TELEMETRY_ONLY(std::uint64_t combines = 0;)
  const auto& variants = c.variants();
  for (std::size_t vi = 0; vi < variants.size(); ++vi) {
    const Variant& v = variants[vi];
    // Child frontiers.
    std::vector<std::vector<ParetoEntry>> fronts;
    fronts.reserve(v.children.size());
    for (const auto& child : v.children) {
      fronts.push_back(pareto_fold(*child, d));
    }
    // Cartesian product of child frontier entries.
    std::vector<std::size_t> idx(fronts.size(), 0);
    while (true) {
      std::vector<ChildEval> evals;
      evals.reserve(fronts.size());
      for (std::size_t i = 0; i < fronts.size(); ++i) {
        const ParetoEntry& e = fronts[i][idx[i]];
        evals.push_back(ChildEval{e.metrics, e.variant});
      }
      result.push_back(
          ParetoEntry{static_cast<int>(vi), v.combine(evals, d)});
      CONVOLVE_TELEMETRY_ONLY(++combines;)
      // Advance product index.
      std::size_t pos = 0;
      while (pos < fronts.size()) {
        if (++idx[pos] < fronts[pos].size()) break;
        idx[pos] = 0;
        ++pos;
      }
      if (pos == fronts.size()) break;
      if (fronts.empty()) break;
    }
  }
  CONVOLVE_TELEMETRY_ONLY(if (combines != 0) t_folds.add(combines);)
  prune_within_variant(result);
  return result;
}

double pareto_optimal_cost(const Component& c, unsigned d, Goal goal) {
  CONVOLVE_TRACE_SPAN("hades.fold");
  const auto frontier = pareto_fold(c, d);
  double best = std::numeric_limits<double>::infinity();
  for (const auto& e : frontier) best = std::min(best, score(e.metrics, goal));
  return best;
}

}  // namespace convolve::hades
