#include "hsn/topology.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace shs::hsn {

namespace {

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

/// Derives the adaptive-routing metadata from the wired link list: BFS
/// hop distances between all switch pairs and, from those, the set of
/// minimal next hops per (switch, destination).  Topology-agnostic, so
/// every builder (and any future topology) gets correct candidate sets
/// for free.  A non-null `failures` filter excludes dead links and
/// switches from the graph — the fabric-manager re-plan path.
void finalize_routing_metadata(TopologyPlan& plan, PlanScratch& ws,
                               const FailureSet* failures = nullptr) {
  const std::size_t n = plan.switch_count;
  constexpr std::int32_t kUnreachable = TopologyPlan::kUnreachableHops;

  // Sorted CSR adjacency of the surviving links: count per source, fill
  // through the running offsets, then shift the offsets back one row.
  ws.adj_begin.assign(n + 1, 0);
  auto alive = [&](const TopologyPlan::PlannedLink& link) {
    return failures == nullptr || !failures->link_dead(link.from, link.to);
  };
  for (const TopologyPlan::PlannedLink& link : plan.links) {
    if (alive(link)) ++ws.adj_begin[link.from + 1];
  }
  for (std::size_t s = 0; s < n; ++s) ws.adj_begin[s + 1] += ws.adj_begin[s];
  ws.adj.resize(ws.adj_begin[n]);
  for (const TopologyPlan::PlannedLink& link : plan.links) {
    if (alive(link)) ws.adj[ws.adj_begin[link.from]++] = link.to;
  }
  for (std::size_t s = n; s > 0; --s) ws.adj_begin[s] = ws.adj_begin[s - 1];
  ws.adj_begin[0] = 0;
  const auto neighbors = [&](std::size_t s) {
    return std::span<SwitchId>(ws.adj.data() + ws.adj_begin[s],
                               ws.adj.data() + ws.adj_begin[s + 1]);
  };
  for (std::size_t s = 0; s < n; ++s) {
    const auto row = neighbors(s);
    std::sort(row.begin(), row.end());
  }

  // One BFS per source, straight into row `s` of min_hops.  The source's
  // own cell marks it visited during the search and is reset to the
  // unreachable sentinel afterwards (hops_between answers s == s).
  plan.min_hops.assign(n * n, kUnreachable);
  ws.queue.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    std::int32_t* dist = plan.min_hops.data() + s * n;
    dist[s] = 0;
    std::size_t head = 0;
    std::size_t tail = 0;
    ws.queue[tail++] = static_cast<SwitchId>(s);
    while (head < tail) {
      const SwitchId u = ws.queue[head++];
      for (const SwitchId v : neighbors(u)) {
        if (dist[v] != kUnreachable) continue;
        dist[v] = dist[u] + 1;
        ws.queue[tail++] = v;
      }
    }
    dist[s] = kUnreachable;
  }

  // Neighbour v of s starts a minimal route toward d iff
  // dist(v, d) == dist(s, d) - 1.  Cells fill in (s, d) order over
  // ascending neighbours, so candidate lists are deterministically
  // ordered.
  plan.cand_begin.resize(n * n + 1);
  plan.cand.clear();
  for (std::size_t s = 0; s < n; ++s) {
    const std::int32_t* row = plan.min_hops.data() + s * n;
    for (std::size_t d = 0; d < n; ++d) {
      plan.cand_begin[s * n + d] = static_cast<std::uint32_t>(plan.cand.size());
      const std::int32_t hops = row[d];
      if (hops == kUnreachable) continue;
      for (const SwitchId v : neighbors(s)) {
        const std::int32_t rest =
            v == d ? 0 : plan.min_hops[static_cast<std::size_t>(v) * n + d];
        if (rest == hops - 1) plan.cand.push_back(v);
      }
    }
  }
  plan.cand_begin[n * n] = static_cast<std::uint32_t>(plan.cand.size());
}

TopologyPlan build_single(std::size_t nodes) {
  TopologyPlan plan;
  plan.kind = TopologyKind::kSingleSwitch;
  plan.switch_count = 1;
  plan.nic_home.assign(nodes, 0);
  return plan;
}

TopologyPlan build_fat_tree(const TopologyConfig& config, std::size_t nodes,
                            std::uint64_t seed) {
  const std::size_t npsw = std::max<std::size_t>(1, config.nodes_per_switch);
  const std::size_t leaves = std::max<std::size_t>(1, ceil_div(nodes, npsw));
  TopologyPlan plan;
  plan.kind = TopologyKind::kFatTree;
  plan.nic_home.resize(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    plan.nic_home[i] = static_cast<SwitchId>(i / npsw);
  }
  if (leaves == 1) {
    // Degenerates to a single switch; no spine layer needed.
    plan.switch_count = 1;
    return plan;
  }
  const std::size_t spines = std::max<std::size_t>(1, config.spines);
  const std::size_t n = leaves + spines;
  plan.switch_count = n;
  plan.next_hop.assign(n * n, kInvalidSwitch);

  for (std::size_t l = 0; l < leaves; ++l) {
    for (std::size_t s = 0; s < spines; ++s) {
      const auto leaf = static_cast<SwitchId>(l);
      const auto spine = static_cast<SwitchId>(leaves + s);
      plan.links.push_back({leaf, spine, config.link_rate,
                            config.link_latency});
      plan.links.push_back({spine, leaf, config.link_rate,
                            config.link_latency});
    }
  }

  // Minimal routing: leaf -> spine -> leaf.  The spine for a (src, dst)
  // leaf pair is a deterministic hash of the pair and the fabric seed,
  // so one fabric always picks the same path (reproducible runs) while
  // different seeds genuinely reshuffle which pairs collide on a spine
  // (an additive salt would only relabel spines, leaving the contention
  // structure seed-independent).
  for (std::size_t l = 0; l < leaves; ++l) {
    for (std::size_t d = 0; d < leaves; ++d) {
      if (l == d) continue;
      const std::uint64_t pair_key =
          seed ^ (static_cast<std::uint64_t>(l) << 32 |
                  static_cast<std::uint64_t>(d));
      const std::size_t spine =
          leaves + static_cast<std::size_t>(Rng(pair_key).next() % spines);
      plan.next_hop[l * n + d] = static_cast<SwitchId>(spine);
    }
  }
  // Every spine knows the down-route to every leaf — adaptive policies
  // may send traffic through spines the static hash never picks.
  for (std::size_t s = 0; s < spines; ++s) {
    for (std::size_t d = 0; d < leaves; ++d) {
      plan.next_hop[(leaves + s) * n + d] = static_cast<SwitchId>(d);
    }
  }
  return plan;
}

TopologyPlan build_dragonfly(const TopologyConfig& config,
                             std::size_t nodes) {
  const std::size_t npsw = std::max<std::size_t>(1, config.nodes_per_switch);
  const std::size_t a = std::max<std::size_t>(1, config.switches_per_group);
  const std::size_t edge = std::max<std::size_t>(1, ceil_div(nodes, npsw));
  const std::size_t groups = ceil_div(edge, a);
  TopologyPlan plan;
  plan.kind = TopologyKind::kDragonfly;
  // Round up to whole groups so every gateway index exists (trailing
  // switches simply host no NICs).
  const std::size_t n = groups * a;
  plan.switch_count = n;
  plan.group_of.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    plan.group_of[s] = static_cast<SwitchId>(s / a);
  }
  plan.df_groups = static_cast<SwitchId>(groups);
  plan.df_per_group = static_cast<SwitchId>(a);
  plan.nic_home.resize(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    plan.nic_home[i] = static_cast<SwitchId>(i / npsw);
  }
  plan.next_hop.assign(n * n, kInvalidSwitch);

  // Group-local links: all-to-all within each group.
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t i = 0; i < a; ++i) {
      for (std::size_t j = 0; j < a; ++j) {
        if (i == j) continue;
        plan.links.push_back({static_cast<SwitchId>(g * a + i),
                              static_cast<SwitchId>(g * a + j),
                              config.link_rate, config.link_latency});
      }
    }
  }
  // Global links: for each ordered group pair (g, h) the gateway switch
  // in g is `h % a`, so global ports spread evenly across the group.
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t h = 0; h < groups; ++h) {
      if (g == h) continue;
      plan.links.push_back({static_cast<SwitchId>(g * a + h % a),
                            static_cast<SwitchId>(h * a + g % a),
                            config.link_rate, config.global_link_latency});
    }
  }

  // Dimension-order minimal routing: local hop to the gateway, global hop
  // to the destination group, local hop to the destination switch.
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t gs = s / a;
    for (std::size_t d = 0; d < n; ++d) {
      if (s == d) continue;
      const std::size_t gd = d / a;
      SwitchId next;
      if (gs == gd) {
        next = static_cast<SwitchId>(d);  // same group: direct local link
      } else {
        const std::size_t gateway = gs * a + gd % a;
        next = s == gateway
                   ? static_cast<SwitchId>(gd * a + gs % a)  // global hop
                   : static_cast<SwitchId>(gateway);         // toward gateway
      }
      plan.next_hop[s * n + d] = next;
    }
  }
  return plan;
}

}  // namespace

TopologyPlan TopologyPlan::build(const TopologyConfig& config,
                                 std::size_t nodes, std::uint64_t seed) {
  TopologyPlan plan = [&] {
    switch (config.kind) {
      case TopologyKind::kFatTree:
        return build_fat_tree(config, nodes, seed);
      case TopologyKind::kDragonfly:
        return build_dragonfly(config, nodes);
      case TopologyKind::kSingleSwitch:
        break;
    }
    return build_single(nodes);
  }();
  plan.routing = config.routing;
  plan.seed = seed;
  // Builders that route nothing statically (a single switch) leave the
  // table empty.
  plan.next_hop.resize(plan.switch_count * plan.switch_count,
                       kInvalidSwitch);
  PlanScratch scratch;
  finalize_routing_metadata(plan, scratch);
  return plan;
}

void TopologyPlan::replan(const FailureSet& failures,
                          std::uint64_t new_version, PlanScratch& scratch,
                          TopologyPlan& out) const {
  // Copy-assignment reuses `out`'s buffers.  A full restore keeps the
  // pristine tables verbatim (including the topology-specific static next
  // hops the initial build computed).
  out = *this;
  out.version = new_version;
  if (failures.empty()) return;
  finalize_routing_metadata(out, scratch, &failures);

  // Static next hops over the survivors: for each reachable (s, d) pair,
  // a seeded hash of the pair picks among the minimal candidates.  Like
  // the fat-tree spine hash, different seeds genuinely reshuffle which
  // pairs share a detour link while one seed always re-plans the same
  // way.  Dead switches have no surviving links, hence no candidates.
  const std::size_t n = switch_count;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t d = 0; d < n; ++d) {
      const auto cands =
          out.candidates(static_cast<SwitchId>(s), static_cast<SwitchId>(d));
      SwitchId next = kInvalidSwitch;
      if (!cands.empty()) {
        const std::uint64_t pair_key =
            seed ^ FailureSet::link_key(static_cast<SwitchId>(s),
                                        static_cast<SwitchId>(d));
        next = cands[Rng(pair_key).next() % cands.size()];
      }
      out.next_hop[s * n + d] = next;
    }
  }
}

}  // namespace shs::hsn
