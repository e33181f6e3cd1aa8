#include "core/deadlock.h"

#include <algorithm>
#include <functional>

#include "util/error.h"

namespace cosched {

std::vector<WaitEdge> build_wait_graph(
    const std::vector<const Cluster*>& clusters) {
  std::vector<WaitEdge> edges;
  for (std::size_t x = 0; x < clusters.size(); ++x) {
    const Cluster* cx = clusters[x];
    // Holding jobs in ascending id order, so the edge list (which callers
    // print) is independent of hash-insertion history.
    for (JobId id : cx->scheduler().holding_ids()) {
      const RuntimeJob& job = *cx->scheduler().find(id);
      if (!job.spec.is_paired()) continue;
      // Find the domain holding this group's unready member.
      for (std::size_t y = 0; y < clusters.size(); ++y) {
        if (y == x) continue;
        const Cluster* cy = clusters[y];
        // const_cast is safe: get_mate_job only reads the registry.
        auto mate = const_cast<Cluster*>(cy)->get_mate_job(job.spec.group, id);
        if (!mate) continue;
        const RuntimeJob* mj = cy->scheduler().find(*mate);
        const bool queued_blocked =
            mj != nullptr && mj->state == JobState::kQueued &&
            !cy->scheduler().pool().can_allocate(
                cy->scheduler().pool().charged(mj->spec.nodes));
        const bool unsubmitted = mj == nullptr;
        if (queued_blocked || unsubmitted)
          edges.push_back(WaitEdge{x, y, id});
      }
    }
  }
  return edges;
}

bool has_hold_wait_cycle(const std::vector<const Cluster*>& clusters) {
  const auto edges = build_wait_graph(clusters);
  const std::size_t n = clusters.size();
  std::vector<std::vector<std::size_t>> adj(n);
  for (const WaitEdge& e : edges) adj[e.from].push_back(e.to);

  enum class Mark { kWhite, kGray, kBlack };
  std::vector<Mark> mark(n, Mark::kWhite);
  std::function<bool(std::size_t)> dfs = [&](std::size_t u) {
    mark[u] = Mark::kGray;
    for (std::size_t v : adj[u]) {
      if (mark[v] == Mark::kGray) return true;
      if (mark[v] == Mark::kWhite && dfs(v)) return true;
    }
    mark[u] = Mark::kBlack;
    return false;
  };
  for (std::size_t u = 0; u < n; ++u)
    if (mark[u] == Mark::kWhite && dfs(u)) return true;
  return false;
}

WaitCycle extract_wait_cycle(const std::vector<WaitEdge>& edges,
                             std::size_t domains) {
  WaitCycle cycle;
  // Sort so the DFS neighbor order (and therefore the reported cycle) is a
  // pure function of the edge *set*, not of build order.
  std::vector<WaitEdge> sorted = edges;
  std::sort(sorted.begin(), sorted.end(),
            [](const WaitEdge& a, const WaitEdge& b) {
              if (a.from != b.from) return a.from < b.from;
              if (a.to != b.to) return a.to < b.to;
              return a.holding_job < b.holding_job;
            });
  std::vector<std::vector<std::size_t>> adj(domains);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i].from < domains && sorted[i].to < domains)
      adj[sorted[i].from].push_back(i);
  }

  enum class Mark { kWhite, kGray, kBlack };
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<Mark> mark(domains, Mark::kWhite);
  // Depth at which each gray node was entered = index of its outgoing edge
  // on the current DFS path.
  std::vector<std::size_t> depth(domains, kNone);
  std::vector<std::size_t> path;  // edge indices along the current DFS path

  std::function<bool(std::size_t)> dfs = [&](std::size_t u) {
    mark[u] = Mark::kGray;
    depth[u] = path.size();
    for (std::size_t idx : adj[u]) {
      const std::size_t v = sorted[idx].to;
      if (mark[v] == Mark::kGray) {
        // Back edge u -> v: the cycle is v's outgoing path edges plus this
        // closing edge.
        for (std::size_t j = depth[v]; j < path.size(); ++j)
          cycle.edges.push_back(sorted[path[j]]);
        cycle.edges.push_back(sorted[idx]);
        return true;
      }
      if (mark[v] == Mark::kWhite) {
        path.push_back(idx);
        if (dfs(v)) return true;
        path.pop_back();
      }
    }
    mark[u] = Mark::kBlack;
    depth[u] = kNone;
    return false;
  };
  for (std::size_t u = 0; u < domains; ++u) {
    if (mark[u] == Mark::kWhite && dfs(u)) break;
  }
  return cycle;
}

WaitCycle find_hold_wait_cycle(const std::vector<const Cluster*>& clusters) {
  return extract_wait_cycle(build_wait_graph(clusters), clusters.size());
}

WaitEdge choose_victim(const WaitCycle& cycle,
                       const std::function<Time(const WaitEdge&)>& submit_of) {
  COSCHED_CHECK(!cycle.empty());
  const WaitEdge* victim = &cycle.edges.front();
  Time victim_submit = submit_of(*victim);
  for (std::size_t i = 1; i < cycle.edges.size(); ++i) {
    const WaitEdge& e = cycle.edges[i];
    const Time s = submit_of(e);
    // Latest submit = lowest FCFS priority loses; ties toward lowest id.
    if (s > victim_submit ||
        (s == victim_submit && e.holding_job < victim->holding_job)) {
      victim = &e;
      victim_submit = s;
    }
  }
  return *victim;
}

}  // namespace cosched
