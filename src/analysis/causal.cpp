#include "analysis/causal.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <ostream>

#include "analysis/json.hpp"
#include "common/expect.hpp"

namespace autopipe::analysis {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Value of the event's `job` arg, or empty when untagged (single-tenant
/// traces carry no job args at all).
const std::string* job_arg(const trace::Event& ev) {
  for (const trace::Arg& a : ev.args)
    if (a.key == "job") return &a.value;
  return nullptr;
}

/// One-line event descriptor used by the text report.
std::string describe_event(const trace::Event& ev) {
  std::string out = category_name(ev.category);
  out += ':';
  out += ev.name;
  if (ev.phase == 'b') out += "[begin]";
  if (ev.phase == 'e') out += "[end]";
  for (const trace::Arg& a : ev.args) {
    out += ' ';
    out += a.key;
    out += '=';
    out += a.value;
  }
  return out;
}

constexpr std::size_t kCategories =
    static_cast<std::size_t>(trace::Category::kFault) + 1;

/// "<parent-category>-><child-category>", from a table built once.
std::string_view category_pair(trace::Category parent,
                               trace::Category child) {
  static const std::array<std::string, kCategories * kCategories> kPairs =
      [] {
        std::array<std::string, kCategories * kCategories> pairs;
        for (std::size_t p = 0; p < kCategories; ++p)
          for (std::size_t c = 0; c < kCategories; ++c)
            pairs[p * kCategories + c] =
                std::string(category_name(static_cast<trace::Category>(p))) +
                "->" + category_name(static_cast<trace::Category>(c));
        return pairs;
      }();
  return kPairs[static_cast<std::size_t>(parent) * kCategories +
                static_cast<std::size_t>(child)];
}

}  // namespace

std::string_view classify_edge(const trace::Event& parent,
                               const trace::Event& child) {
  using trace::Category;
  // Cross-job interference outranks every single-tenant class: a causal
  // hop between events tagged with different jobs (an arbiter grant to the
  // winner causing the loser's denial, or the loser's rollback) is tenant
  // contention regardless of the categories involved.
  {
    const std::string* pj = job_arg(parent);
    const std::string* cj = job_arg(child);
    if (pj != nullptr && cj != nullptr && *pj != *cj)
      return "tenant_contention";
  }
  if (parent.category == Category::kFault) {
    if (starts_with(parent.name, "link")) return "link_outage";
    if (starts_with(parent.name, "gpu")) return "gpu_outage";
    return "fault";
  }
  if (parent.category == Category::kResource) return "resource_shift";
  if (parent.category == Category::kSwitch ||
      child.category == Category::kSwitch)
    return "reconfig";
  if (child.category == Category::kMark) return "bubble";
  if (parent.category == Category::kMark) return "iteration_chain";
  if (parent.category == Category::kComm) {
    if (child.category == Category::kComm) return "flow_stall";
    if (child.category == Category::kCompute) return "stage_starve";
  }
  if (parent.category == Category::kCompute) {
    if (child.category == Category::kCompute) return "compute_chain";
    if (child.category == Category::kComm) return "comm_launch";
  }
  if (parent.category == Category::kControl ||
      child.category == Category::kControl)
    return "control";
  return category_pair(parent.category, child.category);
}

CausalGraph::CausalGraph(std::vector<trace::Event> events)
    : events_(std::move(events)) {
  std::uint64_t max_eid = 0;
  std::size_t caused = 0;  // an upper bound on the edges
  for (const trace::Event& ev : events_) {
    max_eid = std::max(max_eid, ev.eid);
    if (ev.cause != 0) ++caused;
  }
  eid_to_index_.assign(static_cast<std::size_t>(max_eid), npos);
  edges_.reserve(caused);
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (events_[i].eid == 0) continue;
    ++causal_events_;
    // Last writer wins on a duplicated eid (concatenated traces); the
    // deterministic writer never emits duplicates.
    eid_to_index_[events_[i].eid - 1] = i;
  }
  parent_edge_.assign(events_.size(), npos);
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const trace::Event& child = events_[i];
    if (child.cause == 0) continue;
    const std::size_t p = index_of_eid(child.cause);
    if (p == npos || p == i) {
      ++dangling_causes_;
      continue;
    }
    const trace::Event& parent = events_[p];
    CausalEdge edge;
    edge.parent = p;
    edge.child = i;
    edge.contribution = std::max(0.0, event_end(child) - event_end(parent));
    edge.cls = classify_edge(parent, child);
    parent_edge_[i] = edges_.size();
    edges_.push_back(edge);
  }
}

std::size_t CausalGraph::index_of_eid(std::uint64_t eid) const {
  if (eid == 0 || eid > eid_to_index_.size()) return npos;
  return eid_to_index_[eid - 1];
}

namespace {

/// Backward walk from `terminal` through recorded causes, root first. The
/// visited guard breaks cycles a corrupt trace could encode.
CausalChain walk_back(const CausalGraph& g, std::size_t terminal) {
  CausalChain chain;
  std::vector<ChainLink> reversed;
  std::vector<bool> visited(g.events().size(), false);
  std::size_t cur = terminal;
  while (cur != CausalGraph::npos && !visited[cur]) {
    visited[cur] = true;
    ChainLink link;
    link.event = cur;
    link.edge = g.parent_edge(cur);
    if (link.edge != CausalGraph::npos)
      link.contribution = g.edges()[link.edge].contribution;
    reversed.push_back(link);
    cur = link.edge != CausalGraph::npos ? g.edges()[link.edge].parent
                                         : CausalGraph::npos;
  }
  chain.links.assign(reversed.rbegin(), reversed.rend());
  if (!chain.links.empty()) {
    chain.links.front().edge = CausalGraph::npos;
    chain.links.front().contribution = 0.0;
    for (const ChainLink& l : chain.links) chain.weighted += l.contribution;
    chain.duration = event_end(g.events()[chain.links.back().event]) -
                     g.events()[chain.links.front().event].ts;
  }
  return chain;
}

/// Latest-ending causal event with end inside [t0, t1], or npos. Later
/// trace position wins a tie, so the pick is deterministic. A non-empty
/// `job` restricts the terminal to events tagged job=<job> — the handle a
/// co-tenant fleet needs to blame one job's slow window rather than
/// whichever tenant happened to finish last.
std::size_t window_terminal(const CausalGraph& g, double t0, double t1,
                            const std::string& job = std::string()) {
  std::size_t best = CausalGraph::npos;
  double best_end = 0.0;
  for (std::size_t i = 0; i < g.events().size(); ++i) {
    const trace::Event& ev = g.events()[i];
    if (ev.eid == 0) continue;
    if (!job.empty()) {
      const std::string* j = job_arg(ev);
      if (j == nullptr || *j != job) continue;
    }
    const double end = event_end(ev);
    if (end < t0 || end > t1) continue;
    if (best == CausalGraph::npos || end >= best_end) {
      best = i;
      best_end = end;
    }
  }
  return best;
}

std::size_t find_root_cause(const CausalGraph& g, const CausalChain& chain) {
  using trace::Category;
  // Cross-job interference wins over the generic fault/resource scan: when
  // the chain crosses a tenant_contention edge, the blamed event is that
  // edge's parent — the arbiter grant whose job= arg names the winning job.
  for (const ChainLink& l : chain.links) {
    if (l.edge == CausalGraph::npos) continue;
    if (g.edges()[l.edge].cls == "tenant_contention")
      return g.edges()[l.edge].parent;
  }
  for (const ChainLink& l : chain.links) {
    const trace::Event& ev = g.events()[l.event];
    // "topology" instants share the fault category but only record the
    // worker->server layout at install time — bookkeeping, not a fault.
    if (ev.name == "topology") continue;
    if (ev.category == Category::kFault || ev.category == Category::kResource)
      return l.event;
  }
  // No injected disturbance on the chain: blame the heaviest hop's cause.
  std::size_t heaviest = CausalGraph::npos;
  double weight = -1.0;
  for (std::size_t i = 1; i < chain.links.size(); ++i) {
    if (chain.links[i].contribution > weight) {
      weight = chain.links[i].contribution;
      heaviest = i;
    }
  }
  if (heaviest == CausalGraph::npos)
    return chain.links.empty() ? CausalGraph::npos : chain.links.front().event;
  return chain.links[heaviest - 1].event;
}

}  // namespace

CausalChain critical_chain(const CausalGraph& g) {
  return walk_back(
      g, window_terminal(g, 0.0, std::numeric_limits<double>::infinity()));
}

BlameReport blame_window(const CausalGraph& g, double t0, double t1) {
  return blame_window(g, t0, t1, 0);
}

BlameReport blame_window(const CausalGraph& g, double t0, double t1,
                         std::uint64_t job) {
  AUTOPIPE_EXPECT_MSG(t1 >= t0, "blame window ends before it begins");
  BlameReport report;
  report.window_begin = t0;
  report.window_end = t1;
  for (const trace::Event& ev : g.events()) {
    if (ev.eid == 0) continue;
    const double end = event_end(ev);
    if (end >= t0 && end <= t1) ++report.window_events;
  }
  const std::size_t terminal = window_terminal(
      g, t0, t1, job > 0 ? std::to_string(job) : std::string());
  if (terminal != CausalGraph::npos) {
    report.chain = walk_back(g, terminal);
    report.root_cause = find_root_cause(g, report.chain);
  }

  std::map<std::string_view, LedgerEntry> classes;
  for (const CausalEdge& e : g.edges()) {
    const double end = event_end(g.events()[e.child]);
    if (end < t0 || end > t1) continue;
    LedgerEntry& entry = classes[e.cls];
    entry.cls = e.cls;
    entry.seconds += e.contribution;
    ++entry.edges;
    report.ledger_seconds += e.contribution;
  }
  for (auto& [cls, entry] : classes) {
    entry.share = report.ledger_seconds > 0.0
                      ? entry.seconds / report.ledger_seconds
                      : 0.0;
    report.ledger.push_back(entry);
  }
  std::stable_sort(report.ledger.begin(), report.ledger.end(),
                   [](const LedgerEntry& a, const LedgerEntry& b) {
                     if (a.seconds != b.seconds) return a.seconds > b.seconds;
                     return a.cls < b.cls;
                   });
  return report;
}

BlameReport blame_iteration(const CausalGraph& g, const TraceView& view,
                            std::size_t n) {
  const std::vector<double>& marks = view.iteration_marks();
  AUTOPIPE_EXPECT_MSG(n >= 1 && n <= marks.size(),
                      "trace has " << marks.size()
                                   << " iteration marks, cannot blame "
                                      "iteration "
                                   << n);
  const double t0 = n >= 2 ? marks[n - 2] : 0.0;
  return blame_window(g, t0, marks[n - 1]);
}

BlameReport blame_iteration(const CausalGraph& g, std::size_t n,
                            std::uint64_t job) {
  AUTOPIPE_EXPECT(job > 0);
  // The job's own iteration marks, in trace order (the shared TraceView
  // mark list interleaves every tenant's iterations).
  const std::string tag = std::to_string(job);
  std::vector<double> marks;
  for (const trace::Event& ev : g.events()) {
    if (ev.category != trace::Category::kMark || ev.name != "iteration")
      continue;
    const std::string* j = job_arg(ev);
    if (j != nullptr && *j == tag) marks.push_back(ev.ts);
  }
  AUTOPIPE_EXPECT_MSG(n >= 1 && n <= marks.size(),
                      "trace has " << marks.size() << " iteration marks for "
                                   << "job " << job
                                   << ", cannot blame iteration " << n);
  const double t0 = n >= 2 ? marks[n - 2] : 0.0;
  return blame_window(g, t0, marks[n - 1], job);
}

void render_blame(const BlameReport& report, const CausalGraph& g,
                  std::size_t top, std::ostream& os) {
  using trace::format_double;
  os << "blame window [" << format_double(report.window_begin) << ", "
     << format_double(report.window_end) << "]: " << report.window_events
     << " causal events\n";
  if (report.chain.links.empty()) {
    os << "no causal events in window (pre-causality trace, or tracing "
          "was off)\n";
    return;
  }
  if (report.root_cause != CausalGraph::npos) {
    const trace::Event& rc = g.events()[report.root_cause];
    os << "root cause: " << describe_event(rc)
       << " at t=" << format_double(rc.ts) << " (eid " << rc.eid << ")\n";
  }
  os << "dominant chain: " << report.chain.links.size() << " links, "
     << format_double(report.chain.weighted) << " s weighted, spanning "
     << format_double(report.chain.duration) << " s\n";
  // Print the chain's heaviest hops in causal order; everything below 1%
  // of the chain's weight is noise here (the JSON report keeps it all).
  const double floor = report.chain.weighted * 0.01;
  std::vector<std::size_t> shown;
  for (std::size_t i = 0; i < report.chain.links.size(); ++i) {
    const ChainLink& l = report.chain.links[i];
    if (i == 0 || l.contribution > floor) shown.push_back(i);
  }
  if (shown.size() > top) {
    // Keep the root and the `top` heaviest of the rest, in causal order.
    std::vector<std::size_t> rest(shown.begin() + 1, shown.end());
    std::stable_sort(rest.begin(), rest.end(),
                     [&](std::size_t a, std::size_t b) {
                       return report.chain.links[a].contribution >
                              report.chain.links[b].contribution;
                     });
    rest.resize(top - 1);
    std::sort(rest.begin(), rest.end());
    shown.assign(1, shown.front());
    shown.insert(shown.end(), rest.begin(), rest.end());
  }
  std::size_t omitted = report.chain.links.size() - shown.size();
  for (std::size_t i : shown) {
    const ChainLink& l = report.chain.links[i];
    const trace::Event& ev = g.events()[l.event];
    if (i == 0) {
      os << "  root  t=" << format_double(ev.ts) << "  " << describe_event(ev)
         << " (eid " << ev.eid << ")\n";
      continue;
    }
    const CausalEdge& e = g.edges()[l.edge];
    os << "  +" << format_double(l.contribution) << " s  [" << e.cls << "]  "
       << describe_event(ev) << " ends t="
       << format_double(event_end(ev)) << " (eid " << ev.eid << ")\n";
  }
  if (omitted > 0) os << "  (" << omitted << " lighter links omitted)\n";
  os << "stall ledger (edges ending in window, "
     << format_double(report.ledger_seconds) << " s total):\n";
  for (const LedgerEntry& entry : report.ledger) {
    os << "  " << entry.cls << "  " << format_double(entry.seconds) << " s  "
       << format_double(entry.share * 100.0) << "%  (" << entry.edges
       << (entry.edges == 1 ? " edge)" : " edges)") << "\n";
  }
}

void write_blame_json(const BlameReport& report, const CausalGraph& g,
                      std::ostream& os) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "autopipe-blame-v1");
  w.kv("window_begin", report.window_begin);
  w.kv("window_end", report.window_end);
  w.kv("window_events", report.window_events);
  if (report.root_cause != CausalGraph::npos) {
    const trace::Event& rc = g.events()[report.root_cause];
    w.key("root_cause");
    w.begin_object();
    w.kv("eid", rc.eid);
    w.kv("category", category_name(rc.category));
    w.kv("name", rc.name);
    w.kv("ts", rc.ts);
    w.end();
  }
  w.key("chain");
  w.begin_object();
  w.kv("weighted_seconds", report.chain.weighted);
  w.kv("duration_seconds", report.chain.duration);
  w.key("links");
  w.begin_array();
  for (const ChainLink& l : report.chain.links) {
    const trace::Event& ev = g.events()[l.event];
    w.begin_object();
    w.kv("eid", ev.eid);
    w.kv("cause", ev.cause);
    w.kv("category", category_name(ev.category));
    w.kv("name", ev.name);
    w.kv("end", event_end(ev));
    w.kv("contribution_seconds", l.contribution);
    if (l.edge != CausalGraph::npos)
      w.kv("class", std::string(g.edges()[l.edge].cls));
    w.end();
  }
  w.end();  // links
  w.end();  // chain
  w.key("ledger");
  w.begin_array();
  for (const LedgerEntry& entry : report.ledger) {
    w.begin_object();
    w.kv("class", entry.cls);
    w.kv("seconds", entry.seconds);
    w.kv("share", entry.share);
    w.kv("edges", entry.edges);
    w.end();
  }
  w.end();  // ledger
  w.kv("ledger_seconds", report.ledger_seconds);
  w.end();
}

}  // namespace autopipe::analysis
