#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace hs::obs {

std::string format_double(double v) {
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;  // shortest exact form wins
  }
  return buf;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) {
  // upper_bound gives the first bound > v, which is exactly the [lo, hi)
  // convention: v below every bound indexes 0 (underflow), v == a bound
  // lands in the bucket above it, v past the last bound indexes size()
  // (overflow).
  const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), v);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())] += 1;
  count_ += 1;
  sum_ += v;
}

const SnapshotEntry* MetricsSnapshot::find(std::string_view name) const {
  for (const auto& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::string MetricsSnapshot::to_csv() const {
  std::string out = "kind,name,count,value,bounds,buckets\n";
  for (const auto& e : entries) {
    out += e.kind;
    out += ',';
    out += e.name;
    out += ',';
    out += std::to_string(e.count);
    out += ',';
    out += format_double(e.value);
    out += ',';
    for (std::size_t i = 0; i < e.bounds.size(); ++i) {
      if (i > 0) out += ';';
      out += format_double(e.bounds[i]);
    }
    out += ',';
    for (std::size_t i = 0; i < e.buckets.size(); ++i) {
      if (i > 0) out += ';';
      out += std::to_string(e.buckets[i]);
    }
    out += '\n';
  }
  return out;
}

Status MetricsSnapshot::accumulate(const MetricsSnapshot& other) {
  // Validate before mutating: a half-applied roll-up would be worse than
  // a refused one.
  for (const auto& e : other.entries) {
    const SnapshotEntry* mine = find(e.name);
    if (mine == nullptr) continue;
    if (mine->kind != e.kind) {
      return Error{"metric '" + e.name + "' kind mismatch: '" + mine->kind + "' vs '" + e.kind +
                   "'"};
    }
    if (e.kind == 'h' && mine->bounds != e.bounds) {
      return Error{"histogram '" + e.name + "' bounds mismatch"};
    }
  }

  // Merge-join the two name-sorted entry lists.
  std::vector<SnapshotEntry> merged;
  merged.reserve(entries.size() + other.entries.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < entries.size() || j < other.entries.size()) {
    if (j == other.entries.size() ||
        (i < entries.size() && entries[i].name < other.entries[j].name)) {
      merged.push_back(std::move(entries[i++]));
      continue;
    }
    if (i == entries.size() || other.entries[j].name < entries[i].name) {
      merged.push_back(other.entries[j++]);
      continue;
    }
    SnapshotEntry e = std::move(entries[i++]);
    const SnapshotEntry& add = other.entries[j++];
    e.count += add.count;
    e.value += add.value;
    for (std::size_t k = 0; k < e.buckets.size(); ++k) e.buckets[k] += add.buckets[k];
    merged.push_back(std::move(e));
  }
  entries = std::move(merged);
  return Status::success();
}

Counter& Registry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace(std::string(name), Counter{}).first->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.emplace(std::string(name), Gauge{}).first->second;
}

Histogram& Registry::histogram(std::string_view name, std::vector<double> bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(std::string(name), Histogram(std::move(bounds))).first->second;
}

const Counter* Registry::find_counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  snap.entries.reserve(size());
  // The three maps are each name-sorted; a three-way sorted merge keeps
  // the whole snapshot ordered by name with kind as the tiebreaker.
  for (const auto& [name, c] : counters_) {
    snap.entries.push_back(SnapshotEntry{name, 'c', c.value(), 0.0, {}, {}});
  }
  for (const auto& [name, g] : gauges_) {
    snap.entries.push_back(SnapshotEntry{name, 'g', 0, g.value(), {}, {}});
  }
  for (const auto& [name, h] : histograms_) {
    snap.entries.push_back(SnapshotEntry{name, 'h', h.count(), h.sum(), h.bounds(), h.buckets()});
  }
  std::sort(snap.entries.begin(), snap.entries.end(), [](const auto& a, const auto& b) {
    return a.name != b.name ? a.name < b.name : a.kind < b.kind;
  });
  return snap;
}

}  // namespace hs::obs
