#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>

#include "obs/json.h"
#include "util/check.h"

namespace hcube::obs {

const char* to_string(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// LogHistogram

std::size_t LogHistogram::bucket_of(double v) {
  if (!(v >= 1.0)) return 0;  // [0,1), negatives and NaN
  if (v >= 9.223372036854776e18) return kBuckets - 1;  // beyond 2^63
  const auto u = static_cast<std::uint64_t>(v);
  const auto i = static_cast<std::size_t>(std::bit_width(u));
  return std::min(i, kBuckets - 1);
}

double LogHistogram::bucket_lo(std::size_t i) {
  return i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
}

double LogHistogram::bucket_hi(std::size_t i) {
  return std::ldexp(1.0, static_cast<int>(i));
}

void LogHistogram::observe(double v) {
  if (std::isnan(v)) return;
  if (v < 0.0) v = 0.0;
  ++buckets_[bucket_of(v)];
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

void LogHistogram::merge_from(const LogHistogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void LogHistogram::reset() { *this = LogHistogram{}; }

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cum += buckets_[i];
    if (cum >= rank) return std::min(bucket_hi(i), max_);
  }
  return max_;
}

void LogHistogram::restore_bucket(std::size_t i, std::uint64_t count) {
  HCUBE_CHECK_MSG(i < kBuckets, "histogram bucket index out of range");
  buckets_[i] += count;
  count_ += count;
}

void LogHistogram::restore_moments(double sum, double mn, double mx) {
  sum_ = sum;
  min_ = mn;
  max_ = mx;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry::Id MetricsRegistry::intern(std::string_view name,
                                            MetricKind kind) {
  owner_.assert_held();
  const auto it = index_.find(std::string(name));
  if (it != index_.end()) {
    HCUBE_CHECK_MSG(entries_[it->second].kind == kind,
                    "metric re-registered under a different kind");
    return it->second;
  }
  HCUBE_CHECK_MSG(is_valid_metric_name(name),
                  "metric name must match ^[a-z0-9_.]+$");
  const Id id = static_cast<Id>(entries_.size());
  Entry e;
  e.name = std::string(name);
  e.kind = kind;
  entries_.push_back(std::move(e));
  index_.emplace(entries_.back().name, id);
  return id;
}

const MetricsRegistry::Entry* MetricsRegistry::lookup(
    std::string_view name) const {
  owner_.assert_held();
  const auto it = index_.find(std::string(name));
  return it == index_.end() ? nullptr : &entries_[it->second];
}

bool MetricsRegistry::contains(std::string_view name) const {
  return lookup(name) != nullptr;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  const Entry* e = lookup(name);
  return e != nullptr && e->kind == MetricKind::kCounter ? e->count : 0;
}

double MetricsRegistry::gauge_value(std::string_view name) const {
  const Entry* e = lookup(name);
  return e != nullptr && e->kind == MetricKind::kGauge ? e->gauge : 0.0;
}

const LogHistogram* MetricsRegistry::histogram_named(
    std::string_view name) const {
  const Entry* e = lookup(name);
  return e != nullptr && e->kind == MetricKind::kHistogram ? &e->hist
                                                           : nullptr;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  owner_.assert_held();
  other.owner_.assert_held();
  for (const Entry& e : other.entries_) {
    const Id id = intern(e.name, e.kind);
    switch (e.kind) {
      case MetricKind::kCounter: entries_[id].count += e.count; break;
      case MetricKind::kGauge: entries_[id].gauge = e.gauge; break;
      case MetricKind::kHistogram: entries_[id].hist.merge_from(e.hist); break;
    }
  }
}

void MetricsRegistry::reset() {
  owner_.assert_held();
  for (Entry& e : entries_) {
    e.count = 0;
    e.gauge = 0.0;
    e.hist.reset();
  }
}

std::string MetricsRegistry::to_json() const {
  owner_.assert_held();
  std::vector<const Entry*> sorted;
  sorted.reserve(entries_.size());
  for (const Entry& e : entries_) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(),
            [](const Entry* a, const Entry* b) { return a->name < b->name; });

  JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value(kSchema);
  w.key("metrics");
  w.begin_array();
  for (const Entry* e : sorted) {
    w.begin_object();
    w.key("name");
    w.value(e->name);
    w.key("kind");
    w.value(to_string(e->kind));
    switch (e->kind) {
      case MetricKind::kCounter:
        w.key("value");
        w.value(e->count);
        break;
      case MetricKind::kGauge:
        w.key("value");
        w.value(e->gauge);
        break;
      case MetricKind::kHistogram: {
        w.key("count");
        w.value(e->hist.count());
        w.key("sum");
        w.value(e->hist.sum());
        w.key("min");
        w.value(e->hist.min());
        w.key("max");
        w.value(e->hist.max());
        w.key("buckets");
        w.begin_array();
        for (std::size_t i = 0; i < LogHistogram::kBuckets; ++i) {
          if (e->hist.bucket(i) == 0) continue;
          w.begin_array();
          w.value(static_cast<std::uint64_t>(i));
          w.value(e->hist.bucket(i));
          w.end_array();
        }
        w.end_array();
        break;
      }
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

namespace {

std::optional<MetricKind> kind_from(std::string_view s) {
  if (s == "counter") return MetricKind::kCounter;
  if (s == "gauge") return MetricKind::kGauge;
  if (s == "histogram") return MetricKind::kHistogram;
  return std::nullopt;
}

bool set_error(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

bool load_metric(MetricsRegistry& reg, const JsonValue& m,
                 std::string* error) {
  const JsonValue* name = m.get("name");
  const JsonValue* kind = m.get("kind");
  if (name == nullptr || !name->is_string() || kind == nullptr ||
      !kind->is_string())
    return set_error(error, "metric entry missing name/kind");
  if (!is_valid_metric_name(name->text))
    return set_error(error, "invalid metric name: " + name->text);
  const auto k = kind_from(kind->text);
  if (!k) return set_error(error, "unknown metric kind: " + kind->text);
  switch (*k) {
    case MetricKind::kCounter: {
      const JsonValue* v = m.get("value");
      if (v == nullptr || !v->is_number())
        return set_error(error, "counter without numeric value");
      reg.add(reg.counter(name->text),
              std::strtoull(v->text.c_str(), nullptr, 10));
      return true;
    }
    case MetricKind::kGauge: {
      const JsonValue* v = m.get("value");
      if (v == nullptr || !v->is_number())
        return set_error(error, "gauge without numeric value");
      reg.set(reg.gauge(name->text), v->number);
      return true;
    }
    case MetricKind::kHistogram: {
      const JsonValue* sum = m.get("sum");
      const JsonValue* mn = m.get("min");
      const JsonValue* mx = m.get("max");
      const JsonValue* buckets = m.get("buckets");
      if (sum == nullptr || !sum->is_number() || mn == nullptr ||
          !mn->is_number() || mx == nullptr || !mx->is_number() ||
          buckets == nullptr || !buckets->is_array())
        return set_error(error, "histogram missing sum/min/max/buckets");
      LogHistogram h;
      for (const JsonValue& pair : buckets->items) {
        if (!pair.is_array() || pair.items.size() != 2 ||
            !pair.items[0].is_number() || !pair.items[1].is_number())
          return set_error(error, "histogram bucket must be [index, count]");
        const auto idx =
            std::strtoull(pair.items[0].text.c_str(), nullptr, 10);
        if (idx >= LogHistogram::kBuckets)
          return set_error(error, "histogram bucket index out of range");
        h.restore_bucket(static_cast<std::size_t>(idx),
                         std::strtoull(pair.items[1].text.c_str(), nullptr,
                                       10));
      }
      h.restore_moments(sum->number, mn->number, mx->number);
      reg.hist_restore(name->text, h);
      return true;
    }
  }
  return set_error(error, "unreachable metric kind");
}

}  // namespace

std::optional<MetricsRegistry> MetricsRegistry::from_json(
    const std::string& text, std::string* error) {
  const auto doc = json_parse(text, error);
  if (!doc) return std::nullopt;
  const JsonValue* schema = doc->get("schema");
  if (schema == nullptr || !schema->is_string() || schema->text != kSchema) {
    if (error != nullptr) *error = "missing or unknown metrics schema";
    return std::nullopt;
  }
  const JsonValue* metrics = doc->get("metrics");
  if (metrics == nullptr || !metrics->is_array()) {
    if (error != nullptr) *error = "missing metrics array";
    return std::nullopt;
  }
  MetricsRegistry reg;
  for (const JsonValue& m : metrics->items) {
    if (!load_metric(reg, m, error)) return std::nullopt;
  }
  return reg;
}

void MetricsRegistry::hist_restore(std::string_view name,
                                   const LogHistogram& h) {
  owner_.assert_held();
  entries_[intern(name, MetricKind::kHistogram)].hist.merge_from(h);
}

}  // namespace hcube::obs
