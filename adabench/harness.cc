#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

namespace adabench {

namespace fs = std::filesystem;
using adaskip::AggregateKind;

void Fatal(const std::string& what) {
  std::fprintf(stderr, "adabench: %s\n", what.c_str());
  std::exit(2);
}

void Note(const std::string& text) { std::printf("# %s\n", text.c_str()); }

void PrintExact(const std::vector<std::pair<std::string, int64_t>>& counts) {
  std::string line = "exact {";
  for (size_t i = 0; i < counts.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + counts[i].first + "\": " + std::to_string(counts[i].second);
  }
  std::printf("%s}\n", line.c_str());
}

// ---------------------------------------------------------------------------
// Inputs.

Zipf::Zipf(int64_t n, double theta) : n_(n), theta_(theta) {
  zetan_ = 0.0;
  for (int64_t i = 1; i <= n; ++i) zetan_ += 1.0 / std::pow(double(i), theta);
  const double zeta2 = 1.0 + std::pow(0.5, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) / (1.0 - zeta2 / zetan_);
}

int64_t Zipf::Next(Rng& rng) const {
  const double u = rng.Unit();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return std::min<int64_t>(1, n_ - 1);
  const auto rank = static_cast<int64_t>(
      double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return std::clamp<int64_t>(rank, 0, n_ - 1);
}

std::vector<int64_t> ClusteredValues(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  const int64_t width = kValueRange / 500;
  std::vector<int64_t> values(static_cast<size_t>(rows));
  int64_t i = 0;
  while (i < rows) {
    const int64_t run = std::min<int64_t>(1024 + rng.Uniform(3072), rows - i);
    const int64_t base = rng.Uniform(kValueRange - width);
    for (int64_t r = 0; r < run; ++r, ++i) {
      values[static_cast<size_t>(i)] = base + rng.Uniform(width);
    }
  }
  return values;
}

std::vector<int64_t> RandomWalkValues(int64_t rows, uint64_t seed,
                                      int64_t step, int64_t segment_rows,
                                      int64_t start_range) {
  Rng rng(seed);
  int64_t v = 0;
  std::vector<int64_t> values(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    if (i % segment_rows == 0) v = rng.Uniform(start_range);
    v += rng.Uniform(2 * step + 1) - step;
    if (v < 0) v = -v;
    if (v >= kValueRange) v = 2 * (kValueRange - 1) - v;
    values[static_cast<size_t>(i)] = v;
  }
  return values;
}

std::vector<int64_t> KSortedTimestamps(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  constexpr int64_t kTick = 10;     // Mean gap between rows.
  constexpr int64_t kWindow = 64;   // Rows a timestamp may stray by.
  std::vector<int64_t> values(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    values[static_cast<size_t>(i)] = i * kTick + rng.Uniform(kTick * kWindow);
  }
  return values;
}

// ---------------------------------------------------------------------------
// Reference answers.

void RefColumn::Append(const std::vector<int64_t>& values, int64_t begin,
                       int64_t end) {
  Run run;
  run.sorted.assign(values.begin() + begin, values.begin() + end);
  std::sort(run.sorted.begin(), run.sorted.end());
  run.prefix.resize(run.sorted.size() + 1);
  run.prefix[0] = 0;
  for (size_t i = 0; i < run.sorted.size(); ++i) {
    run.prefix[i + 1] = run.prefix[i] + run.sorted[i];
  }
  runs_.push_back(std::move(run));
  rows_ += end - begin;
}

Expected RefColumn::Range(int64_t lo, int64_t hi, size_t runs) const {
  Expected e;
  for (size_t r = 0; r < std::min(runs, runs_.size()); ++r) {
    const Run& run = runs_[r];
    const auto first =
        std::lower_bound(run.sorted.begin(), run.sorted.end(), lo);
    const auto last = std::upper_bound(first, run.sorted.end(), hi);
    if (first == last) continue;
    const size_t i = static_cast<size_t>(first - run.sorted.begin());
    const size_t j = static_cast<size_t>(last - run.sorted.begin());
    e.min = e.count == 0 ? *first : std::min(e.min, *first);
    e.max = e.count == 0 ? *(last - 1) : std::max(e.max, *(last - 1));
    e.count += static_cast<int64_t>(j - i);
    e.sum += run.prefix[j] - run.prefix[i];
  }
  return e;
}

Expected PlainRange(const std::vector<int64_t>& values, int64_t rows,
                    int64_t lo, int64_t hi) {
  Expected e;
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t v = values[static_cast<size_t>(r)];
    if (v < lo || v > hi) continue;
    e.min = e.count == 0 ? v : std::min(e.min, v);
    e.max = e.count == 0 ? v : std::max(e.max, v);
    ++e.count;
    e.sum += v;
  }
  return e;
}

bool Matches(const adaskip::QueryResult& result, AggregateKind aggregate,
             const Expected& expected) {
  if (result.count != expected.count) return false;
  switch (aggregate) {
    case AggregateKind::kSum:
      return result.sum == static_cast<double>(expected.sum);
    case AggregateKind::kMin:
      return expected.count == 0 ||
             result.min == static_cast<double>(expected.min);
    case AggregateKind::kMax:
      return expected.count == 0 ||
             result.max == static_cast<double>(expected.max);
    default:
      return true;
  }
}

adaskip::QuerySpec RangeSpec(const std::string& table, const std::string& column,
                             int64_t lo, int64_t hi, AggregateKind aggregate) {
  adaskip::Query query;
  query.predicates.push_back(adaskip::Predicate::Between(column, lo, hi));
  query.aggregate = aggregate;
  return adaskip::QuerySpec::Simple(table, std::move(query));
}

// ---------------------------------------------------------------------------
// Accounting.

namespace {

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(
      std::clamp(rank - 1.0, 0.0, static_cast<double>(values.size() - 1)));
  return values[index];
}

void PhaseTotals::Add(const adaskip::QueryStats& stats, int64_t call) {
  ++queries;
  call_nanos += call;
  probe_nanos += stats.probe_nanos;
  scan_nanos += stats.scan_nanos;
  adapt_nanos += stats.adapt_nanos;
  merge_nanos += stats.merge_nanos;
  entries_read += stats.probe.entries_read;
  rows_total += stats.rows_total;
  rows_scanned += stats.rows_scanned;
  rows_matched += stats.rows_matched;
  rows_packed += stats.rows_scanned_packed;
  tail_rows_scanned += stats.tail_rows_scanned;
  parallel_workers += stats.parallel_workers;
  unattributed_nanos += call - stats.probe_nanos - stats.scan_nanos -
                        stats.adapt_nanos - stats.merge_nanos;
}

std::string Report::Json() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (!std::isfinite(m.value)) Fatal("metric " + m.name + " is not finite");
    std::snprintf(buf, sizeof(buf), "%.12g", m.value);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out + "}";
}

void AddPhaseMetrics(const PhaseTotals& p, const std::string& suffix,
                     Report* report) {
  const double q = static_cast<double>(p.queries);
  report->Add("engine.probe_us" + suffix, Ratio(double(p.probe_nanos) / 1e3, q),
              "us");
  report->Add("engine.scan_us" + suffix, Ratio(double(p.scan_nanos) / 1e3, q),
              "us");
  report->Add("engine.adapt_us" + suffix, Ratio(double(p.adapt_nanos) / 1e3, q),
              "us");
  report->Add("engine.unattributed_us" + suffix,
              Ratio(double(p.unattributed_nanos) / 1e3, q), "us");
  report->Add("engine.unattributed_frac" + suffix,
              Ratio(double(p.unattributed_nanos), double(p.call_nanos)),
              "ratio");
  report->Add("adaptive.entries_read_per_query" + suffix,
              Ratio(double(p.entries_read), q), "count");
  report->Add("adaptive.rows_scanned_frac" + suffix,
              Ratio(double(p.rows_scanned), double(p.rows_total)), "ratio");
  report->Add("adaptive.useful_row_frac" + suffix,
              Ratio(double(p.rows_matched), double(p.rows_scanned)), "ratio");
  if (!suffix.empty()) return;
  report->Add("engine.merge_us", Ratio(double(p.merge_nanos) / 1e3, q), "us");
  report->Add("scan.mrows_per_s",
              Ratio(double(p.rows_scanned) * 1e3, double(p.scan_nanos)),
              "Mrows/s");
  report->Add("scan.packed_row_frac",
              Ratio(double(p.rows_packed), double(p.rows_scanned)), "ratio");
  report->Add("adaptive.tail_rows_scanned_per_query",
              Ratio(double(p.tail_rows_scanned), q), "count");
  report->Add("util.parallel_workers_mean", Ratio(double(p.parallel_workers), q),
              "count");
}

IndexTotals DescribeIndexes(const adaskip::Session& session,
                            const std::string& table,
                            const std::vector<std::string>& columns) {
  IndexTotals t;
  for (const std::string& column : columns) {
    const adaskip::IndexSnapshot snap =
        Take(session.DescribeIndex(table, column), "DescribeIndex");
    t.zones_refined += snap.adaptation.zones_refined;
    t.zones_merged += snap.adaptation.zones_merged;
    t.zones_final += snap.zone_count;
    t.bypassed_probes += snap.adaptation.bypassed_probes;
    t.tail_absorbs += snap.adaptation.tail_absorbs;
    t.memory_bytes += snap.memory_bytes;
  }
  return t;
}

void AddIndexMetrics(const IndexTotals& t, const std::string& suffix,
                     Report* report) {
  report->Add("adaptive.zones_refined" + suffix, double(t.zones_refined),
              "count");
  report->Add("adaptive.zones_merged" + suffix, double(t.zones_merged), "count");
  report->Add("adaptive.zones_final" + suffix, double(t.zones_final), "count");
  report->Add("adaptive.bypassed_probes" + suffix, double(t.bypassed_probes),
              "count");
  if (suffix.empty()) {
    report->Add("adaptive.tail_absorbs", double(t.tail_absorbs), "count");
  }
}

void AddServerMetrics(const ServerAccounting& s, Report* report) {
  report->Add("engine.server.queue_wait_us", s.queue_wait_us, "us");
  report->Add("engine.server.batch_window_us", s.batch_window_us, "us");
  report->Add("engine.server.peek_us", s.peek_us, "us");
  report->Add("engine.server.shared_scan_us", s.shared_scan_us, "us");
  report->Add("engine.server.replay_us", s.replay_us, "us");
  report->Add("engine.server.batch_width_mean", s.batch_width_mean, "count");
  report->Add("engine.server.saved_row_frac", s.saved_row_frac, "ratio");
  report->Add("engine.server.solo_frac", s.solo_frac, "ratio");
  report->Add("engine.server.shed", double(s.shed), "count");
  report->Add("engine.server.expired", double(s.expired), "count");
}

void AddLadderMetrics(const LadderAccounting& l, Report* report) {
  for (int i = 0; i < kLadderSteps; ++i) {
    const std::string step = "workload.step" + std::to_string(i + 1);
    const auto at = [i](const std::vector<double>& v) {
      return size_t(i) < v.size() ? v[size_t(i)] : 0.0;
    };
    report->Add(step + ".p50_us", at(l.step_p50_us), "us");
    report->Add(step + ".p99_us", at(l.step_p99_us), "us");
  }
  report->Add("workload.gen_late_us_p99", l.gen_late_us_p99, "us");
  report->Add("workload.backlog_end", double(l.backlog_end), "count");
}

void SelfTimes::AddCall(const adaskip::QueryStats& stats, int64_t call) {
  adaptive += stats.probe_nanos + stats.adapt_nanos;
  scan += stats.scan_nanos;
  engine += call - stats.probe_nanos - stats.adapt_nanos - stats.scan_nanos;
}

void AddSelfMetrics(const SelfTimes& s, Report* report) {
  const double total = double(s.sum());
  report->Add("self.workload_frac", Ratio(double(s.workload), total), "ratio");
  report->Add("self.engine_frac", Ratio(double(s.engine), total), "ratio");
  report->Add("self.engine.server_frac", Ratio(double(s.server), total),
              "ratio");
  report->Add("self.adaptive_frac", Ratio(double(s.adaptive), total), "ratio");
  report->Add("self.scan_frac", Ratio(double(s.scan), total), "ratio");
  report->Add("self.storage_frac", Ratio(double(s.storage), total), "ratio");
  report->Add("self.persist_frac", Ratio(double(s.persist), total), "ratio");
}

int64_t ChildNanos(const adaskip::obs::TraceSpan& span, const char* name) {
  const adaskip::obs::TraceSpan* child = span.FindChild(name);
  return child == nullptr ? 0 : child->duration_nanos;
}

// ---------------------------------------------------------------------------
// Persistence.

int64_t DirBytes(const std::string& dir) {
  int64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += int64_t(entry.file_size());
  }
  return bytes;
}

void TimedAppend(adaskip::Session& session, const std::string& table,
                 const adaskip::AppendBatch& batch, int64_t rows,
                 PersistRecord* record, SelfTimes* self) {
  const int64_t t0 = NowNanos();
  Require(session.Append(table, batch), "Append");
  const int64_t dt = NowNanos() - t0;
  record->append_nanos_per_row.push_back(double(dt) / double(rows));
  self->storage += dt;
}

void TimedCheckpoint(adaskip::Session& session, const std::string& dir,
                     int64_t rows, PersistRecord* record, SelfTimes* self) {
  const int64_t t0 = NowNanos();
  Require(session.Checkpoint(dir), "Checkpoint");
  const int64_t dt = NowNanos() - t0;
  const int64_t bytes = DirBytes(dir);
  record->checkpoint_ms.push_back(double(dt) / 1e6);
  record->checkpoint_mb_per_s.push_back(double(bytes) * 1e3 / double(dt));
  record->bytes_per_row.push_back(double(bytes) / double(rows));
  record->snapshot_bytes = bytes;
  self->persist += dt;
}

namespace {

bool SameAnswer(const adaskip::QueryResult& a, const adaskip::QueryResult& b) {
  const auto same = [](double x, double y) {
    return x == y || (std::isnan(x) && std::isnan(y));
  };
  return a.count == b.count && same(a.sum, b.sum) && same(a.min, b.min) &&
         same(a.max, b.max);
}

/// Copies the snapshot in `dir` to `copy_dir`, restores a new session
/// from the copy, and runs `probes` on it and on `live`. The recorded
/// restore time runs from Restore to the first verified answer; nothing
/// is recorded when `record` is null. Returns the number of wrong answers
/// (restored or live, against the reference and against each other).
int64_t VerifiedRestore(adaskip::Session& live, const std::string& dir,
                        const std::string& copy_dir,
                        const std::vector<Probe>& probes,
                        PersistRecord* record) {
  // Restore resumes journal-tail writes into the directory it restored
  // from, so each restore gets its own copy and `dir` stays the live
  // session's snapshot.
  fs::remove_all(copy_dir);
  fs::copy(dir, copy_dir, fs::copy_options::recursive);
  int64_t failed = 0;
  {
    adaskip::Session restored;
    const int64_t t0 = NowNanos();
    Require(restored.Restore(copy_dir), "Restore");
    const int64_t restore_nanos = NowNanos() - t0;
    const adaskip::QueryResult first =
        Take(restored.ExecuteSpec(probes.front().spec), "restored query");
    if (!Matches(first, probes.front().spec.query.aggregate,
                 probes.front().expected)) {
      ++failed;
    }
    const int64_t dt = NowNanos() - t0;
    if (record != nullptr) {
      record->restore_ms.push_back(double(dt) / 1e6);
      record->restore_mb_per_s.push_back(double(DirBytes(copy_dir)) * 1e3 /
                                         double(restore_nanos));
    }
    for (const Probe& probe : probes) {
      const adaskip::QueryResult a =
          Take(restored.ExecuteSpec(probe.spec), "restored query");
      const adaskip::QueryResult b =
          Take(live.ExecuteSpec(probe.spec), "live query");
      const adaskip::AggregateKind agg = probe.spec.query.aggregate;
      if (!Matches(a, agg, probe.expected) || !Matches(b, agg, probe.expected) ||
          !SameAnswer(a, b)) {
        ++failed;
      }
    }
  }
  fs::remove_all(copy_dir);
  return failed;
}

}  // namespace

Outcome RestoreCycles(adaskip::Session& live, const std::string& dir,
                      const std::vector<Probe>& probes, int count,
                      PersistRecord* record) {
  Outcome outcome;
  for (int r = 0; r <= count; ++r) {
    outcome.attempted += int64_t(probes.size());
    outcome.failed += VerifiedRestore(live, dir, dir + ".restore", probes,
                                      r == 0 ? nullptr : record);
  }
  return outcome;
}

void AddPersistMetrics(const PersistRecord& r, Report* report) {
  report->Add("storage.append_us_per_krow",
              Median(r.append_nanos_per_row) /* ns per row = us per krow */,
              "us/krow");
  report->Add("persist.checkpoint_mb_per_s", Median(r.checkpoint_mb_per_s),
              "MB/s");
  report->Add("persist.restore_ms", Median(r.restore_ms), "ms");
  report->Add("persist.restore_mb_per_s", Median(r.restore_mb_per_s), "MB/s");
  report->Add("persist.snapshot_bytes", double(r.snapshot_bytes), "bytes");
}

std::vector<Probe> MakeProbes(const std::string& table,
                              const std::vector<std::string>& columns,
                              const std::vector<std::vector<int64_t>>& values,
                              const std::vector<RefColumn>& refs, int count,
                              uint64_t seed) {
  constexpr AggregateKind kAggregates[] = {
      AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMin,
      AggregateKind::kMax};
  Rng rng(seed);
  std::vector<Probe> probes;
  for (size_t c = 0; c < columns.size(); ++c) {
    const std::vector<int64_t>& v = values[c];
    const int64_t rows = refs[c].rows();
    const auto [lo_it, hi_it] =
        std::minmax_element(v.begin(), v.begin() + rows);
    const int64_t width = std::max<int64_t>((*hi_it - *lo_it) / 100, 1);
    for (int i = 0; i < count; ++i) {
      const int64_t lo = v[static_cast<size_t>(rng.Uniform(rows))];
      const AggregateKind agg = kAggregates[i % 4];
      probes.push_back({RangeSpec(table, columns[c], lo, lo + width, agg),
                        refs[c].Range(lo, lo + width)});
    }
  }
  return probes;
}

Outcome PersistEpilogue(adaskip::Session& session, const std::string& table,
                        const std::vector<std::string>& columns,
                        const std::vector<std::vector<int64_t>>& values,
                        std::vector<RefColumn>* refs, int64_t chunk,
                        int cycles, int restores, const std::string& dir,
                        uint64_t seed, PersistRecord* record) {
  SelfTimes unused;
  for (int k = 0; k < cycles; ++k) {
    const int64_t begin = (*refs)[0].rows();
    adaskip::AppendBatch batch;
    for (size_t c = 0; c < columns.size(); ++c) {
      batch.Add(columns[c],
                std::vector<int64_t>(values[c].begin() + begin,
                                     values[c].begin() + begin + chunk));
      (*refs)[c].Append(values[c], begin, begin + chunk);
    }
    TimedAppend(session, table, batch, chunk, record, &unused);
    TimedCheckpoint(session, dir, begin + chunk, record, &unused);
  }
  return RestoreCycles(session, dir,
                       MakeProbes(table, columns, values, *refs, 8, seed),
                       restores, record);
}

void AddRound(const std::vector<double>& latency_us, EndToEnd* e2e) {
  double busy_us = 0.0;
  for (double us : latency_us) busy_us += us;
  e2e->qps.push_back(Ratio(double(latency_us.size()) * 1e6, busy_us));
  e2e->p50_us.push_back(Quantile(latency_us, 0.50));
  e2e->p99_us.push_back(Quantile(latency_us, 0.99));
  e2e->latency_samples += int64_t(latency_us.size());
}

void AddEndToEnd(const EndToEnd& e, const PersistRecord& p, Report* report) {
  report->Add("setup_s", FastQuartile(e.setup_s, true), "s");
  report->Add("qps", FastQuartile(e.qps, false), "1/s");
  report->Add("latency_p50_us", FastQuartile(e.p50_us, true), "us");
  report->Add("append_rows_per_s",
              Ratio(1e9, FastQuartile(p.append_nanos_per_row, true)), "1/s");
  report->Add("checkpoint_ms", FastQuartile(p.checkpoint_ms, true), "ms");
  report->Add("stored_bytes_per_row", Median(p.bytes_per_row), "bytes");
  report->Add("index_bytes", double(e.index_bytes), "bytes");
  Note("latency samples: " + std::to_string(e.latency_samples) + " in " +
       std::to_string(e.p50_us.size()) + " rounds; set-ups: " +
       std::to_string(e.setup_s.size()) + "; checkpoints: " +
       std::to_string(p.checkpoint_ms.size()) + "; restores: " +
       std::to_string(p.restore_ms.size()));
}

void AddTailMetric(const EndToEnd& e, Report* report) {
  report->Add("workload.latency_p99_us", Median(e.p99_us), "us");
  report->Add("workload.max_rate_qps", Median(e.max_rate_qps), "1/s");
  Note("latency samples: " + std::to_string(e.latency_samples) + " in " +
       std::to_string(e.p99_us.size()) + " rounds");
}

}  // namespace adabench
