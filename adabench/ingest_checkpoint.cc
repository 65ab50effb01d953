// ingest_checkpoint: writes beside reads. One client in a closed loop.
// The table loads half of its 2M rows, then interleaves fixed-size
// Append chunks with range queries and checkpoints every few appends.
// `ts` is time-like and k-sorted with an adaptive zonemap, and its
// queries favour recent rows, which the indexes still cover only with
// tail metadata; `value` is a random walk with adaptive imprints. Packed
// segment layouts and the adaptation journal are on. The flush policy is
// the product's: Checkpoint fsyncs every snapshot file, and after a
// checkpoint every journaled event is fsynced into the journal tail.
//
// A run repeats the script (load, then 63 appends of 16384 rows, 32
// queries after each, a checkpoint after every 4th and the last), each
// round on a fresh session with queries drawn for that round,
// until --seconds have passed, then restores the last snapshot into fresh
// sessions several times, each verified against the live session.

#include <algorithm>
#include <memory>

#include "harness.h"

namespace adabench {
namespace {

using adaskip::AggregateKind;
using adaskip::Session;

constexpr char kTable[] = "t";
const std::vector<std::string> kColumns = {"ts", "value"};
// The load fills exactly one storage segment (1 << 20 rows), so it is
// sealed, and run through the layout policy, before the first query.
constexpr int64_t kLoadRows = int64_t{1} << 20;
// 63 appends stop one chunk short of sealing the second segment: its
// layout decision would hang on query feedback, and a final layout that
// differs from seed to seed split restore times into two clusters.
constexpr int64_t kChunk = kLoadRows / 64;
constexpr int64_t kTotalRows = 2 * kLoadRows - kChunk;
constexpr int kAppendsPerCheckpoint = 4;
constexpr int kQueriesPerAppend = 32;
constexpr int64_t kRangeRows = kLoadRows / 100;  // ~1% of the loaded rows.
// Sensor-like readings in small integer steps, one sensor per 125k rows,
// all starting below kSensorStarts: a 1M-row segment spans a few tens of
// thousands of values, narrow enough for the layout policy to pack it.
constexpr int64_t kValueStep = 4;
constexpr int64_t kSensorRows = 125'000;
constexpr int64_t kSensorStarts = 20'000;
constexpr int64_t kRecencyBuckets = 64;
constexpr double kZipfTheta = 0.9;
constexpr int kMinSetups = 11;
// Fixed traced rounds; see skip_serial.cc.
constexpr int64_t kTracedRounds = 3;
constexpr int kRestores = 12;
constexpr int kAuditQueries = 16;

struct Op {
  enum Kind { kQuery, kAppend, kCheckpoint } kind;
  adaskip::QuerySpec spec;
  Expected expected;
  int64_t rows = 0;  // Table rows before an append / at a checkpoint.
};

struct Data {
  std::vector<std::vector<int64_t>> values;
  std::vector<RefColumn> refs;  // One run for the load, one per append.
  int64_t value_width = 0;      // ~1% of the loaded values' span.
};

Data MakeData(uint64_t seed) {
  Data d;
  d.values = {KSortedTimestamps(kTotalRows, seed * 7 + 6),
              RandomWalkValues(kTotalRows, seed * 7 + 7, kValueStep,
                               kSensorRows, kSensorStarts)};
  d.refs.resize(2);
  for (size_t c = 0; c < 2; ++c) {
    d.refs[c].Append(d.values[c], 0, kLoadRows);
    for (int64_t rows = kLoadRows; rows < kTotalRows; rows += kChunk) {
      d.refs[c].Append(d.values[c], rows, rows + kChunk);
    }
  }
  const auto [vmin, vmax] =
      std::minmax_element(d.values[1].begin(), d.values[1].begin() + kLoadRows);
  d.value_width = (*vmax - *vmin) / 100;
  return d;
}

/// The script of round `round`: the same appends and checkpoints every
/// round, queries drawn afresh, and round 0 audited.
std::vector<Op> MakeScript(const Data& d, uint64_t seed, int64_t round) {
  constexpr AggregateKind kAggregates[] = {
      AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMin,
      AggregateKind::kMax};
  const std::vector<int64_t>& ts = d.values[0];
  const std::vector<int64_t>& value = d.values[1];
  Rng rng(seed * 7 + 8 + uint64_t(round) * 1000003);
  const Zipf recency(kRecencyBuckets, kZipfTheta);
  std::vector<Op> script;
  int audited = round == 0 ? 0 : kAuditQueries;
  for (int64_t rows = kLoadRows, a = 0; rows < kTotalRows; rows += kChunk, ++a) {
    script.push_back({Op::kAppend, {}, {}, rows});
    const int64_t now = rows + kChunk;
    for (int q = 0; q < kQueriesPerAppend; ++q) {
      const int c = int(rng.Uniform(2));
      int64_t lo, hi;
      if (c == 0) {
        const int64_t end = now - 1 - recency.Next(rng) * (now / kRecencyBuckets);
        lo = ts[size_t(std::max<int64_t>(end - kRangeRows, 0))];
        hi = ts[size_t(end)];
      } else {
        lo = value[size_t(rng.Uniform(now))];
        hi = lo + d.value_width;
      }
      const AggregateKind agg = kAggregates[rng.Uniform(4)];
      const Expected expected = d.refs[size_t(c)].Range(lo, hi, size_t(a + 2));
      if (audited < kAuditQueries) {
        const Expected plain = PlainRange(d.values[size_t(c)], now, lo, hi);
        if (plain.count != expected.count || plain.sum != expected.sum) {
          Fatal("reference audit failed");
        }
        ++audited;
      }
      script.push_back({Op::kQuery,
                        RangeSpec(kTable, kColumns[size_t(c)], lo, hi, agg),
                        expected, now});
    }
    if ((a + 1) % kAppendsPerCheckpoint == 0 || now == kTotalRows) {
      script.push_back({Op::kCheckpoint, {}, {}, now});
    }
  }
  return script;
}

std::unique_ptr<Session> Setup(const Data& d, std::vector<double>* setup_s) {
  std::vector<std::vector<int64_t>> columns;
  for (const auto& v : d.values) columns.emplace_back(v.begin(), v.begin() + kLoadRows);
  const int64_t t0 = NowNanos();
  auto session = std::make_unique<Session>();
  Require(session->CreateTable(kTable), "CreateTable");
  for (size_t c = 0; c < kColumns.size(); ++c) {
    Require(session->AddColumn(kTable, kColumns[c], std::move(columns[c])),
            "AddColumn");
  }
  Require(session->AttachIndex(kTable, kColumns[0], adaskip::IndexOptions{}),
          "AttachIndex");
  adaskip::IndexOptions imprints;
  imprints.kind = adaskip::IndexKind::kAdaptiveImprints;
  Require(session->AttachIndex(kTable, kColumns[1], imprints), "AttachIndex");
  adaskip::SessionOptions options;
  adaskip::SessionOptions::TableOptions& table = options.tables[kTable];
  table.exec = adaskip::ExecOptions{};
  table.exec->journal_events = true;
  table.layout = adaskip::SegmentLayoutOptions{};
  table.layout->enabled = true;
  Require(session->Configure(options), "Configure");
  setup_s->push_back(double(NowNanos() - t0) / 1e9);
  return session;
}

struct Pass {
  int64_t rounds = 0;
  int64_t queries = 0;
  int64_t failed = 0;
  int64_t journal_events = 0;
  EndToEnd e2e;
  std::vector<int64_t> round_call_nanos;
  PhaseTotals all;
  SelfTimes self;
  PersistRecord persist;
  std::unique_ptr<Session> last;
  std::vector<std::pair<std::string, int64_t>> exact;
};

Pass RunPass(const Data& d, uint64_t seed, const std::string& dir, bool traced,
             double seconds, int64_t min_rounds, std::vector<double>* setup_s) {
  Pass pass;
  const int64_t start = NowNanos();
  while (pass.rounds < std::max<int64_t>(min_rounds, 1) ||
         double(NowNanos() - start) / 1e9 < seconds) {
    const std::vector<Op> script = MakeScript(d, seed, pass.rounds);
    std::vector<double> latency_us;
    const int64_t calls_before = pass.all.call_nanos;
    pass.last.reset();
    pass.last = Setup(d, setup_s);
    Session& session = *pass.last;
    const int64_t events_before = session.journal().total_appended();
    const int64_t round_start = NowNanos();
    const int64_t spans_before = pass.self.sum();
    for (const Op& op : script) {
      if (op.kind == Op::kAppend) {
        adaskip::AppendBatch batch;
        for (size_t c = 0; c < kColumns.size(); ++c) {
          batch.Add(kColumns[c],
                    std::vector<int64_t>(d.values[c].begin() + op.rows,
                                         d.values[c].begin() + op.rows + kChunk));
        }
        TimedAppend(session, kTable, batch, kChunk, &pass.persist, &pass.self);
        continue;
      }
      if (op.kind == Op::kCheckpoint) {
        TimedCheckpoint(session, dir, op.rows, &pass.persist, &pass.self);
        continue;
      }
      adaskip::QuerySpec spec = op.spec;
      if (traced) spec.trace_level = adaskip::obs::TraceLevel::kSummary;
      const int64_t t0 = NowNanos();
      adaskip::Result<adaskip::QueryResult> result = session.ExecuteSpec(spec);
      const int64_t dt = NowNanos() - t0;
      ++pass.queries;
      if (!result.ok() || !Matches(*result, spec.query.aggregate, op.expected)) {
        ++pass.failed;
        continue;
      }
      latency_us.push_back(double(dt) / 1e3);
      pass.all.Add(result->stats, dt);
      pass.self.AddCall(result->stats, dt);
    }
    // The round's time its calls do not cover is the loop's own.
    pass.self.workload += NowNanos() - round_start - (pass.self.sum() - spans_before);
    AddRound(latency_us, &pass.e2e);
    pass.round_call_nanos.push_back(pass.all.call_nanos - calls_before);
    const int64_t events = session.journal().total_appended() - events_before;
    pass.journal_events += events;
    if (pass.rounds++ == 0) {
      const IndexTotals t = DescribeIndexes(session, kTable, kColumns);
      pass.exact = {{"adaptive.entries_read", pass.all.entries_read},
                    {"scan.kernel_rows", pass.all.rows_scanned},
                    {"scan.packed_rows", pass.all.rows_packed},
                    {"adaptive.tail_rows_scanned", pass.all.tail_rows_scanned},
                    {"adaptive.tail_absorbs", t.tail_absorbs},
                    {"adaptive.zones_final", t.zones_final},
                    {"obs.journal_events", events},
                    {"rows_matched", pass.all.rows_matched}};
    }
  }
  return pass;
}

}  // namespace

Outcome RunIngestCheckpoint(const Args& args, Report* report) {
  Data d = MakeData(args.seed);
  const std::string dir = args.scratch + "/ingest_checkpoint";

  std::vector<double> setup_s;
  for (int i = 1; i < kMinSetups; ++i) Setup(d, &setup_s);
  Pass measured = RunPass(d, args.seed, dir, false, args.seconds,
                          args.trace ? kTracedRounds : 1, &setup_s);
  PrintExact(measured.exact);
  Outcome outcome{measured.queries, measured.failed};

  Pass traced;
  if (args.trace) {
    measured.last.reset();
    std::vector<double> unused;
    traced = RunPass(d, args.seed, dir, true, 0.0, kTracedRounds, &unused);
    outcome.attempted += traced.queries;
    outcome.failed += traced.failed;
  }
  Pass& final_pass = args.trace ? traced : measured;
  const IndexTotals index = DescribeIndexes(*final_pass.last, kTable, kColumns);

  const std::vector<Probe> probes =
      MakeProbes(kTable, kColumns, d.values, d.refs, 8, args.seed);
  const Outcome restores =
      RestoreCycles(*final_pass.last, dir, probes, kRestores, &final_pass.persist);
  outcome.attempted += restores.attempted;
  outcome.failed += restores.failed;

  EndToEnd& e2e = measured.e2e;
  e2e.setup_s = setup_s;
  e2e.index_bytes = index.memory_bytes;
  if (!args.trace) {
    AddEndToEnd(e2e, measured.persist, report);
    return outcome;
  }

  AddPhaseMetrics(traced.all, "", report);
  AddIndexMetrics(index, "", report);
  for (const char* suffix : {".clustered", ".random_walk"}) {
    AddPhaseMetrics(PhaseTotals{}, suffix, report);
    AddIndexMetrics(IndexTotals{}, suffix, report);
  }
  const double rounds = double(traced.rounds);
  report->Add("scan.kernel_rows", double(traced.all.rows_scanned) / rounds,
              "count");
  AddServerMetrics(ServerAccounting{}, report);
  AddLadderMetrics(LadderAccounting{}, report);
  AddTailMetric(e2e, report);
  AddPersistMetrics(traced.persist, report);
  report->Add("obs.journal_events_per_query",
              double(traced.journal_events) / double(traced.queries), "count");
  int64_t untraced_nanos = 0;
  for (int64_t r = 0; r < kTracedRounds; ++r) {
    untraced_nanos += measured.round_call_nanos[size_t(r)];
  }
  report->Add("obs.trace_overhead_frac",
              1.0 - double(untraced_nanos) / double(traced.all.call_nanos),
              "ratio");
  AddSelfMetrics(traced.self, report);
  return outcome;
}

}  // namespace adabench
