// skip_serial: the paper's regime. One client in a closed loop, serial
// execution, two 2M-row int64 columns (16 MB each, twice the 8 MiB L2)
// with adaptive zonemaps. The query stream is COUNT/SUM/MIN/MAX ranges
// at 1% selectivity, one in ten a two-column conjunction; ranges are
// drawn Zipf from a hot set that rotates every kRotateEvery queries, so
// refinement has new work for the whole run. The random_walk column is
// where adaptation costs more than it saves.
//
// A run repeats rounds of kQueriesPerRound queries, each on a freshly
// set-up session with its own hot sets, until --seconds have passed. A
// round's script depends only on the seed and the round's index, so its
// counts repeat exactly.

#include <algorithm>
#include <memory>
#include <numeric>

#include "harness.h"

namespace adabench {
namespace {

using adaskip::AggregateKind;
using adaskip::Session;

constexpr char kTable[] = "t";
const std::vector<std::string> kColumns = {"clustered", "random_walk"};
constexpr int64_t kRows = 2'000'000;
constexpr int64_t kRangeRows = kRows / 100;  // 1% selectivity.
constexpr int64_t kQueriesPerRound = 6000;
constexpr int64_t kRotateEvery = 500;
constexpr int64_t kHotRanges = 32;
constexpr double kZipfTheta = 0.9;
constexpr int kConjunctionPercent = 10;
constexpr int kMinSetups = 11;
// The traced pass runs this many rounds, and the untraced pass at least
// as many, so per-layer counts repeat exactly and the overhead compares
// the same rounds.
constexpr int64_t kTracedRounds = 4;
constexpr int kAuditQueries = 16;
// Persistence epilogue.
constexpr int64_t kAppendChunk = 32768;
constexpr int kAppendCycles = 8;
constexpr int kRestores = 12;

struct Op {
  adaskip::QuerySpec spec;
  Expected expected;
  int column;  // 0 or 1; -1 for a conjunction.
};

struct Data {
  std::vector<std::vector<int64_t>> values;  // kRows + epilogue rows each.
  std::vector<RefColumn> refs;
  std::vector<std::vector<int64_t>> sorted;  // First kRows, ascending.
  std::vector<int32_t> by_first;  // Row ids of column 0, by value.
};

Data MakeData(uint64_t seed) {
  const int64_t total = kRows + kAppendChunk * kAppendCycles;
  Data d;
  d.values = {ClusteredValues(total, seed * 7 + 1),
              RandomWalkValues(total, seed * 7 + 2, kValueRange / 2000,
                               kRows / 8, kValueRange)};
  d.refs.resize(2);
  for (int c = 0; c < 2; ++c) {
    d.refs[static_cast<size_t>(c)].Append(d.values[static_cast<size_t>(c)], 0,
                                          kRows);
    std::vector<int64_t> s(d.values[static_cast<size_t>(c)].begin(),
                           d.values[static_cast<size_t>(c)].begin() + kRows);
    std::sort(s.begin(), s.end());
    d.sorted.push_back(std::move(s));
  }
  d.by_first.resize(static_cast<size_t>(kRows));
  std::iota(d.by_first.begin(), d.by_first.end(), 0);
  const std::vector<int64_t>& first = d.values[0];
  std::stable_sort(d.by_first.begin(), d.by_first.end(),
                   [&](int32_t a, int32_t b) {
                     return first[size_t(a)] < first[size_t(b)];
                   });
  return d;
}

/// Reference for `first in [lo0, hi0] AND second in [lo1, hi1]`, the
/// aggregate over the first column: a loop over the rows the first
/// predicate selects.
Expected Conjunction(const Data& d, int64_t lo0, int64_t hi0, int64_t lo1,
                     int64_t hi1) {
  const std::vector<int64_t>& s = d.sorted[0];
  const size_t i = size_t(std::lower_bound(s.begin(), s.end(), lo0) - s.begin());
  const size_t j = size_t(std::upper_bound(s.begin(), s.end(), hi0) - s.begin());
  Expected e;
  for (size_t k = i; k < j; ++k) {
    const size_t row = size_t(d.by_first[k]);
    const int64_t b = d.values[1][row];
    if (b < lo1 || b > hi1) continue;
    const int64_t a = d.values[0][row];
    e.min = e.count == 0 ? a : std::min(e.min, a);
    e.max = e.count == 0 ? a : std::max(e.max, a);
    ++e.count;
    e.sum += a;
  }
  return e;
}

/// The script of round `round`: every round draws its own hot sets, so a
/// run averages over many of them, and round 0 is audited.
std::vector<Op> MakeScript(const Data& d, uint64_t seed, int64_t round) {
  constexpr AggregateKind kAggregates[] = {
      AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMin,
      AggregateKind::kMax};
  Rng rng(seed * 7 + 3 + uint64_t(round) * 1000003);
  const Zipf zipf(kHotRanges, kZipfTheta);
  std::vector<int64_t> hot[2];
  std::vector<Op> script;
  script.reserve(size_t(kQueriesPerRound));
  const auto range = [&](int c, int64_t rank) {
    const int64_t pos = hot[c][size_t(rank)];
    const std::vector<int64_t>& s = d.sorted[size_t(c)];
    return std::pair<int64_t, int64_t>{s[size_t(pos)],
                                       s[size_t(pos + kRangeRows - 1)]};
  };
  for (int64_t q = 0; q < kQueriesPerRound; ++q) {
    if (q % kRotateEvery == 0) {
      for (auto& h : hot) {
        h.clear();
        for (int64_t i = 0; i < kHotRanges; ++i) {
          h.push_back(rng.Uniform(kRows - kRangeRows));
        }
      }
    }
    if (rng.Uniform(100) < kConjunctionPercent) {
      const auto [lo0, hi0] = range(0, zipf.Next(rng));
      const auto [lo1, hi1] = range(1, zipf.Next(rng));
      adaskip::Query query;
      query.predicates.push_back(
          adaskip::Predicate::Between(kColumns[0], lo0, hi0));
      query.predicates.push_back(
          adaskip::Predicate::Between(kColumns[1], lo1, hi1));
      query.aggregate =
          rng.Uniform(2) == 0 ? AggregateKind::kCount : AggregateKind::kSum;
      script.push_back({adaskip::QuerySpec::Simple(kTable, std::move(query)),
                        Conjunction(d, lo0, hi0, lo1, hi1), -1});
      continue;
    }
    const int c = int(rng.Uniform(2));
    const auto [lo, hi] = range(c, zipf.Next(rng));
    const AggregateKind agg = kAggregates[rng.Uniform(4)];
    script.push_back({RangeSpec(kTable, kColumns[size_t(c)], lo, hi, agg),
                      d.refs[size_t(c)].Range(lo, hi), c});
  }
  // Audit the sorted reference against a plain loop over the rows.
  for (int64_t q = 0, audited = 0; round == 0 && audited < kAuditQueries; ++q) {
    const Op& op = script[size_t(q)];
    if (op.column < 0) continue;
    const adaskip::Predicate& p = op.spec.query.predicates[0];
    const Expected plain =
        PlainRange(d.values[size_t(op.column)], kRows,
                   std::get<int64_t>(p.lower), std::get<int64_t>(p.upper));
    if (plain.count != op.expected.count || plain.sum != op.expected.sum) {
      Fatal("reference audit failed");
    }
    ++audited;
  }
  return script;
}

std::unique_ptr<Session> Setup(const Data& d, std::vector<double>* setup_s) {
  std::vector<std::vector<int64_t>> columns;
  for (const auto& v : d.values) columns.emplace_back(v.begin(), v.begin() + kRows);
  const int64_t t0 = NowNanos();
  auto session = std::make_unique<Session>();
  Require(session->CreateTable(kTable), "CreateTable");
  for (size_t c = 0; c < kColumns.size(); ++c) {
    Require(session->AddColumn(kTable, kColumns[c], std::move(columns[c])),
            "AddColumn");
  }
  for (const std::string& column : kColumns) {
    Require(session->AttachIndex(kTable, column, adaskip::IndexOptions{}),
            "AttachIndex");
  }
  setup_s->push_back(double(NowNanos() - t0) / 1e9);
  return session;
}

struct Pass {
  int64_t rounds = 0;
  int64_t queries = 0;
  int64_t failed = 0;
  EndToEnd e2e;
  std::vector<int64_t> round_call_nanos;
  PhaseTotals all, column[2];
  SelfTimes self;
  std::unique_ptr<Session> last;
  std::vector<std::pair<std::string, int64_t>> exact;
};

/// Runs rounds until `seconds` have passed and at least `min_rounds` ran.
Pass RunPass(const Data& d, uint64_t seed, bool traced, double seconds,
             int64_t min_rounds, std::vector<double>* setup_s) {
  Pass pass;
  const int64_t start = NowNanos();
  while (pass.rounds < std::max<int64_t>(min_rounds, 1) ||
         double(NowNanos() - start) / 1e9 < seconds) {
    const std::vector<Op> script = MakeScript(d, seed, pass.rounds);
    std::vector<double> latency_us;
    pass.last.reset();
    pass.last = Setup(d, setup_s);
    Session& session = *pass.last;
    const int64_t round_start = NowNanos();
    int64_t calls = 0;
    for (const Op& op : script) {
      adaskip::QuerySpec spec = op.spec;
      if (traced) spec.trace_level = adaskip::obs::TraceLevel::kSummary;
      const int64_t t0 = NowNanos();
      adaskip::Result<adaskip::QueryResult> result = session.ExecuteSpec(spec);
      const int64_t dt = NowNanos() - t0;
      calls += dt;
      ++pass.queries;
      if (!result.ok() ||
          !Matches(*result, spec.query.aggregate, op.expected)) {
        ++pass.failed;
        continue;
      }
      const adaskip::QueryStats& stats = result->stats;
      latency_us.push_back(double(dt) / 1e3);
      pass.all.Add(stats, dt);
      if (op.column >= 0) pass.column[op.column].Add(stats, dt);
      pass.self.AddCall(stats, dt);
    }
    // The round's time its calls do not cover is the loop's own.
    pass.self.workload += NowNanos() - round_start - calls;
    AddRound(latency_us, &pass.e2e);
    pass.round_call_nanos.push_back(calls);
    if (pass.rounds++ == 0) {
      const IndexTotals t[2] = {DescribeIndexes(session, kTable, {kColumns[0]}),
                                DescribeIndexes(session, kTable, {kColumns[1]})};
      pass.exact = {{"adaptive.entries_read", pass.all.entries_read},
                    {"scan.kernel_rows", pass.all.rows_scanned},
                    {"rows_matched", pass.all.rows_matched}};
      for (int c = 0; c < 2; ++c) {
        const std::string s = "." + kColumns[size_t(c)];
        pass.exact.insert(pass.exact.end(),
                          {{"adaptive.zones_refined" + s, t[c].zones_refined},
                           {"adaptive.zones_merged" + s, t[c].zones_merged},
                           {"adaptive.zones_final" + s, t[c].zones_final},
                           {"adaptive.bypassed_probes" + s, t[c].bypassed_probes}});
      }
    }
  }
  return pass;
}

}  // namespace

Outcome RunSkipSerial(const Args& args, Report* report) {
  Data d = MakeData(args.seed);

  std::vector<double> setup_s;
  for (int i = 1; i < kMinSetups; ++i) Setup(d, &setup_s);
  Pass measured = RunPass(d, args.seed, false, args.seconds,
                          args.trace ? kTracedRounds : 1, &setup_s);
  PrintExact(measured.exact);
  Outcome outcome{measured.queries, measured.failed};

  Pass traced;
  if (args.trace) {
    measured.last.reset();
    std::vector<double> unused;
    traced = RunPass(d, args.seed, true, 0.0, kTracedRounds, &unused);
    outcome.attempted += traced.queries;
    outcome.failed += traced.failed;
  }
  Pass& final_pass = args.trace ? traced : measured;
  const IndexTotals index =
      DescribeIndexes(*final_pass.last, kTable, kColumns);
  const IndexTotals per_column[2] = {
      DescribeIndexes(*final_pass.last, kTable, {kColumns[0]}),
      DescribeIndexes(*final_pass.last, kTable, {kColumns[1]})};

  PersistRecord persist;
  const Outcome epilogue = PersistEpilogue(
      *final_pass.last, kTable, kColumns, d.values, &d.refs, kAppendChunk,
      kAppendCycles, kRestores, args.scratch + "/skip_serial", args.seed,
      &persist);
  outcome.attempted += epilogue.attempted;
  outcome.failed += epilogue.failed;

  EndToEnd& e2e = measured.e2e;
  e2e.setup_s = setup_s;
  e2e.index_bytes = index.memory_bytes;
  if (!args.trace) {
    AddEndToEnd(e2e, persist, report);
    return outcome;
  }

  AddPhaseMetrics(traced.all, "", report);
  AddIndexMetrics(index, "", report);
  for (int c = 0; c < 2; ++c) {
    const std::string suffix = "." + kColumns[size_t(c)];
    AddPhaseMetrics(traced.column[c], suffix, report);
    AddIndexMetrics(per_column[c], suffix, report);
  }
  report->Add("scan.kernel_rows", double(traced.all.rows_scanned) /
                                      double(traced.rounds), "count");
  AddServerMetrics(ServerAccounting{}, report);
  AddLadderMetrics(LadderAccounting{}, report);
  AddTailMetric(e2e, report);
  AddPersistMetrics(persist, report);
  report->Add("obs.journal_events_per_query", 0.0, "count");
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
