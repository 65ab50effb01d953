// dashboard_server: independent users refreshing dashboards. One
// generator thread submits Poisson arrivals through QueryServer::Submit
// at each step of a fixed ladder of offered rates (an open loop), from a
// "trickle" step where batches are mostly one query wide up to past
// saturation. Each request's latency runs from when it was due to when
// its future resolved, so a stall also charges the requests behind it.
// The table is 1M clustered rows (8 MB, about the 8 MiB L2) with an
// adaptive zonemap and num_threads=2; the stream draws 16 Zipf-chosen
// COUNT/SUM templates, so predicates repeat and batches can share scans.
// Threads: the generator, the server's dispatcher and one pool worker,
// three of the four CPUs.

#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <map>
#include <memory>

#include "adaskip/engine/query_server.h"
#include "harness.h"

namespace adabench {
namespace {

using adaskip::AggregateKind;
using adaskip::QueryServer;
using adaskip::Session;

constexpr char kTable[] = "t";
const std::vector<std::string> kColumns = {"clustered"};
constexpr int64_t kRows = 1'000'000;
constexpr int kTemplates = 16;
constexpr double kZipfTheta = 0.9;
constexpr int kThreads = 2;
constexpr double kRates[kLadderSteps] = {500, 6000, 10000, 14000, 20000, 28000};
// Of --seconds, the trickle step's share; the rest goes to the steps
// above it. Both are split over kRounds rounds whose medians are reported.
constexpr double kTrickleShare = 0.6;
constexpr int kRounds = 9;
// An unmeasured pass at this rate first, so lazy set-up (the worker pool,
// first adaptation) and a machine waking from idle are not timed.
constexpr double kWarmupRate = 16000;
constexpr double kWarmupSeconds = 0.5;
constexpr double kLatencyLimitUs = 20000.0;
// A step whose unresolved requests pass this stops early: its backlog is
// growing, and going on would only overflow the server's queue.
constexpr int64_t kBacklogLimit = 1024;
constexpr int kMinSetups = 11;
// Persistence epilogue. Chunks are 1 MB, so each timed append is well
// above the clock's and the machine's noise on this one-column table.
constexpr int64_t kAppendChunk = 131072;
constexpr int kAppendCycles = 8;
constexpr int kRestores = 12;

struct Template {
  adaskip::QuerySpec spec;
  Expected expected;
};

struct Data {
  std::vector<std::vector<int64_t>> values;
  std::vector<RefColumn> refs;
  std::vector<Template> templates;
};

Data MakeData(uint64_t seed) {
  Data d;
  d.values = {ClusteredValues(kRows + kAppendChunk * kAppendCycles,
                              seed * 7 + 4)};
  d.refs.resize(1);
  d.refs[0].Append(d.values[0], 0, kRows);
  std::vector<int64_t> sorted(d.values[0].begin(), d.values[0].begin() + kRows);
  std::sort(sorted.begin(), sorted.end());
  Rng rng(seed * 7 + 5);
  for (int i = 0; i < kTemplates; ++i) {
    const int64_t pos = rng.Uniform(kRows - kRows / 100);
    const int64_t lo = sorted[size_t(pos)];
    const int64_t hi = sorted[size_t(pos + kRows / 100 - 1)];
    const AggregateKind agg = i % 2 == 0 ? AggregateKind::kCount : AggregateKind::kSum;
    d.templates.push_back(
        {RangeSpec(kTable, kColumns[0], lo, hi, agg), d.refs[0].Range(lo, hi)});
  }
  return d;
}

struct Served {
  std::unique_ptr<Session> session;
  // Declared last, so it stops before the session it serves is destroyed.
  std::unique_ptr<QueryServer> server;
};

Served Setup(const Data& d, std::vector<double>* setup_s) {
  std::vector<int64_t> column(d.values[0].begin(), d.values[0].begin() + kRows);
  const int64_t t0 = NowNanos();
  Served s;
  s.session = std::make_unique<Session>();
  Require(s.session->CreateTable(kTable), "CreateTable");
  Require(s.session->AddColumn(kTable, kColumns[0], std::move(column)),
          "AddColumn");
  Require(s.session->AttachIndex(kTable, kColumns[0], adaskip::IndexOptions{}),
          "AttachIndex");
  adaskip::ExecOptions exec;
  exec.num_threads = kThreads;
  Require(s.session->SetExecOptions(kTable, exec), "SetExecOptions");
  s.server = std::make_unique<QueryServer>(s.session.get());
  setup_s->push_back(double(NowNanos() - t0) / 1e9);
  return s;
}

/// One traced request: its span and the server's accounting of it.
struct Record {
  int64_t request = 0;  // Due to resolved.
  int64_t late = 0;     // Due to submitted.
  adaskip::QueryStats stats;
  int64_t queue_wait = 0;
  int64_t peek = 0;
  int64_t shared_scan = 0;
  int64_t replay = 0;
  int64_t batch_seq = -1;
};

struct Ladder {
  std::vector<std::vector<double>> step_latency_us;  // All reps, per step.
  std::vector<double> trickle_p50_us;  // One per round.
  std::vector<double> trickle_p99_us;
  std::vector<double> max_rate_qps;
  std::vector<double> late_us;
  int64_t backlog_end = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t completed = 0;
  int64_t wall_nanos = 0;
  std::vector<Record> records;  // Traced ladders only.
};

bool Ready(const std::future<adaskip::Result<adaskip::QueryResult>>& future) {
  return future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

/// Highest offered rate meeting the limit over one pass up the ladder:
/// the last passing step, moved toward the first failing one by where the
/// limit falls between their p99 latencies (log-log), so the figure moves
/// continuously rather than in whole steps.
double MaxRate(const std::vector<double>& p99, const std::vector<bool>& pass) {
  size_t ok = 0;
  while (ok < pass.size() && pass[ok]) ++ok;
  if (ok == 0) return kRates[0] * kLatencyLimitUs / std::max(p99[0], 1.0);
  if (ok == pass.size()) return kRates[ok - 1];
  const double lo = std::log(std::max(p99[ok - 1], 1.0));
  const double hi = std::log(std::max(p99[ok], 1.0));
  const double frac =
      hi > lo ? std::clamp((std::log(kLatencyLimitUs) - lo) / (hi - lo), 0.0, 1.0)
              : 0.0;
  return kRates[ok - 1] * std::pow(kRates[ok] / kRates[ok - 1], frac);
}

struct StepResult {
  std::vector<double> latency_us;
  bool overloaded = false;
};

/// Offers Poisson arrivals at `rate` for `seconds` and waits for every
/// answer. Stops submitting early once the backlog passes kBacklogLimit.
StepResult RunStep(Served& served, const Data& d, double rate, double seconds,
                   uint64_t seed, bool traced, Ladder* ladder) {
  const Zipf zipf(kTemplates, kZipfTheta);
  Rng rng(seed);
  std::vector<std::pair<int64_t, int>> schedule;  // Due offset, template.
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.Unit()) / rate;
    if (t >= seconds) break;
    schedule.push_back({int64_t(t * 1e9), int(zipf.Next(rng))});
  }
  struct Pending {
    int64_t due;
    int64_t late;
    int tmpl;
    std::future<adaskip::Result<adaskip::QueryResult>> future;
  };
  std::deque<Pending> outstanding;
  StepResult step;
  const auto harvest = [&] {
    Pending& p = outstanding.front();
    adaskip::Result<adaskip::QueryResult> result = p.future.get();
    const int64_t request = NowNanos() - p.due;
    const Template& t = d.templates[size_t(p.tmpl)];
    outstanding.pop_front();
    if (!result.ok() || !Matches(*result, t.spec.query.aggregate, t.expected)) {
      ++ladder->failed;
      return;
    }
    step.latency_us.push_back(double(request) / 1e3);
    if (!traced || result->trace == nullptr) return;
    const adaskip::obs::TraceSpan* server =
        result->trace->root().FindChild("server");
    if (server == nullptr) return;
    Record r;
    r.request = request;
    r.late = p.late;
    r.stats = result->stats;
    r.queue_wait = ChildNanos(*server, "queue_wait");
    r.peek = ChildNanos(*server, "peek");
    r.shared_scan = ChildNanos(*server, "shared_scan");
    r.replay = ChildNanos(*server, "replay");
    r.batch_seq = std::stoll(std::string(server->Attr("batch_seq")));
    ladder->records.push_back(std::move(r));
  };
  // The generator polls instead of sleeping: on a virtual machine a
  // sleeping thread can wake hundreds of microseconds late, which would
  // show up as latency the server never caused.
  const int64_t start = NowNanos() + 1'000'000;
  for (size_t next = 0; next < schedule.size();) {
    const int64_t due = start + schedule[next].first;
    if (NowNanos() >= due) {
      adaskip::QuerySpec spec = d.templates[size_t(schedule[next].second)].spec;
      if (traced) spec.trace_level = adaskip::obs::TraceLevel::kSummary;
      const int64_t late = NowNanos() - due;
      outstanding.push_back({due, late, schedule[next].second,
                             served.server->Submit(std::move(spec))});
      ladder->late_us.push_back(double(late) / 1e3);
      ++ladder->attempted;
      ++next;
      if (int64_t(outstanding.size()) > kBacklogLimit) {
        step.overloaded = true;
        break;
      }
    } else if (!outstanding.empty() && Ready(outstanding.front().future)) {
      harvest();
    }
  }
  ladder->backlog_end = int64_t(outstanding.size());
  while (!outstanding.empty()) {
    if (Ready(outstanding.front().future)) harvest();
  }
  ladder->wall_nanos += NowNanos() - start;
  ladder->completed += int64_t(step.latency_us.size());
  return step;
}

/// kRounds rounds, each a window of the trickle step and then a pass up
/// the rest of the ladder. Steps above the trickle offer the same number
/// of requests each; an overloaded step stops early (RunStep).
Ladder RunLadder(Served& served, const Data& d, uint64_t seed, double seconds,
                 bool traced) {
  Ladder ladder;
  ladder.step_latency_us.resize(kLadderSteps);
  const auto keep = [&](int step, const StepResult& r) {
    auto& all = ladder.step_latency_us[size_t(step)];
    all.insert(all.end(), r.latency_us.begin(), r.latency_us.end());
  };
  double inverse_rates = 0.0;
  for (int i = 1; i < kLadderSteps; ++i) inverse_rates += 1.0 / kRates[i];
  const double requests_per_step =
      seconds * (1.0 - kTrickleShare) / kRounds / inverse_rates;
  {
    Ladder warmup;
    RunStep(served, d, kWarmupRate, kWarmupSeconds, seed * 7 + 9, traced,
            &warmup);
    ladder.attempted += warmup.attempted;
    ladder.failed += warmup.failed;
  }
  // Trickle windows and passes up the ladder alternate, so a slow spell of
  // the machine lands in a minority of either.
  for (int round = 0; round < kRounds; ++round) {
    const StepResult trickle =
        RunStep(served, d, kRates[0], seconds * kTrickleShare / kRounds,
                seed * 7 + 10 + uint64_t(round), traced, &ladder);
    ladder.trickle_p50_us.push_back(Quantile(trickle.latency_us, 0.50));
    ladder.trickle_p99_us.push_back(Quantile(trickle.latency_us, 0.99));
    keep(0, trickle);
    std::vector<double> p99 = {ladder.trickle_p99_us.back()};
    std::vector<bool> pass = {p99[0] <= kLatencyLimitUs};
    for (int i = 1; i < kLadderSteps; ++i) {
      const StepResult r =
          RunStep(served, d, kRates[i], requests_per_step / kRates[i],
                  seed * 7 + 100 + uint64_t(round * kLadderSteps + i), traced,
                  &ladder);
      p99.push_back(Quantile(r.latency_us, 0.99));
      pass.push_back(!r.overloaded && p99.back() <= kLatencyLimitUs);
      keep(i, r);
    }
    ladder.max_rate_qps.push_back(MaxRate(p99, pass));
  }
  return ladder;
}

}  // namespace

Outcome RunDashboardServer(const Args& args, Report* report) {
  Data d = MakeData(args.seed);
  std::vector<double> setup_s;
  for (int i = 1; i < kMinSetups; ++i) Setup(d, &setup_s);
  Served served = Setup(d, &setup_s);
  Ladder measured = RunLadder(served, d, args.seed, args.seconds, false);
  Outcome outcome{measured.attempted, measured.failed};

  Ladder traced;
  adaskip::ServerStats server_stats;
  if (args.trace) {
    std::vector<double> unused;
    served.server.reset();
    served = Setup(d, &unused);
    traced = RunLadder(served, d, args.seed, args.seconds, true);
    outcome.attempted += traced.attempted;
    outcome.failed += traced.failed;
    server_stats = served.server->stats();
  }
  const IndexTotals index = DescribeIndexes(*served.session, kTable, kColumns);
  served.server.reset();  // Appends and checkpoints need a quiet table.

  PersistRecord persist;
  const Outcome epilogue = PersistEpilogue(
      *served.session, kTable, kColumns, d.values, &d.refs, kAppendChunk,
      kAppendCycles, kRestores, args.scratch + "/dashboard_server", args.seed,
      &persist);
  outcome.attempted += epilogue.attempted;
  outcome.failed += epilogue.failed;

  EndToEnd e2e;
  e2e.setup_s = setup_s;
  e2e.qps = {double(measured.completed) / (double(measured.wall_nanos) / 1e9)};
  e2e.p50_us = measured.trickle_p50_us;
  e2e.p99_us = measured.trickle_p99_us;
  e2e.latency_samples = int64_t(measured.step_latency_us[0].size());
  e2e.max_rate_qps = measured.max_rate_qps;
  e2e.index_bytes = index.memory_bytes;
  if (!args.trace) {
    AddEndToEnd(e2e, persist, report);
    return outcome;
  }

  // Attribution of each request's time: generator lateness (workload),
  // the batch's shared scan (scan), its members' probe + adapt work
  // (adaptive), and the rest of the server's handling (engine.server).
  struct Batch {
    int64_t peek = 0, shared_scan = 0, replay = 0, probe_adapt = 0;
  };
  std::map<int64_t, Batch> batches;
  for (const Record& r : traced.records) {
    Batch& b = batches[r.batch_seq];
    b.peek = r.peek;
    b.shared_scan = r.shared_scan;
    b.replay = r.replay;
    b.probe_adapt += r.stats.probe_nanos + r.stats.adapt_nanos;
  }
  PhaseTotals phases;
  SelfTimes self;
  int64_t unattributed = 0, queue_wait = 0;
  for (const Record& r : traced.records) {
    const Batch& b = batches[r.batch_seq];
    phases.Add(r.stats, r.request);
    unattributed += r.request - r.late - r.queue_wait - b.peek - b.shared_scan -
                    b.replay;
    queue_wait += r.queue_wait;
    self.workload += r.late;
    self.scan += b.shared_scan;
    self.adaptive += b.probe_adapt;
    self.server += r.request - r.late - b.shared_scan - b.probe_adapt;
  }
  // The server path's unattributed time is what no span of the request
  // covers: not lateness, queueing, or the shared pass's three phases.
  phases.unattributed_nanos = unattributed;
  AddPhaseMetrics(phases, "", report);
  AddIndexMetrics(index, "", report);
  AddPhaseMetrics(phases, ".clustered", report);
  AddIndexMetrics(index, ".clustered", report);
  AddPhaseMetrics(PhaseTotals{}, ".random_walk", report);
  AddIndexMetrics(IndexTotals{}, ".random_walk", report);
  report->Add("scan.kernel_rows", double(server_stats.kernel_rows()), "count");

  ServerAccounting server;
  const double nbatches = double(std::max<size_t>(batches.size(), 1));
  const double nqueries = double(std::max<size_t>(traced.records.size(), 1));
  server.queue_wait_us = double(queue_wait) / 1e3 / nqueries;
  server.batch_window_us = double(server_stats.batch_window_nanos()) / 1e3 /
                           double(std::max<int64_t>(server_stats.batches(), 1));
  for (const auto& [seq, b] : batches) {
    server.peek_us += double(b.peek) / 1e3 / nbatches;
    server.shared_scan_us += double(b.shared_scan) / 1e3 / nbatches;
    server.replay_us += double(b.replay) / 1e3 / nbatches;
  }
  const int64_t members =
      server_stats.shared_queries() + server_stats.solo_queries();
  server.batch_width_mean =
      double(members) / double(std::max<int64_t>(server_stats.batches(), 1));
  server.saved_row_frac =
      double(server_stats.saved_rows()) /
      double(std::max<int64_t>(server_stats.serial_equivalent_rows(), 1));
  server.solo_frac = double(server_stats.solo_queries()) /
                     double(std::max<int64_t>(members, 1));
  server.shed = server_stats.shed();
  server.expired = server_stats.expired();
  AddServerMetrics(server, report);

  LadderAccounting ladder;
  for (const auto& step : measured.step_latency_us) {
    ladder.step_p50_us.push_back(Quantile(step, 0.5));
    ladder.step_p99_us.push_back(Quantile(step, 0.99));
  }
  ladder.gen_late_us_p99 = Quantile(measured.late_us, 0.99);
  ladder.backlog_end = measured.backlog_end;
  AddLadderMetrics(ladder, report);
  AddTailMetric(e2e, report);
  AddPersistMetrics(persist, report);
  report->Add("obs.journal_events_per_query", 0.0, "count");
  report->Add("obs.trace_overhead_frac",
              1.0 - Median(traced.max_rate_qps) / Median(measured.max_rate_qps),
              "ratio");
  AddSelfMetrics(self, report);
  return outcome;
}

}  // namespace adabench
