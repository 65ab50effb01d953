// Shared pieces of the adabench program: argument and result plumbing,
// the benchmark's own input generators and reference answers, the
// accounting that turns the engine's phase numbers into layer metrics,
// and the checkpoint/restore helpers every workload uses.
//
// The program reaches the library only through its public surfaces
// (Session, QueryServer, Append, Checkpoint/Restore, DescribeIndex) and
// the accounting those return (QueryStats, ServerStats,
// AdaptationProfile, kSummary trace spans).

#ifndef ADABENCH_HARNESS_H_
#define ADABENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "adaskip/engine/session.h"

namespace adabench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;  // Snapshot directory root; removed on exit.
};

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Prints `what` to stderr and exits with code 2, printing no result.
[[noreturn]] void Fatal(const std::string& what);

inline void Require(const adaskip::Status& status, const char* what) {
  if (!status.ok()) Fatal(std::string(what) + ": " + status.ToString());
}

template <typename T>
T Take(adaskip::Result<T> result, const char* what) {
  if (!result.ok()) Fatal(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

// ---------------------------------------------------------------------------
// Inputs. The benchmark draws every value and every query from its own
// generators, seeded only by --seed, so a change to the library's
// workload/ module can never change what the parent and the change are fed.

/// SplitMix64: small, fast, and stable across platforms.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound), bound > 0.
  int64_t Uniform(int64_t bound) {
    return static_cast<int64_t>(Next() % static_cast<uint64_t>(bound));
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf ranks over [0, n), rank 0 hottest (Gray et al., SIGMOD 1994).
class Zipf {
 public:
  Zipf(int64_t n, double theta);
  int64_t Next(Rng& rng) const;

 private:
  int64_t n_;
  double theta_, alpha_, zetan_, eta_;
};

/// Contiguous runs of 1024-4095 rows, each drawn from its own narrow
/// value cluster (0.2% of the range) at a random place.
std::vector<int64_t> ClusteredValues(int64_t rows, uint64_t seed);
/// Sensor-like random walks, one per block of `segment_rows` rows (one
/// sensor's readings each), each starting uniformly in [0, start_range):
/// uniform steps of at most `step`, reflected inside [0, kValueRange).
/// Many short walks rather than one long one keep a run's cost from
/// hinging on a single walk's path.
std::vector<int64_t> RandomWalkValues(int64_t rows, uint64_t seed, int64_t step,
                                      int64_t segment_rows, int64_t start_range);
/// Time-like timestamps: ascending, each within a small window of its
/// sorted position.
std::vector<int64_t> KSortedTimestamps(int64_t rows, uint64_t seed);

/// Values are drawn from [0, kValueRange): sums over a few million rows
/// stay below 2^53, so the engine's double SUM is exact.
inline constexpr int64_t kValueRange = 1'000'000'000;

// ---------------------------------------------------------------------------
// Reference answers, computed without the library.

struct Expected {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;
  int64_t max = 0;
};

/// One column as a list of sorted runs (the initial load, then one run
/// per appended chunk), each with prefix sums, so a range aggregate is a
/// few binary searches per run. Tracks appends exactly.
class RefColumn {
 public:
  void Append(const std::vector<int64_t>& values, int64_t begin, int64_t end);
  /// Aggregate of lo <= v <= hi over the first `runs` runs (all by
  /// default), i.e. over the column as it was after that many appends.
  Expected Range(int64_t lo, int64_t hi, size_t runs = SIZE_MAX) const;
  int64_t rows() const { return rows_; }

 private:
  struct Run {
    std::vector<int64_t> sorted;
    std::vector<int64_t> prefix;  // prefix[i] = sum of sorted[0, i).
  };
  std::vector<Run> runs_;
  int64_t rows_ = 0;
};

/// The plain loop the sorted reference is audited against.
Expected PlainRange(const std::vector<int64_t>& values, int64_t rows,
                    int64_t lo, int64_t hi);

/// True if `result` answers `aggregate` with the expected values.
bool Matches(const adaskip::QueryResult& result, adaskip::AggregateKind aggregate,
             const Expected& expected);

/// Builds a single-range query spec (the aggregate is over `column`).
adaskip::QuerySpec RangeSpec(const std::string& table, const std::string& column,
                             int64_t lo, int64_t hi,
                             adaskip::AggregateKind aggregate);

// ---------------------------------------------------------------------------
// Accounting.

/// Nearest-rank quantile of `values` (copied), q in [0, 1]; 0 if empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// How an end-to-end timing is summarized over its repeated samples
/// (rounds, set-ups, checkpoints, restores): the quartile on the fast
/// side. Other tenants of a shared machine only ever slow a sample down,
/// and the fast quartile still finds the undisturbed samples when most
/// of a run is disturbed. `times` holds durations (lower is faster);
/// otherwise the samples are rates.
inline double FastQuartile(std::vector<double> samples, bool times) {
  return Quantile(std::move(samples), times ? 0.25 : 0.75);
}

/// Sums of the engine's own per-query phase accounting (QueryStats) plus
/// the benchmark's span around the public call.
struct PhaseTotals {
  int64_t queries = 0;
  int64_t call_nanos = 0;  // The benchmark's span around the call.
  int64_t probe_nanos = 0;
  int64_t scan_nanos = 0;
  int64_t adapt_nanos = 0;
  int64_t merge_nanos = 0;
  int64_t entries_read = 0;
  int64_t rows_total = 0;
  int64_t rows_scanned = 0;
  int64_t rows_matched = 0;
  int64_t rows_packed = 0;
  int64_t tail_rows_scanned = 0;
  int64_t parallel_workers = 0;
  /// Span time no layer's accounting covers.
  int64_t unattributed_nanos = 0;

  /// Adds one query whose benchmark span took `call`; the unattributed
  /// part is `call` minus probe, scan, adapt and merge.
  void Add(const adaskip::QueryStats& stats, int64_t call);
};

/// Named metrics in output order, printed as the result line's
/// "metrics" object.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  std::string Json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Adds the per-layer metrics derived from `phases` under `suffix`
/// ("" for the whole workload, ".clustered" for one column).
void AddPhaseMetrics(const PhaseTotals& phases, const std::string& suffix,
                     Report* report);

/// Cumulative adaptation counters of the indexes named, summed.
struct IndexTotals {
  int64_t zones_refined = 0;
  int64_t zones_merged = 0;
  int64_t zones_final = 0;
  int64_t bypassed_probes = 0;
  int64_t tail_absorbs = 0;
  int64_t memory_bytes = 0;
};
IndexTotals DescribeIndexes(const adaskip::Session& session,
                            const std::string& table,
                            const std::vector<std::string>& columns);
void AddIndexMetrics(const IndexTotals& totals, const std::string& suffix,
                     Report* report);

/// QueryServer accounting of the dashboard workload's traced ladder
/// (all zero on the workloads that do not use the server).
struct ServerAccounting {
  double queue_wait_us = 0.0;     // Per query, submission to dispatch.
  double batch_window_us = 0.0;   // Per batch.
  double peek_us = 0.0;           // Per batch, shared-pass phases.
  double shared_scan_us = 0.0;
  double replay_us = 0.0;
  double batch_width_mean = 0.0;
  double saved_row_frac = 0.0;    // Kernel rows saved / serial rows.
  double solo_frac = 0.0;         // Batch members run standalone.
  int64_t shed = 0;
  int64_t expired = 0;
};
void AddServerMetrics(const ServerAccounting& server, Report* report);

/// The open-loop rate ladder: offered rates in queries per second, the
/// first one the "trickle" step.
inline constexpr int kLadderSteps = 6;

/// Validity numbers of the open-loop ladder (zero elsewhere).
struct LadderAccounting {
  std::vector<double> step_p50_us;  // One per ladder step.
  std::vector<double> step_p99_us;
  double gen_late_us_p99 = 0.0;  // How late the generator submitted.
  int64_t backlog_end = 0;       // Unresolved at the last step's end.
};
void AddLadderMetrics(const LadderAccounting& ladder, Report* report);

/// Layer self times, in nanoseconds, over the traced pass: each layer's
/// spans minus the parts their child spans cover. They add up to the
/// pass's total span time.
struct SelfTimes {
  int64_t workload = 0;
  int64_t engine = 0;
  int64_t server = 0;
  int64_t adaptive = 0;
  int64_t scan = 0;
  int64_t storage = 0;
  int64_t persist = 0;

  /// Splits one engine call of `call` nanoseconds into engine self time,
  /// adaptive (probe + adapt) and scan.
  void AddCall(const adaskip::QueryStats& stats, int64_t call);
  int64_t sum() const {
    return workload + engine + server + adaptive + scan + storage + persist;
  }
};
void AddSelfMetrics(const SelfTimes& self, Report* report);

/// Duration of the first direct child span named `name`, or 0.
int64_t ChildNanos(const adaskip::obs::TraceSpan& span, const char* name);

// ---------------------------------------------------------------------------
// Persistence: timed Checkpoint, and Restore into fresh sessions verified
// against the live session and the reference.

struct PersistRecord {
  std::vector<double> append_nanos_per_row;
  std::vector<double> checkpoint_ms;
  std::vector<double> checkpoint_mb_per_s;
  std::vector<double> bytes_per_row;
  std::vector<double> restore_ms;
  std::vector<double> restore_mb_per_s;
  int64_t snapshot_bytes = 0;
};

/// Total size of the regular files under `dir`.
int64_t DirBytes(const std::string& dir);

/// Appends `batch` (rows of every column) and records its time.
void TimedAppend(adaskip::Session& session, const std::string& table,
                 const adaskip::AppendBatch& batch, int64_t rows,
                 PersistRecord* record, SelfTimes* self);

/// Checkpoints into `dir` and records time, bytes and bytes per row.
void TimedCheckpoint(adaskip::Session& session, const std::string& dir,
                     int64_t rows, PersistRecord* record, SelfTimes* self);

/// A verification query and its reference answer.
struct Probe {
  adaskip::QuerySpec spec;
  Expected expected;
};

void AddPersistMetrics(const PersistRecord& record, Report* report);

/// Verification queries for a restore: `count` ranges per column, each
/// about 1% of the column's value span wide, with reference answers.
std::vector<Probe> MakeProbes(const std::string& table,
                              const std::vector<std::string>& columns,
                              const std::vector<std::vector<int64_t>>& values,
                              const std::vector<RefColumn>& refs, int count,
                              uint64_t seed);

/// Operations a run attempted, and how many of them failed or answered
/// wrongly.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// One unmeasured restore (first use of the allocator and page cache),
/// then `count` measured ones. Each copies the snapshot in `dir` to a
/// fresh directory, restores a new session from the copy, and runs
/// `probes` on it and on `live`, checking both against the reference and
/// each other. The recorded restore time runs from Restore to the first
/// verified answer.
Outcome RestoreCycles(adaskip::Session& live, const std::string& dir,
                      const std::vector<Probe>& probes, int count,
                      PersistRecord* record);

/// The persistence epilogue of the read-only workloads, so every
/// workload reports ingest and restart costs for its own table and
/// adapted indexes: `cycles` times, append `chunk` rows to every column
/// (continuing `values` past the rows already loaded, mirrored into
/// `refs`) and checkpoint into `dir`; then `restores` verified restores.
Outcome PersistEpilogue(adaskip::Session& session, const std::string& table,
                        const std::vector<std::string>& columns,
                        const std::vector<std::vector<int64_t>>& values,
                        std::vector<RefColumn>* refs, int64_t chunk,
                        int cycles, int restores, const std::string& dir,
                        uint64_t seed, PersistRecord* record);

/// The end-to-end numbers every workload reports (BENCHMARK.json).
/// Rates and latency quantiles are taken per round (or per measurement
/// window) and summarized over rounds by FastQuartile, so a burst of
/// noise from the machine moves one sample rather than the figure.
struct EndToEnd {
  std::vector<double> setup_s;  // One sample per set-up.
  std::vector<double> qps;      // One sample per round.
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  std::vector<double> max_rate_qps;  // Open loop only.
  int64_t latency_samples = 0;
  int64_t index_bytes = 0;
};
/// Adds one closed-loop round: its rate over the summed call time and its
/// latency quantiles.
void AddRound(const std::vector<double>& latency_us, EndToEnd* e2e);
void AddEndToEnd(const EndToEnd& e2e, const PersistRecord& persist,
                 Report* report);

/// The untraced pass's p99 latency and highest sustained rate (medians
/// over rounds; the rate only for the open loop), reported with the
/// per-layer metrics: on a shared virtual machine their run-to-run spread
/// is too wide to gate as end-to-end metrics (see README.md).
void AddTailMetric(const EndToEnd& e2e, Report* report);

// ---------------------------------------------------------------------------
// Workloads. Each runs with the parsed arguments, adds its metrics to
// `report` and returns its Outcome.


Outcome RunSkipSerial(const Args& args, Report* report);
Outcome RunDashboardServer(const Args& args, Report* report);
Outcome RunIngestCheckpoint(const Args& args, Report* report);

/// Prints one "exact" line: counts that repeat bit for bit at a seed.
void PrintExact(const std::vector<std::pair<std::string, int64_t>>& counts);

/// Prints one informational line (never the last line of stdout).
void Note(const std::string& text);

}  // namespace adabench

#endif  // ADABENCH_HARNESS_H_
