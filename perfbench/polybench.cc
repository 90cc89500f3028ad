// One measurement process of the polystore benchmark. It deploys one
// workload's data and fragment layout, serves whole rounds of the
// workload's operations through runtime::QueryServer on the calling thread
// (a closed loop with one client), checks the answers, and prints one JSON
// line of raw figures. perfbench/run.py starts several of these processes
// per run and aggregates them.
//
//   polybench --workload serve_mix --seed 1 --seconds 2 [--trace] [--check]
//             [--smoke] [--fault drop_row|drop_charge|drop_insert]
//
// --trace replaces every other timed round by a decomposed path that calls
// each layer's public entry point itself (parse, canonicalize, PACB
// rewrite, translate, execute) and times it, and counts heap allocations.
// --check compares every distinct query instance against the benchmark's
// own evaluator (oracle.h), checks that the stores' accounting is
// conserved, and that the decomposed and served paths agree. --fault
// injects one fault into those checks, to prove that each can fail.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "estocada/estocada.h"
#include "inputs.h"
#include "oracle.h"
#include "pacb/rewriter.h"
#include "pivot/parser.h"
#include "runtime/canonical.h"
#include "runtime/plan_cache.h"
#include "runtime/query_server.h"

namespace perfbench {
namespace {

using estocada::Estocada;
using estocada::Status;
using estocada::runtime::QueryServer;
using estocada::stores::StoreStats;
using Clock = std::chrono::steady_clock;

/// Scan workers of the parallel store. With the server's one pool worker
/// and the client thread the process runs three threads, within a budget
/// of four CPUs. Two workers fit the budget too, but made the scan-bound
/// workload's latencies spread twice as wide between runs.
constexpr size_t kSparkWorkers = 1;
const char* const kStores[] = {"postgres", "redis", "mongodb", "spark", "solr"};
constexpr size_t kNumStores = 5;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "polybench: %s\n", what.c_str());
  std::exit(2);
}

void Must(const Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  double pages = 0, resident = 0;
  statm >> pages >> resident;
  return resident * 4096.0 / (1024.0 * 1024.0);
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

int ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

struct Args {
  Workload workload = Workload::kServeMix;
  std::string workload_name = "serve_mix";
  uint64_t seed = 1;
  double seconds = 2;
  bool trace = false;
  bool check = false;
  bool smoke = false;
  std::string fault;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload_name = value();
      if (!ParseWorkload(a.workload_name, &a.workload)) {
        Die("unknown workload " + a.workload_name);
      }
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      a.trace = true;
    } else if (flag == "--check") {
      a.check = true;
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--fault") {
      a.fault = value();
      if (a.fault != "drop_row" && a.fault != "drop_charge" &&
          a.fault != "drop_insert") {
        Die("unknown fault " + a.fault);
      }
    } else {
      Die("unknown flag " + flag);
    }
  }
  return a;
}

// ------------------------------------------------------------- Output --

class JsonLine {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    Field(key, buf);
  }
  void Bool(const std::string& key, bool v) {
    Field(key, v ? "true" : "false");
  }
  void Str(const std::string& key, const std::string& v) {
    Field(key, "\"" + v + "\"");
  }
  void Field(const std::string& key, const std::string& raw) {
    out_ += (out_.empty() ? "{" : ", ") + ("\"" + key + "\": ") + raw;
  }
  std::string Done() const { return out_ + "}"; }

 private:
  std::string out_;
};

// --------------------------------------------------------- Deployment --

struct Deployment {
  estocada::stores::RelationalStore postgres;
  estocada::stores::KeyValueStore redis;
  estocada::stores::DocumentStore mongodb;
  estocada::stores::ParallelStore spark{kSparkWorkers};
  estocada::stores::TextStore solr;
  Estocada sys;
  std::unique_ptr<QueryServer> server;

  double load_staging_s = 0;
  double define_fragments_s = 0;
  double prepare_rewriter_s = 0;
  double setup_rss_mb = 0;

  std::vector<StoreStats> Lifetime() const {
    return {postgres.lifetime_stats(), redis.lifetime_stats(),
            mongodb.lifetime_stats(), spark.lifetime_stats(),
            solr.lifetime_stats()};
  }

  /// The number of rows (keys, documents) in each fragment's container,
  /// asked of the store that holds it.
  std::map<std::string, size_t> FragmentSizes() const {
    std::map<std::string, size_t> sizes;
    for (const auto& [name, f] : sys.catalog().fragments()) {
      const std::string& c = f.container;
      estocada::Result<size_t> n =
          f.store_name == "postgres"  ? postgres.RowCount(c)
          : f.store_name == "redis"   ? redis.Size(c)
          : f.store_name == "mongodb" ? mongodb.Count(c)
          : f.store_name == "spark"   ? spark.RowCount(c)
                                      : solr.DocumentCount(c);
      if (!n.ok()) {
        Die("size of fragment " + name + ": " + n.status().ToString());
      }
      sizes[name] = *n;
    }
    return sizes;
  }

  /// Registers the stores and the schema (not timed), then times the set-up
  /// proper: staging load, fragment materialization, rewriter preparation.
  /// The generated base rows are freed once loaded, so materialization can
  /// reuse their memory and the peak RSS is the program's, not the
  /// generator's copy on top of it.
  void Setup(DataSet data) {
    using estocada::catalog::StoreKind;
    Must(sys.RegisterSchema(data.schema), "schema");
    Must(sys.RegisterStore({"postgres", StoreKind::kRelational, &postgres,
                            nullptr, nullptr, nullptr, nullptr}),
         "postgres");
    Must(sys.RegisterStore(
             {"redis", StoreKind::kKeyValue, nullptr, &redis, nullptr, nullptr,
              nullptr}),
         "redis");
    Must(sys.RegisterStore({"mongodb", StoreKind::kDocument, nullptr, nullptr,
                            &mongodb, nullptr, nullptr}),
         "mongodb");
    Must(sys.RegisterStore({"spark", StoreKind::kParallel, nullptr, nullptr,
                            nullptr, &spark, nullptr}),
         "spark");
    Must(sys.RegisterStore({"solr", StoreKind::kText, nullptr, nullptr,
                            nullptr, nullptr, &solr}),
         "solr");
    const auto t0 = Clock::now();
    Must(sys.LoadStaging(data.staging), "load staging");
    const auto t1 = Clock::now();
    data.staging = {};
    const auto t1_freed = Clock::now();
    for (const FragmentSpec& f : data.fragments) {
      Must(sys.DefineFragment(f.view, f.store, f.adornments, f.index_positions),
           "fragment " + f.view);
    }
    const auto t2 = Clock::now();
    estocada::runtime::ServerOptions options;
    options.worker_threads = 1;
    server = std::make_unique<QueryServer>(&sys, options);
    if (!sys.rewriter_ready()) Die("rewriter not ready after server start");
    const auto t3 = Clock::now();
    load_staging_s = Seconds(t0, t1);
    define_fragments_s = Seconds(t1_freed, t2);
    prepare_rewriter_s = Seconds(t2, t3);
    setup_rss_mb = CurrentRssMb();
  }
};

void Accumulate(const estocada::rewriting::RuntimeStats& rs,
                std::vector<StoreStats>* sums) {
  for (size_t s = 0; s < kNumStores; ++s) {
    auto it = rs.per_store.find(kStores[s]);
    if (it != rs.per_store.end()) (*sums)[s].Add(it->second);
  }
}

// ----------------------------------------------------- Decomposed path --

/// Per-layer samples of the traced run.
struct LayerSamples {
  std::vector<double> parse_us, canonicalize_us, rewrite_us, translate_us,
      execute_us, insert_us;
  // Counts, summed over the first traced round (exactly repeatable).
  double reads = 0, rewrites = 0, inserts = 0;
  double considered = 0, verified = 0, found = 0, forward_atoms = 0,
         backchase_atoms = 0, rewrite_allocs = 0;
  double plans_costed = 0, translate_allocs = 0;
  double execute_allocs = 0, execute_alloc_bytes = 0, rows_from_stores = 0,
         rows_out = 0, fragments_maintained = 0;
  std::vector<StoreStats> store_reads = std::vector<StoreStats>(kNumStores);
  std::vector<double> store_writes = std::vector<double>(kNumStores, 0);
  bool counting = false;  ///< True while the first traced round runs.
};

/// The answer of one read through either path.
struct ReadResult {
  std::vector<Row> rows;
  double cost = 0;
  estocada::rewriting::RuntimeStats stats;
};

class Decomposed {
 public:
  explicit Decomposed(Deployment* d)
      : d_(d),
        rewriter_(d->sys.catalog().dataset_schema(),
                  d->sys.catalog().AllViews()) {
    Must(rewriter_.Prepare(), "prepare decomposed rewriter");
  }

  void NewRound() { round_shapes_.clear(); }

  /// One read through the layers' public calls. Rewritings are memoized in
  /// a runtime::PlanCache with the server's default options, so the path
  /// does the work the server does.
  Status Read(const Op& op, LayerSamples* t, ReadResult* out) {
    return d_->server->WithReadLock([&](const Estocada& sys) -> Status {
      auto t0 = Clock::now();
      auto parsed = estocada::pivot::ParseQuery(op.text);
      auto t1 = Clock::now();
      if (!parsed.ok()) return parsed.status();
      estocada::runtime::CanonicalQuery canon =
          estocada::runtime::Canonicalize(*parsed);
      auto t2 = Clock::now();
      t->parse_us.push_back(Micros(t0, t1));
      t->canonicalize_us.push_back(Micros(t1, t2));
      auto params = estocada::runtime::RemapParameters(canon, op.parameters);
      round_shapes_.emplace(canon.key, canon.query);

      estocada::runtime::PlanCache::CachedRewritings rewritings =
          plans_.Lookup(canon.key, 0);
      if (rewritings == nullptr) {
        auto rw = rewriter_.Rewrite(canon.query);
        if (!rw.ok()) return rw.status();
        rewritings = std::make_shared<const estocada::pacb::RewritingResult>(
            std::move(*rw));
        plans_.Insert(canon.key, 0, rewritings);
      }

      AllocCounts a0 = AllocSnapshot();
      auto p0 = Clock::now();
      auto plans = sys.PlanFromRewritings(*rewritings, params);
      auto p1 = Clock::now();
      AllocCounts a1 = AllocSnapshot();
      if (!plans.ok()) return plans.status();
      const size_t costed = plans->plans.size();
      auto result = sys.ExecutePlanned(std::move(*plans), canon.query, params);
      auto p2 = Clock::now();
      AllocCounts a2 = AllocSnapshot();
      if (!result.ok()) return result.status();
      t->translate_us.push_back(Micros(p0, p1));
      t->execute_us.push_back(Micros(p1, p2));
      if (t->counting) {
        t->reads += 1;
        t->plans_costed += static_cast<double>(costed);
        t->translate_allocs += static_cast<double>((a1 - a0).count);
        t->execute_allocs += static_cast<double>((a2 - a1).count);
        t->execute_alloc_bytes += static_cast<double>((a2 - a1).bytes);
        t->rows_from_stores += static_cast<double>(result->rows_from_stores);
        t->rows_out += static_cast<double>(result->rows.size());
        Accumulate(result->runtime_stats, &t->store_reads);
      }
      out->cost = result->simulated_cost();
      out->stats = std::move(result->runtime_stats);
      out->rows = std::move(result->rows);
      return Status::OK();
    });
  }

  /// Rewrites every distinct query shape of the round once, outside the
  /// round's timing: the pacb.* and chase.* samples. Warm workloads hit
  /// the plan cache, so their served path rewrites nothing; this still
  /// says what a rewrite of their shapes costs.
  Status ProbeRewrites(LayerSamples* t) {
    for (const auto& [key, query] : round_shapes_) {
      AllocCounts a0 = AllocSnapshot();
      auto r0 = Clock::now();
      auto rw = rewriter_.Rewrite(query);
      auto r1 = Clock::now();
      AllocCounts da = AllocSnapshot() - a0;
      if (!rw.ok()) return rw.status();
      t->rewrite_us.push_back(Micros(r0, r1));
      if (!t->counting) continue;
      const auto& s = rw->stats;
      t->rewrites += 1;
      t->considered += static_cast<double>(s.candidates_considered);
      t->verified += static_cast<double>(s.candidates_verified);
      t->found += static_cast<double>(s.rewritings_found);
      t->forward_atoms += static_cast<double>(s.forward_chase_atoms);
      t->backchase_atoms += static_cast<double>(s.backchase_atoms);
      t->rewrite_allocs += static_cast<double>(da.count);
    }
    return Status::OK();
  }

 private:
  Deployment* d_;
  estocada::pacb::Rewriter rewriter_;
  estocada::runtime::PlanCache plans_;
  std::map<std::string, estocada::pivot::ConjunctiveQuery> round_shapes_;
};

// ---------------------------------------------------------- The runner --

class Runner {
 public:
  Runner(const Args& args, const Sizes& sizes)
      : args_(args), sizes_(sizes) {}

  int Main() {
    const bool bdb = args_.workload == Workload::kAnalyticScan;
    DataSet data = bdb ? MakeBdb(sizes_, args_.seed)
                       : MakeMarketplace(sizes_, args_.seed);
    if (args_.check) oracle_ = std::make_unique<Oracle>(data.staging);
    d_.Setup(std::move(data));
    setup_s_ = d_.load_staging_s + d_.define_fragments_s +
               d_.prepare_rewriter_s;
    // Only the traced and the checking processes use the decomposed path.
    if (args_.trace || args_.check) {
      decomposed_ = std::make_unique<Decomposed>(&d_);
    }

    // Round 0 warms the caches (and runs the checks) untimed.
    std::vector<Op> ops = MakeRound(args_.workload, sizes_, args_.seed, 0);
    if (args_.check) {
      CheckRound(ops);
    } else {
      for (const Op& op : ops) (void)Serve(op, nullptr);
    }

    // Timed rounds. The traced run serves round 1 with allocation counting
    // on (runtime.*), then alternates decomposed (traced) and served
    // (untraced) rounds; the ratio of their durations is the overhead.
    double measured = 0;
    for (size_t round = 1;
         measured < args_.seconds || round < (args_.trace ? 4 : 3); ++round) {
      if (args_.workload == Workload::kServeRw ||
          args_.workload == Workload::kAdhocRewrite) {
        ops = MakeRound(args_.workload, sizes_, args_.seed, round);
      }
      double took = 0;
      if (!args_.trace) {
        took = TimedRound(ops, round == 1);
      } else if (round == 1) {
        took = CountedRound(ops);
      } else if (round % 2 == 0) {
        took = TracedRound(ops, round == 2);
        traced_round_s_.push_back(took);
      } else {
        took = TimedRound(ops, false);
        served_round_s_.push_back(took);
      }
      measured += took;
      rounds_ = round;
    }
    if (args_.check) PostCheck();
    if (args_.trace && args_.workload != Workload::kServeRw) ProbeInserts(bdb);
    Print();
    return 0;
  }

 private:
  /// Serves one op through QueryServer; returns false on failure.
  bool Serve(const Op& op, ReadResult* out) {
    ++attempted_;
    if (op.is_insert) {
      Status st = d_.server->InsertRow(op.label, op.row);
      if (!st.ok()) Fail("insert " + op.label + ": " + st.ToString());
      return st.ok();
    }
    auto r = d_.server->Query(op.text, op.parameters);
    if (!r.ok()) {
      Fail("query " + op.text + ": " + r.status().ToString());
      return false;
    }
    if (out != nullptr) {
      out->cost = r->simulated_cost();
      out->stats = std::move(r->runtime_stats);
      out->rows = std::move(r->rows);
    }
    return true;
  }

  void Fail(const std::string& what) {
    if (failed_ < 5) std::fprintf(stderr, "failed: %s\n", what.c_str());
    ++failed_;
  }

  void Wrong(const std::string& what) {
    if (wrong_ < 5) std::fprintf(stderr, "incorrect: %s\n", what.c_str());
    ++wrong_;
  }

  double TimedRound(const std::vector<Op>& ops, bool first) {
    double total = 0;
    double cost = 0, reads = 0;
    std::vector<double> latency_us;
    for (const Op& op : ops) {
      if (op.is_insert) {
        auto t0 = Clock::now();
        Serve(op, nullptr);
        total += Seconds(t0, Clock::now());
        continue;
      }
      ++attempted_;
      auto t0 = Clock::now();
      auto r = d_.server->Query(op.text, op.parameters);
      auto t1 = Clock::now();
      total += Seconds(t0, t1);
      if (!r.ok()) {
        Fail("query " + op.text + ": " + r.status().ToString());
        continue;
      }
      latency_us.push_back(Micros(t0, t1));
      cost += r->simulated_cost();
      reads += 1;
    }
    if (first) cost_per_query_ = reads > 0 ? cost / reads : 0;
    round_latency_us_.push_back(std::move(latency_us));
    round_ops_.push_back(static_cast<double>(ops.size()) / total);
    return total;
  }

  /// Round 1 of the traced run: served, with allocations and plan-cache
  /// evictions counted per QueryServer::Query call.
  double CountedRound(const std::vector<Op>& ops) {
    const auto stats0 = d_.server->cache_stats();
    double reads = 0;
    AllocCounts allocs;
    const auto t0 = Clock::now();
    for (const Op& op : ops) {
      if (op.is_insert) {
        Serve(op, nullptr);
        continue;
      }
      ++attempted_;
      SetAllocCounting(true);
      AllocCounts a0 = AllocSnapshot();
      auto r = d_.server->Query(op.text, op.parameters);
      AllocCounts da = AllocSnapshot() - a0;
      SetAllocCounting(false);
      if (!r.ok()) Fail("query " + op.text + ": " + r.status().ToString());
      allocs.count += da.count;
      allocs.bytes += da.bytes;
      reads += 1;
    }
    const double took = Seconds(t0, Clock::now());
    const auto stats1 = d_.server->cache_stats();
    const double lookups =
        static_cast<double>(stats1.hits + stats1.misses - stats0.hits -
                            stats0.misses);
    query_allocs_ = static_cast<double>(allocs.count) / std::max(reads, 1.0);
    query_alloc_bytes_ =
        static_cast<double>(allocs.bytes) / std::max(reads, 1.0);
    hit_ratio_ = static_cast<double>(stats1.hits - stats0.hits) /
                 std::max(lookups, 1.0);
    evictions_per_query_ =
        static_cast<double>(stats1.evictions - stats0.evictions) /
        std::max(reads, 1.0);
    return took;
  }

  double TracedRound(const std::vector<Op>& ops, bool first) {
    decomposed_->NewRound();
    layers_.counting = first;
    SetAllocCounting(true);
    const auto t0 = Clock::now();
    for (const Op& op : ops) {
      if (op.is_insert) {
        TracedInsert(op);
        continue;
      }
      ++attempted_;
      ReadResult r;
      Status st = decomposed_->Read(op, &layers_, &r);
      if (!st.ok()) Fail("traced query " + op.text + ": " + st.ToString());
    }
    const double took = Seconds(t0, Clock::now());
    Status st = decomposed_->ProbeRewrites(&layers_);
    if (!st.ok()) Fail("rewrite probe: " + st.ToString());
    SetAllocCounting(false);
    layers_.counting = false;
    return took;
  }

  /// A served insert, timed; in the counting round, also the stores' work
  /// and the fragments whose container changed size.
  void TracedInsert(const Op& op) {
    if (!layers_.counting) {
      const auto t0 = Clock::now();
      Serve(op, nullptr);
      layers_.insert_us.push_back(Micros(t0, Clock::now()));
      return;
    }
    const auto sizes_before = d_.FragmentSizes();
    const auto before = d_.Lifetime();
    const auto t0 = Clock::now();
    Serve(op, nullptr);
    layers_.insert_us.push_back(Micros(t0, Clock::now()));
    const auto after = d_.Lifetime();
    const auto sizes_after = d_.FragmentSizes();
    layers_.inserts += 1;
    for (const auto& [name, n] : sizes_after) {
      if (sizes_before.at(name) != n) layers_.fragments_maintained += 1;
    }
    for (size_t s = 0; s < kNumStores; ++s) {
      layers_.store_writes[s] +=
          static_cast<double>(after[s].operations - before[s].operations);
    }
  }

  /// Workloads without writes still report what an insert costs on their
  /// deployment: a few fresh rows inserted after everything else ran.
  void ProbeInserts(bool bdb) {
    layers_.counting = true;
    for (int i = 0; i < 4; ++i) {
      Op op;
      op.is_insert = true;
      const int64_t k = 1000000 + i;
      if (bdb) {
        op.label = i % 2 ? "bdb.rankings" : "bdb.uservisits";
        op.row = i % 2 ? Row{Value::Str("probe" + std::to_string(k)),
                             Value::Int(1), Value::Int(10)}
                       : Row{Value::Str("probe-ip"),
                             Value::Str("probe" + std::to_string(k + 1)),
                             Value::Real(1.5), Value::Str("cc0")};
      } else {
        op.label = i % 2 ? "mk.visits" : "mk.orders";
        op.row = i % 2 ? Row{Value::Int(k - 1), Value::Int(0), Value::Int(1)}
                       : Row{Value::Int(k), Value::Int(k), Value::Int(0),
                             Value::Real(9.5)};
      }
      TracedInsert(op);
    }
    layers_.counting = false;
  }

  // ------------------------------------------------------------ Checks --

  void CompareWithOracle(const Op& op, const AnswerSet& got,
                         const char* path) {
    AnswerSet want;
    if (!oracle_->Evaluate(op.text, op.parameters, &want)) {
      Wrong(std::string("oracle cannot evaluate ") + op.text);
    } else if (got != want) {
      Wrong(std::string(path) + " answer differs from the reference (" +
            std::to_string(got.size()) + " vs " + std::to_string(want.size()) +
            " rows): " + op.text);
    }
  }

  /// Round 0 with every check: answers against the reference evaluator,
  /// decomposed path against served path, writes visible, and the store
  /// accounting conserved over the round.
  void CheckRound(const std::vector<Op>& ops) {
    std::vector<StoreStats> charged(kNumStores);
    std::vector<StoreStats> written(kNumStores);
    const auto start = d_.Lifetime();
    bool dropped_row = false, dropped_charge = false, dropped_insert = false;
    LayerSamples scratch;
    decomposed_->NewRound();
    for (const Op& op : ops) {
      if (op.is_insert) {
        const auto before = d_.Lifetime();
        if (!Serve(op, nullptr)) continue;
        const auto after = d_.Lifetime();
        for (size_t s = 0; s < kNumStores; ++s) {
          StoreStats delta = after[s];
          delta.operations -= before[s].operations;
          delta.rows_scanned -= before[s].rows_scanned;
          delta.index_lookups -= before[s].index_lookups;
          delta.rows_returned -= before[s].rows_returned;
          delta.simulated_cost -= before[s].simulated_cost;
          written[s].Add(delta);
        }
        if (args_.fault == "drop_insert" && !dropped_insert) {
          dropped_insert = true;
        } else {
          oracle_->Insert(op.label, op.row);
        }
        // The write is visible: the new customer's orders, read back.
        if (op.label == "mk.orders") {
          Op probe;
          probe.label = "orders_of_user";
          probe.text = "uorders(o, p, t) :- mk.orders(o, $uid, p, t)";
          probe.parameters = {{"$uid", op.row[1]}};
          ReadResult r;
          if (Serve(probe, &r)) {
            Accumulate(r.stats, &charged);
            CompareWithOracle(probe, ToAnswerSet(r.rows), "write read-back");
          }
        }
        continue;
      }
      ReadResult served, traced;
      if (!Serve(op, &served)) continue;
      if (args_.fault == "drop_charge" && !dropped_charge &&
          !served.stats.per_store.empty()) {
        dropped_charge = true;
        served.stats.per_store.erase(served.stats.per_store.begin());
      }
      Accumulate(served.stats, &charged);
      Status st = decomposed_->Read(op, &scratch, &traced);
      if (!st.ok()) {
        Fail("traced query " + op.text + ": " + st.ToString());
        continue;
      }
      Accumulate(traced.stats, &charged);
      AnswerSet got = ToAnswerSet(served.rows);
      if (args_.fault == "drop_row" && !dropped_row && !got.empty()) {
        dropped_row = true;
        got.erase(got.begin());
      }
      CompareWithOracle(op, got, "served");
      if (ToAnswerSet(traced.rows) != ToAnswerSet(served.rows) ||
          std::abs(traced.cost - served.cost) >
              1e-9 * std::max(1.0, std::abs(served.cost))) {
        Wrong("traced and served paths disagree: " + op.text);
      }
      if (served.cost <= 0) Wrong("read charged no store cost: " + op.text);
    }
    const auto end = d_.Lifetime();
    for (size_t s = 0; s < kNumStores; ++s) {
      StoreStats expect = charged[s];
      expect.Add(written[s]);
      StoreStats delta = end[s];
      const bool counts_equal =
          delta.operations - start[s].operations == expect.operations &&
          delta.rows_scanned - start[s].rows_scanned == expect.rows_scanned &&
          delta.index_lookups - start[s].index_lookups ==
              expect.index_lookups &&
          delta.rows_returned - start[s].rows_returned == expect.rows_returned;
      const double cost = delta.simulated_cost - start[s].simulated_cost;
      if (!counts_equal ||
          std::abs(cost - expect.simulated_cost) >
              1e-6 * std::max(1.0, std::abs(cost))) {
        Wrong(std::string("store accounting of ") + kStores[s] +
              " not conserved: lifetime delta " + delta.ToString() +
              " vs per-query sum " + expect.ToString());
      }
    }
    checked_ = true;
  }

  /// After the timed rounds: every inserted row is in the reference copy,
  /// and the last round's new customers read back through the server.
  void PostCheck() {
    if (args_.workload != Workload::kServeRw) return;
    std::vector<Op> last;
    for (size_t round = 1; round <= rounds_; ++round) {
      for (Op& op : MakeRound(args_.workload, sizes_, args_.seed, round)) {
        if (!op.is_insert) continue;
        oracle_->Insert(op.label, op.row);
        if (round == rounds_) last.push_back(std::move(op));
      }
    }
    for (const Op& op : last) {
      if (op.label != "mk.visits") continue;
      Op probe;
      probe.label = "personalized_search";
      probe.text =
          "psearch(p, n) :- mk.orders(o, $uid, p, t), mk.visits($uid, p, d), "
          "mk.products(p, n, $cat, pr)";
      for (size_t c = 0; c < sizes_.categories; ++c) {
        probe.parameters = {{"$uid", op.row[0]},
                            {"$cat", Value::Str("cat" + std::to_string(c))}};
        ReadResult r;
        if (Serve(probe, &r)) {
          CompareWithOracle(probe, ToAnswerSet(r.rows), "post-write");
        }
      }
    }
  }

  // ------------------------------------------------------------ Output --

  void Print() {
    JsonLine j;
    j.Str("workload", args_.workload_name);
    j.Bool("correct", wrong_ == 0 && (!args_.check || checked_));
    j.Num("attempted", attempted_);
    j.Num("failed", static_cast<double>(failed_));
    j.Num("threads", ThreadCount());
    j.Num("setup_s", setup_s_);
    j.Num("setup.load_staging_s", d_.load_staging_s);
    j.Num("setup.define_fragments_s", d_.define_fragments_s);
    j.Num("setup.prepare_rewriter_s", d_.prepare_rewriter_s);
    j.Num("setup.rss_mb", d_.setup_rss_mb);
    j.Num("peak_rss_mb", PeakRssMb());
    // Every round repeats the same reads (up to adhoc_rewrite's head
    // names), so each read's latency is its fastest over the timed rounds:
    // the work itself, without the time a noisy neighbour or a
    // descheduling added to some rounds. Percentiles
    // are taken over the reads of a round; throughput is the fastest
    // round's.
    std::vector<double> per_read;
    const size_t reads =
        round_latency_us_.empty() ? 0 : round_latency_us_.front().size();
    for (size_t i = 0; i < reads; ++i) {
      double best = 0;
      for (const auto& round : round_latency_us_) {
        if (i < round.size() && (best == 0 || round[i] < best)) best = round[i];
      }
      per_read.push_back(best);
    }
    j.Num("timed_rounds", static_cast<double>(round_latency_us_.size()));
    j.Num("throughput_ops_per_s",
          round_ops_.empty()
              ? 0
              : *std::max_element(round_ops_.begin(), round_ops_.end()));
    j.Num("query_p50_us", Quantile(per_read, 0.5));
    j.Num("query_p95_us", Quantile(per_read, 0.95));
    j.Num("store_cost_per_query", cost_per_query_);
    if (args_.trace) PrintLayers(&j);
    std::printf("%s\n", j.Done().c_str());
    std::fflush(stdout);
  }

  void PrintLayers(JsonLine* j) {
    const LayerSamples& t = layers_;
    auto per = [](double n, double d) { return d > 0 ? n / d : 0.0; };
    j->Num("pivot.parse_us", Median(t.parse_us));
    j->Num("runtime.canonicalize_us", Median(t.canonicalize_us));
    j->Num("runtime.plan_cache_hit_ratio", hit_ratio_);
    j->Num("runtime.plan_cache_evictions", evictions_per_query_);
    j->Num("runtime.query_allocs", query_allocs_);
    j->Num("runtime.query_alloc_bytes", query_alloc_bytes_);
    j->Num("pacb.rewrite_us", Median(t.rewrite_us));
    j->Num("pacb.candidates_considered", per(t.considered, t.rewrites));
    j->Num("pacb.candidates_verified", per(t.verified, t.rewrites));
    j->Num("pacb.rewritings_found", per(t.found, t.rewrites));
    j->Num("chase.forward_atoms", per(t.forward_atoms, t.rewrites));
    j->Num("chase.backchase_atoms", per(t.backchase_atoms, t.rewrites));
    j->Num("pacb.rewrite_allocs", per(t.rewrite_allocs, t.rewrites));
    j->Num("rewriting.translate_us", Median(t.translate_us));
    j->Num("rewriting.plans_costed", per(t.plans_costed, t.reads));
    j->Num("rewriting.translate_allocs", per(t.translate_allocs, t.reads));
    j->Num("rewriting.insert_us", Median(t.insert_us));
    j->Num("rewriting.fragments_maintained",
           per(t.fragments_maintained, t.inserts));
    j->Num("engine.execute_us", Median(t.execute_us));
    j->Num("engine.execute_allocs", per(t.execute_allocs, t.reads));
    j->Num("engine.execute_alloc_bytes", per(t.execute_alloc_bytes, t.reads));
    j->Num("engine.rows_from_stores", per(t.rows_from_stores, t.reads));
    j->Num("engine.rows_out", per(t.rows_out, t.reads));
    for (size_t s = 0; s < kNumStores; ++s) {
      const std::string p = std::string("stores.") + kStores[s];
      const StoreStats& r = t.store_reads[s];
      j->Num(p + ".ops", per(static_cast<double>(r.operations), t.reads));
      j->Num(p + ".rows_scanned",
             per(static_cast<double>(r.rows_scanned), t.reads));
      j->Num(p + ".index_lookups",
             per(static_cast<double>(r.index_lookups), t.reads));
      j->Num(p + ".rows_returned",
             per(static_cast<double>(r.rows_returned), t.reads));
      j->Num(p + ".cost", per(r.simulated_cost, t.reads));
      j->Num(p + ".write_ops", per(t.store_writes[s], t.inserts));
    }
    std::vector<double> ratios;
    for (size_t i = 0; i < traced_round_s_.size() && i < served_round_s_.size();
         ++i) {
      ratios.push_back(traced_round_s_[i] / served_round_s_[i]);
    }
    j->Num("trace.overhead_pct", 100.0 * (Median(ratios) - 1.0));
  }

  const Args& args_;
  const Sizes sizes_;
  Deployment d_;
  std::unique_ptr<Oracle> oracle_;
  std::unique_ptr<Decomposed> decomposed_;
  double setup_s_ = 0;
  size_t rounds_ = 0;
  double attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t wrong_ = 0;
  bool checked_ = false;
  /// Untraced timed rounds: each read's latency, and operations per second.
  std::vector<std::vector<double>> round_latency_us_;
  std::vector<double> round_ops_;
  double cost_per_query_ = 0;
  // Traced run.
  LayerSamples layers_;
  double query_allocs_ = 0, query_alloc_bytes_ = 0, hit_ratio_ = 0,
         evictions_per_query_ = 0;
  std::vector<double> traced_round_s_, served_round_s_;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  const perfbench::Sizes sizes =
      args.smoke ? perfbench::Sizes::Smoke() : perfbench::Sizes::Default();
  perfbench::Runner runner(args, sizes);
  return runner.Main();
}
