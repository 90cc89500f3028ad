// Seeded inputs of the polystore benchmark: data sets, query texts,
// fragment layouts and the per-round operation streams. Everything here is
// owned by the benchmark (it does not call src/workload), so a change to
// the program cannot change what is measured.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/value.h"
#include "estocada/estocada.h"
#include "pivot/schema.h"
#include "rewriting/cq_eval.h"

namespace perfbench {

using estocada::engine::Row;
using estocada::engine::Value;

/// splitmix64: small, fast, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf(n, theta) over [0, n) by inverse CDF (rank 0 most popular).
class Zipf {
 public:
  Zipf(size_t n, double theta);
  size_t Draw(Rng* rng) const;
  /// The value at cumulative probability u.
  size_t Quantile(double u) const;
  /// `count` values whose histogram does not depend on the seed (value k
  /// of the stratified quantiles (k + 0.5) / count), in a seeded order.
  std::vector<size_t> Stratified(size_t count, Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

enum class Workload { kServeMix, kAdhocRewrite, kAnalyticScan, kServeRw };

/// Parses a workload name; returns false when unknown.
bool ParseWorkload(const std::string& name, Workload* out);

/// Data sizes. `Default` is the measured size; `Smoke` keeps self-tests
/// short.
struct Sizes {
  // Marketplace (serve_mix, adhoc_rewrite, serve_rw).
  size_t users = 2000;
  size_t products = 100;
  size_t orders = 3000;
  size_t visits = 4500;
  size_t categories = 12;
  size_t cities = 20;
  double zipf_theta = 0.8;
  // BDB (analytic_scan).
  size_t pages = 500;
  size_t uservisits = 4000;
  size_t ips = 2000;
  size_t countries = 30;
  size_t ranks = 100;
  // Operations per round.
  size_t serve_round = 5000;
  size_t adhoc_round = 3000;
  /// analytic_scan: pages whose visits each round lists.
  size_t analytic_pages = 50;
  /// serve_rw: one insert every `write_every` operations.
  size_t write_every = 50;

  static Sizes Default() { return Sizes(); }
  static Sizes Smoke();
};

/// One fragment of a layout: DefineFragment's arguments.
struct FragmentSpec {
  std::string view;
  std::string store;
  std::vector<estocada::pivot::Adornment> adornments;
  std::vector<size_t> index_positions;
};

/// A generated deployment: schema, base rows and the fragment layout.
struct DataSet {
  estocada::pivot::Schema schema;
  estocada::rewriting::StagingData staging;
  std::vector<FragmentSpec> fragments;
};

DataSet MakeMarketplace(const Sizes& sizes, uint64_t seed);
DataSet MakeBdb(const Sizes& sizes, uint64_t seed);

/// One operation of a round: a read (query text + parameters) or an insert.
struct Op {
  bool is_insert = false;
  /// Read: query shape label ("cart_lookup", ...). Insert: relation.
  std::string label;
  std::string text;
  std::map<std::string, Value> parameters;
  /// Insert: the row.
  Row row;
};

/// The operations of round `round` (0-based) of a workload. Reads are the
/// same in every round, except that adhoc_rewrite's texts carry head names
/// new in each round; serve_rw's inserts carry fresh keys per round (new
/// customers' first orders and visits: user ids at or above `sizes.users`,
/// which the read mix never draws). So every round does the same work.
std::vector<Op> MakeRound(Workload w, const Sizes& sizes, uint64_t seed,
                          size_t round);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
