#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "encoding/encodings.h"

namespace perfbench {

namespace {

using estocada::pivot::Adornment;

constexpr Adornment kIn = Adornment::kInput;
constexpr Adornment kFree = Adornment::kFree;

/// Aborts on a failed schema step: a broken deployment must not be
/// measured.
void Must(const estocada::Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "input generation failed (%s): %s\n", what,
                 st.ToString().c_str());
    std::exit(2);
  }
}

void Merge(estocada::pivot::Schema* schema,
           estocada::Result<estocada::pivot::Schema> part, const char* what) {
  if (!part.ok()) Must(part.status(), what);
  Must(schema->Merge(*part), what);
}

std::string Cat(const char* prefix, uint64_t i) {
  return prefix + std::to_string(i);
}

/// Derives an independent stream from (seed, stream id).
uint64_t Mix(uint64_t seed, uint64_t stream) {
  Rng r(seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  return r.Next();
}

// Marketplace query shapes (§II). The parameterized texts serve the warm
// workloads; adhoc_rewrite writes the same values as literals.
const char* kCart = "cart(c) :- mk.carts($uid, c)";
const char* kCity = "ucity(city) :- mk.users($uid, n, city)";
const char* kOrders = "uorders(o, p, t) :- mk.orders(o, $uid, p, t)";
const char* kSearch =
    "psearch(p, n) :- mk.orders(o, $uid, p, t), mk.visits($uid, p, d), "
    "mk.products(p, n, $cat, pr)";
const char* kCategory = "pcat(p, n, pr) :- mk.products(p, n, $cat, pr)";

// BDB query shapes.
const char* kRankedVisits =
    "rv(ip, u, rev) :- bdb.uservisits(ip, u, rev, cc), "
    "bdb.rankings(u, $rank, d)";
const char* kPagesAtRank = "pages(u, d) :- bdb.rankings(u, $rank, d)";
const char* kPageVisits =
    "vp(ip, rev, cc) :- bdb.uservisits(ip, $url, rev, cc)";
const char* kCountryVisits =
    "vc(ip, u, rev) :- bdb.uservisits(ip, u, rev, $cc)";

std::string Literal(const Value& v) {
  if (v.is_int()) return std::to_string(v.int_value());
  return "'" + v.string_value() + "'";
}

/// Replaces every "$name" of `text` by the literal of its value.
std::string Inline(std::string text, const std::map<std::string, Value>& ps) {
  for (const auto& [name, value] : ps) {
    const std::string lit = Literal(value);
    for (size_t at = text.find(name); at != std::string::npos;
         at = text.find(name, at + lit.size())) {
      text.replace(at, name.size(), lit);
    }
  }
  return text;
}

Op Read(const char* label, const char* text,
        std::map<std::string, Value> params) {
  Op op;
  op.label = label;
  op.text = text;
  op.parameters = std::move(params);
  return op;
}

/// A seeded shuffle of `counts[t]` copies of each type t: every round has
/// the exact mix, so seeds vary the parameters and the order, not the
/// proportions.
std::vector<size_t> Shuffled(const std::vector<size_t>& counts, Rng* rng) {
  std::vector<size_t> types;
  for (size_t t = 0; t < counts.size(); ++t) {
    types.insert(types.end(), counts[t], t);
  }
  for (size_t i = types.size(); i > 1; --i) {
    std::swap(types[i - 1], types[rng->Uniform(i)]);
  }
  return types;
}

/// The §II mix, exactly: 30% cart, 25% city, 20% orders, 13% search, 12%
/// category. User ids follow `users` (stratified); categories cycle.
std::vector<Op> MarketplaceReads(const Sizes& s, size_t n, const Zipf& users,
                                 Rng* rng) {
  const size_t search = n * 13 / 100, category = n * 12 / 100;
  const size_t cart = n * 30 / 100, city = n * 25 / 100;
  const size_t orders = n - cart - city - search - category;
  std::vector<Op> ops;
  size_t next_cat = rng->Uniform(s.categories);
  const std::vector<size_t> uids = users.Stratified(n - category, rng);
  size_t next_uid = 0;
  auto uid = [&] {
    return Value::Int(static_cast<int64_t>(uids[next_uid++]));
  };
  auto cat = [&] {
    return Value::Str(Cat("cat", next_cat++ % s.categories));
  };
  for (size_t type : Shuffled({cart, city, orders, search, category}, rng)) {
    switch (type) {
      case 0:
        ops.push_back(Read("cart_lookup", kCart, {{"$uid", uid()}}));
        break;
      case 1:
        ops.push_back(Read("user_city", kCity, {{"$uid", uid()}}));
        break;
      case 2:
        ops.push_back(Read("orders_of_user", kOrders, {{"$uid", uid()}}));
        break;
      case 3: {
        Value u = uid();
        ops.push_back(Read("personalized_search", kSearch,
                           {{"$uid", u}, {"$cat", cat()}}));
        break;
      }
      default:
        ops.push_back(
            Read("products_in_category", kCategory, {{"$cat", cat()}}));
    }
  }
  return ops;
}

/// BDB round: a ranked-visit join and a pages-at-rank scan for every rank,
/// a visit listing for every country, and the visits of `analytic_pages`
/// pages spread evenly over the page ids (popular to rare).
std::vector<Op> BdbReads(const Sizes& s, Rng* rng) {
  const size_t slice = std::max<size_t>(1, s.pages / s.analytic_pages);
  std::vector<Op> ops;
  size_t rank_join = 0, rank_scan = 0, country = 0, page = 0;
  for (size_t type :
       Shuffled({s.ranks, s.ranks, s.countries, s.analytic_pages}, rng)) {
    switch (type) {
      case 0:
        ops.push_back(Read("ranked_visits", kRankedVisits,
                           {{"$rank", Value::Int(static_cast<int64_t>(
                                          rank_join++))}}));
        break;
      case 1:
        ops.push_back(Read("pages_at_rank", kPagesAtRank,
                           {{"$rank", Value::Int(static_cast<int64_t>(
                                          rank_scan++))}}));
        break;
      case 2:
        ops.push_back(Read("country_visits", kCountryVisits,
                           {{"$cc", Value::Str(Cat("cc", country++))}}));
        break;
      default:
        ops.push_back(Read(
            "page_visits", kPageVisits,
            {{"$url", Value::Str(Cat("url", page++ * slice))}}));
    }
  }
  return ops;
}

}  // namespace

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Zipf::Zipf(size_t n, double theta) : cdf_(n) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Draw(Rng* rng) const { return Quantile(rng->NextDouble()); }

std::vector<size_t> Zipf::Stratified(size_t count, Rng* rng) const {
  std::vector<size_t> out(count);
  for (size_t k = 0; k < count; ++k) {
    out[k] = Quantile((static_cast<double>(k) + 0.5) /
                      static_cast<double>(count));
  }
  for (size_t i = count; i > 1; --i) {
    std::swap(out[i - 1], out[rng->Uniform(i)]);
  }
  return out;
}

size_t Zipf::Quantile(double u) const {
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

bool ParseWorkload(const std::string& name, Workload* out) {
  static const std::map<std::string, Workload> kNames = {
      {"serve_mix", Workload::kServeMix},
      {"adhoc_rewrite", Workload::kAdhocRewrite},
      {"analytic_scan", Workload::kAnalyticScan},
      {"serve_rw", Workload::kServeRw}};
  auto it = kNames.find(name);
  if (it == kNames.end()) return false;
  *out = it->second;
  return true;
}

Sizes Sizes::Smoke() {
  Sizes s;
  s.users = 40;
  s.products = 20;
  s.orders = 120;
  s.visits = 300;
  s.pages = 100;
  s.uservisits = 1000;
  s.ips = 200;
  s.serve_round = 60;
  s.adhoc_round = 60;
  s.analytic_pages = 10;
  s.ranks = 20;
  s.countries = 10;
  s.write_every = 10;
  return s;
}

DataSet MakeMarketplace(const Sizes& s, uint64_t seed) {
  namespace enc = estocada::encoding;
  DataSet d;
  Merge(&d.schema,
        enc::RelationalEncoding("mk", "users", {"uid", "name", "city"},
                                {"uid"}),
        "users");
  Merge(&d.schema,
        enc::RelationalEncoding("mk", "products",
                                {"pid", "name", "category", "price"}, {"pid"}),
        "products");
  Merge(&d.schema,
        enc::RelationalEncoding("mk", "orders", {"oid", "uid", "pid", "total"},
                                {"oid"}),
        "orders");
  Merge(&d.schema, enc::NestedEncoding("mk", "carts", {"uid", "cart"}, {"uid"}),
        "carts");
  Merge(&d.schema, enc::NestedEncoding("mk", "visits", {"uid", "pid", "day"}),
        "visits");
  Merge(&d.schema, enc::NestedEncoding("mk", "prodterms", {"pid", "term"}),
        "prodterms");

  // Skewed columns are stratified (Zipf::Stratified): their histograms are
  // the same for every seed, which only changes which rows get which
  // values. So the work of a round hardly depends on the seed.
  Rng rng(Mix(seed, 1));
  const Zipf users(s.users, s.zipf_theta);
  const Zipf products(s.products, s.zipf_theta);
  const Zipf uniform_category(s.categories, 0.0);
  const std::vector<size_t> categories =
      uniform_category.Stratified(s.products, &rng);
  const std::vector<size_t> order_users = users.Stratified(s.orders, &rng);
  const std::vector<size_t> order_products =
      products.Stratified(s.orders, &rng);
  const std::vector<size_t> visit_users = users.Stratified(s.visits, &rng);
  const std::vector<size_t> visit_products =
      products.Stratified(s.visits, &rng);

  auto& u = d.staging["mk.users"];
  u.columns = {"uid", "name", "city"};
  for (size_t i = 0; i < s.users; ++i) {
    u.rows.push_back({Value::Int(static_cast<int64_t>(i)),
                      Value::Str(Cat("user", i)),
                      Value::Str(Cat("city", rng.Uniform(s.cities)))});
  }
  static const char* kAdjectives[] = {"red",  "blue",  "small", "large",
                                      "warm", "solid", "light", "smart"};
  static const char* kNouns[] = {"lamp",  "table", "phone",  "chair",
                                 "stove", "book",  "carpet", "camera"};
  auto& p = d.staging["mk.products"];
  p.columns = {"pid", "name", "category", "price"};
  auto& terms = d.staging["mk.prodterms"];
  terms.columns = {"pid", "term"};
  for (size_t i = 0; i < s.products; ++i) {
    const char* adj = kAdjectives[rng.Uniform(8)];
    const char* noun = kNouns[rng.Uniform(8)];
    const Value pid = Value::Int(static_cast<int64_t>(i));
    p.rows.push_back(
        {pid,
         Value::Str(std::string(adj) + " " + noun + " " + std::to_string(i)),
         Value::Str(Cat("cat", categories[i])),
         Value::Real(5.0 + static_cast<double>(rng.Uniform(2000)) / 10.0)});
    terms.rows.push_back({pid, Value::Str(adj)});
    terms.rows.push_back({pid, Value::Str(noun)});
  }
  auto& o = d.staging["mk.orders"];
  o.columns = {"oid", "uid", "pid", "total"};
  for (size_t i = 0; i < s.orders; ++i) {
    const size_t pid = order_products[i];
    o.rows.push_back({Value::Int(static_cast<int64_t>(i)),
                      Value::Int(static_cast<int64_t>(order_users[i])),
                      Value::Int(static_cast<int64_t>(pid)), p.rows[pid][3]});
  }
  auto& c = d.staging["mk.carts"];
  c.columns = {"uid", "cart"};
  for (size_t i = 0; i < s.users; ++i) {
    std::vector<Value> items;
    for (size_t n = rng.Uniform(5); n > 0; --n) {
      items.push_back(Value::Int(static_cast<int64_t>(products.Draw(&rng))));
    }
    c.rows.push_back(
        {Value::Int(static_cast<int64_t>(i)), Value::List(std::move(items))});
  }
  auto& v = d.staging["mk.visits"];
  v.columns = {"uid", "pid", "day"};
  for (size_t i = 0; i < s.visits; ++i) {
    v.rows.push_back({Value::Int(static_cast<int64_t>(visit_users[i])),
                      Value::Int(static_cast<int64_t>(visit_products[i])),
                      Value::Int(static_cast<int64_t>(rng.Uniform(365)))});
  }

  // The tuned hybrid placement: each fragment in the store whose
  // blueprint fits it; F_pjoin materializes the personalized-search join.
  d.fragments = {
      {"F_users(u, n, c) :- mk.users(u, n, c)", "postgres", {}, {0}},
      {"F_orders(o, u, p, t) :- mk.orders(o, u, p, t)", "postgres", {}, {1, 2}},
      {"F_prod(p, n, cat, pr) :- mk.products(p, n, cat, pr)",
       "mongodb",
       {},
       {0, 2}},
      {"F_carts(u, c) :- mk.carts(u, c)", "redis", {kIn, kFree}, {}},
      {"F_profile(u, n, c) :- mk.users(u, n, c)",
       "redis",
       {kIn, kFree, kFree},
       {}},
      {"F_visits(u, p, d) :- mk.visits(u, p, d)", "spark", {}, {}},
      {"F_terms(p, w) :- mk.prodterms(p, w)", "solr", {kFree, kIn}, {}},
      {"F_pjoin(u, cat, p, n) :- mk.orders(o, u, p, t), mk.visits(u, p, d), "
       "mk.products(p, n, cat, pr)",
       "spark",
       {kIn, kIn, kFree, kFree},
       {}},
  };
  return d;
}

DataSet MakeBdb(const Sizes& s, uint64_t seed) {
  namespace enc = estocada::encoding;
  DataSet d;
  Merge(&d.schema,
        enc::RelationalEncoding("bdb", "rankings",
                                {"pageURL", "pageRank", "avgDuration"},
                                {"pageURL"}),
        "rankings");
  Merge(&d.schema,
        enc::RelationalEncoding(
            "bdb", "uservisits",
            {"sourceIP", "destURL", "adRevenue", "countryCode"}, {}),
        "uservisits");

  // Stratified like the marketplace: fixed histograms, seeded placement.
  Rng rng(Mix(seed, 2));
  const std::vector<size_t> ranks =
      Zipf(s.ranks, 0.6).Stratified(s.pages, &rng);
  const std::vector<size_t> urls =
      Zipf(s.pages, 0.7).Stratified(s.uservisits, &rng);
  const std::vector<size_t> countries =
      Zipf(s.countries, 0.0).Stratified(s.uservisits, &rng);
  auto& r = d.staging["bdb.rankings"];
  r.columns = {"pageURL", "pageRank", "avgDuration"};
  for (size_t i = 0; i < s.pages; ++i) {
    r.rows.push_back({Value::Str(Cat("url", i)),
                      Value::Int(static_cast<int64_t>(ranks[i])),
                      Value::Int(static_cast<int64_t>(1 + rng.Uniform(120)))});
  }
  auto& v = d.staging["bdb.uservisits"];
  v.columns = {"sourceIP", "destURL", "adRevenue", "countryCode"};
  for (size_t i = 0; i < s.uservisits; ++i) {
    v.rows.push_back(
        {Value::Str(Cat("ip", rng.Uniform(s.ips))),
         Value::Str(Cat("url", urls[i])),
         Value::Real(static_cast<double>(rng.Uniform(1000)) / 100.0),
         Value::Str(Cat("cc", countries[i]))});
  }

  // Redundant placement: both relations live in the relational store
  // (rank-indexed rankings) and in the parallel store; the cost model
  // picks per query.
  d.fragments = {
      {"R_pg(u, r, d) :- bdb.rankings(u, r, d)", "postgres", {}, {0, 1}},
      {"R_spark(u, r, d) :- bdb.rankings(u, r, d)", "spark", {}, {}},
      {"V_pg(ip, u, rev, cc) :- bdb.uservisits(ip, u, rev, cc)",
       "postgres",
       {},
       {}},
      {"V_spark(ip, u, rev, cc) :- bdb.uservisits(ip, u, rev, cc)",
       "spark",
       {},
       {}},
  };
  return d;
}

std::vector<Op> MakeRound(Workload w, const Sizes& s, uint64_t seed,
                          size_t round) {
  // Reads do not depend on the round, except adhoc_rewrite's head names.
  Rng rng(Mix(seed, 3));
  if (w == Workload::kAnalyticScan) return BdbReads(s, &rng);
  // Ad-hoc literal values do not follow the popularity skew: they are drawn
  // uniformly, so most of them are new to the plan cache.
  const bool adhoc = w == Workload::kAdhocRewrite;
  const Zipf users(s.users, adhoc ? 0.0 : s.zipf_theta);
  std::vector<Op> ops = MarketplaceReads(
      s, adhoc ? s.adhoc_round : s.serve_round, users, &rng);
  if (adhoc) {
    // Each text also gets a head name of its own, new in every round, as
    // an ad-hoc client never sends the same text twice. So every read
    // misses the server's canonical-text cache and parses and canonicalizes
    // again. Canonicalization drops the head name: repeated values share a
    // plan-cache entry, and every round does the same work.
    for (size_t i = 0; i < ops.size(); ++i) {
      Op& op = ops[i];
      op.text = Inline(op.text, op.parameters);
      op.text.insert(op.text.find('('),
                     "_" + std::to_string(round) + "_" + std::to_string(i));
      op.parameters.clear();
    }
  }
  if (w != Workload::kServeRw) return ops;

  // Inserts: every write_every-th slot, alternating a new customer's order
  // and that customer's visit to the ordered product (so F_pjoin gains a
  // row). Keys are fresh per round.
  std::vector<Op> mixed;
  const size_t writes = ops.size() / (s.write_every - 1) / 2 * 2;
  Rng wrng(Mix(seed, 100 + round));
  const Zipf products(s.products, s.zipf_theta);
  size_t next_read = 0;
  for (size_t k = 0; k < writes; k += 2) {
    const size_t customer = round * (writes / 2) + k / 2;
    const int64_t uid = static_cast<int64_t>(s.users + customer);
    const int64_t pid = static_cast<int64_t>(products.Draw(&wrng));
    Op order;
    order.is_insert = true;
    order.label = "mk.orders";
    order.row = {Value::Int(static_cast<int64_t>(s.orders + customer)),
                 Value::Int(uid), Value::Int(pid),
                 Value::Real(static_cast<double>(1 + wrng.Uniform(500)))};
    Op visit;
    visit.is_insert = true;
    visit.label = "mk.visits";
    visit.row = {Value::Int(uid), Value::Int(pid),
                 Value::Int(static_cast<int64_t>(wrng.Uniform(365)))};
    for (Op* write : {&order, &visit}) {
      for (size_t r = 0; r + 1 < s.write_every && next_read < ops.size(); ++r) {
        mixed.push_back(ops[next_read++]);
      }
      mixed.push_back(std::move(*write));
    }
  }
  while (next_read < ops.size()) mixed.push_back(ops[next_read++]);
  return mixed;
}

}  // namespace perfbench
