// The benchmark's own reference evaluator: a conjunctive-query evaluator
// over the benchmark's copy of the base rows plus every inserted row. It
// shares no code with the program's evaluators (rewriting/cq_eval) or its
// parser, so a fault there cannot hide in the check.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/value.h"
#include "rewriting/cq_eval.h"

namespace perfbench {

using estocada::engine::Row;
using estocada::engine::Value;

/// Injective text encoding of a value / row, used for set comparison.
std::string ValueKey(const Value& v);
std::string RowKey(const Row& row);

/// The answer of a query as a set of row keys.
using AnswerSet = std::set<std::string>;

AnswerSet ToAnswerSet(const std::vector<Row>& rows);

class Oracle {
 public:
  explicit Oracle(const estocada::rewriting::StagingData& staging);

  void Insert(const std::string& relation, const Row& row);

  /// Evaluates pivot CQ text (`head(x, ..) :- rel(t, ..), ..` with
  /// variables, '$'-parameters, integer and quoted-string constants) with
  /// set semantics. Returns false on text it cannot parse.
  bool Evaluate(const std::string& text,
                const std::map<std::string, Value>& parameters,
                AnswerSet* out) const;

 private:
  struct Relation {
    std::vector<Row> rows;
    /// position -> value key -> row ids (built on first use).
    using Buckets = std::unordered_map<std::string, std::vector<size_t>>;
    mutable std::map<size_t, Buckets> index;
  };
  const std::vector<size_t>* Probe(const Relation& rel, size_t position,
                                   const std::string& key) const;

  std::map<std::string, Relation> relations_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
