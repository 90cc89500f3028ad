#include "oracle.h"

#include <cctype>
#include <cstdio>
#include <functional>
#include <optional>

namespace perfbench {

namespace {

/// A query term: a variable, or a constant (its value key). Parameters are
/// resolved to constants while parsing.
struct Term {
  bool is_var = false;
  std::string name;  ///< Variable name, or the constant's value key.
};

struct Atom {
  std::string relation;
  std::vector<Term> terms;
};

struct Query {
  std::vector<Term> head;
  std::vector<Atom> body;
};

class Parser {
 public:
  Parser(const std::string& text, const std::map<std::string, Value>& params)
      : s_(text), params_(params) {}

  std::optional<Query> Parse() {
    Query q;
    Atom head;
    if (!ParseAtom(&head)) return std::nullopt;
    q.head = head.terms;
    Skip();
    if (s_.compare(i_, 2, ":-") != 0) return std::nullopt;
    i_ += 2;
    do {
      Atom a;
      if (!ParseAtom(&a)) return std::nullopt;
      q.body.push_back(std::move(a));
      Skip();
    } while (Eat(','));
    Skip();
    if (i_ != s_.size()) return std::nullopt;
    return q;
  }

 private:
  void Skip() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool Eat(char c) {
    Skip();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  std::string Word() {
    Skip();
    size_t start = i_;
    auto word_char = [](char c) {
      return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
             c == '.' || c == '$' || c == '-';
    };
    while (i_ < s_.size() && word_char(s_[i_])) {
      ++i_;
    }
    return s_.substr(start, i_ - start);
  }
  bool ParseAtom(Atom* a) {
    a->relation = Word();
    if (a->relation.empty() || !Eat('(')) return false;
    do {
      Term t;
      if (!ParseTerm(&t)) return false;
      a->terms.push_back(std::move(t));
    } while (Eat(','));
    return Eat(')');
  }
  bool ParseTerm(Term* t) {
    Skip();
    if (i_ < s_.size() && s_[i_] == '\'') {
      size_t end = s_.find('\'', i_ + 1);
      if (end == std::string::npos) return false;
      t->name = ValueKey(Value::Str(s_.substr(i_ + 1, end - i_ - 1)));
      i_ = end + 1;
      return true;
    }
    std::string w = Word();
    if (w.empty()) return false;
    if (w[0] == '$') {
      auto it = params_.find(w);
      if (it == params_.end()) return false;
      t->name = ValueKey(it->second);
    } else if (std::isdigit(static_cast<unsigned char>(w[0])) || w[0] == '-') {
      t->name = ValueKey(Value::Int(std::stoll(w)));
    } else {
      t->is_var = true;
      t->name = w;
    }
    return true;
  }

  const std::string& s_;
  const std::map<std::string, Value>& params_;
  size_t i_ = 0;
};

}  // namespace

std::string ValueKey(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      return "n";
    case Value::Kind::kBool:
      return v.bool_value() ? "b1" : "b0";
    case Value::Kind::kInt:
      return "i" + std::to_string(v.int_value());
    case Value::Kind::kReal: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "r%.17g", v.real_value());
      return buf;
    }
    case Value::Kind::kStr:
      return "s" + std::to_string(v.string_value().size()) + ":" +
             v.string_value();
    case Value::Kind::kList: {
      std::string out = "l" + std::to_string(v.list().size()) + "[";
      for (const Value& item : v.list()) out += ValueKey(item) + ",";
      return out + "]";
    }
  }
  return "?";
}

std::string RowKey(const Row& row) {
  std::string out;
  for (const Value& v : row) out += ValueKey(v) + "|";
  return out;
}

AnswerSet ToAnswerSet(const std::vector<Row>& rows) {
  AnswerSet out;
  for (const Row& r : rows) out.insert(RowKey(r));
  return out;
}

Oracle::Oracle(const estocada::rewriting::StagingData& staging) {
  for (const auto& [name, rel] : staging) relations_[name].rows = rel.rows;
}

void Oracle::Insert(const std::string& relation, const Row& row) {
  Relation& rel = relations_[relation];
  rel.rows.push_back(row);
  for (auto& [pos, buckets] : rel.index) {
    buckets[ValueKey(row[pos])].push_back(rel.rows.size() - 1);
  }
}

const std::vector<size_t>* Oracle::Probe(const Relation& rel, size_t position,
                                         const std::string& key) const {
  auto& buckets = rel.index[position];
  if (buckets.empty()) {
    for (size_t i = 0; i < rel.rows.size(); ++i) {
      buckets[ValueKey(rel.rows[i][position])].push_back(i);
    }
  }
  auto it = buckets.find(key);
  return it == buckets.end() ? nullptr : &it->second;
}

bool Oracle::Evaluate(const std::string& text,
                      const std::map<std::string, Value>& parameters,
                      AnswerSet* out) const {
  std::optional<Query> q = Parser(text, parameters).Parse();
  if (!q) return false;
  std::vector<const Relation*> rels;
  for (const Atom& a : q->body) {
    auto it = relations_.find(a.relation);
    if (it == relations_.end()) return false;
    rels.push_back(&it->second);
  }
  out->clear();
  // Backtracking join: at each level take the pending atom with the most
  // bound terms and probe the index of its first bound position.
  std::map<std::string, std::string> binding;
  std::vector<bool> done(q->body.size(), false);
  auto bound_key = [&](const Term& t) -> const std::string* {
    if (!t.is_var) return &t.name;
    auto it = binding.find(t.name);
    return it == binding.end() ? nullptr : &it->second;
  };
  std::function<void(size_t)> solve = [&](size_t level) {
    if (level == q->body.size()) {
      std::string row;
      for (const Term& t : q->head) row += *bound_key(t) + "|";
      out->insert(row);
      return;
    }
    size_t pick = 0;
    int best = -1;
    for (size_t a = 0; a < q->body.size(); ++a) {
      if (done[a]) continue;
      int n = 0;
      for (const Term& t : q->body[a].terms) n += bound_key(t) != nullptr;
      if (n > best) best = n, pick = a;
    }
    const Atom& atom = q->body[pick];
    const Relation& rel = *rels[pick];
    std::vector<size_t> all;
    const std::vector<size_t>* candidates = nullptr;
    for (size_t pos = 0; pos < atom.terms.size(); ++pos) {
      if (const std::string* key = bound_key(atom.terms[pos])) {
        candidates = Probe(rel, pos, *key);
        if (candidates == nullptr) return;
        break;
      }
    }
    if (candidates == nullptr) {
      all.resize(rel.rows.size());
      for (size_t i = 0; i < all.size(); ++i) all[i] = i;
      candidates = &all;
    }
    done[pick] = true;
    for (size_t id : *candidates) {
      const Row& row = rel.rows[id];
      std::vector<std::string> fresh;
      bool match = row.size() == atom.terms.size();
      for (size_t pos = 0; match && pos < atom.terms.size(); ++pos) {
        std::string key = ValueKey(row[pos]);
        const Term& t = atom.terms[pos];
        if (const std::string* have = bound_key(t)) {
          match = *have == key;
        } else {
          binding[t.name] = std::move(key);
          fresh.push_back(t.name);
        }
      }
      if (match) solve(level + 1);
      for (const std::string& v : fresh) binding.erase(v);
    }
    done[pick] = false;
  };
  solve(0);
  return true;
}

}  // namespace perfbench
