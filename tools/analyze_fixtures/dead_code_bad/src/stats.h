// analyze-expect: dead-code
//
// Stats::sum_of_squares has no caller under the program root (a test
// calling it would not count: tests/ is no root).  The root calls
// Ledger::sum_of_squares through a chained call and Stats::sum through an
// `auto&` local; both receivers are typed from Book's declared return
// types, so neither call also reaches the same-named Stats method.

#include <vector>

namespace demo {

class Stats {
 public:
  void add(double x) { xs_.push_back(x); }
  double sum() const {
    double s = 0.0;
    for (double x : xs_) s += x;
    return s;
  }
  double sum_of_squares() const {
    double s = 0.0;
    for (double x : xs_) s += x * x;
    return s;
  }

 private:
  std::vector<double> xs_;
};

class Ledger {
 public:
  double sum_of_squares() const { return total_ * total_; }

 private:
  double total_ = 0.0;
};

class Book {
 public:
  Stats& stats() { return stats_; }
  const Ledger& ledger() const { return ledger_; }

 private:
  Stats stats_;
  Ledger ledger_;
};

}  // namespace demo
