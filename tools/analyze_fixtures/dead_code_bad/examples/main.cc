#include <cstdio>

#include "src/stats.h"

int main() {
  demo::Book book;
  auto& stats = book.stats();
  stats.add(1.0);
  std::printf("%g %g\n", stats.sum(), book.ledger().sum_of_squares());
  return 0;
}
