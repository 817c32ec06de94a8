#include "src/lane.h"

int main() {
  demo::Queue q;
  demo::Lane lane(q);
  q.fire(3);
  demo::Fn idle = demo::Lane::idle();
  idle(nullptr, 0);
  return 0;
}
