// analyze-expect: clean
//
// Functions reached only through a pointer their caller's callee stores:
//   Lane::thunk   its address `&Lane::thunk` is handed to Queue::attach
//   Lane::run     called only from thunk
//   on_idle       a free function whose address `&on_idle` is taken

#include <cstdint>

namespace demo {

using Fn = void (*)(void* owner, std::uint32_t slot);

class Queue {
 public:
  void attach(void* owner, Fn fn) {
    owner_ = owner;
    fn_ = fn;
  }
  void fire(std::uint32_t slot) { fn_(owner_, slot); }

 private:
  void* owner_ = nullptr;
  Fn fn_ = nullptr;
};

inline void on_idle(void*, std::uint32_t) {}

class Lane {
 public:
  explicit Lane(Queue& q) { q.attach(this, &Lane::thunk); }
  static Fn idle() { return &on_idle; }

 private:
  static void thunk(void* owner, std::uint32_t slot) {
    static_cast<Lane*>(owner)->run(slot);
  }
  void run(std::uint32_t slot) { last_ = slot; }

  std::uint32_t last_ = 0;
};

}  // namespace demo
