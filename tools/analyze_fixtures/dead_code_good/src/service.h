// analyze-expect: clean
//
// Every function here is reached from examples/main.cc only through an edge
// C++ makes implicitly, except the tagged test hook:
//   Recorder::Recorder   built through std::make_unique<Recorder>
//   Recorder::put        an override, called through its base virtual
//   Service::run_until   called through a unique_ptr receiver
//   Service::Service     a constructor whose initializer list holds a
//                        brace-init, with a callback lambda in its body
//   Service::~Service    the destructor of a class in use
//   operator==           a free operator on a class in use
//   Service::on_tick     called only from that lambda
//   Service::clamped     kept by the tagged hook that calls it

#include <functional>
#include <memory>

namespace demo {

struct Options {
  int window = 0;
};

class Sink {
 public:
  virtual ~Sink() = default;
  virtual void put(int v) = 0;
};

class Recorder final : public Sink {
 public:
  explicit Recorder(int cap) : cap_(cap) {}
  void put(int v) override { last_ = v < cap_ ? v : cap_; }

 private:
  int cap_;
  int last_ = 0;
};

class Ticker {
 public:
  void set_hook(std::function<void()> hook) { hook_ = std::move(hook); }
  void tick() { hook_(); }

 private:
  std::function<void()> hook_;
};

class Service {
 public:
  Service(int window, Ticker& ticker)
      : options_(Options{.window = window}), ticker_(ticker) {
    ticker_.set_hook([this] { on_tick(); });
  }
  ~Service() { ticks_ = 0; }

  void run_until(int t) {
    while (ticks_ < t) ticker_.tick();
  }
  int ticks() const { return ticks_; }

  // mtds:test-api(a test drives ticks without a ticker)
  void force_ticks(int n) { ticks_ += clamped(n); }

 private:
  void on_tick() { ++ticks_; }
  static int clamped(int n) { return n < 0 ? 0 : n; }

  Options options_;
  Ticker& ticker_;
  int ticks_ = 0;
};

inline bool operator==(const Service& a, const Service& b) {
  return a.ticks() == b.ticks();
}

}  // namespace demo
