// analyze-expect: no-alloc-reachability
//
// The only override of the virtual the tagged step() calls lives in a
// nested class declared right after an access label.  Its scope header
// starts at "private :" (no ';' ends the label), so the class must still be
// registered and the dispatch edge resolved; otherwise the push_back below
// is invisible.

#include <vector>

namespace demo {

class Sink {
 public:
  virtual ~Sink() = default;
  virtual void note(int event) {}
};

struct Engine {
  // mtds:no-alloc
  void step() { sink_->note(1); }
  Sink* sink_ = nullptr;
};

class Shell {
 public:
  Engine& engine() { return engine_; }

 private:
  class Recorder final : public Sink {
   public:
    void note(int event) override { events_.push_back(event); }

   private:
    std::vector<int> events_;
  };

  Recorder recorder_;
  Engine engine_;
};

}  // namespace demo
