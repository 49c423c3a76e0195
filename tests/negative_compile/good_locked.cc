// Sanity companion for the negative-compile cases: the same access
// patterns written correctly must compile cleanly under Clang
// -Wthread-safety -Werror. If this file fails, the harness is rejecting
// everything and the negative results above prove nothing.

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace {

class Counter {
 public:
  void Increment() {
    tane::MutexLock lock(&mu_);
    ++value_;
  }

  int Get() const {
    tane::MutexLock lock(&mu_);
    return value_;
  }

 private:
  mutable tane::Mutex mu_;
  int value_ TANE_GUARDED_BY(mu_) = 0;
};

class Registry {
 public:
  void Put(int value) {
    tane::MutexLock lock(&mu_);
    last_ = value;
    PutLocked(value);
  }

  int last() const {
    tane::MutexLock lock(&mu_);
    return last_;
  }

 private:
  void PutLocked(int value) TANE_REQUIRES(mu_) { sum_ += value; }

  mutable tane::Mutex mu_;
  int last_ TANE_GUARDED_BY(mu_) = 0;
  int sum_ TANE_GUARDED_BY(mu_) = 0;
};

}  // namespace

int main() {
  Counter counter;
  counter.Increment();
  Registry registry;
  registry.Put(counter.Get());
  return registry.last() - 1;
}
