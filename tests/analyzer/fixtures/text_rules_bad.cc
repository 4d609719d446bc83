// pf_analyzer fixture: MUST trip every folded text rule (clean twin:
// text_rules_good.cc). Run with `--all-files-in-scope` since fixtures
// live outside src/. One line per rule:

#include <mutex>  // raw-mutex: locking must go through pf::Mutex wrappers.

struct Res {
  int ValueOrDie() const;
};

int NoiseBad() {
  return rand();  // unseeded-randomness
}

double FmaBad(double x, double y, double z) {
  return __builtin_fma(x, y, z);  // fast-math-fma
}

int* LeakBad() {
  return new int(7);  // naked-new-delete
}

int DieBad(const Res& r) {
  return r.ValueOrDie();  // value-or-die
}

void AbortBad() {
  abort();  // no-abort
}

struct Rng {
  double Laplace(double scale);
};

double NoiseSiteBad(double value, Rng* rng) {
  return value + rng->Laplace(1.0);  // noise-site: bypasses ReleaseVector
}
