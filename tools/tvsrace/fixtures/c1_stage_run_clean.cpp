// tvsrace fixture: a stage_run() body certified by its annotation.  Block
// k writes out[k*w, (k+1)*w) through a segment pointer — partitioned by
// k, but not syntactically, so only the annotation proves it.  Scratch
// indexed by the runner slot needs no annotation.
#include <vector>

struct StageExec;
template <class Body>
void stage_run(const StageExec* ex, int n, Body&& body);

void c1_stage_run_clean(const StageExec* ex, std::vector<double>& out,
                        std::vector<double>& scratch, int nb, int w) {
  // tvsrace: partitioned(k)
  stage_run(ex, nb, [&](int k, int slot) {
    double* seg = out.data() + k * w;
    for (int j = 0; j < w; ++j) {
      seg[j] = j;
    }
    scratch[static_cast<unsigned long>(slot)] = seg[0];
  });
}
