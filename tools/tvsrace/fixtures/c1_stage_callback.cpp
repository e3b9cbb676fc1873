// tvsrace fixture: stage callbacks.  run_blocks() hands each block of a
// stage to its `block` callback, so a lambda passed for `block` is a
// parallel region over the parameter that receives the block's start x0,
// with `slot` its runner slot.  The first callback writes shared state
// unannotated, the second is certified by its annotation, the third is
// not a lambda tvsrace can follow.
#include <vector>

struct StageExec;
template <class Body>
void stage_run(const StageExec* ex, int n, Body&& body);

template <class Block>
void run_blocks(const StageExec* ex, int nb, int w, Block&& block) {
  stage_run(ex, nb, [&](int k, int slot) {
    const int x0 = k * w;
    block(slot, x0, x0 + w);
  });
}

void c1_stage_callback(const StageExec* ex, std::vector<double>& out,
                       std::vector<double>& scratch, int nb, int w,
                       void (*fn)(int, int, int)) {
  run_blocks(ex, nb, w, [&](int /*slot*/, int x0, int /*x1*/) {
    out[0] = x0;  // unpartitioned write -> C1
  });
  run_blocks(ex, nb, w,
             // tvsrace: partitioned(x0)
             [&](int slot, int x0, int x1) {
               double* seg = out.data() + x0;
               for (int x = 0; x < x1 - x0; ++x) {
                 seg[x] = x;
               }
               scratch[static_cast<unsigned long>(slot)] = seg[0];
             });
  run_blocks(ex, nb, w, fn);  // callback not followable -> C1
}
