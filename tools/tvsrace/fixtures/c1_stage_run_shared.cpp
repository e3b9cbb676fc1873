// tvsrace fixture: C1 positives through the stage runner.  A stage_run()
// body is a parallel region over its first parameter; these bodies write
// shared state with no partition proof and no annotation, and the last
// body is not a lambda tvsrace can follow.
#include <vector>

struct StageExec;
template <class Body>
void stage_run(const StageExec* ex, int n, Body&& body);

double c1_stage_run_shared(const StageExec* ex, std::vector<double>& out,
                           int n, void (*fn)(int, int)) {
  double sum = 0;
  const auto body = [&](int k, int /*slot*/) {
    sum += out[static_cast<unsigned long>(k)];  // racy accumulate -> C1
    out[0] = k;                                 // unpartitioned write -> C1
  };
  stage_run(ex, n, body);
  stage_run(ex, n, [&](int i, int) {
    double* seg = out.data() + n / 2;  // aliases shared memory -> C1
    seg[0] = i;                        // unpartitioned write -> C1
  });
  stage_run(ex, n, fn);  // body not followable -> C1
  return sum;
}
