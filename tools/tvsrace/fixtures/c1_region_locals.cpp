// tvsrace fixture: writes a region makes to its own locals — a one-line
// nested loop accumulating into a local scalar, and a region-local array —
// inside a stage_run() body and an `#pragma omp parallel for` region.
// Both regions write shared memory only at the parallel index: no
// findings.
struct StageExec;
template <class Body>
void stage_run(const StageExec* ex, int n, Body&& body);

void c1_region_locals(const StageExec* ex, double* out, int nb) {
  stage_run(ex, nb, [&](int k, int /*slot*/) {
    double s = 0;
    for (int i = 0; i < 3; ++i) s += i;
    double win[3];
    win[0] = s;
    out[k] = win[0];
  });
#pragma omp parallel for
  for (int k = 0; k < nb; ++k) {
    double s = 0;
    for (int i = 0; i < 3; ++i) s += i;
    double win[3];
    win[0] = s;
    out[k] = win[0];
  }
}
