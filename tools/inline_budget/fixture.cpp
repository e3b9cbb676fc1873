// Fixture for `inline_budget.py --fixture`: a unit whose calls to twice()
// GCC leaves out of line once the TU-wide growth cap is 0%
// (--param=large-unit-insns=0 --param=inline-unit-growth=0), so the
// checker must report it.  Proves the cap's diagnostic is still the text
// the checker searches for.
static int step(int x) { return x * 3 + (x >> 2) - (x & 7); }
static int twice(int x) { return step(step(x)) + step(x ^ 5); }

int fold(const int* a, int n) {
  int s = 0;
  for (int i = 0; i < n; ++i) s += twice(a[i]) - twice(a[n - 1 - i]);
  return s;
}

int fold2(const int* a, int n) { return fold(a, n) + twice(n); }
