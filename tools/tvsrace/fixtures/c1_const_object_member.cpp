// tvsrace fixture: a mutable pointer held in a const region-local object.
// Handing the object, or a member of it, to a call hands on the shared
// pointers the object was built from, so it is a use of those shared
// names: the unannotated region is a C1 finding (lines 21 and 22).  The
// same body with the object built from the parallel index, and the
// annotated one, are clean.
template <class T>
struct Levels {
  T* a0;
  T* a1;
};

template <class T>
void tile(T* a, const Levels<T>& lev, int k);

template <class T>
void c1_const_object_member(T* even, T* odd, int nb, int n) {
#pragma omp parallel for
  for (int k = 0; k < nb; ++k) {
    const Levels<T> lev{even, odd};
    tile(lev.a0, Levels<T>{}, k);
    tile(static_cast<T*>(nullptr), lev, k);
  }
#pragma omp parallel for
  for (int k = 0; k < nb; ++k) {
    const Levels<T> lev{even + k * n, odd + k * n};
    tile(lev.a0, lev, k);
  }
  // tvsrace: partitioned(k)
#pragma omp parallel for
  for (int k = 0; k < nb; ++k) {
    const Levels<T> lev{even, odd};
    tile(lev.a1, lev, k);
  }
}

template void c1_const_object_member<double>(double*, double*, int, int);
