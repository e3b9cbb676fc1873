// tvsrace fixture: bulk writes.  The destination argument of a std::copy,
// copy_n, copy_backward, fill, fill_n, memcpy or memset is a write to its
// base identifier, however it is offset.  The three unpartitioned ones
// below are C1 findings; a destination indexed by the parallel variable
// and one in a region-local buffer are clean, and so are the sources.
#include <algorithm>
#include <cstring>

constexpr int kPad = 2;

template <class T>
void c1_bulk_write(const T* even, T* odd, int n, int nb) {
#pragma omp parallel for
  for (int k = 0; k < nb; ++k) {
    T local[4];
    std::copy(even - kPad, even + 1, odd - kPad);      // halo copy -> C1
    std::fill(odd + n + 1, odd + n + 2 + kPad, T(0));  // halo fill -> C1
    std::memset(odd + n, 0, sizeof(T));                // -> C1
    std::copy_n(even + k, 1, local);                   // region-local
    std::copy(even + k, even + k + 1, odd + k);        // indexed by k
  }
}

template void c1_bulk_write<double>(const double*, double*, int, int);
