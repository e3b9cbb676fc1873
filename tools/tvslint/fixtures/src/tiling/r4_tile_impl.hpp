// R4 fixture under a src/tiling/ path: tile code is an engine
// instantiation, so it is as lane-generic as the engines.  Expected: one
// R4 violation on the marked line, nothing else.
#pragma once

namespace fixture {

template <class V>
int tile_end(int x_begin, int s) {
  constexpr int VL = V::lanes;
  (void)VL;
  // R4: the tile's lane count hardcoded in its ring walk.
  const int slot = (x_begin + 4 * s) % (s + 1);
  return slot;
}

}  // namespace fixture
