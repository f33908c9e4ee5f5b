// Simulator surface: the virtual-time engine, fiber synchronization
// primitives, deterministic PRNG, and the Time literals.
#pragma once

#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/sync.hpp"
#include "sim/time.hpp"
