#include "apps/nbody.hpp"

#include <cmath>
#include <cstring>
#include <deque>

#include "apps/memo.hpp"
#include "apps/span_util.hpp"
#include "sim/random.hpp"

namespace argoapps {

using argo::gptr;
using argo::Thread;

constexpr double kSoftening = 1e-3;

/// Accumulate the force on body i from all bodies (the real computation).
void accumulate_force(const double* x, const double* y, const double* z,
                      const double* m, std::size_t n, std::size_t i,
                      double& fx, double& fy, double& fz) {
  const double xi = x[i], yi = y[i], zi = z[i];
  // Two independent accumulator lanes: the explicit even/odd split spells
  // out the summation order (lane sums combined once at the end), so the
  // compiler can keep the pair in one vector register — packed subtract /
  // multiply / sqrt / divide — without being licensed to reassociate
  // anything. The result is deterministic: it depends only on n, not on
  // the optimization level.
  double ax0 = 0, ay0 = 0, az0 = 0;
  double ax1 = 0, ay1 = 0, az1 = 0;
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const double dx0 = x[j] - xi, dy0 = y[j] - yi, dz0 = z[j] - zi;
    const double dx1 = x[j + 1] - xi, dy1 = y[j + 1] - yi,
                 dz1 = z[j + 1] - zi;
    const double r20 = dx0 * dx0 + dy0 * dy0 + dz0 * dz0 + kSoftening;
    const double r21 = dx1 * dx1 + dy1 * dy1 + dz1 * dz1 + kSoftening;
    const double inv0 = 1.0 / std::sqrt(r20);
    const double inv1 = 1.0 / std::sqrt(r21);
    const double s0 = m[j] * inv0 * inv0 * inv0;
    const double s1 = m[j + 1] * inv1 * inv1 * inv1;
    ax0 += dx0 * s0;
    ay0 += dy0 * s0;
    az0 += dz0 * s0;
    ax1 += dx1 * s1;
    ay1 += dy1 * s1;
    az1 += dz1 * s1;
  }
  if (j < n) {
    const double dx = x[j] - xi, dy = y[j] - yi, dz = z[j] - zi;
    const double r2 = dx * dx + dy * dy + dz * dz + kSoftening;
    const double inv_r = 1.0 / std::sqrt(r2);
    const double s = m[j] * inv_r * inv_r * inv_r;
    ax0 += dx * s;
    ay0 += dy * s;
    az0 += dz * s;
  }
  fx = ax0 + ax1;
  fy = ay0 + ay1;
  fz = az0 + az1;
}

namespace {

/// Lazily-filled per-body force table for one position state (the
/// concatenated x|y|z|m arrays). Every backend and every configuration of
/// a bench walks the same deterministic trajectory, so the O(n²) force
/// phase of a given step is computed once process-wide and replayed —
/// bit-identically, a hit returns the exact doubles a previous run
/// computed from byte-identical inputs — by every later run (see
/// apps/memo.hpp).
struct ForceTable {
  std::vector<double> in;          // x | y | z | m, the verified key
  std::vector<double> fx, fy, fz;  // forces, valid where have[i]
  std::vector<std::uint8_t> have;
};

ForceTable* force_table(const double* x, const double* y, const double* z,
                        const double* m, std::size_t n) {
  static std::deque<ForceTable> tables;  // FIFO-capped, process-global
  constexpr std::size_t kMaxStates = 16;
  // The caller is done with the returned table before its fiber next
  // yields, so a later eviction never reaches a table in use.
  // No hashing: with at most kMaxStates live states, a newest-first scan
  // with early-exit memcmp is cheaper than hashing 4n doubles per call
  // (every body moves every step, so mismatching states diverge in the
  // leading bytes and each reject is O(1) in practice).
  for (auto it = tables.rbegin(); it != tables.rend(); ++it) {
    ForceTable& t = *it;
    if (t.in.size() != 4 * n) continue;
    const double* k = t.in.data();
    if (std::memcmp(k, x, n * sizeof(double)) == 0 &&
        std::memcmp(k + n, y, n * sizeof(double)) == 0 &&
        std::memcmp(k + 2 * n, z, n * sizeof(double)) == 0 &&
        std::memcmp(k + 3 * n, m, n * sizeof(double)) == 0)
      return &t;
  }
  if (tables.size() >= kMaxStates) tables.pop_front();
  ForceTable& t = tables.emplace_back();
  t.in.resize(4 * n);
  double* k = t.in.data();
  std::memcpy(k, x, n * sizeof(double));
  std::memcpy(k + n, y, n * sizeof(double));
  std::memcpy(k + 2 * n, z, n * sizeof(double));
  std::memcpy(k + 3 * n, m, n * sizeof(double));
  t.fx.resize(n);
  t.fy.resize(n);
  t.fz.resize(n);
  t.have.assign(n, 0);
  return &t;
}

}  // namespace

void nbody_forces(const double* x, const double* y, const double* z,
                  const double* m, std::size_t n, std::size_t lo,
                  std::size_t hi, double* fx, double* fy, double* fz) {
  ForceTable& tab = *force_table(x, y, z, m, n);
  for (std::size_t i = lo; i < hi; ++i) {
    if (!tab.have[i]) {
      accumulate_force(x, y, z, m, n, i, tab.fx[i], tab.fy[i], tab.fz[i]);
      tab.have[i] = 1;
    }
    fx[i - lo] = tab.fx[i];
    fy[i - lo] = tab.fy[i];
    fz[i - lo] = tab.fz[i];
  }
}

namespace {

void integrate_slice(const NbodyParams& p, const double* x, const double* y,
                     const double* z, const double* m, std::size_t n,
                     std::size_t lo, std::size_t hi, double* nx, double* ny,
                     double* nz, double* vx, double* vy, double* vz) {
  static std::vector<double> f;  // scratch, done with before returning
  const std::size_t w = hi - lo;
  f.resize(3 * w);
  nbody_forces(x, y, z, m, n, lo, hi, f.data(), f.data() + w,
               f.data() + 2 * w);
  for (std::size_t i = lo; i < hi; ++i) {
    vx[i - lo] += p.dt * f[i - lo];
    vy[i - lo] += p.dt * f[w + i - lo];
    vz[i - lo] += p.dt * f[2 * w + i - lo];
    nx[i - lo] = x[i] + p.dt * vx[i - lo];
    ny[i - lo] = y[i] + p.dt * vy[i - lo];
    nz[i - lo] = z[i] + p.dt * vz[i - lo];
  }
}

}  // namespace

NbodyState nbody_make_input(const NbodyParams& p) {
  argosim::Rng rng(p.seed);
  NbodyState s;
  const std::size_t n = p.bodies;
  s.x.resize(n);
  s.y.resize(n);
  s.z.resize(n);
  s.vx.assign(n, 0.0);
  s.vy.assign(n, 0.0);
  s.vz.assign(n, 0.0);
  s.mass.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.x[i] = rng.next_double(-1, 1);
    s.y[i] = rng.next_double(-1, 1);
    s.z[i] = rng.next_double(-1, 1);
    s.mass[i] = rng.next_double(0.5, 1.5);
  }
  return s;
}

double nbody_reference(const NbodyParams& p) {
  NbodyState s = nbody_make_input(p);
  const std::size_t n = p.bodies;
  std::vector<double> nx(n), ny(n), nz(n);
  for (int step = 0; step < p.steps; ++step) {
    integrate_slice(p, s.x.data(), s.y.data(), s.z.data(), s.mass.data(), n,
                    0, n, nx.data(), ny.data(), nz.data(), s.vx.data(),
                    s.vy.data(), s.vz.data());
    s.x.swap(nx);
    s.y.swap(ny);
    s.z.swap(nz);
  }
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i)
    sum += std::fabs(s.x[i]) + std::fabs(s.y[i]) + std::fabs(s.z[i]);
  return sum;
}

NbodyResult nbody_run_argo(argo::Cluster& cl, const NbodyParams& p) {
  const NbodyState init = nbody_make_input(p);
  const std::size_t n = p.bodies;
  auto result = cl.alloc<double>(1);
  auto partial = cl.alloc<double>(static_cast<std::size_t>(cl.nthreads()));
  // Double-buffered positions + velocities + masses.
  gptr<double> pos[2][3] = {
      {cl.alloc<double>(n), cl.alloc<double>(n), cl.alloc<double>(n)},
      {cl.alloc<double>(n), cl.alloc<double>(n), cl.alloc<double>(n)}};
  gptr<double> vel[3] = {cl.alloc<double>(n), cl.alloc<double>(n),
                         cl.alloc<double>(n)};
  auto mass = cl.alloc<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    cl.host_ptr(pos[0][0])[i] = init.x[i];
    cl.host_ptr(pos[0][1])[i] = init.y[i];
    cl.host_ptr(pos[0][2])[i] = init.z[i];
    cl.host_ptr(mass)[i] = init.mass[i];
  }
  cl.reset_classification();

  NbodyResult res;
  res.elapsed = cl.run([&](Thread& t) {
    const auto nt = static_cast<std::size_t>(t.nthreads());
    const auto gid = static_cast<std::size_t>(t.gid());
    const std::size_t lo = n * gid / nt, hi = n * (gid + 1) / nt;
    const std::size_t cnt = hi - lo;
    std::vector<double> x(n), y(n), z(n), m(n);
    std::vector<double> nx(cnt), ny(cnt), nz(cnt);
    std::vector<double> vx(cnt), vy(cnt), vz(cnt);
    t.load_bulk(mass, m.data(), n);
    for (int step = 0; step < p.steps; ++step) {
      const int cur = step & 1, nxt = cur ^ 1;
      // Velocities are shared arrays touched only by their owner slice —
      // Private pages under P/S (they never need self-invalidation).
      t.load_bulk(vel[0] + static_cast<std::ptrdiff_t>(lo), vx.data(), cnt);
      t.load_bulk(vel[1] + static_cast<std::ptrdiff_t>(lo), vy.data(), cnt);
      t.load_bulk(vel[2] + static_cast<std::ptrdiff_t>(lo), vz.data(), cnt);
      t.load_bulk(pos[cur][0], x.data(), n);
      t.load_bulk(pos[cur][1], y.data(), n);
      t.load_bulk(pos[cur][2], z.data(), n);
      // Compute in chunks and publish each chunk's results immediately —
      // as the original element-wise code does, the six output arrays'
      // pages are dirtied interleaved, which is what makes the write
      // buffer's size matter (Figs. 9/10).
      for (std::size_t i = lo; i < hi; i += 16) {
        const std::size_t end = std::min(hi, i + 16);
        integrate_slice(p, x.data(), y.data(), z.data(), m.data(), n, i, end,
                        nx.data() + (i - lo), ny.data() + (i - lo),
                        nz.data() + (i - lo), vx.data() + (i - lo),
                        vy.data() + (i - lo), vz.data() + (i - lo));
        t.compute(static_cast<Time>((end - i) * n) * p.ns_per_interaction);
        const std::size_t c = end - i;
        const auto off = static_cast<std::ptrdiff_t>(i);
        t.store_bulk(pos[nxt][0] + off, nx.data() + (i - lo), c);
        t.store_bulk(pos[nxt][1] + off, ny.data() + (i - lo), c);
        t.store_bulk(pos[nxt][2] + off, nz.data() + (i - lo), c);
        t.store_bulk(vel[0] + off, vx.data() + (i - lo), c);
        t.store_bulk(vel[1] + off, vy.data() + (i - lo), c);
        t.store_bulk(vel[2] + off, vz.data() + (i - lo), c);
      }
      t.barrier();
    }
    const int fin = p.steps & 1;
    // The final checksum interleaves |x|+|y|+|z| per body, so the three
    // arrays cannot be walked one span at a time without changing the
    // floating-point summation order: keep the bulk copies.
    double sum = 0;
    std::vector<double> fx(cnt), fy(cnt), fz(cnt);
    t.load_bulk(pos[fin][0] + static_cast<std::ptrdiff_t>(lo), fx.data(), cnt);
    t.load_bulk(pos[fin][1] + static_cast<std::ptrdiff_t>(lo), fy.data(), cnt);
    t.load_bulk(pos[fin][2] + static_cast<std::ptrdiff_t>(lo), fz.data(), cnt);
    for (std::size_t i = 0; i < cnt; ++i)
      sum += std::fabs(fx[i]) + std::fabs(fy[i]) + std::fabs(fz[i]);
    t.store(partial + t.gid(), sum);
    t.barrier();
    if (t.gid() == 0)
      t.store(result,
              span_sum(t, partial, static_cast<std::size_t>(t.nthreads())));
  });
  res.checksum = *cl.host_ptr(result);
  return res;
}

NbodyResult nbody_run_mpi(argompi::MpiEnv& env, const NbodyParams& p) {
  const NbodyState init = nbody_make_input(p);
  const std::size_t n = p.bodies;
  const int ranks = env.world.size();
  NbodyResult res;
  double checksum = 0;
  res.elapsed = env.run([&](argompi::MpiWorld& w, int me) {
    const std::size_t lo = n * static_cast<std::size_t>(me) /
                           static_cast<std::size_t>(ranks);
    const std::size_t hi = n * (static_cast<std::size_t>(me) + 1) /
                           static_cast<std::size_t>(ranks);
    const std::size_t cnt = hi - lo;
    // Rank slices: allgather needs equal sizes — use the max slice and pad.
    const std::size_t slice =
        (n + static_cast<std::size_t>(ranks) - 1) / static_cast<std::size_t>(ranks);
    std::vector<double> x(init.x), y(init.y), z(init.z), m(init.mass);
    std::vector<double> vx(cnt, 0), vy(cnt, 0), vz(cnt, 0);
    std::vector<double> nx(cnt), ny(cnt), nz(cnt);
    std::vector<double> sendbuf(3 * slice, 0.0), recvbuf(3 * slice *
                                                         static_cast<std::size_t>(ranks));
    for (int step = 0; step < p.steps; ++step) {
      for (std::size_t i = lo; i < hi; i += 16) {
        const std::size_t end = std::min(hi, i + 16);
        integrate_slice(p, x.data(), y.data(), z.data(), m.data(), n, i, end,
                        nx.data() + (i - lo), ny.data() + (i - lo),
                        nz.data() + (i - lo), vx.data() + (i - lo),
                        vy.data() + (i - lo), vz.data() + (i - lo));
        argosim::delay(static_cast<Time>((end - i) * n) * p.ns_per_interaction);
      }
      // Exchange the new positions (allgather of padded slices).
      std::copy(nx.begin(), nx.end(), sendbuf.begin());
      std::copy(ny.begin(), ny.end(), sendbuf.begin() + static_cast<std::ptrdiff_t>(slice));
      std::copy(nz.begin(), nz.end(), sendbuf.begin() + static_cast<std::ptrdiff_t>(2 * slice));
      w.allgather(me, sendbuf.data(), recvbuf.data(),
                  sendbuf.size() * sizeof(double));
      for (int r = 0; r < ranks; ++r) {
        const std::size_t rlo = n * static_cast<std::size_t>(r) /
                                static_cast<std::size_t>(ranks);
        const std::size_t rhi = n * (static_cast<std::size_t>(r) + 1) /
                                static_cast<std::size_t>(ranks);
        const double* base = recvbuf.data() + static_cast<std::size_t>(r) * 3 * slice;
        for (std::size_t i = rlo; i < rhi; ++i) {
          x[i] = base[i - rlo];
          y[i] = base[slice + (i - rlo)];
          z[i] = base[2 * slice + (i - rlo)];
        }
      }
    }
    double sum = 0;
    for (std::size_t i = lo; i < hi; ++i)
      sum += std::fabs(x[i]) + std::fabs(y[i]) + std::fabs(z[i]);
    w.reduce_sum(me, 0, &sum, 1);
    if (me == 0) checksum = sum;
  });
  res.checksum = checksum;
  return res;
}

}  // namespace argoapps
