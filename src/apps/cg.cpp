#include "apps/cg.hpp"

#include <algorithm>
#include <cassert>

#include "apps/span_util.hpp"
#include "baseline/pgas.hpp"

namespace argoapps {

using argo::gptr;
using argo::Thread;

constexpr int CgMatrix::kOffsets[4];

void CgMatrix::spmv_rows(const double* p, double* y, std::size_t n,
                         std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    double acc = kDiag * p[i];
    for (int k = 0; k < 4; ++k) {
      const auto o = static_cast<std::size_t>(kOffsets[k]);
      acc += off_value(k) * p[(i + o) % n];
      acc += off_value(k) * p[(i + n - o) % n];
    }
    y[i - lo] = acc;
  }
}

void CgMatrix::spmv_band(const double* band, double* y, std::size_t rows) {
  constexpr auto kHalo = static_cast<std::size_t>(kOffsets[3]);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* c = band + kHalo + r;  // row r's diagonal element
    double acc = kDiag * *c;
    for (int k = 0; k < 4; ++k) {
      const auto o = static_cast<std::ptrdiff_t>(kOffsets[k]);
      acc += off_value(k) * c[o];
      acc += off_value(k) * c[-o];
    }
    y[r] = acc;
  }
}

namespace {

/// Right-hand side: varied so b is not an eigenvector of the stencil
/// (an all-ones b makes CG converge exactly in one step and break down).
double cg_b(std::size_t i) { return 1.0 + 0.1 * static_cast<double>(i % 17); }

double cg_rho0(std::size_t n) {
  double s = 0;
  for (std::size_t i = 0; i < n; ++i) s += cg_b(i) * cg_b(i);
  return s;
}

Time spmv_cost(const CgParams& p, std::size_t rows) {
  return static_cast<Time>(rows * CgMatrix::nnz_per_row()) * p.ns_per_nnz;
}

Time vec_cost(const CgParams& p, std::size_t elems) {
  return static_cast<Time>(elems) * p.ns_per_flop;
}

}  // namespace

CgResult cg_reference(const CgParams& prm) {
  const std::size_t n = prm.n;
  std::vector<double> x(n, 0.0), r(n), p(n), q(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = r[i] = cg_b(i);
  double rho = cg_rho0(n);
  for (int it = 0; it < prm.iterations; ++it) {
    CgMatrix::spmv_rows(p.data(), q.data(), n, 0, n);
    double pq = 0;
    for (std::size_t i = 0; i < n; ++i) pq += p[i] * q[i];
    const double alpha = rho / pq;
    double rr = 0;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * q[i];
      rr += r[i] * r[i];
    }
    const double beta = rr / rho;
    rho = rr;
    for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
  }
  CgResult res;
  res.final_rho = rho;
  for (double v : x) res.x_checksum += v;
  return res;
}

CgResult cg_run_argo(argo::Cluster& cl, const CgParams& prm) {
  const std::size_t n = prm.n;
  constexpr auto kHalo = static_cast<std::size_t>(CgMatrix::kOffsets[3]);
  auto result = cl.alloc<double>(2);
  const auto nt = static_cast<std::size_t>(cl.nthreads());
  auto part_pq = cl.alloc<double>(nt);
  auto part_rr = cl.alloc<double>(nt);
  auto part_x = cl.alloc<double>(nt);
  auto gp = cl.alloc<double>(n);  // direction vector, read by everyone
  auto gx = cl.alloc<double>(n);  // solution slices (private per owner)
  auto gr = cl.alloc<double>(n);  // residual slices (private per owner)
  for (std::size_t i = 0; i < n; ++i) {
    cl.host_ptr(gp)[i] = cg_b(i);
    cl.host_ptr(gx)[i] = 0.0;
    cl.host_ptr(gr)[i] = cg_b(i);
  }
  cl.reset_classification();
  // Host-side only (charges no virtual time): once, not per thread.
  const double rho0 = cg_rho0(n);

  CgResult res;
  res.elapsed = cl.run([&](Thread& t) {
    const auto T = static_cast<std::size_t>(t.nthreads());
    const auto g = static_cast<std::size_t>(t.gid());
    const std::size_t lo = n * g / T, hi = n * (g + 1) / T;
    const std::size_t cnt = hi - lo;
    // The rows [lo, hi) read p only within the band [lo - halo, hi + halo)
    // mod n; the thread keeps that band (the whole vector once the band
    // covers it). band[k] holds p[(blo + k) mod n]; `own` is the thread's
    // slice p[lo, hi).
    const bool whole = cnt + 2 * kHalo >= n;
    const std::size_t blen = whole ? n : cnt + 2 * kHalo;
    const std::size_t blo = whole ? 0 : (lo + n - kHalo) % n;
    std::vector<double> band(blen), x(cnt), r(cnt), q(cnt);
    double* const own = band.data() + (whole ? lo : kHalo);
    t.load_bulk(gx + static_cast<std::ptrdiff_t>(lo), x.data(), cnt);
    t.load_bulk(gr + static_cast<std::ptrdiff_t>(lo), r.data(), cnt);
    double rho = rho0;
    for (int it = 0; it < prm.iterations; ++it) {
      // Walk the whole direction vector page by page — the same accesses
      // as a load_bulk of all of it — but copy out only the band.
      std::size_t at = 0;
      while (at < n) {
        const auto sp =
            t.load_span(gp + static_cast<std::ptrdiff_t>(at), n - at);
        // The span's band indices run k, k+1, ... mod n: its head lies in
        // the band while below blen, its tail once it wraps past n.
        const std::size_t k = (at + n - blo) % n;
        if (k < blen)
          std::copy_n(sp.data(), std::min(sp.size(), blen - k),
                      band.data() + k);
        if (k + sp.size() > n)
          std::copy_n(sp.data() + (n - k), std::min(k + sp.size() - n, blen),
                      band.data());
        at += sp.size();
      }
      if (whole)
        CgMatrix::spmv_rows(band.data(), q.data(), n, lo, hi);
      else
        CgMatrix::spmv_band(band.data(), q.data(), cnt);
      t.compute(spmv_cost(prm, cnt));
      double pq = 0;
      for (std::size_t i = 0; i < cnt; ++i) pq += own[i] * q[i];
      t.compute(vec_cost(prm, cnt));
      t.store(part_pq + t.gid(), pq);
      t.barrier();
      const double pq_tot = span_sum(t, part_pq, T);
      const double alpha = rho / pq_tot;
      double rr = 0;
      // x and r are shared arrays in the original code: publish them (and
      // later p) in interleaved chunks as they are updated.
      for (std::size_t i = 0; i < cnt; i += 64) {
        const std::size_t end = std::min(cnt, i + 64);
        for (std::size_t j = i; j < end; ++j) {
          x[j] += alpha * own[j];
          r[j] -= alpha * q[j];
          rr += r[j] * r[j];
        }
        t.compute(vec_cost(prm, 3 * (end - i)));
        t.store_bulk(gx + static_cast<std::ptrdiff_t>(lo + i), x.data() + i,
                     end - i);
        t.store_bulk(gr + static_cast<std::ptrdiff_t>(lo + i), r.data() + i,
                     end - i);
      }
      t.store(part_rr + t.gid(), rr);
      t.barrier();
      const double rr_tot = span_sum(t, part_rr, T);
      const double beta = rr_tot / rho;
      rho = rr_tot;
      for (std::size_t i = 0; i < cnt; i += 64) {
        const std::size_t end = std::min(cnt, i + 64);
        for (std::size_t j = i; j < end; ++j)
          own[j] = r[j] + beta * own[j];
        t.compute(vec_cost(prm, end - i));
        t.store_bulk(gp + static_cast<std::ptrdiff_t>(lo + i), own + i,
                     end - i);
      }
      t.barrier();  // p complete before the next SpMV
    }
    // Publish the checksums (x is already in the shared array).
    double xs = 0;
    for (double v : x) xs += v;
    t.store(part_x + t.gid(), xs);
    t.barrier();
    if (t.gid() == 0) {
      t.store(result, rho);
      t.store(result + 1, span_sum(t, part_x, T));
    }
    t.barrier();
  });
  res.final_rho = cl.host_ptr(result)[0];
  res.x_checksum = cl.host_ptr(result)[1];
  return res;
}

CgResult cg_run_upc(argo::Cluster& cl, const CgParams& prm) {
  const std::size_t n = prm.n;
  const auto nt = static_cast<std::size_t>(cl.nthreads());
  argopgas::PgasArray<double> gp(cl, n);
  argopgas::PgasArray<double> part_pq(cl, nt), part_rr(cl, nt),
      part_x(cl, nt);
  argopgas::PgasArray<double> scal(cl, 4);  // alpha, beta, rho, x_checksum
  for (std::size_t i = 0; i < n; ++i)
    *cl.gmem().home_ptr(gp.gbase().at(i)) = cg_b(i);
  const double rho0 = cg_rho0(n);

  CgResult res;
  const auto max_off = static_cast<std::size_t>(CgMatrix::kOffsets[3]);
  res.elapsed = cl.run([&](Thread& t) {
    const auto T = static_cast<std::size_t>(t.nthreads());
    const auto g = static_cast<std::size_t>(t.gid());
    const std::size_t lo = n * g / T, hi = n * (g + 1) / T;
    const std::size_t cnt = hi - lo;
    // Private x/r (UPC style: thread-local working data), shared p.
    std::vector<double> x(cnt, 0.0), r(cnt), q(cnt);
    for (std::size_t i = 0; i < cnt; ++i) r[i] = cg_b(lo + i);
    std::vector<double> p(n, 0.0);
    double rho = rho0;
    for (int it = 0; it < prm.iterations; ++it) {
      // Fetch our slice plus the halo (the rest of p we touch through the
      // band) with bulk gets — the "optimized UPC" idiom.
      const std::size_t halo_lo = (lo + n - max_off) % n;
      const std::size_t halo_hi_len = std::min(max_off, n - hi);
      if (halo_lo < lo) {
        gp.get_bulk(t, halo_lo, lo - halo_lo + cnt, p.data() + halo_lo);
      } else {  // wraps around zero
        gp.get_bulk(t, halo_lo, n - halo_lo, p.data() + halo_lo);
        gp.get_bulk(t, 0, lo + cnt, p.data());
      }
      if (halo_hi_len > 0) gp.get_bulk(t, hi, halo_hi_len, p.data() + hi);
      if (hi + max_off > n) gp.get_bulk(t, 0, hi + max_off - n, p.data());
      CgMatrix::spmv_rows(p.data(), q.data(), n, lo, hi);
      t.compute(spmv_cost(prm, cnt));
      double pq = 0;
      for (std::size_t i = 0; i < cnt; ++i) pq += p[lo + i] * q[i];
      t.compute(vec_cost(prm, cnt));
      part_pq.put(t, g, pq);
      argopgas::pgas_barrier(t);
      if (g == 0) {
        // Thread 0 reduces with fine-grained remote reads (each one a full
        // network round trip) and publishes alpha.
        double tot = 0;
        for (std::size_t k = 0; k < T; ++k) tot += part_pq.get(t, k);
        scal.put(t, 0, rho / tot);
      }
      argopgas::pgas_barrier(t);
      const double alpha = scal.get(t, 0);
      double rr = 0;
      for (std::size_t i = 0; i < cnt; ++i) {
        x[i] += alpha * p[lo + i];
        r[i] -= alpha * q[i];
        rr += r[i] * r[i];
      }
      t.compute(vec_cost(prm, 3 * cnt));
      part_rr.put(t, g, rr);
      argopgas::pgas_barrier(t);
      if (g == 0) {
        double tot = 0;
        for (std::size_t k = 0; k < T; ++k) tot += part_rr.get(t, k);
        scal.put(t, 1, tot / rho);
        scal.put(t, 2, tot);
      }
      argopgas::pgas_barrier(t);
      const double beta = scal.get(t, 1);
      rho = scal.get(t, 2);
      for (std::size_t i = 0; i < cnt; ++i)
        p[lo + i] = r[i] + beta * p[lo + i];
      t.compute(vec_cost(prm, cnt));
      gp.put_bulk(t, lo, cnt, p.data() + lo);
      argopgas::pgas_barrier(t);
    }
    double xs = 0;
    for (double v : x) xs += v;
    part_x.put(t, g, xs);
    argopgas::pgas_barrier(t);
    if (g == 0) {
      double tot = 0;
      for (std::size_t k = 0; k < T; ++k) tot += part_x.get(t, k);
      scal.put(t, 3, tot);
    }
    argopgas::pgas_barrier(t);
    if (g == 0) res.final_rho = rho;
  });
  res.x_checksum = *cl.gmem().home_ptr(scal.gbase().at(3));
  return res;
}

}  // namespace argoapps
