#include "apps/blackscholes.hpp"

#include <cmath>
#include <cstring>
#include <deque>
#include <unordered_map>

#include "apps/memo.hpp"
#include "apps/span_util.hpp"
#include "sim/random.hpp"

namespace argoapps {

using argo::gptr;
using argo::Thread;

namespace {

/// Cumulative normal distribution (Abramowitz & Stegun 26.2.17, the same
/// approximation PARSEC's blackscholes uses).
double cndf(double x) {
  const bool neg = x < 0.0;
  if (neg) x = -x;
  const double k = 1.0 / (1.0 + 0.2316419 * x);
  const double poly =
      k * (0.319381530 +
           k * (-0.356563782 +
                k * (1.781477937 + k * (-1.821255978 + k * 1.330274429))));
  const double pdf = std::exp(-0.5 * x * x) * 0.3989422804014327;
  const double cnd = 1.0 - pdf * poly;
  return neg ? 1.0 - cnd : cnd;
}

/// Charge the virtual compute for pricing `count` options, in chunks so
/// other fibers can interleave.
void charge(Thread* t, std::size_t count, Time per_option) {
  argosim::delay(static_cast<Time>(count) * per_option);
  (void)t;
}

}  // namespace

double bs_price(double spot, double strike, double rate, double vol,
                double expiry, bool is_put) {
  const double sqrt_t = std::sqrt(expiry);
  const double d1 =
      (std::log(spot / strike) + (rate + 0.5 * vol * vol) * expiry) /
      (vol * sqrt_t);
  const double d2 = d1 - vol * sqrt_t;
  const double discounted = strike * std::exp(-rate * expiry);
  if (!is_put) return spot * cndf(d1) - discounted * cndf(d2);
  return discounted * cndf(-d2) - spot * cndf(-d1);
}

namespace {

// Block-level price memo: the benches price the same deterministic option
// table once per iteration per write-buffer point per configuration, in
// fixed chunks — so a whole chunk's inputs recur bit-identically and its
// prices can be replayed with one memcmp + memcpy instead of a
// transcendental evaluation per option (see apps/memo.hpp). Keys are the
// concatenated input slices, verified exactly; the hash only routes to
// candidates. Bounded by total bytes — past the cap new blocks are priced
// without caching.
struct PriceBlock {
  std::vector<unsigned char> key;  // s | k | r | v | e doubles + put bytes
  std::vector<double> prices;
};

}  // namespace

void bs_price_block(const double* s, const double* k, const double* r,
                    const double* v, const double* e,
                    const std::uint8_t* put, std::size_t cnt, double* out) {
  if (cnt == 0) return;
  // Blocks are never evicted: the byte cap stops inserts.
  static std::deque<PriceBlock> blocks;  // deque: growth keeps blocks stable
  static std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> index;
  static std::size_t memo_bytes = 0;
  constexpr std::size_t kMaxBytes = 64u << 20;
  static std::vector<unsigned char> scratch;  // the key being looked up

  const std::size_t kd = cnt * sizeof(double);
  const std::size_t key_bytes = 5 * kd + cnt;
  scratch.resize(key_bytes);
  unsigned char* w = scratch.data();
  std::memcpy(w, s, kd);
  std::memcpy(w + kd, k, kd);
  std::memcpy(w + 2 * kd, r, kd);
  std::memcpy(w + 3 * kd, v, kd);
  std::memcpy(w + 4 * kd, e, kd);
  std::memcpy(w + 5 * kd, put, cnt);
  const std::uint64_t h = hash_words(scratch.data(), key_bytes, cnt);

  if (const auto it = index.find(h); it != index.end()) {
    for (const std::uint32_t idx : it->second) {
      const PriceBlock& b = blocks[idx];
      if (b.key.size() == key_bytes &&
          std::memcmp(b.key.data(), scratch.data(), key_bytes) == 0) {
        std::memcpy(out, b.prices.data(), kd);
        return;
      }
    }
  }
  for (std::size_t j = 0; j < cnt; ++j)
    out[j] = bs_price(s[j], k[j], r[j], v[j], e[j], put[j] != 0);
  if (memo_bytes + key_bytes + kd <= kMaxBytes) {
    blocks.push_back(PriceBlock{scratch, std::vector<double>(out, out + cnt)});
    index[h].push_back(static_cast<std::uint32_t>(blocks.size() - 1));
    memo_bytes += key_bytes + kd;
  }
}

BsInput bs_make_input(const BsParams& p) {
  argosim::Rng rng(p.seed);
  BsInput in;
  in.spot.resize(p.options);
  in.strike.resize(p.options);
  in.rate.resize(p.options);
  in.vol.resize(p.options);
  in.expiry.resize(p.options);
  in.is_put.resize(p.options);
  for (std::size_t i = 0; i < p.options; ++i) {
    in.spot[i] = rng.next_double(10.0, 200.0);
    in.strike[i] = rng.next_double(10.0, 200.0);
    in.rate[i] = rng.next_double(0.01, 0.1);
    in.vol[i] = rng.next_double(0.05, 0.65);
    in.expiry[i] = rng.next_double(0.1, 2.0);
    in.is_put[i] = rng.next_bool() ? 1 : 0;
  }
  return in;
}

double bs_reference(const BsParams& p) {
  const BsInput in = bs_make_input(p);
  double sum = 0;
  for (std::size_t i = 0; i < p.options; ++i)
    sum += bs_price(in.spot[i], in.strike[i], in.rate[i], in.vol[i],
                    in.expiry[i], in.is_put[i] != 0);
  return sum;
}

BsResult bs_run_argo(argo::Cluster& cl, const BsParams& p) {
  const BsInput in = bs_make_input(p);
  const std::size_t n = p.options;
  // Result slot first: the lowest page is homed on node 0, whose thread 0
  // writes the final checksum with a plain home write.
  auto result = cl.alloc<double>(1);
  auto partial = cl.alloc<double>(static_cast<std::size_t>(cl.nthreads()));
  auto spot = cl.alloc<double>(n), strike = cl.alloc<double>(n),
       rate = cl.alloc<double>(n), vol = cl.alloc<double>(n),
       expiry = cl.alloc<double>(n), prices = cl.alloc<double>(n);
  auto put = cl.alloc<std::uint8_t>(n);
  for (std::size_t i = 0; i < n; ++i) {
    cl.host_ptr(spot)[i] = in.spot[i];
    cl.host_ptr(strike)[i] = in.strike[i];
    cl.host_ptr(rate)[i] = in.rate[i];
    cl.host_ptr(vol)[i] = in.vol[i];
    cl.host_ptr(expiry)[i] = in.expiry[i];
    cl.host_ptr(put)[i] = in.is_put[i];
  }
  cl.reset_classification();

  BsResult res;
  res.elapsed = cl.run([&](Thread& t) {
    const std::size_t nt = static_cast<std::size_t>(t.nthreads());
    const std::size_t gid = static_cast<std::size_t>(t.gid());
    const std::size_t lo = n * gid / nt, hi = n * (gid + 1) / nt;
    const std::size_t cnt = hi - lo;
    std::vector<double> ls(cnt), lk(cnt), lr(cnt), lv(cnt), le(cnt), lp(cnt);
    std::vector<std::uint8_t> lput(cnt);
    for (int iter = 0; iter < p.iterations; ++iter) {
      t.load_bulk(spot + static_cast<std::ptrdiff_t>(lo), ls.data(), cnt);
      t.load_bulk(strike + static_cast<std::ptrdiff_t>(lo), lk.data(), cnt);
      t.load_bulk(rate + static_cast<std::ptrdiff_t>(lo), lr.data(), cnt);
      t.load_bulk(vol + static_cast<std::ptrdiff_t>(lo), lv.data(), cnt);
      t.load_bulk(expiry + static_cast<std::ptrdiff_t>(lo), le.data(), cnt);
      t.load_bulk(put + static_cast<std::ptrdiff_t>(lo), lput.data(), cnt);
      for (std::size_t i = 0; i < cnt; i += 128) {
        const std::size_t end = std::min(cnt, i + 128);
        bs_price_block(ls.data() + i, lk.data() + i, lr.data() + i,
                       lv.data() + i, le.data() + i, lput.data() + i,
                       end - i, lp.data() + i);
        charge(&t, end - i, p.ns_per_option);
        // Prices are published as they are computed (element-wise in the
        // original code).
        t.store_bulk(prices + static_cast<std::ptrdiff_t>(lo + i),
                     lp.data() + i, end - i);
      }
      t.barrier();
    }
    double sum = 0;
    for (double v : lp) sum += v;
    t.store(partial + t.gid(), sum);
    t.barrier();
    if (t.gid() == 0)
      t.store(result,
              span_sum(t, partial, static_cast<std::size_t>(t.nthreads())));
  });
  res.checksum = *cl.host_ptr(result);
  return res;
}

BsResult bs_run_mpi(argompi::MpiEnv& env, const BsParams& p) {
  const BsInput in = bs_make_input(p);
  const std::size_t n = p.options;
  const int ranks = env.world.size();
  BsResult res;
  double checksum = 0;
  res.elapsed = env.run([&](argompi::MpiWorld& w, int me) {
    const std::size_t lo = n * static_cast<std::size_t>(me) /
                           static_cast<std::size_t>(ranks);
    const std::size_t hi = n * (static_cast<std::size_t>(me) + 1) /
                           static_cast<std::size_t>(ranks);
    const std::size_t cnt = hi - lo;
    // Root owns the input; everyone receives a full copy (the PARSEC MPI
    // port broadcasts the option table once).
    std::vector<double> s(in.spot), k(in.strike), r(in.rate), v(in.vol),
        e(in.expiry);
    std::vector<std::uint8_t> q(in.is_put);
    if (me != 0) {  // non-roots receive everything over the wire
      std::fill(s.begin(), s.end(), 0.0);
      std::fill(k.begin(), k.end(), 0.0);
      std::fill(r.begin(), r.end(), 0.0);
      std::fill(v.begin(), v.end(), 0.0);
      std::fill(e.begin(), e.end(), 0.0);
      std::fill(q.begin(), q.end(), 0);
    }
    w.bcast(me, 0, s.data(), n * sizeof(double));
    w.bcast(me, 0, k.data(), n * sizeof(double));
    w.bcast(me, 0, r.data(), n * sizeof(double));
    w.bcast(me, 0, v.data(), n * sizeof(double));
    w.bcast(me, 0, e.data(), n * sizeof(double));
    w.bcast(me, 0, q.data(), n * sizeof(std::uint8_t));

    std::vector<double> prices(cnt);
    double my_sum = 0;
    for (int iter = 0; iter < p.iterations; ++iter) {
      my_sum = 0;
      for (std::size_t i = 0; i < cnt; i += 1024) {
        const std::size_t end = std::min(cnt, i + 1024);
        bs_price_block(s.data() + lo + i, k.data() + lo + i, r.data() + lo + i,
                       v.data() + lo + i, e.data() + lo + i, q.data() + lo + i,
                       end - i, prices.data() + i);
        for (std::size_t j = i; j < end; ++j) my_sum += prices[j];
        argosim::delay(static_cast<Time>(end - i) * p.ns_per_option);
      }
      w.barrier(me);
    }
    double total = my_sum;
    w.reduce_sum(me, 0, &total, 1);
    if (me == 0) checksum = total;
  });
  res.checksum = checksum;
  return res;
}

}  // namespace argoapps
