#include "models.h"

#include <algorithm>
#include <iterator>
#include <span>

namespace perfbench {
namespace {

/// Bus value at time t as an unsigned integer, or -1 if any bit is not 0/1.
std::int64_t bus_at(std::span<const Wave> bus, std::int64_t t) {
  std::int64_t v = 0;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    const int b = bus[i].at(t);
    if (b < 0) return -1;
    v |= static_cast<std::int64_t>(b) << i;
  }
  return v;
}

/// Arithmetic right shift of a `width`-bit two's-complement value, result
/// truncated back to `width` bits.  Shifts >= width fill with the sign.
std::int64_t asr(std::int64_t v, std::size_t shift, std::size_t width) {
  const std::int64_t sign = std::int64_t{1} << (width - 1);
  const std::int64_t s = (v ^ sign) - sign;  // sign-extend
  const std::int64_t r = shift >= 63 ? (s < 0 ? -1 : 0) : s >> shift;
  return r & ((std::int64_t{1} << width) - 1);
}

std::string mismatch(const std::string& what, std::size_t edge,
                     std::int64_t at, std::int64_t want, std::int64_t got) {
  return what + " after edge " + std::to_string(edge) + " (t=" +
         std::to_string(at) + "): model " + std::to_string(want) +
         ", engine " + (got < 0 ? std::string("non-01") : std::to_string(got));
}

std::string no_input(const std::string& what, std::size_t edge) {
  return what + " is not 0/1 before edge " + std::to_string(edge);
}

/// Calls step(k, t_edge, t_check) for every edge whose check time is in
/// range; stops at the first non-empty result.
template <typename Step>
std::string for_each_edge(Clocking clk, Step step) {
  for (std::size_t k = 0;; ++k) {
    const std::int64_t edge =
        clk.half + 2 * clk.half * static_cast<std::int64_t>(k);
    const std::int64_t check = edge + 2 * clk.half - 1;
    if (check > clk.until) return {};
    std::string err = step(k, edge, check);
    if (!err.empty()) return err;
  }
}

}  // namespace

int Wave::at(std::int64_t t) const {
  const auto after = std::upper_bound(
      changes.begin(), changes.end(), t,
      [](std::int64_t x, const auto& c) { return x < c.first; });
  return after == changes.begin() ? initial : std::prev(after)->second;
}

std::string check_fsm(std::size_t lanes, std::size_t width, Clocking clk,
                      const Wave& din, const Bus& state, const Wave& parity) {
  if (state.size() != lanes * width) return "fsm: state probe count";
  const std::int64_t mask = (std::int64_t{1} << width) - 1;
  std::vector<std::int64_t> q(lanes, 0);
  std::vector<std::int64_t> en(lanes, 0);
  return for_each_edge(clk, [&](std::size_t k, std::int64_t edge,
                                std::int64_t check) -> std::string {
    const int d = din.at(edge - 1);
    if (d < 0) return no_input("fsm din", k);
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::int64_t m = l == 0 ? d : (q[l - 1] >> (width - 1)) & 1;
      en[l] = d ^ m;
    }
    int par = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
      q[l] = (q[l] + en[l]) & mask;
      const std::int64_t got =
          bus_at(std::span(state).subspan(l * width, width), check);
      if (got != q[l])
        return mismatch("fsm lane " + std::to_string(l), k, check, q[l], got);
      for (std::size_t i = 0; i < width; ++i) par ^= (q[l] >> i) & 1;
    }
    const int got_par = parity.at(check);
    if (got_par != par) return mismatch("fsm parity", k, check, par, got_par);
    return {};
  });
}

std::string check_iir(std::size_t width, std::size_t sections, Clocking clk,
                      const Bus& x, const std::vector<Bus>& g_reg,
                      const Bus& y) {
  if (g_reg.size() != sections) return "iir: register probe count";
  const std::int64_t mask = (std::int64_t{1} << width) - 1;
  std::vector<std::int64_t> g(sections, 0);  // register contents
  std::vector<std::int64_t> g_out(sections, 0);
  // One pass through the lattice: returns y, fills g_out.
  auto lattice = [&](std::int64_t f) {
    for (std::size_t s = 0; s < sections; ++s) {
      const std::size_t shift = 1 + s % 3;
      const std::int64_t fp = (f - asr(g[s], shift, width)) & mask;
      g_out[s] = (g[s] + asr(fp, shift, width)) & mask;
      f = fp;
    }
    return f;
  };
  return for_each_edge(clk, [&](std::size_t k, std::int64_t edge,
                                std::int64_t check) -> std::string {
    const std::int64_t xin = bus_at(x, edge - 1);
    if (xin < 0) return no_input("iir x", k);
    lattice(xin);
    // z^-1 banks take the section outputs; g0 closes the loop.
    g[0] = g_out[sections - 1];
    for (std::size_t s = 1; s < sections; ++s) g[s] = g_out[s - 1];
    for (std::size_t s = 0; s < sections; ++s) {
      const std::int64_t got = bus_at(g_reg[s], check);
      if (got != g[s])
        return mismatch("iir register " + std::to_string(s), k, check, g[s],
                        got);
    }
    const std::int64_t xnow = bus_at(x, check);
    if (xnow < 0) return no_input("iir x", k + 1);
    const std::int64_t want_y = lattice(xnow);
    const std::int64_t got_y = bus_at(y, check);
    if (got_y != want_y) return mismatch("iir y", k, check, want_y, got_y);
    return {};
  });
}

std::string check_dct(std::size_t n, std::size_t width, Clocking clk,
                      const std::vector<Bus>& a, const std::vector<Bus>& acc) {
  if (a.size() != n || acc.size() != n * n) return "dct: probe count";
  const std::int64_t mask = (std::int64_t{1} << width) - 1;
  std::vector<std::int64_t> sum(n * n, 0);
  std::vector<std::int64_t> ain(n, 0);
  return for_each_edge(clk, [&](std::size_t k, std::int64_t edge,
                                std::int64_t check) -> std::string {
    for (std::size_t i = 0; i < n; ++i) {
      ain[i] = bus_at(a[i], edge - 1);
      if (ain[i] < 0) return no_input("dct a" + std::to_string(i), k);
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const std::size_t s1 = 1 + j % 3;
        const std::size_t s2 = 2 + (i + j) % 3;
        const std::int64_t prod =
            (asr(ain[i], s1, width) + asr(ain[i], s2, width)) & mask;
        std::int64_t& r = sum[i * n + j];
        r = (r + prod) & mask;
        const std::int64_t got = bus_at(acc[i * n + j], check);
        if (got != r)
          return mismatch("dct cell " + std::to_string(i) + "," +
                              std::to_string(j),
                          k, check, r, got);
      }
    }
    return {};
  });
}

}  // namespace perfbench
