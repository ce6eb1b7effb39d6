// Independent cycle-level models of the three paper circuits.
//
// Each model restates what the netlist built by src/circuits computes, one
// clock cycle at a time, in plain integer arithmetic.  It shares no code
// with the simulator: it reads only the committed value changes of the
// probed nets (stimulus inputs and registers), which the caller converts to
// Waves.  From the stimulus values it predicts every probed register (and
// the combinational outputs named below) after each rising clock edge, and
// returns a description of the first mismatch, or an empty string.
//
// Clocking, common to all three circuits: the clock starts '0' and toggles
// every `half` time units, so rising edges fall at half + 2*half*k.  Inputs
// change at multiples of 2*half, half a period before an edge.  Inputs are
// sampled one time unit before edge k; the state after edge k is compared
// one time unit before edge k+1, when every delta cycle and gate delay has
// settled.  Only edges whose comparison time is <= `until` are checked.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// One probed 1-bit net, reconstructed from its committed value changes.
struct Wave {
  /// Value before the first change: 0, 1, or -1 (neither '0' nor '1').
  int initial = -1;
  /// (physical time, value) in time order; value -1 as above.
  std::vector<std::pair<std::int64_t, int>> changes;

  /// Value after every change at times <= t.
  [[nodiscard]] int at(std::int64_t t) const;
};

using Bus = std::vector<Wave>;  ///< LSB first

struct Clocking {
  std::int64_t half = 0;   ///< clock half period
  std::int64_t until = 0;  ///< simulated end time (inclusive)
};

/// FSM (circuits/fsm.cpp): `lanes` gated ripple incrementers of `width`
/// bits and a parity tree over all state bits.  Lane l counts up by one at
/// an edge when din xor m_l is '1', where m_l is the registered MSB of lane
/// l-1; lane 0 is wired with m_0 = din, so its enable is din xor din.
/// `state` holds lane 0's bits first.
std::string check_fsm(std::size_t lanes, std::size_t width, Clocking clk,
                      const Wave& din, const Bus& state, const Wave& parity);

/// IIR (circuits/iir.cpp): `sections` two-multiplier lattice sections in
/// `width`-bit two's complement, k_s = 2^-(1 + s mod 3) as an arithmetic
/// shift.  g_reg[0] is the feedback register g0.q (fed by the last
/// section's g); g_reg[s] for s >= 1 is the z^-1 bank between sections s-1
/// and s.  y is the last section's f output.
std::string check_iir(std::size_t width, std::size_t sections, Clocking clk,
                      const Bus& x, const std::vector<Bus>& g_reg,
                      const Bus& y);

/// DCT (circuits/dct.cpp): n x n MAC cells; cell (i, j) adds
/// (a_i >> s1) + (a_i >> s2) (arithmetic shifts, s1 = 1 + j mod 3,
/// s2 = 2 + (i + j) mod 3) into a `width`-bit accumulator register at every
/// edge.  acc[i * n + j] is cell (i, j)'s register.
std::string check_dct(std::size_t n, std::size_t width, Clocking clk,
                      const std::vector<Bus>& a, const std::vector<Bus>& acc);

}  // namespace perfbench
