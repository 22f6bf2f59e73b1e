module Rng = Lk_util.Rng

type params = { tau : float; rho : float; beta : float; bits : int }

let validate p =
  if not (p.tau > 0. && p.tau <= 0.5) then invalid_arg "Rquantile: tau must be in (0, 1/2]";
  if not (p.rho > 0. && p.rho < 1.) then invalid_arg "Rquantile: rho must be in (0, 1)";
  if not (p.beta > 0. && p.beta <= p.rho) then
    invalid_arg "Rquantile: beta must be in (0, rho]";
  if p.bits < 1 || p.bits > 61 then invalid_arg "Rquantile: bits must be in [1, 61]"

let to_median_params p = { Rmedian.tau = p.tau; rho = p.rho; bits = p.bits }

let sample_size ?scale p =
  validate p;
  Rmedian.sample_size ?scale (to_median_params p)

let theoretical_sample_complexity p =
  let log_star =
    Lk_util.Float_utils.iterated_log2 (2. ** float_of_int p.bits) + 1
  in
  let gap = Float.max 1e-12 (p.rho -. p.beta) in
  1. /. (p.tau ** 2. *. gap ** 2.) *. ((12. /. (p.tau ** 2.)) ** float_of_int log_star)

let run params ~shared ~p samples =
  validate params;
  Rmedian.quantile (to_median_params params) ~shared ~p samples

let run_prepared params ~shared ~p sample =
  validate params;
  Rmedian.quantile_prepared (to_median_params params) ~shared ~p sample

let run_via_padding params ~shared ~p samples =
  validate params;
  if not (p > 0. && p < 1.) then invalid_arg "Rquantile.run_via_padding: p must be in (0, 1)";
  let n = Array.length samples in
  if n = 0 then invalid_arg "Rquantile.run_via_padding: empty sample";
  (* x = (1-p)·n copies of −∞ and y = p·n copies of +∞ (x + pn = (1-p)n + y
     with x + y = n), so the median of the 2n-array is the p-quantile of the
     original.  Encode: shift real values by +1; 0 is −∞ and
     2^(bits+1) − 1 is +∞ in the widened domain. *)
  let x = int_of_float (Float.round ((1. -. p) *. float_of_int n)) in
  let y = n - x in
  let wide_bits = params.bits + 1 in
  let neg_inf = 0 and pos_inf = Domain.size wide_bits - 1 in
  let padded = Array.make (2 * n) neg_inf in
  Array.iteri (fun i v -> padded.(i) <- v + 1) samples;
  Array.fill padded n x neg_inf;
  Array.fill padded (n + x) y pos_inf;
  let med_params = { Rmedian.tau = params.tau /. 2.; rho = params.rho; bits = wide_bits } in
  let m = Rmedian.median med_params ~shared padded in
  if m <= neg_inf then Array.fold_left min samples.(0) samples
  else if m >= pos_inf then Array.fold_left max samples.(0) samples
  else min (Domain.size params.bits - 1) (m - 1)
