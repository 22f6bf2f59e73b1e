module Rng = Lk_util.Rng
module Domain = Lk_repro.Domain
module Rmedian = Lk_repro.Rmedian
module Rquantile = Lk_repro.Rquantile
module Harness = Lk_repro.Repro_harness
module Alias = Lk_stats.Alias

(* ---------- Domain ---------- *)

let test_domain_monotone () =
  let rng = Rng.create 1L in
  for _ = 1 to 2000 do
    let a = Rng.uniform rng 0. 50. and b = Rng.uniform rng 0. 50. in
    let lo, hi = if a <= b then (a, b) else (b, a) in
    if Domain.encode lo > Domain.encode hi then
      Alcotest.failf "encode not monotone at %g %g" lo hi
  done

let test_domain_bounds () =
  Alcotest.(check int) "zero" 0 (Domain.encode 0.);
  Alcotest.(check int) "infinity is top" (Domain.size 32 - 1) (Domain.encode infinity);
  Alcotest.(check bool) "finite below top" true (Domain.encode 1e12 < Domain.size 32);
  Alcotest.check_raises "negative" (Invalid_argument "Domain.encode: efficiency must be non-negative")
    (fun () -> ignore (Domain.encode (-1.)))

let test_domain_roundtrip () =
  let rng = Rng.create 2L in
  for _ = 1 to 1000 do
    let e = Rng.uniform rng 0.001 100. in
    let e' = Domain.decode (Domain.encode e) in
    (* decode returns the cell midpoint; relative error shrinks with 2^32
       cells but blows up only near the top of the domain. *)
    if abs_float (e -. e') /. (1. +. e) > 1e-3 then
      Alcotest.failf "roundtrip too lossy: %g vs %g" e e'
  done

let test_exponent_bits () =
  Alcotest.(check int) "32 -> 6" 6 (Domain.exponent_bits 32);
  Alcotest.(check int) "64 -> 7" 7 (Domain.exponent_bits 64);
  Alcotest.(check int) "6 -> 3" 3 (Domain.exponent_bits 6);
  Alcotest.(check int) "1 -> 1" 1 (Domain.exponent_bits 1)

let test_recursion_depth () =
  Alcotest.(check int) "base" 1 (Rmedian.recursion_depth 6);
  Alcotest.(check int) "32-bit" 2 (Rmedian.recursion_depth 32);
  Alcotest.(check int) "62-bit" 2 (Rmedian.recursion_depth 62)

(* ---------- Discrete test distributions ---------- *)

type dist = { values : int array; weights : float array }

let sampler_of dist n rng =
  let alias = Alias.create dist.weights in
  Array.init n (fun _ -> dist.values.(Alias.sample alias rng))

let true_cdf dist x =
  let total = Array.fold_left ( +. ) 0. dist.weights in
  let acc = ref 0. in
  Array.iteri (fun i v -> if v <= x then acc := !acc +. dist.weights.(i)) dist.values;
  !acc /. total

let true_cdf_strict dist x =
  let total = Array.fold_left ( +. ) 0. dist.weights in
  let acc = ref 0. in
  Array.iteri (fun i v -> if v < x then acc := !acc +. dist.weights.(i)) dist.values;
  !acc /. total

(* τ-approximate p-quantile per Definition 2.6 (generalized), with slack
   factor to absorb the implementation's grid-cell overshoot. *)
let is_approx_quantile dist ~p ~tol x =
  true_cdf dist x >= p -. tol && 1. -. true_cdf_strict dist x >= 1. -. p -. tol

let geometric_spread ~count ~start ~factor =
  let values = Array.init count (fun i -> start + int_of_float (float_of_int i ** factor)) in
  { values; weights = Array.make count 1. }

let point_mass_with_noise =
  {
    values = [| 1000; 5_000_000; 9_000_000 |];
    weights = [| 0.2; 0.6; 0.2 |];
  }

let bimodal_gap =
  {
    values = [| 10; 11; 12; 4_000_000_000; 4_000_000_001 |];
    weights = [| 0.2; 0.2; 0.1; 0.25; 0.25 |];
  }

let uniform_block =
  let values = Array.init 500 (fun i -> 1_000_000 + (i * 1234)) in
  { values; weights = Array.make 500 1. }

let evaluate_dist ?(runs = 60) ?(p = 0.5) ~params dist =
  let n = Rmedian.sample_size params in
  Harness.evaluate ~runs ~shared_seed:4242L ~fresh:(Rng.create 777L)
    ~sampler:(sampler_of dist n)
    ~algorithm:(fun ~shared sample -> Rmedian.quantile params ~shared ~p sample)
    ~accurate:(is_approx_quantile dist ~p ~tol:(2. *. params.Rmedian.tau))
    ()

let params_default = { Rmedian.tau = 0.1; rho = 0.15; bits = 32 }

let check_outcome name ?(min_agreement = 0.8) (o : Harness.outcome) =
  if o.Harness.pairwise_agreement < min_agreement then
    Alcotest.failf "%s: pairwise agreement %.3f < %.3f" name o.Harness.pairwise_agreement
      min_agreement;
  if o.Harness.accuracy_rate < 0.95 then
    Alcotest.failf "%s: accuracy rate %.3f < 0.95" name o.Harness.accuracy_rate

let test_rmedian_point_mass () =
  check_outcome "point-mass" ~min_agreement:0.95 (evaluate_dist ~params:params_default point_mass_with_noise)

let test_rmedian_bimodal () =
  check_outcome "bimodal" ~min_agreement:0.75 (evaluate_dist ~params:params_default bimodal_gap)

let test_rmedian_uniform_block () =
  check_outcome "uniform-block" ~min_agreement:0.75 (evaluate_dist ~params:params_default uniform_block)

let test_rmedian_geometric () =
  check_outcome "geometric" ~min_agreement:0.75
    (evaluate_dist ~params:params_default (geometric_spread ~count:400 ~start:100 ~factor:2.5))

let test_rmedian_other_quantiles () =
  List.iter
    (fun p ->
      let o = evaluate_dist ~p ~params:params_default uniform_block in
      check_outcome ~min_agreement:0.75 (Printf.sprintf "uniform-q%.2f" p) o)
    [ 0.1; 0.25; 0.75; 0.9 ]

let test_rmedian_accuracy_tight () =
  (* Accuracy alone (no reproducibility constraint): single runs on many
     fresh samples must all be within tolerance. *)
  let params = { Rmedian.tau = 0.05; rho = 0.3; bits = 32 } in
  let n = Rmedian.sample_size params in
  let fresh = Rng.create 31L in
  for run = 0 to 19 do
    let sample = sampler_of bimodal_gap n fresh in
    let shared = Rng.create (Int64.of_int run) in
    let m = Rmedian.median params ~shared sample in
    if not (is_approx_quantile bimodal_gap ~p:0.5 ~tol:(2. *. params.Rmedian.tau) m) then
      Alcotest.failf "median %d not a valid approximate median (run %d)" m run
  done

let test_rmedian_validation () =
  Alcotest.check_raises "bad tau" (Invalid_argument "Rmedian: tau must be in (0, 1/2]")
    (fun () -> Rmedian.validate { Rmedian.tau = 0.9; rho = 0.1; bits = 32 });
  Alcotest.check_raises "bad bits" (Invalid_argument "Rmedian: bits must be in [1, 62]")
    (fun () -> Rmedian.validate { Rmedian.tau = 0.1; rho = 0.1; bits = 63 })

let test_rmedian_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Rmedian.quantile: empty sample") (fun () ->
      ignore
        (Rmedian.quantile params_default ~shared:(Rng.create 1L) ~p:0.5 [||]))

(* ---------- prepared samples ---------- *)

(* A few heavy values plus a wide spread over the 48-bit domain, so calls
   take both the heavy-point shortcut and the offset grid.  [~wide] spreads
   over the 62-bit domain instead. *)
let clumpy_sample ?(wide = false) ~n seed =
  let rng = Rng.create seed in
  let heavy = if wide then 58 else 20 and mask = if wide then max_int else (1 lsl 48) - 1 in
  Array.init n (fun _ ->
      if Rng.int_bound rng 4 = 0 then 1 lsl (heavy + Rng.int_bound rng 3)
      else if wide then Int64.to_int (Rng.int64 rng) land mask
      else Rng.bits53 rng land mask)

let params_48 = { Rmedian.tau = 0.05; rho = 0.1; bits = 48 }
let params_62 = { params_48 with Rmedian.bits = 62 }

let test_rmedian_pins () =
  (* Values measured when every call re-sorted its own sample and chunks;
     n = 10k runs the bootstrap, n = 1000 does not. *)
  List.iter
    (fun (wide, n, seed, expected) ->
      let params = if wide then params_62 else params_48 in
      let sample = clumpy_sample ~wide ~n seed in
      let prepared = Rmedian.prepare sample in
      List.iteri
        (fun i ((k, p), want) ->
          let shared () = Rng.of_path 3L [ "pin"; string_of_int k ] in
          Alcotest.(check int)
            (Printf.sprintf "bits=%d n=%d p=%g (fresh)" params.Rmedian.bits n p)
            want
            (Rmedian.quantile params ~shared:(shared ()) ~p sample);
          Alcotest.(check int)
            (Printf.sprintf "bits=%d n=%d p=%g (prepared, call %d)" params.Rmedian.bits n p i)
            want
            (Rmedian.quantile_prepared params ~shared:(shared ()) ~p prepared))
        (List.combine [ (1, 0.1); (2, 0.35); (3, 0.5); (4, 0.9) ] expected))
    [
      (false, 1000, 5L, [ 2097152; 28326011636402; 81039775427710; 241127962092200 ]);
      (false, 10_000, 5L, [ 2097152; 35650191051523; 91288576937603; 242498267166150 ]);
      ( true,
        10_000,
        6L,
        [ 288230376151711744; 1062102279533740370; 1485468637564685494; 4000519608246505312 ] );
    ];
  Alcotest.check_raises "empty" (Invalid_argument "Rmedian.prepare: empty sample") (fun () ->
      ignore (Rmedian.prepare [||]))

(* One prepared sample reused across several (p, shared) calls answers as a
   fresh sample per call, below and above the 64 × 64 bootstrap floor, on
   48- and 62-bit values, with and without a scratch (one int too short,
   or large and dirty). *)
let prop_prepared_reuse =
  QCheck.Test.make ~name:"prepared sample reused = fresh sample per call" ~count:40
    QCheck.(
      quad
        (pair (oneofl [ 600; 4095; 4096; 9000 ]) bool)
        int64
        (list_of_size (Gen.int_range 1 5) (pair (float_range 0.02 0.98) int64))
        (oneofl [ `None; `Small; `Dirty ]))
    (fun ((n, wide), seed, calls, scratch) ->
      let sample = clumpy_sample ~wide ~n seed in
      let params = if wide then params_62 else params_48 in
      let scratch =
        match scratch with
        | `None -> None
        | `Small -> Some (Array.make (n - 1) (-3))
        | `Dirty -> Some (Array.make (n + 7) (-5))
      in
      let prepared = Rmedian.prepare ?scratch sample in
      let q_params =
        { Rquantile.tau = params.Rmedian.tau; rho = params.Rmedian.rho; beta = 0.05;
          bits = min 61 params.Rmedian.bits }
      in
      (match scratch with
      | Some b when Array.length b < n -> Array.for_all (( = ) (-3)) b
      | _ -> true)
      && List.for_all
           (fun (p, s) ->
             Rmedian.quantile params ~shared:(Rng.create s) ~p sample
             = Rmedian.quantile_prepared params ~shared:(Rng.create s) ~p prepared
             && Rquantile.run q_params ~shared:(Rng.create s) ~p sample
                = Rquantile.run_prepared q_params ~shared:(Rng.create s) ~p prepared)
           calls)

let test_sample_size_scaling () =
  let p = params_default in
  let base = Rmedian.sample_size p in
  Alcotest.(check bool) "scale halves" true (Rmedian.sample_size ~scale:0.5 p <= base);
  let tighter = Rmedian.sample_size { p with Rmedian.tau = p.Rmedian.tau /. 2. } in
  Alcotest.(check bool) "tighter tau costs more" true (tighter > base)

let test_theoretical_complexity_shape () =
  let c1 = Rmedian.theoretical_sample_complexity { Rmedian.tau = 0.1; rho = 0.1; bits = 8 } in
  let c2 = Rmedian.theoretical_sample_complexity { Rmedian.tau = 0.05; rho = 0.1; bits = 8 } in
  let c3 = Rmedian.theoretical_sample_complexity { Rmedian.tau = 0.1; rho = 0.1; bits = 32 } in
  Alcotest.(check bool) "positive" true (c1 > 0.);
  Alcotest.(check bool) "smaller tau, more samples" true (c2 > c1);
  Alcotest.(check bool) "bigger domain, more samples" true (c3 > c1)

(* ---------- rQuantile ---------- *)

let q_params = { Rquantile.tau = 0.1; rho = 0.2; beta = 0.1; bits = 32 }

let test_rquantile_native_accuracy () =
  let n = Rquantile.sample_size q_params in
  let fresh = Rng.create 53L in
  List.iter
    (fun p ->
      for run = 0 to 9 do
        let sample = sampler_of uniform_block n fresh in
        let shared = Rng.create (Int64.of_int (100 + run)) in
        let v = Rquantile.run q_params ~shared ~p sample in
        if not (is_approx_quantile uniform_block ~p ~tol:0.1 v) then
          Alcotest.failf "native p=%.2f run=%d: %d not within tolerance" p run v
      done)
    [ 0.2; 0.5; 0.8 ]

let test_rquantile_padding_accuracy () =
  let n = Rquantile.sample_size q_params in
  let fresh = Rng.create 54L in
  List.iter
    (fun p ->
      for run = 0 to 9 do
        let sample = sampler_of uniform_block n fresh in
        let shared = Rng.create (Int64.of_int (200 + run)) in
        let v = Rquantile.run_via_padding q_params ~shared ~p sample in
        if not (is_approx_quantile uniform_block ~p ~tol:0.1 v) then
          Alcotest.failf "padded p=%.2f run=%d: %d not within tolerance" p run v
      done)
    [ 0.2; 0.5; 0.8 ]

let test_rquantile_padding_reproducible () =
  let n = Rquantile.sample_size q_params in
  let o =
    Harness.evaluate ~runs:40 ~shared_seed:99L ~fresh:(Rng.create 888L)
      ~sampler:(sampler_of bimodal_gap n)
      ~algorithm:(fun ~shared sample -> Rquantile.run_via_padding q_params ~shared ~p:0.3 sample)
      ~accurate:(is_approx_quantile bimodal_gap ~p:0.3 ~tol:0.1)
      ()
  in
  if o.Harness.pairwise_agreement < 0.85 then
    Alcotest.failf "padded reproducibility %.3f too low" o.Harness.pairwise_agreement;
  if o.Harness.accuracy_rate < 0.95 then
    Alcotest.failf "padded accuracy %.3f too low" o.Harness.accuracy_rate

let test_rquantile_validation () =
  Alcotest.check_raises "beta > rho" (Invalid_argument "Rquantile: beta must be in (0, rho]")
    (fun () -> Rquantile.validate { Rquantile.tau = 0.1; rho = 0.01; beta = 0.5; bits = 32 });
  Alcotest.check_raises "bad p" (Invalid_argument "Rquantile.run_via_padding: p must be in (0, 1)")
    (fun () ->
      ignore (Rquantile.run_via_padding q_params ~shared:(Rng.create 1L) ~p:1. [| 1 |]))

(* ---------- Heavy hitters ---------- *)

module Heavy = Lk_repro.Heavy_hitters

let test_heavy_hitters_detects () =
  let params = { Heavy.threshold = 0.15; rho = 0.25 } in
  let n = Heavy.sample_size params in
  let dist = { values = [| 5; 42; 77; 100 |]; weights = [| 0.5; 0.25; 0.2; 0.05 |] } in
  let fresh = Rng.create 61L in
  for run = 0 to 9 do
    let sample = sampler_of dist n fresh in
    let hits = Heavy.run params ~shared:(Rng.create (Int64.of_int run)) sample in
    let elems = List.map fst hits in
    (* mass >= threshold must be in; mass < threshold/4 must be out *)
    List.iter
      (fun must -> if not (List.mem must elems) then Alcotest.failf "run %d missed %d" run must)
      [ 5; 42; 77 ];
    if List.mem 100 elems then Alcotest.failf "run %d reported light element" run
  done

let test_heavy_hitters_reproducible () =
  let params = { Heavy.threshold = 0.15; rho = 0.25 } in
  let n = Heavy.sample_size params in
  (* Adversarial: one element sits exactly at the threshold. *)
  let dist = { values = [| 1; 2; 3 |]; weights = [| 0.6; 0.3; 0.1 |] } in
  let o =
    Harness.evaluate ~runs:30 ~shared_seed:7L ~fresh:(Rng.create 62L)
      ~sampler:(sampler_of dist n)
      ~algorithm:(fun ~shared sample ->
        (* encode the returned set as a bitmask for the harness *)
        List.fold_left (fun acc (v, _) -> acc lor (1 lsl v)) 0
          (Heavy.run params ~shared sample))
      ~accurate:(fun mask -> mask land 0b0110 = 0b0110)
      ()
  in
  if o.Harness.pairwise_agreement < 0.8 then
    Alcotest.failf "heavy hitters agreement %.3f" o.Harness.pairwise_agreement;
  if o.Harness.accuracy_rate < 0.95 then
    Alcotest.failf "heavy hitters accuracy %.3f" o.Harness.accuracy_rate

let test_heavy_hitters_validation () =
  Alcotest.check_raises "bad threshold"
    (Invalid_argument "Heavy_hitters: threshold must be in (0, 1]") (fun () ->
      Heavy.validate { Heavy.threshold = 0.; rho = 0.1 });
  Alcotest.check_raises "empty" (Invalid_argument "Heavy_hitters.run: empty sample") (fun () ->
      ignore (Heavy.run { Heavy.threshold = 0.1; rho = 0.1 } ~shared:(Rng.create 1L) [||]))

(* ---------- Reproducible mean ---------- *)

module Rmean = Lk_repro.Rmean

let test_rmean_accuracy () =
  let params = { Rmean.tau = 0.05; rho = 0.2 } in
  let n = Rmean.sample_size params in
  let fresh = Rng.create 63L in
  for run = 0 to 9 do
    let sample = Array.init n (fun _ -> Rng.float fresh ** 2.) in
    (* true mean of U^2 = 1/3 *)
    let m = Rmean.run params ~shared:(Rng.create (Int64.of_int run)) sample in
    if abs_float (m -. (1. /. 3.)) > params.Rmean.tau then
      Alcotest.failf "run %d: mean %.4f off target" run m
  done

let test_rmean_reproducible () =
  let params = { Rmean.tau = 0.05; rho = 0.2 } in
  let n = Rmean.sample_size params in
  let o =
    Harness.evaluate ~runs:40 ~shared_seed:11L ~fresh:(Rng.create 64L)
      ~sampler:(fun rng -> Array.init n (fun _ -> if Rng.bernoulli rng 0.37 then 1 else 0))
      ~algorithm:(fun ~shared sample ->
        let floats = Array.map float_of_int sample in
        int_of_float (1e6 *. Rmean.run params ~shared floats))
      ~accurate:(fun micro -> abs_float ((float_of_int micro /. 1e6) -. 0.37) <= 0.05)
      ()
  in
  if o.Harness.pairwise_agreement < 0.8 then
    Alcotest.failf "rmean agreement %.3f" o.Harness.pairwise_agreement;
  if o.Harness.accuracy_rate < 0.95 then Alcotest.failf "rmean accuracy %.3f" o.Harness.accuracy_rate

let test_rmean_validation () =
  Alcotest.check_raises "range" (Invalid_argument "Rmean.run: samples must be in [0, 1]")
    (fun () ->
      ignore (Rmean.run { Rmean.tau = 0.1; rho = 0.1 } ~shared:(Rng.create 1L) [| 2. |]))

(* ---------- Ablation: naive quantile is NOT reproducible ---------- *)

let test_naive_quantile_not_reproducible () =
  (* Plain empirical quantile over a flat region: fresh samples make the
     output jitter, which is precisely the inconsistency the paper's §4.1
     identifies and rQuantile fixes. *)
  let n = Rmedian.sample_size params_default in
  let dist = uniform_block in
  let naive ~shared:_ sample =
    Lk_stats.Empirical.quantile (Lk_stats.Empirical.of_samples sample) 0.5
  in
  let o =
    Harness.evaluate ~runs:40 ~shared_seed:1L ~fresh:(Rng.create 3L) ~sampler:(sampler_of dist n)
      ~algorithm:naive
      ~accurate:(fun _ -> true)
      ()
  in
  let r =
    evaluate_dist ~runs:40 ~params:params_default dist
  in
  if not (r.Harness.pairwise_agreement > o.Harness.pairwise_agreement +. 0.2) then
    Alcotest.failf "rmedian (%.3f) should beat naive (%.3f) by a margin"
      r.Harness.pairwise_agreement o.Harness.pairwise_agreement

(* ---------- QCheck properties ---------- *)

let prop_refine_roundtrip =
  QCheck.Test.make ~name:"refine/coarse roundtrip" ~count:300
    QCheck.(pair (int_bound ((1 lsl 20) - 1)) (int_bound ((1 lsl 16) - 1)))
    (fun (code, salt) ->
      Domain.coarse ~tie_bits:16 (Domain.refine ~tie_bits:16 ~code ~salt) = code)

let prop_refine_monotone =
  QCheck.Test.make ~name:"refine preserves code order" ~count:300
    QCheck.(quad (int_bound 100000) (int_bound 100000) (int_bound 65535) (int_bound 65535))
    (fun (c1, c2, s1, s2) ->
      QCheck.assume (c1 < c2);
      Domain.refine ~tie_bits:16 ~code:c1 ~salt:s1 < Domain.refine ~tie_bits:16 ~code:c2 ~salt:s2)

let prop_encode_monotone =
  QCheck.Test.make ~name:"encode monotone on floats" ~count:300
    QCheck.(pair (float_bound_inclusive 1e6) (float_bound_inclusive 1e6))
    (fun (a, b) ->
      let lo, hi = (Float.min a b, Float.max a b) in
      Domain.encode lo <= Domain.encode hi)

let prop_salt_deterministic =
  QCheck.Test.make ~name:"salt deterministic in (seed, index)" ~count:200
    QCheck.(pair int (int_bound 1_000_000))
    (fun (seed, index) ->
      let s = Int64.of_int seed in
      Domain.salt ~seed:s ~index = Domain.salt ~seed:s ~index)

let () =
  Alcotest.run "reproducible"
    [
      ( "domain",
        [
          Alcotest.test_case "monotone" `Quick test_domain_monotone;
          Alcotest.test_case "bounds" `Quick test_domain_bounds;
          Alcotest.test_case "roundtrip" `Quick test_domain_roundtrip;
          Alcotest.test_case "exponent bits" `Quick test_exponent_bits;
          Alcotest.test_case "recursion depth" `Quick test_recursion_depth;
        ] );
      ( "rmedian",
        [
          Alcotest.test_case "point mass" `Quick test_rmedian_point_mass;
          Alcotest.test_case "bimodal gap" `Quick test_rmedian_bimodal;
          Alcotest.test_case "uniform block" `Quick test_rmedian_uniform_block;
          Alcotest.test_case "geometric spread" `Quick test_rmedian_geometric;
          Alcotest.test_case "other quantiles" `Quick test_rmedian_other_quantiles;
          Alcotest.test_case "accuracy tight" `Quick test_rmedian_accuracy_tight;
          Alcotest.test_case "validation" `Quick test_rmedian_validation;
          Alcotest.test_case "empty sample" `Quick test_rmedian_empty;
          Alcotest.test_case "sample size scaling" `Quick test_sample_size_scaling;
          Alcotest.test_case "theoretical shape" `Quick test_theoretical_complexity_shape;
        ] );
      ( "prepared",
        [
          Alcotest.test_case "pinned quantiles" `Quick test_rmedian_pins;
          QCheck_alcotest.to_alcotest prop_prepared_reuse;
        ] );
      ( "rquantile",
        [
          Alcotest.test_case "native accuracy" `Quick test_rquantile_native_accuracy;
          Alcotest.test_case "padding accuracy" `Quick test_rquantile_padding_accuracy;
          Alcotest.test_case "padding reproducible" `Quick test_rquantile_padding_reproducible;
          Alcotest.test_case "validation" `Quick test_rquantile_validation;
        ] );
      ( "heavy-hitters",
        [
          Alcotest.test_case "detects" `Quick test_heavy_hitters_detects;
          Alcotest.test_case "reproducible" `Quick test_heavy_hitters_reproducible;
          Alcotest.test_case "validation" `Quick test_heavy_hitters_validation;
        ] );
      ( "rmean",
        [
          Alcotest.test_case "accuracy" `Quick test_rmean_accuracy;
          Alcotest.test_case "reproducible" `Quick test_rmean_reproducible;
          Alcotest.test_case "validation" `Quick test_rmean_validation;
        ] );
      ( "ablation",
        [ Alcotest.test_case "naive not reproducible" `Quick test_naive_quantile_not_reproducible ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_refine_roundtrip;
          QCheck_alcotest.to_alcotest prop_refine_monotone;
          QCheck_alcotest.to_alcotest prop_encode_monotone;
          QCheck_alcotest.to_alcotest prop_salt_deterministic;
        ] );
    ]
