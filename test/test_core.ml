module Rng = Lk_util.Rng
module Item = Lk_knapsack.Item
module Instance = Lk_knapsack.Instance
module Solution = Lk_knapsack.Solution
module Access = Lk_oracle.Access
module Params = Lk_lcakp.Params
module Partition = Lk_lcakp.Partition
module Eps = Lk_lcakp.Eps
module Tilde = Lk_lcakp.Tilde
module Convert_greedy = Lk_lcakp.Convert_greedy
module Mapping_greedy = Lk_lcakp.Mapping_greedy
module Lca_kp = Lk_lcakp.Lca_kp
module Iky_value = Lk_lcakp.Iky_value
module Domain = Lk_repro.Domain
module Gen = Lk_workloads.Gen

(* ---------- Params ---------- *)

let test_params_presets () =
  let f = Params.faithful 0.3 in
  Alcotest.(check (float 1e-12)) "faithful tau" (0.09 /. 5.) f.Params.tau;
  Alcotest.(check (float 1e-12)) "faithful rho" (0.09 /. 18.) f.Params.rho;
  let p = Params.practical 0.2 in
  Alcotest.(check (float 1e-12)) "practical tau" 0.05 p.Params.tau;
  Alcotest.(check (float 1e-12)) "practical rho" 0.1 p.Params.rho;
  Alcotest.(check bool) "beta <= rho" true (p.Params.beta <= p.Params.rho)

let test_params_validation () =
  Alcotest.check_raises "epsilon out of range" (Invalid_argument "Params: epsilon must be in (0, 1)")
    (fun () -> ignore (Params.practical 1.5))

let test_params_sizes () =
  let p = Params.practical 0.2 in
  Alcotest.(check bool) "r sample positive" true (Params.r_sample_size p > 0);
  Alcotest.(check bool) "rq sample positive" true (Params.rq_sample_size p > 0);
  Alcotest.(check int) "copies per bucket" 5 (Params.copies_per_bucket p);
  Alcotest.(check (float 1e-12)) "large cutoff" 0.04 (Params.large_profit_cutoff p);
  (* Tighter epsilon must cost more R samples. *)
  Alcotest.(check bool) "r grows as eps shrinks" true
    (Params.r_sample_size (Params.practical 0.1) > Params.r_sample_size (Params.practical 0.3));
  Alcotest.(check bool) "scale reduces rq" true
    (Params.rq_sample_size (Params.practical ~sample_scale:0.1 0.2) < Params.rq_sample_size p)

let test_theoretical_query_complexity () =
  let p = Params.practical 0.2 in
  let c1 = Params.theoretical_query_complexity p ~n:1000 in
  let c2 = Params.theoretical_query_complexity p ~n:1000000 in
  Alcotest.(check bool) "positive" true (c1 > 0.);
  (* log* growth: a 1000x bigger instance costs at most a constant factor. *)
  Alcotest.(check bool) "mild growth in n" true (c2 /. c1 < 10_000.)

(* ---------- Partition ---------- *)

let test_partition_classify () =
  let epsilon = 0.2 in
  (* cutoff = 0.04 *)
  let check_k name expect item =
    Alcotest.(check string) name (Partition.to_string expect)
      (Partition.to_string (Partition.classify ~epsilon item))
  in
  check_k "large" Partition.Large (Item.make ~profit:0.05 ~weight:1.);
  check_k "small" Partition.Small (Item.make ~profit:0.04 ~weight:0.5);
  check_k "garbage" Partition.Garbage (Item.make ~profit:0.01 ~weight:1.);
  (* Zero-weight, tiny-profit: infinite efficiency -> small. *)
  check_k "free item is small" Partition.Small (Item.make ~profit:0.01 ~weight:0.);
  (* Boundary: profit exactly eps^2 is NOT large. *)
  check_k "boundary profit" Partition.Small (Item.make ~profit:0.04 ~weight:0.04)

let test_partition_profile () =
  let inst =
    Instance.of_pairs [ (0.5, 0.2); (0.3, 0.2); (0.1, 0.2); (0.05, 0.2); (0.05, 0.2) ] ~capacity:0.5
  in
  let inst = Instance.normalize inst in
  let profile = Partition.profile ~epsilon:0.3 inst in
  let total = List.fold_left (fun acc (_, mass, _) -> acc +. mass) 0. profile in
  Alcotest.(check (float 1e-9)) "masses sum to 1" 1. total;
  let count = List.fold_left (fun acc (_, _, c) -> acc + c) 0 profile in
  Alcotest.(check int) "counts sum to n" 5 count

(* ---------- Eps ---------- *)

let small_spread_instance n =
  (* No large items: n equal-profit items with efficiencies spread
     geometrically well above eps^2. *)
  let items =
    Array.init n (fun i ->
        let eff = 0.5 *. (1.01 ** float_of_int (i mod 200)) in
        let p = 1. in
        Item.make ~profit:p ~weight:(p /. eff))
  in
  Instance.make items ~capacity:(0.3 *. Lk_util.Float_utils.sum_by (fun (i : Item.t) -> i.Item.weight) items)

let test_eps_empty_when_large_dominates () =
  let p = Params.practical 0.2 in
  let eps = Eps.compute p ~seed:1L ~large_profit:0.95 ~encoded_efficiencies:[| 1; 2; 3 |] in
  Alcotest.(check int) "empty" 0 (Eps.length eps)

let test_eps_monotone_and_buckets () =
  let params = Params.practical ~sample_scale:0.2 0.15 in
  let inst = Instance.normalize (small_spread_instance 5000) in
  let access = Access.of_instance inst in
  let fresh = Rng.create 5L in
  let n_rq = Params.rq_sample_size params in
  let a = 3 * n_rq / 2 in
  let encoded =
    Array.init a (fun _ ->
        let i, it = Access.sample access fresh in
        Params.encode_efficiency params ~seed:7L ~index:i (Item.efficiency it))
  in
  let eps = Eps.compute params ~seed:7L ~large_profit:0. ~encoded_efficiencies:encoded in
  Alcotest.(check bool) "non-trivial" true (Eps.length eps >= 3);
  for k = 2 to Eps.length eps do
    Alcotest.(check bool) "non-increasing" true (Eps.threshold eps k <= Eps.threshold eps (k - 1))
  done;
  (* Bucket masses approximate the q target (loose check: practical preset). *)
  let ok, masses = Eps.is_eps_for params ~seed:7L ~instance:inst eps in
  ignore ok;
  Array.iteri
    (fun b mass ->
      if b < Eps.length eps - 1 then
        Alcotest.(check bool)
          (Printf.sprintf "bucket %d mass %.3f near eps" b mass)
          true
          (mass > 0.05 && mass < 0.35))
    masses

let test_eps_threshold_bounds () =
  let eps = Eps.empty in
  Alcotest.check_raises "out of range" (Invalid_argument "Eps.threshold: index out of range")
    (fun () -> ignore (Eps.threshold eps 1))

(* ---------- Tilde ---------- *)

let few_large_access ?(n = 4000) seed =
  let inst = Gen.generate Gen.Few_large (Rng.create seed) ~n in
  Access.of_instance inst

let test_tilde_collects_large () =
  let params = Params.practical ~sample_scale:0.1 0.2 in
  let access = few_large_access 11L in
  let inst = Access.normalized access in
  let truth = ref [] in
  for i = Instance.size inst - 1 downto 0 do
    if Partition.is_large ~epsilon:0.2 (Instance.item inst i) then truth := i :: !truth
  done;
  let tilde = Tilde.build params access ~seed:3L ~fresh:(Rng.create 21L) in
  Alcotest.(check (list int)) "all large collected (Lemma 4.2)" !truth
    (Array.to_list tilde.Tilde.large_indices)

let test_tilde_equal_across_runs () =
  let params = Params.practical ~sample_scale:1.0 0.25 in
  let access = few_large_access 12L in
  let t1 = Tilde.build params access ~seed:9L ~fresh:(Rng.create 31L) in
  let t2 = Tilde.build params access ~seed:9L ~fresh:(Rng.create 32L) in
  Alcotest.(check bool) "identical tilde (Lemma 4.9 witness)" true (Tilde.equal t1 t2)

let test_tilde_synthetic_items () =
  let params = Params.practical ~sample_scale:0.1 0.2 in
  let access = few_large_access 13L in
  let tilde = Tilde.build params access ~seed:4L ~fresh:(Rng.create 41L) in
  let copies = Params.copies_per_bucket params in
  let synth = Array.to_list tilde.Tilde.items |> List.filter (fun it ->
      match it.Tilde.origin with Tilde.Synthetic _ -> true | Tilde.Original _ -> false) in
  Alcotest.(check int) "copies per bucket"
    (copies * Eps.length tilde.Tilde.eps)
    (List.length synth);
  List.iter
    (fun (it : Tilde.item) ->
      Alcotest.(check (float 1e-9)) "synthetic profit = eps^2" 0.04 it.Tilde.profit;
      Alcotest.(check bool) "positive weight" true (it.Tilde.weight > 0.))
    synth

(* ---------- Convert_greedy on hand-built tilde ---------- *)

(* Tie-break-refined code with the smallest salt, so a plain-encoded item
   with the same efficiency still clears the threshold. *)
let refined params eff =
  Domain.refine ~tie_bits:params.Params.tie_bits ~code:(Domain.encode eff) ~salt:0

let manual_tilde ~items ~eps_codes ~capacity =
  {
    Tilde.items;
    large_indices = [||];
    large_profit = 0.;
    eps = { Eps.codes = eps_codes; q = 0.1; trimmed = false };
    capacity;
    samples_used = 0;
  }

let titem params ~profit ~weight ~origin =
  {
    Tilde.profit;
    weight;
    eff_code =
      Domain.refine ~tie_bits:params.Params.tie_bits
        ~code:(Domain.encode (profit /. weight))
        ~salt:0;
    origin;
  }

let test_convert_greedy_prefix_branch () =
  let params = Params.practical 0.2 in
  (* Two large originals that fit, one that does not. *)
  let items =
    [|
      titem params ~profit:0.5 ~weight:0.1 ~origin:(Tilde.Original 7);
      titem params ~profit:0.3 ~weight:0.2 ~origin:(Tilde.Original 2);
      titem params ~profit:0.2 ~weight:0.9 ~origin:(Tilde.Original 5);
    |]
  in
  let d = Convert_greedy.run params (manual_tilde ~items ~eps_codes:[||] ~capacity:0.35) in
  Alcotest.(check bool) "prefix mode" false d.Convert_greedy.b_indicator;
  Alcotest.(check (list int)) "large prefix" [ 2; 7 ] (Solution.indices d.Convert_greedy.index_large);
  Alcotest.(check int) "no small cutoff" Convert_greedy.no_small_cutoff
    d.Convert_greedy.e_small_code

let test_convert_greedy_singleton_branch () =
  let params = Params.practical 0.2 in
  (* A tempting efficient item, then a huge-profit heavy item: the greedy
     prefix holds only the first; the break item dominates. *)
  let items =
    [|
      titem params ~profit:0.05 ~weight:0.01 ~origin:(Tilde.Original 1);
      titem params ~profit:0.9 ~weight:0.99 ~origin:(Tilde.Original 4);
    |]
  in
  let d = Convert_greedy.run params (manual_tilde ~items ~eps_codes:[||] ~capacity:0.99) in
  Alcotest.(check bool) "singleton mode" true d.Convert_greedy.b_indicator;
  Alcotest.(check (list int)) "break item" [ 4 ] (Solution.indices d.Convert_greedy.index_large)

let test_convert_greedy_small_cutoff () =
  let params = Params.practical 0.2 in
  (* Synthetic-only tilde with 5 buckets; capacity passes 3.5 buckets so the
     break item sits in bucket 3 (k = 4), e_small = ẽ_2. *)
  let effs = [| 2.0; 1.5; 1.0; 0.7; 0.5 |] in
  let eps_codes = Array.map (refined params) effs in
  let items =
    Array.concat
      (List.init 5 (fun b ->
           Array.init 5 (fun _ ->
               titem params ~profit:0.04 ~weight:(0.04 /. effs.(b)) ~origin:(Tilde.Synthetic b))))
  in
  (* bucket weights: 5 copies * 0.04/eff = 0.2/eff: 0.1, 0.133, 0.2, 0.2857, 0.4.
     Capacity breaks inside bucket 3 (whose efficiency is ẽ_4 = 0.7), so
     k = 3 and e_small = ẽ_1. *)
  let capacity = 0.1 +. 0.1333333 +. 0.2 +. 0.1 in
  let d = Convert_greedy.run params (manual_tilde ~items ~eps_codes ~capacity) in
  Alcotest.(check bool) "prefix mode" false d.Convert_greedy.b_indicator;
  Alcotest.(check int) "k cut" 3 d.Convert_greedy.k_cut;
  (match d.Convert_greedy.e_small_code with
  | c when c >= 0 -> Alcotest.(check int) "e_small = e_1" (refined params 2.0) c
  | _ -> Alcotest.fail "expected small cutoff");
  Alcotest.(check bool) "no large" true (Solution.cardinal d.Convert_greedy.index_large = 0)

let test_convert_greedy_oversized_singleton_guard () =
  let params = Params.practical 0.2 in
  (* The break item dominates in profit but violates Definition 2.2's
     per-item weight bound: the singleton branch must not fire. *)
  let items =
    [|
      titem params ~profit:0.05 ~weight:0.01 ~origin:(Tilde.Original 1);
      titem params ~profit:0.9 ~weight:2.0 ~origin:(Tilde.Original 4);
    |]
  in
  let d = Convert_greedy.run params (manual_tilde ~items ~eps_codes:[||] ~capacity:0.5) in
  Alcotest.(check bool) "prefix branch taken" false d.Convert_greedy.b_indicator;
  Alcotest.(check (list int)) "only the fitting item" [ 1 ]
    (Solution.indices d.Convert_greedy.index_large)

let test_convert_greedy_empty_tilde () =
  let params = Params.practical 0.2 in
  let d = Convert_greedy.run params (manual_tilde ~items:[||] ~eps_codes:[||] ~capacity:1.) in
  Alcotest.(check bool) "prefix mode" false d.Convert_greedy.b_indicator;
  Alcotest.(check int) "nothing" 0 (Solution.cardinal d.Convert_greedy.index_large)

(* ---------- Mapping_greedy.member rules ---------- *)

let decision params ?(index_large = []) ?e_small ?(b = false) () =
  {
    Convert_greedy.index_large = Solution.of_indices index_large;
    e_small_code =
      (match e_small with
      | Some e -> refined params e
      | None -> Convert_greedy.no_small_cutoff);
    b_indicator = b;
    prefix_len = 0;
    k_cut = 0;
  }

let test_member_large () =
  let params = Params.practical 0.2 in
  let d = decision params ~index_large:[ 3 ] () in
  let large = Item.make ~profit:0.5 ~weight:0.1 in
  Alcotest.(check bool) "in" true (Mapping_greedy.member params ~seed:1L d large ~index:3);
  Alcotest.(check bool) "out" false (Mapping_greedy.member params ~seed:1L d large ~index:4)

let test_member_small_threshold () =
  let params = Params.practical 0.2 in
  let d = decision params ~e_small:1.0 () in
  let fast = Item.make ~profit:0.01 ~weight:0.005 in
  let slow = Item.make ~profit:0.01 ~weight:0.02 in
  Alcotest.(check bool) "efficient small in" true (Mapping_greedy.member params ~seed:1L d fast ~index:0);
  Alcotest.(check bool) "inefficient small out" false (Mapping_greedy.member params ~seed:1L d slow ~index:1)

let test_member_garbage_never () =
  let params = Params.practical 0.2 in
  (* Even with a cutoff below eps^2 (degenerate EPS), garbage stays out. *)
  let d = decision params ~e_small:0.001 () in
  let garbage = Item.make ~profit:0.01 ~weight:2. in
  Alcotest.(check bool) "garbage out" false (Mapping_greedy.member params ~seed:1L d garbage ~index:0)

let test_member_singleton_blocks_small () =
  let params = Params.practical 0.2 in
  let d = decision params ~index_large:[ 9 ] ~e_small:1.0 ~b:true () in
  let fast = Item.make ~profit:0.01 ~weight:0.005 in
  Alcotest.(check bool) "b_indicator blocks small" false
    (Mapping_greedy.member params ~seed:1L d fast ~index:0)

(* ---------- LCA-KP end-to-end ---------- *)

let test_lcakp_answer_matches_solution () =
  let params = Params.practical ~sample_scale:0.1 0.2 in
  let access = few_large_access ~n:2000 15L in
  let algo = Lca_kp.create params access ~seed:17L in
  let state = Lca_kp.run algo ~fresh:(Rng.create 51L) in
  let sol = Lca_kp.induced_solution algo state in
  for i = 0 to 1999 do
    if Lca_kp.answer algo state i <> Solution.mem i sol then
      Alcotest.failf "answer/solution mismatch at %d" i
  done

let test_lcakp_feasibility_fuzz () =
  (* Lemma 4.7: the induced solution is feasible — across families, sizes,
     epsilons and seeds. *)
  let fresh = Rng.create 99L in
  let cases = ref 0 in
  List.iter
    (fun family ->
      List.iter
        (fun epsilon ->
          List.iter
            (fun seed ->
              let inst = Gen.generate family (Rng.create (Int64.of_int seed)) ~n:600 in
              let access = Access.of_instance inst in
              let params = Params.practical ~sample_scale:0.002 epsilon in
              let algo = Lca_kp.create params access ~seed:(Int64.of_int (seed * 31)) in
              let state = Lca_kp.run algo ~fresh in
              let sol = Lca_kp.induced_solution algo state in
              incr cases;
              if not (Solution.is_feasible (Access.normalized access) sol) then
                Alcotest.failf "infeasible: %s eps=%.2f seed=%d w=%.4f K=%.4f" (Gen.name family)
                  epsilon seed
                  (Solution.weight (Access.normalized access) sol)
                  (Instance.capacity (Access.normalized access)))
            [ 1; 2; 3 ])
        [ 0.1; 0.15; 0.25 ])
    Gen.all_families;
  Alcotest.(check bool) "ran many cases" true (!cases = 90)

let test_lcakp_quality () =
  (* Lemma 4.8 (relaxed constants for the practical preset): the induced
     solution value is at least OPT/2 − c·ε for a small constant c. *)
  let fresh = Rng.create 123L in
  List.iter
    (fun family ->
      let inst = Gen.generate family (Rng.create 77L) ~n:4000 in
      let access = Access.of_instance inst in
      let norm = Access.normalized access in
      let bracket = Lk_knapsack.Reference.estimate norm in
      let epsilon = 0.12 in
      let params = Params.practical ~sample_scale:0.05 epsilon in
      let algo = Lca_kp.create params access ~seed:5L in
      let state = Lca_kp.run algo ~fresh in
      let value = Solution.profit norm (Lca_kp.induced_solution algo state) in
      let bound = (bracket.Lk_knapsack.Reference.lower /. 2.) -. (8. *. epsilon) in
      if value < bound then
        Alcotest.failf "%s: value %.4f below (1/2)OPT - 8eps = %.4f" (Gen.name family) value bound)
    [ Gen.Uniform; Gen.Few_large; Gen.Garbage_mix; Gen.Heavy_tail ]

let test_lcakp_query_is_stateless () =
  let params = Params.practical ~sample_scale:0.1 0.25 in
  let access = few_large_access ~n:1000 18L in
  let algo = Lca_kp.create params access ~seed:6L in
  (* Same fresh seed => identical run => identical answer. *)
  let a1 = Lca_kp.query algo ~fresh:(Rng.create 1L) 5 in
  let a2 = Lca_kp.query algo ~fresh:(Rng.create 1L) 5 in
  Alcotest.(check bool) "deterministic given randomness" true (a1 = a2)

let test_lcakp_order_oblivious () =
  (* Definition 2.4 for the real algorithm, via the harness. *)
  let access = few_large_access ~n:500 22L in
  let params = Params.practical ~sample_scale:0.05 0.25 in
  let lca = Lk_baselines.Baselines.lca_kp params access ~seed:12L in
  Alcotest.(check bool) "order oblivious" true
    (Lk_lca.Consistency.order_oblivious lca ~probes:(Array.init 100 (fun i -> i * 5))
       ~fresh:(Rng.create 3L))

let test_lcakp_samples_counted () =
  let params = Params.practical ~sample_scale:0.1 0.2 in
  let access = few_large_access ~n:1000 19L in
  let algo = Lca_kp.create params access ~seed:8L in
  let counters = Access.counters access in
  Lk_oracle.Counters.reset counters;
  let state = Lca_kp.run algo ~fresh:(Rng.create 2L) in
  Alcotest.(check int) "oracle counter matches state"
    (Lk_oracle.Counters.weighted_samples counters)
    (Lca_kp.samples_per_query algo state);
  Alcotest.(check bool) "at least the R sample" true
    (Lca_kp.samples_per_query algo state >= Params.r_sample_size params)

(* ---------- IKY value approximation (Lemma 4.4 / E8) ---------- *)

let test_iky_value_bound () =
  let fresh = Rng.create 301L in
  List.iter
    (fun family ->
      let inst = Gen.generate family (Rng.create 88L) ~n:1500 in
      let access = Access.of_instance inst in
      let norm = Access.normalized access in
      let bracket = Lk_knapsack.Reference.estimate norm in
      let epsilon = 0.2 in
      let params = Params.practical ~sample_scale:0.1 epsilon in
      let r = Iky_value.approximate_opt params access ~seed:21L ~fresh in
      (* (1, 6eps)-approximation, with slack for the practical preset. *)
      let lo = bracket.Lk_knapsack.Reference.lower -. (8. *. epsilon) in
      let hi = bracket.Lk_knapsack.Reference.upper +. (8. *. epsilon) in
      if not (r.Iky_value.estimate >= lo && r.Iky_value.estimate <= hi) then
        Alcotest.failf "%s: estimate %.4f outside [%.4f, %.4f]" (Gen.name family)
          r.Iky_value.estimate lo hi;
      Alcotest.(check bool) "tilde is constant-size" true (r.Iky_value.tilde_size < 2000))
    [ Gen.Uniform; Gen.Few_large; Gen.Garbage_mix ]

let () =
  Alcotest.run "lcakp-core"
    [
      ( "params",
        [
          Alcotest.test_case "presets" `Quick test_params_presets;
          Alcotest.test_case "validation" `Quick test_params_validation;
          Alcotest.test_case "sample sizes" `Quick test_params_sizes;
          Alcotest.test_case "theoretical complexity" `Quick test_theoretical_query_complexity;
        ] );
      ( "partition",
        [
          Alcotest.test_case "classify" `Quick test_partition_classify;
          Alcotest.test_case "profile" `Quick test_partition_profile;
        ] );
      ( "eps",
        [
          Alcotest.test_case "empty when large dominates" `Quick test_eps_empty_when_large_dominates;
          Alcotest.test_case "monotone + buckets" `Quick test_eps_monotone_and_buckets;
          Alcotest.test_case "threshold bounds" `Quick test_eps_threshold_bounds;
        ] );
      ( "tilde",
        [
          Alcotest.test_case "collects large items" `Quick test_tilde_collects_large;
          Alcotest.test_case "equal across runs" `Quick test_tilde_equal_across_runs;
          Alcotest.test_case "synthetic items" `Quick test_tilde_synthetic_items;
        ] );
      ( "convert-greedy",
        [
          Alcotest.test_case "prefix branch" `Quick test_convert_greedy_prefix_branch;
          Alcotest.test_case "singleton branch" `Quick test_convert_greedy_singleton_branch;
          Alcotest.test_case "small cutoff" `Quick test_convert_greedy_small_cutoff;
          Alcotest.test_case "empty tilde" `Quick test_convert_greedy_empty_tilde;
          Alcotest.test_case "oversized singleton guard" `Quick test_convert_greedy_oversized_singleton_guard;
        ] );
      ( "mapping-greedy",
        [
          Alcotest.test_case "large rule" `Quick test_member_large;
          Alcotest.test_case "small threshold" `Quick test_member_small_threshold;
          Alcotest.test_case "garbage never" `Quick test_member_garbage_never;
          Alcotest.test_case "singleton blocks small" `Quick test_member_singleton_blocks_small;
        ] );
      ( "lca-kp",
        [
          Alcotest.test_case "answers match induced solution" `Quick test_lcakp_answer_matches_solution;
          Alcotest.test_case "feasibility fuzz (Lemma 4.7)" `Quick test_lcakp_feasibility_fuzz;
          Alcotest.test_case "quality (Lemma 4.8)" `Quick test_lcakp_quality;
          Alcotest.test_case "stateless determinism" `Quick test_lcakp_query_is_stateless;
          Alcotest.test_case "sample accounting" `Quick test_lcakp_samples_counted;
          Alcotest.test_case "order obliviousness (Def 2.4)" `Quick test_lcakp_order_oblivious;
        ] );
      ( "iky-value",
        [ Alcotest.test_case "value bound (Lemma 4.4)" `Quick test_iky_value_bound ] );
    ]
